from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rtmotion import qpbuild, qpsolve, runtime
from rtmotion.chain import Pose, inverse_kinematics, load_chain
from rtmotion.planner import CartesianWaypoint, PlanRequest

# every property test replays the same examples and has no time limit: the
# planner is slow next to hypothesis's default deadline on a loaded machine
settings.register_profile("rtmotion", deadline=None, derandomize=True)
settings.load_profile("rtmotion")


def forget_structures() -> None:
    """Empty the one-entry structure memos of qpbuild and qpsolve."""
    qpbuild._last_structure = None
    qpsolve._last = None


@pytest.fixture(autouse=True)
def fresh_structures():
    """Every test starts with no memoized QP structure, whatever ran before."""
    forget_structures()


def data_path(kind: str, name: str) -> Path:
    return Path(str(resources.files("rtmotion").joinpath(f"data/{kind}/{name}")))


@pytest.fixture(scope="session")
def planar2():
    return load_chain(data_path("chains", "planar2.json"))


@pytest.fixture(scope="session")
def arm6():
    return load_chain(data_path("chains", "arm6.json"))


_SCENARIO_CACHE: dict[str, runtime.ScenarioResult] = {}


def scenario_result(name: str) -> runtime.ScenarioResult:
    """Scenario replays are deterministic; run each once per test session."""
    if name not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[name] = runtime.run_scenario(data_path("scenarios", f"{name}.json"))
    return _SCENARIO_CACHE[name]


@pytest.fixture(scope="session")
def draw_line_result():
    return scenario_result("draw-line")


@pytest.fixture(scope="session")
def draw_circle_result():
    return scenario_result("draw-circle")


@pytest.fixture(scope="session")
def chase_result():
    return scenario_result("chase")


@pytest.fixture(scope="session")
def teleop_result():
    return scenario_result("teleop-replay")


# the box teleop-master.csv spans, centre and half range per pose component
# (x, y, z, roll, pitch, yaw); roll and yaw stay 0 there
TELEOP_CENTRE = np.array([0.762417, 0.02, 0.502889, 0.0, -0.170001, 0.0])
TELEOP_HALF = np.array([0.017497, 0.028282, 0.012498, 0.0, 0.029998, 0.0])
TELEOP_PERIOD_S = 0.04  # 25 Hz master samples, one window per sample
TELEOP_BUFFER = 5  # samples per sliding window
TELEOP_REST = np.array([0.0, 0.4, -1.0, 0.0, 0.4, 0.0])  # teleop-replay.json's q0


@dataclass
class TeleopStream:
    """Seeded master samples inside the box of teleop-master.csv and the
    sliding windows over them: window k holds samples k .. k + 4, oldest
    first, 0.04 s each, and is sent when sample k + 4 arrives."""

    samples: np.ndarray  # (count + 4, 6) pose vectors
    q0: np.ndarray  # rest configuration at sample 0's pose

    def poses(self, k: int) -> list[Pose]:
        return [Pose.from_vector(v) for v in self.samples[k : k + TELEOP_BUFFER]]

    def window(self, k: int, poses: list[Pose] | None = None) -> PlanRequest:
        """Window k as a request; poses replaces its samples."""
        waypoints = tuple(CartesianWaypoint(pose, TELEOP_PERIOD_S) for pose in poses or self.poses(k))
        return PlanRequest("sim", waypoints, f"teleop-{k}")

    def send_time(self, k: int) -> float:
        return (k + TELEOP_BUFFER - 1) * TELEOP_PERIOD_S


@pytest.fixture(scope="session")
def teleop_stream(arm6):
    """teleop_stream(seed, count): count windows of a 25 Hz master stream on
    arm6, two sinusoids per moving component at the master log's speeds."""

    def make(seed: int, count: int) -> TeleopStream:
        rng = np.random.default_rng(seed)
        t = np.arange(count + TELEOP_BUFFER - 1)[:, None] * TELEOP_PERIOD_S
        share = rng.uniform(0.3, 0.7, 6)
        wave = sum(
            weight * np.sin(2 * np.pi * rng.uniform(0.08, 0.25, 6) * t + rng.uniform(0, 2 * np.pi, 6))
            for weight in (share, 1.0 - share)
        )
        samples = TELEOP_CENTRE + TELEOP_HALF * wave
        q0 = inverse_kinematics(arm6, Pose.from_vector(samples[0]), TELEOP_REST)
        return TeleopStream(samples, q0)

    return make
