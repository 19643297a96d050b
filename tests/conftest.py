from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

from rtmotion import qpbuild, qpsolve, runtime
from rtmotion.chain import load_chain

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
