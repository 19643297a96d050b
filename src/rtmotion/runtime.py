"""Execution pipeline against a simulated arm.

A Session owns the atomically swappable active Plan plus the telemetry sink.
Request intake (submit) may block on planning; the tick path never does: it
reads the plan handle once, evaluates the reference and its end-effector pose
(one forward kinematics), advances the simulated arm, and appends one record.
Scenario scripts drive a session on a logical clock so the shipped experiment
replays are deterministic; the live network service drives the same session
from wall-clock threads.
"""

from __future__ import annotations

import csv
import json
import sys
import threading
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.typing import NDArray

from rtmotion import planner
from rtmotion.chain import ChainConfig, Pose, forward_kinematics, load_chain
from rtmotion.planner import Plan, PlanRequest, RobotState

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable  # Path, or a member of a zip archive

Array = NDArray[np.float64]

DEFAULT_TOL = 1e-6  # a scenario assert's tolerance when it gives none
MAX_SCENARIO_S = 600.0  # latest event t and longest settle_time, which bound a run's length


class ScenarioError(RuntimeError):
    """Script-level failure: an event did not play out as the script demands."""


@dataclass
class SimArm:
    """Stand-in for the hardware driver plus encoder readback: the encoder
    reads the reference, clamped to the joint limits."""

    chain: ChainConfig
    encoder_state: RobotState

    def advance(self, reference: RobotState) -> RobotState:
        q = self.chain.clamp(reference.q)
        self.encoder_state = RobotState.of_arrays(q, reference.qd, reference.qdd, reference.timestamp)
        return self.encoder_state


@dataclass(frozen=True)
class TelemetryRecord:
    t: float
    reference: RobotState
    encoder: RobotState
    ee_pose_ref: Pose
    active_request_id: Optional[str]


@dataclass
class RequestRecord:
    request_id: str
    t_submitted: float
    accepted: bool
    reason: Optional[str] = None
    solve_time: float = 0.0
    preempted_request: Optional[str] = None
    # |new - old| reference mismatch (q, qd, qdd) at the swap instant
    preemption_jump: Optional[tuple[float, float, float]] = None
    junction_residual: Optional[tuple[float, float, float]] = None


class Session:
    """One robot's execution state: plan handle, simulated arm, telemetry.

    history bounds how many telemetry and request records are kept (the
    newest); None keeps them all.
    """

    def __init__(
        self,
        chain: ChainConfig,
        initial_q,
        robot_id: str = "sim",
        history: Optional[int] = None,
    ):
        self.chain = chain
        self.robot_id = robot_id
        self.fc = chain.control_frequency
        q0 = np.asarray(initial_q, dtype=float)
        if q0.shape != (chain.dof,) or not np.isfinite(q0).all():
            raise ValueError(f"q0 must hold {chain.dof} finite joint values")
        self._hold = RobotState.rest(chain.clamp(q0))
        self.arm = SimArm(chain, self._hold)
        self.active_plan: Optional[Plan] = None
        self.telemetry: deque[TelemetryRecord] = deque(maxlen=history)
        self.requests: deque[RequestRecord] = deque(maxlen=history)
        self._last_t: Optional[float] = None
        self._intake_lock = threading.Lock()

    def reference(self, t: float) -> RobotState:
        plan_ = self.active_plan  # read once: swap is atomic
        if plan_ is None:
            return RobotState.of_arrays(self._hold.q, self._hold.qd, self._hold.qdd, t)
        # a tick or receipt stamp may trail the epoch of a plan swapped in
        # meanwhile; the plan's initial state equals the old reference there,
        # so evaluating at the epoch stays continuous
        return plan_.state(max(t, plan_.epoch))

    def tick(self, t: float) -> TelemetryRecord:
        if not -np.inf < t < np.inf:  # a NaN stamp would pass every later regression check
            raise ValueError(f"tick at non-finite time {t}")
        if self._last_t is not None and t < self._last_t - 1e-12:
            raise RuntimeError(f"clock regression: tick at {t} after {self._last_t}")
        plan_ = self.active_plan
        if plan_ is None:
            ref = RobotState.of_arrays(self._hold.q, self._hold.qd, self._hold.qdd, t)
            pose = forward_kinematics(self.chain, ref.q)
            request_id = None
        else:
            ref, pose = planner.reference_at(plan_, max(t, plan_.epoch))
            if ref.timestamp != t:
                ref = RobotState.of_arrays(ref.q, ref.qd, ref.qdd, t)
            request_id = plan_.request_id
        record = TelemetryRecord(
            t=t,
            reference=ref,
            encoder=self.arm.advance(ref),
            ee_pose_ref=pose,
            active_request_id=request_id,
        )
        self.telemetry.append(record)
        self._last_t = t
        return record

    def submit(self, request: PlanRequest, t_now: float) -> RequestRecord:
        """Plan (idle) or preempt (active) at receipt time t_now, starting
        from the commanded reference (not the measured state) so the command
        stream stays C2 continuous regardless of tracking error. The active
        plan is handed to the planner, which keeps its joint solutions of
        the poses the request repeats and its QP structure.

        A rejected request leaves the active plan untouched. Serialized so
        concurrent clients multiplex onto one intake activity.
        """
        if not -np.inf < t_now < np.inf:  # a NaN epoch would fail every later tick
            raise ValueError(f"request at non-finite time {t_now}")
        with self._intake_lock:
            old_plan = self.active_plan
            record = RequestRecord(request_id=request.request_id, t_submitted=t_now, accepted=False)
            start = self.reference(t_now)
            try:
                new_plan = planner.plan(request, self.chain, start, previous=old_plan)
            except (planner.ValidationError, planner.PlanningError) as exc:
                record.reason = f"{getattr(exc, 'stage', 'validation')}: {exc}"
                self.requests.append(record)
                return record
            record.accepted = True
            record.solve_time = new_plan.solve_time
            jr = new_plan.junction_residuals()
            record.junction_residual = (float(jr[0]), float(jr[1]), float(jr[2]))
            if old_plan is not None:
                record.preempted_request = old_plan.request_id
                q, qd, qdd = new_plan.state_at(0.0)
                record.preemption_jump = (
                    float(np.max(np.abs(q - start.q))),
                    float(np.max(np.abs(qd - start.qd))),
                    float(np.max(np.abs(qdd - start.qdd))),
                )
            self.active_plan = new_plan  # atomic swap
            self.requests.append(record)
            return record


def handle_payload(sessions: dict[str, Session], payload: dict, t_now: float) -> dict:
    """The ack of one request payload (schema in rtmotion.iface) applied to the
    named robot's session, by the one rule of the wire and of scenario scripts:
    'accepted' only after IK and the QP succeed; a rejection keeps the plan."""
    request_id = payload.get("id")
    robot = payload.get("robot")
    session = sessions.get(robot) if isinstance(robot, str) else None
    if session is None:
        return {"id": request_id, "status": "rejected", "reason": f"unknown robot '{robot}'"}
    try:
        request = planner.request_from_payload(payload)
    except planner.ValidationError as exc:
        return {"id": request_id, "status": "rejected", "reason": f"validation: {exc}"}
    record = session.submit(request, t_now)
    if record.accepted:
        return {"id": request_id, "status": "accepted"}
    return {"id": request_id, "status": "rejected", "reason": record.reason}


@dataclass
class ScenarioScript:
    """Parsed scenario file plus the expanded, time-sorted event list."""

    name: str
    chain: ChainConfig
    q0: Array
    settle_time: float
    events: list[dict]
    shape: Optional[dict] = None
    master_samples: Optional[list[tuple[float, Array]]] = None


def _resolve(base_dir: Traversable, kind: str, name: str | Path) -> Traversable:
    """name under base_dir, else the packaged data/<kind>/name file, which
    is a member of the archive when rtmotion is imported from a zip."""
    for candidate in (base_dir / name, resources.files("rtmotion").joinpath(f"data/{kind}/{name}")):
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(f"cannot resolve {kind} file '{name}'")


def _send_request(t: float, request_id: str, poses, duration: float) -> dict:
    """The event that sends one scripted request: every pose with the same duration."""
    waypoints = [{"pose": pose.tolist(), "duration": duration} for pose in poses]
    request = {"id": request_id, "robot": "sim", "type": planner.REQUEST_TYPE, "waypoints": waypoints}
    return {"t": t, "action": "send_request", "request": request}


def _expand_chase(raw: dict, events: list[dict]) -> list[dict]:
    """Turn move_target observations into preempting single-waypoint requests.

    Grasp (stop of the target) triggers when the observed displacement drops
    below the policy epsilon between consecutive update cycles; a final
    request is issued toward the stopped target and a grasp marker recorded.
    Perception and grasping live here in the script, not in the planner.
    """
    policy = raw["chase"]
    duration = float(policy.get("request_duration", 1.5))
    eps = float(policy.get("grasp_epsilon_m", 0.002))
    out = []
    prev_pos = None
    grasped = False
    counter = 0
    for event in events:
        if event["action"] != "move_target":
            out.append(event)
            continue
        if grasped:
            continue
        pose = np.asarray(event["pose"], dtype=float)
        displacement = None if prev_pos is None else float(np.linalg.norm(pose[:3] - prev_pos))
        prev_pos = pose[:3]
        counter += 1
        out.append(_send_request(event["t"], f"chase-{counter}", [pose], duration))
        if displacement is not None and displacement < eps:
            out.append({"t": event["t"], "action": "marker", "label": "grasp_triggered"})
            grasped = True
    return out


def _expand_teleop(raw: dict, base_dir: Traversable) -> tuple[list[dict], list[tuple[float, Array]]]:
    """Build sliding-window buffered requests from the recorded master log.

    At each send instant the request carries the buffer_size most recent
    master poses, oldest first, each with the fixed waypoint duration; every
    new window preempts the previous one.
    """
    policy = raw["teleop"]
    log_path = _resolve(base_dir, "scenarios", policy["master_log"])
    buffer_size = int(policy.get("buffer_size", 5))
    wp_duration = float(policy.get("waypoint_duration_s", 0.04))
    samples: list[tuple[float, Array]] = []
    with log_path.open(newline="") as fh:
        rows = csv.DictReader(fh, restval="")  # a short row's missing cell fails float()
        missing = [k for k in ("timestamp", "x", "y", "z", "roll", "pitch", "yaw") if k not in (rows.fieldnames or ())]
        if missing:
            raise ScenarioError(f"{log_path}: the master log has no '{missing[0]}' column")
        for row in rows:
            pose = np.array(
                [float(row[k]) for k in ("x", "y", "z", "roll", "pitch", "yaw")]
            )
            stamp = float(row["timestamp"])
            if not -np.inf < stamp < np.inf:  # an event never due would keep the run ticking
                raise ScenarioError(f"{log_path}: the master log has a non-finite timestamp {stamp}")
            samples.append((stamp, pose))
    poses = [pose for _, pose in samples]
    events = [
        _send_request(samples[k][0], f"teleop-{k}", poses[k - buffer_size + 1 : k + 1], wp_duration)
        for k in range(buffer_size - 1, len(samples))
    ]
    return events, samples


def _check_shape(raw, path: Traversable) -> None:
    """The keys and event shapes the runner reads without further checks."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: a scenario is a JSON object")
    for key in ("chain", "q0"):
        if key not in raw:
            raise ScenarioError(f"{path}: missing '{key}'")
    if not isinstance(raw["chain"], str):
        raise ScenarioError(f"{path}: 'chain' must be a string")
    if not (isinstance(raw["q0"], list) and all(map(planner.is_number, raw["q0"]))):
        raise ScenarioError(f"{path}: 'q0' must be a list of numbers")
    for key in ("chase", "teleop"):
        if not isinstance(raw.get(key, {}), dict):
            raise ScenarioError(f"{path}: '{key}' must be an object")
    if "teleop" in raw and not isinstance(raw["teleop"].get("master_log"), str):
        raise ScenarioError(f"{path}: 'teleop' needs a string 'master_log'")
    # compared with the largest float: NaN, inf and an int too large for a float fail
    for key in ("settle_time", "fc"):
        if not (planner.is_number(value := raw.get(key, 0.0)) and 0 <= value <= sys.float_info.max):
            raise ScenarioError(f"{path}: '{key}' must be finite and >= 0")
    if raw.get("settle_time", 0.0) > MAX_SCENARIO_S:
        raise ScenarioError(f"{path}: 'settle_time' must be at most {MAX_SCENARIO_S:g} s")
    for block, key in (("chase", "request_duration"), ("chase", "grasp_epsilon_m"), ("teleop", "waypoint_duration_s")):
        if not (planner.is_number(value := raw.get(block, {}).get(key, 1.0)) and 0 < value <= sys.float_info.max):
            raise ScenarioError(f"{path}: '{block}' needs a '{key}' that is finite and > 0")
    size = raw.get("teleop", {}).get("buffer_size", 5)
    if not (planner.is_number(size) and isinstance(size, int) and size >= 1):
        raise ScenarioError(f"{path}: 'teleop' needs a 'buffer_size' that is an integer >= 1")
    events = raw.get("events", [])
    if not isinstance(events, list):
        raise ScenarioError(f"{path}: 'events' must be a list")
    for i, event in enumerate(events):
        t = event.get("t") if isinstance(event, dict) else None
        if not (planner.is_number(t) and abs(t) <= sys.float_info.max and "action" in event):
            raise ScenarioError(f"{path}: event {i} must be an object with a finite 't' and an 'action'")
        if t > MAX_SCENARIO_S:
            raise ScenarioError(f"{path}: event {i} has a 't' later than {MAX_SCENARIO_S:g} s")
        action, pose, tol = event["action"], event.get("pose"), event.get("tol", DEFAULT_TOL)
        if action == "marker" and "label" not in event:
            raise ScenarioError(f"{path}: event {i} is a marker without a 'label'")
        if action == "send_request" and not isinstance(event.get("request"), dict):
            raise ScenarioError(f"{path}: event {i} sends a request that is not an object")
        if action == "move_target" and not _is_numbers(pose, 6):
            raise ScenarioError(f"{path}: event {i} moves the target without a 'pose' of 6 numbers")
        if action == "assert" and not (planner.is_number(tol) and 0 <= tol <= sys.float_info.max):
            raise ScenarioError(f"{path}: event {i} asserts with a 'tol' that is not finite and >= 0")
        if action == "assert" and event.get("check") == "near_pose" and not _is_numbers(pose, 3, 6):
            raise ScenarioError(f"{path}: event {i} asserts near_pose without a 'pose' of 3 or 6 numbers")


def _is_numbers(value, *lengths: int) -> bool:
    """Whether value is a list of numbers of one of the given lengths."""
    return isinstance(value, list) and len(value) in lengths and all(map(planner.is_number, value))


def load_scenario(path: str | Path) -> ScenarioScript:
    path = _resolve(Path("."), "scenarios", path)
    raw = json.loads(path.read_text())
    _check_shape(raw, path)
    base_dir = path.parent
    chain = load_chain(_resolve(base_dir, "chains", raw["chain"]))
    events = list(raw.get("events", []))
    master_samples = None
    if "chase" in raw:
        events = _expand_chase(raw, events)
    if "teleop" in raw:
        teleop_events, master_samples = _expand_teleop(raw, base_dir)
        events = events + teleop_events
    events.sort(key=lambda e: e["t"])
    fc = float(raw.get("fc", chain.control_frequency))
    if fc != chain.control_frequency:  # the QP samples the limits at the chain's rate
        raise ScenarioError(
            f"scenario fc {fc} Hz differs from chain '{chain.name}' at {chain.control_frequency} Hz"
        )
    return ScenarioScript(
        name=raw.get("name", path.stem),
        chain=chain,
        q0=np.asarray(raw["q0"], dtype=float),
        settle_time=float(raw.get("settle_time", 0.5)),
        events=events,
        shape=raw.get("shape"),
        master_samples=master_samples,
    )


def state_columns(dof: int) -> list[str]:
    """The leading columns of the CSV exports: t, q0, qd0, qdd0, q1, ..."""
    return ["t"] + [f"{name}{j}" for j in range(dof) for name in ("q", "qd", "qdd")]


def state_cells(t: float, q, qd, qdd, *more) -> list[str]:
    """The cells of state_columns, then of the arrays more: shortest round-trip reprs."""
    values = np.concatenate([np.stack([q, qd, qdd], axis=1).ravel(), *more])
    return [repr(float(t))] + [repr(v) for v in values.tolist()]


@dataclass
class ScenarioResult:
    script: ScenarioScript
    session: Session
    markers: list[tuple[float, str]]
    summary: dict

    def write_log_csv(self, path: str | Path) -> None:
        dof = self.script.chain.dof
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            columns = state_columns(dof) + [f"enc_q{j}" for j in range(dof)]
            writer.writerow(columns + ["x", "y", "z", "roll", "pitch", "yaw", "request"])
            for rec in self.session.telemetry:
                ref = rec.reference
                cells = state_cells(rec.t, ref.q, ref.qd, ref.qdd, rec.encoder.q, rec.ee_pose_ref.to_vector())
                writer.writerow(cells + [rec.active_request_id or ""])

    def write_report(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary, indent=2))


def _dot(u: Array, v: Array) -> Array:
    """Row-wise products of (N, 3) arrays, as (N, 1, 3) @ (N, 3, 1): each
    rounds as the 1-D `@` of its two rows does, which einsum does not."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _path_deviation(chain: ChainConfig, archive: dict[str, Plan], t: Array, request_ids: Array, ee: Array) -> float:
    """Max distance from the reference end-effector path to the chord between
    the bracketing waypoints of whichever plan was active at each tick."""
    deviation = 0.0
    for request_id, plan_ in archive.items():
        bounds = np.cumsum(plan_.durations)
        local = t - plan_.epoch
        ticks = (request_ids == request_id) & (local < bounds[-1])
        idx = np.searchsorted(bounds, local[ticks], side="right")
        joints = [plan_.state_at(0.0)[0], *plan_.joint_waypoints]
        anchors = np.array([forward_kinematics(chain, q).translation for q in joints])
        a, ab, p = anchors[idx], anchors[idx + 1] - anchors[idx], ee[ticks]
        denom = _dot(ab, ab)
        s = np.clip(_dot(p - a, ab) / np.maximum(denom, 1e-18), 0.0, 1.0)
        gap = p - (a + np.where(denom < 1e-18, 0.0, s)[:, None] * ab)
        deviation = max(deviation, float(np.sqrt(_dot(gap, gap)).max(initial=0.0)))
    return deviation


def _teleop_delay(t: Array, ee: Array, samples: list[tuple[float, Array]]) -> dict:
    """Median lag between a master pose timestamp and the tick at which the
    commanded end-effector passes closest to it."""
    delays = []
    for stamp, pose in samples:
        if stamp < 1.0 or stamp + 0.5 > t[-1]:
            continue
        dist = np.linalg.norm(ee - pose[:3], axis=1)
        delays.append(float(t[int(np.argmin(dist))] - stamp))
    if not delays:
        return {}
    delays = np.array(delays)
    return {
        "samples": int(delays.size),
        "median_s": float(np.median(delays)),
        "p10_s": float(np.percentile(delays, 10)),
        "p90_s": float(np.percentile(delays, 90)),
    }


def run_scenario(script: ScenarioScript | str | Path) -> ScenarioResult:
    """Execute the scripted request schedule on a simulated clock at the chain's rate."""
    if not isinstance(script, ScenarioScript):
        script = load_scenario(script)
    chain = script.chain
    session = Session(chain, script.q0)
    archive: dict[str, Plan] = {}
    dt = 1.0 / chain.control_frequency
    markers: list[tuple[float, str]] = []

    # to the last event, or settle_time past the end of the last accepted plan
    pending = script.events  # sorted by load_scenario
    horizon = max([script.settle_time] + [event["t"] for event in pending])
    cursor = 0
    k = 0
    while cursor < len(pending) or k <= round(horizon * chain.control_frequency):
        t = k * dt
        while cursor < len(pending) and pending[cursor]["t"] <= t + 1e-9:
            event = pending[cursor]
            cursor += 1
            if event["action"] == "send_request":
                # the wire's rule: a rejected request fails the script
                ack = handle_payload({session.robot_id: session}, event["request"], t)
                if ack["status"] != "accepted":
                    raise ScenarioError(
                        f"scenario '{script.name}': request {event['request'].get('id')} "
                        f"at t={t:.3f} rejected ({ack['reason']})"
                    )
                plan_ = session.active_plan
                archive[plan_.request_id] = plan_
                horizon = max(horizon, event["t"] + plan_.total_time + script.settle_time)
            elif event["action"] == "marker":
                markers.append((t, event["label"]))
            elif event["action"] == "assert":
                _run_assert(event, session, t)
            elif event["action"] == "move_target":
                pass  # consumed by the chase expansion; bare targets are inert
            else:
                raise ScenarioError(f"unknown scenario action '{event['action']}'")
        session.tick(t)
        k += 1

    summary = _summarize(session, script, markers, archive)
    return ScenarioResult(script=script, session=session, markers=markers, summary=summary)


def _run_assert(event: dict, session: Session, t: float) -> None:
    check = event.get("check")
    tol = float(event.get("tol", DEFAULT_TOL))
    ref = session.reference(t)
    if check == "at_rest":
        worst = max(float(np.max(np.abs(ref.qd))), float(np.max(np.abs(ref.qdd))))
        if worst > tol:
            raise ScenarioError(f"assert at_rest failed at t={t}: residual motion {worst:.2e}")
    elif check == "near_pose":
        target = np.asarray(event["pose"], dtype=float)
        ee = forward_kinematics(session.chain, ref.q).translation
        gap = float(np.linalg.norm(ee - target[:3]))
        if gap > tol:
            raise ScenarioError(f"assert near_pose failed at t={t}: {gap:.4f} m from target")
    else:
        raise ScenarioError(f"unknown assert check '{check}'")


def _summarize(
    session: Session,
    script: ScenarioScript,
    markers: list[tuple[float, str]],
    archive: dict[str, Plan],
) -> dict:
    chain = script.chain
    accepted = [r for r in session.requests if r.accepted]
    preemptions = [r for r in accepted if r.preemption_jump is not None]
    # one walk of the log, which run_scenario never leaves empty
    rows = (
        (r.t, r.active_request_id, r.ee_pose_ref.translation, r.reference.q, r.reference.qd, r.reference.qdd)
        for r in session.telemetry
    )
    t, request_ids, ee, q, qd, qdd = (np.array(column) for column in zip(*rows))
    violations = int(np.sum(np.any(np.abs(qd) > chain.v_max + 1e-6, axis=1) | np.any(np.abs(qdd) > chain.a_max + 1e-6, axis=1)))
    step_bound = chain.v_max / chain.control_frequency * (1.0 + 1e-3)
    # residuals and jumps are >= 0, so the initial 0.0 stands for none
    junctions = np.reshape([r.junction_residual for r in accepted], (-1, 3))
    jumps = np.reshape([r.preemption_jump for r in preemptions], (-1, 3))
    summary = {
        "scenario": script.name,
        "fc": chain.control_frequency,
        "ticks": len(t),
        "requests_accepted": len(accepted),
        "requests_rejected": len(session.requests) - len(accepted),
        "preemptions": len(preemptions),
        "max_junction_residual": junctions.max(axis=0, initial=0.0).tolist(),
        "max_preemption_jump": jumps.max(axis=0, initial=0.0).tolist(),
        "limit_violation_ticks": violations,
        "max_velocity_excess": float(np.max(np.abs(qd) - chain.v_max)),
        "max_acceleration_excess": float(np.max(np.abs(qdd) - chain.a_max)),
        "max_tick_step_ratio": float(np.max(np.abs(np.diff(q, axis=0)) / step_bound, initial=0.0)),
        "terminal_velocity": float(np.max(np.abs(qd[-1]))),
        "terminal_acceleration": float(np.max(np.abs(qdd[-1]))),
        "solve_time_median_s": float(np.median([r.solve_time for r in accepted])) if accepted else 0.0,
        "solve_time_max_s": float(np.max([r.solve_time for r in accepted])) if accepted else 0.0,
        "markers": [{"t": stamp, "label": label} for stamp, label in markers],
    }
    if script.shape:
        summary["path_deviation_m"] = _path_deviation(chain, archive, t, request_ids, ee)
    if script.master_samples is not None:
        summary["pipeline_delay"] = _teleop_delay(t, ee, script.master_samples)
    return summary
