"""Low-level motion planner: turns an rt-move-cartesian request into an
evaluable multi-joint trajectory.

Waypoints are resolved to joint space by chained IK in one call (each
solution is the one seeded from the previous solution, the first from the
current position; all are iterated in lockstep; leading waypoints that repeat
the replaced plan's last ones keep its solutions, and the walk of its last
solution seeds the rest), then one minimum-jerk QP per joint is assembled on
a shared segment-time grid and solved as a batch, reusing the replaced plan's
QP structure, with the segment rows the plan is evaluated with, when the
request repeats its durations. Any IK or QP failure rejects the whole request;
a previously active plan is never touched by a failed replan.
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from rtmotion import qpbuild, qpsolve
from rtmotion.chain import ChainConfig, IkConvergenceError, Pose, forward_kinematics, inverse_kinematics
from rtmotion.poly import MIN_DEGREE

Array = NDArray[np.float64]

DEFAULT_DEGREE = 5
REQUEST_TYPE = "rt-move-cartesian"
# admission bounds: QP memory grows about as N times the duration (93 MB at
# 100 x 10 s with no duration repeated), and planning holds the intake lock
MAX_WAYPOINTS = 100
MAX_WAYPOINT_DURATION_S = 10.0


class ValidationError(ValueError):
    """Malformed request content (empty list, bad durations, wrong type)."""


class PlanningError(RuntimeError):
    """Base for runtime planning failures; the whole request is rejected."""

    stage = "plan"


class IkFailure(PlanningError):
    stage = "ik"

    def __init__(self, waypoint_index: int, cause: IkConvergenceError):
        super().__init__(f"IK failed at waypoint {waypoint_index}: {cause}")
        self.waypoint_index = waypoint_index


class QpFailure(PlanningError):
    stage = "qp"

    def __init__(self, joint: int, status: str):
        super().__init__(f"QP for joint {joint} finished with status '{status}'")
        self.joint = joint
        self.status = status


@dataclass(frozen=True)
class CartesianWaypoint:
    """Target end-effector pose plus the time allotted to reach it."""

    pose: Pose
    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise ValidationError(f"duration must be positive, got {self.duration}")


@dataclass(frozen=True, init=False)
class PlanRequest:
    """A request whose waypoints are held once, as the read-only arrays that
    IK, the QP and the plan read: poses (N, 6), each (x, y, z, roll, pitch,
    yaw), and durations (N,) in seconds."""

    robot_id: str
    poses: Array
    durations: Array
    request_id: str
    request_type: str = REQUEST_TYPE

    def __init__(self, robot_id: str, waypoints: Sequence[CartesianWaypoint], request_id: str,
                 request_type: str = REQUEST_TYPE):
        waypoints = tuple(waypoints)
        poses = np.array([(wp.pose.translation, wp.pose.rpy) for wp in waypoints]).reshape(-1, 6)
        self._hold(robot_id, poses, np.array([wp.duration for wp in waypoints], dtype=float), request_id, request_type)

    @classmethod
    def of_arrays(cls, robot_id: str, poses: Array, durations: Array, request_id: str, request_type: str) -> "PlanRequest":
        """A request of (N, 6) pose and (N,) duration float arrays that the caller checked."""
        return object.__new__(cls)._hold(robot_id, poses, durations, request_id, request_type)

    def _hold(self, robot_id, poses, durations, request_id, request_type) -> "PlanRequest":
        self.__dict__.update(robot_id=robot_id, poses=poses, durations=durations, request_id=request_id,
                             request_type=request_type)
        poses.flags.writeable = durations.flags.writeable = False
        return self


@dataclass(frozen=True)
class RobotState:
    """Per-joint position/velocity/acceleration snapshot at a timestamp."""

    q: Array
    qd: Array
    qdd: Array
    timestamp: float = 0.0

    def __post_init__(self):
        for name in ("q", "qd", "qdd"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def of_arrays(cls, q: Array, qd: Array, qdd: Array, timestamp: float) -> "RobotState":
        """A RobotState of float arrays just computed, held unconverted."""
        state = object.__new__(cls)
        object.__setattr__(state, "q", q)
        object.__setattr__(state, "qd", qd)
        object.__setattr__(state, "qdd", qdd)
        object.__setattr__(state, "timestamp", timestamp)
        return state

    @classmethod
    def rest(cls, q, timestamp: float = 0.0) -> "RobotState":
        q = np.asarray(q, dtype=float)
        return cls(q, np.zeros_like(q), np.zeros_like(q), timestamp)


@dataclass(frozen=True)
class Plan:
    """Solved multi-joint trajectory: one coefficient array over the
    segment-time grid that all joints share.

    coeffs[i, :, j] are joint j's coefficients on segment i over normalized
    local time u = (t - start_i) / durations[i] in [0, 1]. poses[i] is the
    pose vector (x, y, z, roll, pitch, yaw) that joint_waypoints[i] solves,
    None for a plan not made from poses. For the plan that replaces it,
    structure is the QP structure the plan was solved on (assemble_qp's, or
    None), and walk the chain walk of joint_waypoints[-1]
    (inverse_kinematics', or None). unit_rows[0][i] and unit_rows[1][i] are
    segment i's state_rows at u = 0 and u = 1, the structure's when it has
    one. Evaluation reads power_table, fixed when the plan is made: row m of
    power_table[i] holds the coefficients of u^m in q, qd and qdd of every
    joint (unit_rows[1] folded into coeffs), so a later write to coeffs shows
    in junction_residuals only.
    """

    chain: ChainConfig
    coeffs: Array  # (N, degree + 1, dof)
    durations: Array  # (N,) seconds
    joint_waypoints: Array  # (N, dof) IK results
    epoch: float
    request_id: str
    solve_time: float = 0.0
    build_time: float = 0.0
    iterations: int = 0
    poses: Optional[Array] = None  # (N, 6)
    structure: Optional[tuple] = field(default=None, repr=False, compare=False)
    walk: Optional[tuple[Array, Array]] = field(default=None, repr=False, compare=False)
    starts: list[float] = field(init=False, repr=False, compare=False)
    spans: list[float] = field(init=False, repr=False, compare=False)  # durations as floats
    unit_rows: Array = field(init=False, repr=False, compare=False)  # (2, N, 3, degree + 1)
    power_table: list[Array] = field(init=False, repr=False, compare=False)  # N x (degree + 1, 3 dof)
    exponents: Array = field(init=False, repr=False, compare=False)  # 0.0, 1.0, ..., degree
    total_time: float = field(init=False)

    def __post_init__(self):
        n, width, dof = self.coeffs.shape
        starts = [0.0] + np.cumsum(self.durations)[:-1].tolist()
        unit_rows = qpbuild.unit_rows(self.degree, self.durations) if self.structure is None else self.structure[3]
        table = np.zeros((n, width, 3, dof))
        for k in range(3):  # u^m's coefficient in order k is unit_rows[1, k, m + k] c_(m + k)
            table[:, : width - k, k] = unit_rows[1, :, k, k:, None] * self.coeffs[:, k:]
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "spans", self.durations.tolist())
        object.__setattr__(self, "unit_rows", unit_rows)
        object.__setattr__(self, "power_table", list(table.reshape(n, width, 3 * dof)))
        object.__setattr__(self, "exponents", np.arange(float(width)))
        object.__setattr__(self, "total_time", starts[-1] + self.spans[-1])

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def joints(self) -> tuple[SimpleNamespace, ...]:
        """Views of coeffs only: joints[j].segments[i].coeffs is coeffs[i, :, j]."""
        views = self.coeffs.transpose(2, 0, 1)
        return tuple(SimpleNamespace(segments=[SimpleNamespace(coeffs=c) for c in v]) for v in views)

    def state_at(self, local_t: float) -> tuple[Array, Array, Array]:
        """Position, velocity and acceleration of every joint at local time t
        (t = 0 is the epoch). Boundary times belong to the later segment;
        from total_time on, the terminal position holds at rest."""
        if not local_t >= 0.0:  # NaN fails too
            raise ValueError(f"t={local_t} precedes trajectory start")
        if local_t >= self.total_time:
            q = self.power_table[-1][:, : self.chain.dof].sum(axis=0)  # the last segment at u = 1
            return q, np.zeros_like(q), np.zeros_like(q)
        i = bisect.bisect_right(self.starts, local_t) - 1
        u = min((local_t - self.starts[i]) / self.spans[i], 1.0)
        row = np.power(u, self.exponents).dot(self.power_table[i])
        n = len(row) // 3
        return row[:n], row[n : 2 * n], row[2 * n :]

    def state(self, t: float) -> RobotState:
        """Commanded reference state at absolute time t."""
        if t < self.epoch:
            raise ValueError(f"t={t} precedes plan epoch {self.epoch}")
        return RobotState.of_arrays(*self.state_at(t - self.epoch), t)

    def junction_residuals(self) -> Array:
        """Worst |left - right| mismatch in (q, qd, qdd) over all joints and
        interior junctions; a solved plan makes these vanish to solver
        tolerance."""
        begins, ends = self.unit_rows[0, 1:] @ self.coeffs[1:], self.unit_rows[1, :-1] @ self.coeffs[:-1]
        return np.abs(ends - begins).max(axis=(0, 2), initial=0.0)


def load_waypoints(path: str | Path) -> list[CartesianWaypoint]:
    """Read a waypoint list file: JSON array of {pose: [6], duration: s}."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return waypoints_from_payload(raw)


def is_number(value) -> bool:
    """Whether a parsed JSON value is a number: JSON's true and false parse
    to bool, which Python counts as an int and float() takes as 1 and 0."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _waypoint_arrays(items: Sequence[dict]) -> tuple[Array, Array]:
    """The (N, 6) pose vectors and (N,) durations of waypoints in the wire
    payload schema, their 7N numbers checked in one pass."""
    if not isinstance(items, list) or not items:
        raise ValidationError("waypoints: empty")
    try:
        rows = [[*item["pose"], item["duration"]] for item in items]
        values = np.array(rows, dtype=float)
        # is_number, once per distinct type: bool refused, int and float subclasses accepted
        kinds = {type(x) for row in rows for x in row}
        numbers = bool not in kinds and all(issubclass(kind, (int, float)) for kind in kinds)
    except (KeyError, TypeError, ValueError, OverflowError):
        numbers = False
    if numbers and values.shape == (len(items), 7) and np.isfinite(values[:, :6]).all() and (values[:, 6] > 0).all():
        return values[:, :6].copy(), values[:, 6].copy()
    for i, item in enumerate(items):  # the first fault, by the checks of one waypoint at a time
        try:
            pose = Pose.from_vector(item["pose"])
            duration = float(item["duration"])
            if not all(map(is_number, [item["duration"], *item["pose"]])):
                raise ValidationError("pose entries and duration must be numbers")
            CartesianWaypoint(pose, duration)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"waypoint {i}: {exc}") from exc
    raise ValidationError("waypoints: malformed")  # not reached: a waypoint above failed


def waypoints_from_payload(items: Sequence[dict]) -> list[CartesianWaypoint]:
    """Build waypoints from the wire payload schema, validating shape."""
    poses, durations = _waypoint_arrays(items)
    return [CartesianWaypoint(Pose.of_arrays(p[:3], p[3:]), d) for p, d in zip(poses, durations.tolist())]


def request_from_payload(payload: dict) -> PlanRequest:
    """The request of one wire payload (schema in rtmotion.iface); the
    waypoints are checked here and the type when it is planned, so a missing
    type is rejected then. Routing on the robot is the caller's."""
    poses, durations = _waypoint_arrays(payload.get("waypoints"))
    return PlanRequest.of_arrays(payload.get("robot"), poses, durations, str(payload.get("id")), payload.get("type", ""))


def _validate_request(request: PlanRequest, chain: ChainConfig) -> None:
    if request.request_type != REQUEST_TYPE:
        raise ValidationError(f"unsupported request type '{request.request_type}'")
    if not len(request.durations):
        raise ValidationError("waypoints: empty")
    if len(request.durations) > MAX_WAYPOINTS:
        raise ValidationError(f"waypoints: {len(request.durations)} exceed {MAX_WAYPOINTS}")
    min_duration = 2.0 / chain.control_frequency
    for i, duration in enumerate(request.durations.tolist()):
        if duration < min_duration:
            raise ValidationError(
                f"waypoint {i}: duration {duration} below two control ticks "
                f"({min_duration})"
            )
        if duration > MAX_WAYPOINT_DURATION_S:
            raise ValidationError(
                f"waypoint {i}: duration {duration} exceeds {MAX_WAYPOINT_DURATION_S} s"
            )


def _repeated(previous: Optional[Plan], poses: Array, chain: ChainConfig) -> int:
    """How many leading pose vectors repeat, bit for bit, the trailing ones
    of a previous plan on the same chain object; the longest such run."""
    if previous is None or previous.chain is not chain or previous.poses is None:
        return 0
    old, new = previous.poses.tobytes(), poses.tobytes()
    row = len(new) // len(poses)
    for kept in range(min(len(previous.poses), len(poses)), 0, -1):
        if old[len(old) - kept * row :] == new[: kept * row]:
            return kept
    return 0


def _solve_joint_waypoints(
    request: PlanRequest, chain: ChainConfig, q0: Array, previous: Optional[Plan]
) -> tuple[Array, tuple[Array, Array]]:
    """The chained IK of the request's poses, d_0 the current position, and
    the walk of the last solution. Leading poses that repeat the previous
    plan's trailing poses keep its solutions; the rest are solved in one
    call, seeded from the last kept solution and its walk, so a kept
    solution is never solved or walked again."""
    poses = request.poses
    kept = _repeated(previous, poses, chain)
    joint_targets = np.empty((len(poses), chain.dof))
    if kept:
        joint_targets[:kept] = previous.joint_waypoints[-kept:]
    if kept == len(poses):
        return joint_targets, previous.walk
    seed, walk = (joint_targets[kept - 1], previous.walk) if kept else (q0, None)
    try:
        joint_targets[kept:], walk = inverse_kinematics(chain, poses[kept:], seed, walk)
    except IkConvergenceError as exc:
        raise IkFailure(kept + exc.index, exc) from exc
    return joint_targets, walk


def plan(
    request: PlanRequest,
    chain: ChainConfig,
    s0: RobotState,
    degree: int = DEFAULT_DEGREE,
    *,
    previous: Optional[Plan] = None,
) -> Plan:
    """Plan a request starting from s0; the epoch is s0.timestamp.

    The returned trajectory starts at s0 exactly, passes through the IK image
    of every waypoint at its cumulative time, ends at the final target at
    rest, and respects the velocity/acceleration limits at the QP's samples:
    round(f_c D) + 1 evenly spaced per segment of D seconds. Those samples
    are control ticks only when every duration is a whole number of control
    periods; otherwise a tick may exceed a limit slightly (up to 5.5e-4
    rad/s over v_max was measured at the ticks of plans whose limits bind).
    The QP bounds no position, so s0 may lie past a joint limit (IK clamps
    its own seed).

    previous is the plan this one replaces: when the request's leading poses
    repeat its trailing poses bit for bit on the same chain object, their
    joint solutions are kept and only the new poses are solved, seeded from
    the last kept solution (IkFailure still counts waypoints from the
    request's first). Its QP structure is reused when the request repeats
    its degree, control frequency and durations.
    """
    _validate_request(request, chain)
    if degree < MIN_DEGREE:
        raise ValidationError(f"polynomial degree must be >= {MIN_DEGREE}, got {degree}")
    if s0.q.shape != (chain.dof,) or not np.isfinite(s0.q).all():
        raise ValidationError(f"initial state must hold {chain.dof} finite values, one per chain dof")

    joint_targets, walk = _solve_joint_waypoints(request, chain, s0.q, previous)

    t_build0 = time.perf_counter()
    try:
        problem = qpbuild.assemble_qp(
            list(zip(joint_targets, request.durations)), np.stack([s0.q, s0.qd, s0.qdd]),
            degree, chain.control_frequency, chain.v_max, chain.a_max, None if previous is None else previous.structure,
        )
    except qpbuild.QpBuildError as exc:  # e.g. too few coefficients for the equality rows
        raise ValidationError(str(exc)) from exc
    build_time = time.perf_counter() - t_build0

    batch = qpsolve.solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper, start=problem.start)
    if batch.status != qpsolve.STATUS_SOLVED:
        failing = int(np.argmax(~batch.converged)) if not batch.converged.all() else 0
        raise QpFailure(failing, batch.status)

    return Plan(
        chain=chain,
        coeffs=batch.p.reshape(len(joint_targets), degree + 1, chain.dof),
        durations=request.durations,
        joint_waypoints=joint_targets,
        epoch=s0.timestamp,
        request_id=request.request_id,
        solve_time=batch.solve_time,
        build_time=build_time,
        iterations=batch.iterations,
        poses=request.poses,
        structure=problem.structure,
        walk=walk,
    )


def reference_at(plan_: Plan, t: float) -> tuple[RobotState, Pose]:
    """Commanded reference state and its end-effector pose at absolute time t.

    Past the end of the trajectory the terminal position holds with zero
    velocity and acceleration; evaluation is on demand (no sampled table).
    """
    state = plan_.state(t)
    return state, forward_kinematics(plan_.chain, state.q)
