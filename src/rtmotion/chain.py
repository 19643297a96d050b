"""Serial-chain kinematics: forward kinematics, geometric Jacobian, and seeded
damped-least-squares inverse kinematics.

All functions here are pure and operate on immutable inputs, so they are safe
to call from any thread. Orientation is carried everywhere as Z-Y-X intrinsic
Euler angles (roll, pitch, yaw), i.e. R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
The chain walk, the Jacobian and the pose error also take a stack of inputs
over a leading axis, which is how IK solves all of a request's waypoints at
once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

Array = NDArray[np.float64]


class IkConvergenceError(RuntimeError):
    """Raised when the IK iteration exhausts IK_MAX_ITERS without converging;
    index is the position of the failing target in the solved sequence."""

    def __init__(self, message: str, position_error: float, orientation_error: float, index: int = 0):
        super().__init__(message)
        self.position_error = position_error
        self.orientation_error = orientation_error
        self.index = index


def rpy_to_matrix(roll, pitch, yaw) -> Array:
    """Rotation matrix for Z-Y-X intrinsic Euler angles; angle arrays of one
    shape give that shape of matrices, (..., 3, 3)."""
    angles = np.array([roll, pitch, yaw], dtype=float)
    shape = angles.shape[1:] + (3, 3)
    if angles.size == 3:  # one rotation: numpy scalars cost a fraction of 1-element arrays
        angles = angles.reshape(3)
    (cr, cp, cy), (sr, sp, sy) = np.cos(angles), np.sin(angles)
    cy_sp, sy_sp = cy * sp, sy * sp
    rot = np.empty(angles.shape[1:] + (3, 3))
    rot[..., 0, 0] = cy * cp
    rot[..., 0, 1] = cy_sp * sr - sy * cr
    rot[..., 0, 2] = cy_sp * cr + sy * sr
    rot[..., 1, 0] = sy * cp
    rot[..., 1, 1] = sy_sp * sr + cy * cr
    rot[..., 1, 2] = sy_sp * cr - cy * sr
    rot[..., 2, 0] = -sp
    rot[..., 2, 1] = cp * sr
    rot[..., 2, 2] = cp * cr
    return rot.reshape(shape)


def matrix_to_rpy(rot: Array) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) with pitch kept in the (-pi/2, pi/2) branch.

    At the gimbal singularity (|cos(pitch)| ~ 0) roll is fixed to zero and the
    remaining freedom is folded into yaw.
    """
    (r00, r01, _), (r10, r11, _), (r20, r21, r22) = rot.tolist()
    cos_pitch = math.hypot(r00, r10)
    pitch = math.atan2(-r20, cos_pitch)
    if cos_pitch < 1e-12:
        return 0.0, pitch, math.atan2(-r01, r11)
    return math.atan2(r21, r22), pitch, math.atan2(r10, r00)


def make_transform(xyz, rpy) -> Array:
    """Homogeneous 4x4 transform from a translation and Z-Y-X Euler angles."""
    t = np.eye(4)
    t[:3, :3] = rpy_to_matrix(*rpy)
    t[:3, 3] = np.asarray(xyz, dtype=float)
    return t


@dataclass(frozen=True)
class Pose:
    """End-effector pose in the base frame: translation (m) + rpy (rad)."""

    translation: Array
    rpy: Array

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        object.__setattr__(self, "rpy", np.asarray(self.rpy, dtype=float))
        if self.translation.shape != (3,) or self.rpy.shape != (3,):
            raise ValueError("Pose expects 3 translation and 3 Euler components")

    @classmethod
    def of_arrays(cls, translation: Array, rpy: Array) -> "Pose":
        """A Pose of float (3,) arrays finite by construction, held unchecked."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "translation", translation)
        object.__setattr__(pose, "rpy", rpy)
        return pose

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (6,):
            raise ValueError(f"pose vector must have 6 entries, got shape {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("Pose components must be finite")
        return cls(vec[:3], vec[3:])

    def to_vector(self) -> Array:
        return np.concatenate([self.translation, self.rpy])

    def rotation_matrix(self) -> Array:
        return rpy_to_matrix(*self.rpy)


@dataclass(frozen=True)
class ChainConfig:
    """Robot description consumed by the planner and runtime.

    Joint i is revolute about the unit axes[i] of its own frame, which
    offsets[i] (4x4, applied before the joint rotation) places in the parent
    joint's frame: axes is (dof, 3), offsets (dof, 4, 4). joint_limits is
    (dof, 2) [min, max] radians; v_max / a_max are per-joint magnitude
    limits; ee_transform maps the last joint frame to the end-effector frame.

    With K the cross-product matrix of a joint's axis, the joint's rotated
    transform is off + sin(q) offR K + (1 - cos(q)) offR K^2 (Rodrigues);
    offset_k and offset_k2 hold offR K and offR K^2 zero-padded to 4x4,
    (dof, 4, 4), so that sum is one expression of whole transforms.
    """

    axes: Array
    offsets: Array
    joint_limits: Array
    v_max: Array
    a_max: Array
    control_frequency: float
    ee_transform: Array
    name: str = "robot"
    offset_k: Array = field(init=False, repr=False, compare=False)
    offset_k2: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "axes", np.asarray(self.axes, dtype=float))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=float))
        object.__setattr__(self, "joint_limits", np.asarray(self.joint_limits, dtype=float))
        object.__setattr__(self, "v_max", np.asarray(self.v_max, dtype=float))
        object.__setattr__(self, "a_max", np.asarray(self.a_max, dtype=float))
        object.__setattr__(self, "ee_transform", np.asarray(self.ee_transform, dtype=float))
        dof = len(self.axes)
        if dof < 1:
            raise ValueError("chain needs at least one joint")
        if self.axes.shape != (dof, 3) or self.offsets.shape != (dof, 4, 4) or self.ee_transform.shape != (4, 4):
            raise ValueError(f"axes must be ({dof}, 3), offsets ({dof}, 4, 4) and ee_transform (4, 4)")
        norms = np.linalg.norm(self.axes, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError(f"joint axes must be unit vectors, |axis| = {norms}")
        if self.joint_limits.shape != (dof, 2):
            raise ValueError(f"joint_limits must be ({dof}, 2)")
        # written so that NaN fails: every comparison with NaN is False
        lo, hi = self.joint_limits.T
        if not (np.isfinite(self.joint_limits).all() and np.all(lo < hi)):
            raise ValueError("each joint limit must be finite with min < max")
        if self.v_max.shape != (dof,) or not np.all(np.isfinite(self.v_max) & (self.v_max > 0)):
            raise ValueError("v_max must be positive and finite per joint")
        if self.a_max.shape != (dof,) or not np.all(np.isfinite(self.a_max) & (self.a_max > 0)):
            raise ValueError("a_max must be positive and finite per joint")
        if not (math.isfinite(self.control_frequency) and self.control_frequency > 0):
            raise ValueError("control_frequency must be positive and finite")
        frames = np.concatenate([self.ee_transform[None], self.offsets])
        names = ["ee_transform"] + [f"joint {i} offset" for i in range(dof)]
        finite = np.isfinite(frames).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"{names[np.argmin(finite)]} is not finite")
        rots = frames[:, :3, :3]
        gram_error = np.abs(rots @ rots.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
        good = (np.abs(np.linalg.det(rots) - 1.0) <= 1e-9) & (gram_error <= 1e-9)
        if not good.all():
            raise ValueError(f"{names[np.argmin(good)]} rotation is not orthonormal with det +1")
        rodrigues = np.zeros((2, dof, 4, 4))
        rodrigues[0, :, :3, :3] = self.offsets[:, :3, :3] @ _skew(self.axes)
        rodrigues[1, :, :3, :3] = rodrigues[0, :, :3, :3] @ _skew(self.axes)
        object.__setattr__(self, "offset_k", rodrigues[0])
        object.__setattr__(self, "offset_k2", rodrigues[1])

    @property
    def dof(self) -> int:
        return len(self.axes)

    def clamp(self, q: Array) -> Array:
        return np.minimum(np.maximum(q, self.joint_limits[:, 0]), self.joint_limits[:, 1])

    def mid_position(self) -> Array:
        """Midpoint of the joint limits; the default rest configuration."""
        return 0.5 * (self.joint_limits[:, 0] + self.joint_limits[:, 1])


def load_chain(path: str | Traversable) -> ChainConfig:
    """Load a chain description from its JSON file, a path or a zip member.

    Expected keys: dof, joints (list of {axis, offset: {xyz, rpy}}),
    joint_limits, v_max, a_max, control_frequency, ee_offset ({xyz, rpy}).
    """
    path = Path(path) if isinstance(path, str) else path
    raw = json.loads(path.read_text())
    try:
        joints = raw["joints"]
        if raw.get("dof") is not None and raw["dof"] != len(joints):
            raise ValueError(f"{path}: dof {raw['dof']} does not match {len(joints)} joints")
        ee = raw["ee_offset"]
        return ChainConfig(
            axes=[j["axis"] for j in joints],
            offsets=[make_transform(j["offset"]["xyz"], j["offset"]["rpy"]) for j in joints],
            joint_limits=np.asarray(raw["joint_limits"], dtype=float),
            v_max=np.asarray(raw["v_max"], dtype=float),
            a_max=np.asarray(raw["a_max"], dtype=float),
            control_frequency=float(raw["control_frequency"]),
            ee_transform=make_transform(ee["xyz"], ee["rpy"]),
            name=raw.get("name", path.stem),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except TypeError as exc:  # e.g. a list where an object belongs, or a 2-entry rpy
        raise ValueError(f"{path}: malformed chain description: {exc}") from exc


def _check_q(config: ChainConfig, q, stack: bool = False) -> Array:
    """q as a float array of one configuration, (dof,), or with stack also of
    several, (N, dof)."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (config.dof,) or q.ndim > (2 if stack else 1):
        raise ValueError(f"expected {config.dof} joint values, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("joint vector contains non-finite entries")
    return q


# row k: the cross-product matrix of the k-th unit vector, flattened
_SKEW = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
).reshape(3, 9)


def _skew(vectors: Array) -> Array:
    """Cross-product matrices K(v), K(v) @ w = v x w, of (..., 3) vectors."""
    return (vectors @ _SKEW).reshape(vectors.shape[:-1] + (3, 3))


def _joint_transforms(config: ChainConfig, q) -> Array:
    """Every joint's local 4x4 transform, its fixed offset then its own
    rotation, joint-major: (dof, 4, 4) for one checked configuration q,
    (dof, N, 4, 4) for a stack of them, (N, dof)."""
    q = q[..., None, None]
    local = config.offsets + (np.sin(q) * config.offset_k + (1.0 - np.cos(q)) * config.offset_k2)
    return local.swapaxes(0, -3)


def _frames(config: ChainConfig, q: Array) -> tuple[Array, Array]:
    """One walk down the chain: every joint's 4x4 frame in the base frame
    after its fixed offset and its own rotation, shape (dof, 4, 4), and the
    end-effector transform. A stack of configurations q, (N, dof), walks
    them all at once: (N, dof, 4, 4) and (N, 4, 4). q is a float array
    that _check_q would pass.

    A joint's rotation moves neither its origin nor its axis, so frame i
    also carries joint i's origin (its translation) and axis (its rotation
    applied to the joint-frame axis).
    """
    local = _joint_transforms(config, q)
    frames = local.copy()
    for i in range(1, config.dof):
        np.matmul(frames[i - 1], local[i], out=frames[i])
    return frames.swapaxes(0, -3), frames[-1] @ config.ee_transform


def fk_transform(config: ChainConfig, q) -> Array:
    """End-effector 4x4 transform in the base frame of one configuration:
    _frames' product in its order, without the prefixes (_frames walks stacks)."""
    local = _joint_transforms(config, _check_q(config, q))
    return functools.reduce(np.ndarray.dot, local).dot(config.ee_transform)


def forward_kinematics(config: ChainConfig, q) -> Pose:
    """Compose joint transforms in order and extract the end-effector pose
    of one configuration; a q that _check_q passed gives a finite pose."""
    t = fk_transform(config, q)
    return Pose.of_arrays(t[:3, 3].copy(), np.array(matrix_to_rpy(t[:3, :3])))


def jacobian(config: ChainConfig, q, walk: tuple[Array, Array] | None = None) -> Array:
    """Geometric Jacobian of the end-effector in the base frame, (6, dof),
    or (N, 6, dof) for a stack of configurations.

    Rows 0-2 are linear (m/rad), rows 3-5 angular (rad/rad); column i is the
    contribution of joint i. walk is _frames(config, q) when the caller has
    already walked the chain at q.
    """
    frames, ee = walk or _frames(config, _check_q(config, q, stack=True))
    origins = frames[..., :3, 3]
    axes = (frames[..., :3, :3] @ config.axes[:, :, None])[..., 0]
    lever = ee[..., None, :3, 3] - origins
    jac = np.empty(axes.shape[:-2] + (6, config.dof))
    jac[..., :3, :] = (_skew(axes) @ lever[..., None])[..., 0].swapaxes(-1, -2)
    jac[..., 3:, :] = axes.swapaxes(-1, -2)
    return jac


def _shepperd_map() -> Array:
    """Shepperd's symmetric 4x4 matrix, less the identity, as a linear map of
    the row-major flattened rotation, (9, 16): row k of the matrix is the
    quaternion (w, x, y, z) times 4 times its own component k."""
    entries = {
        (0, 0): {0: 1, 4: 1, 8: 1},  # 1 + trace
        (1, 1): {0: 1, 4: -1, 8: -1},  # 1 + 2 r00 - trace
        (2, 2): {0: -1, 4: 1, 8: -1},
        (3, 3): {0: -1, 4: -1, 8: 1},
        (0, 1): {7: 1, 5: -1},  # r21 - r12
        (0, 2): {2: 1, 6: -1},
        (0, 3): {3: 1, 1: -1},
        (1, 2): {1: 1, 3: 1},  # r01 + r10
        (1, 3): {2: 1, 6: 1},
        (2, 3): {5: 1, 7: 1},
    }
    out = np.zeros((9, 4, 4))
    for (a, b), terms in entries.items():
        for k, coefficient in terms.items():
            out[k, a, b] = out[k, b, a] = coefficient
    return out.reshape(9, 16)


_SHEPPERD = _shepperd_map()
_EYE16 = np.eye(4).ravel()


def rotation_log(rot: Array) -> Array:
    """Rotation vector (axis times angle in [0, pi]) of a rotation matrix,
    (3,), or of each of a stack of them, (..., 3, 3) -> (..., 3).

    The quaternion comes by Shepperd's method: the diagonal picks its
    largest component c, and sums and differences of the entries give the
    quaternion times 4c >= 2, so no branch loses digits, near pi included.
    Only the direction of that scaled quaternion is used: the angle is
    2 atan2(|xyz|, w), which keeps its relative precision near 0, and the
    axis xyz / |xyz|.
    """
    lead = rot.shape[:-2]
    shepperd = rot.reshape(-1, 9) @ _SHEPPERD
    shepperd += _EYE16  # 0.0 added off the diagonal turns -0.0 into 0.0: no w below is -0.0
    pick = shepperd[:, ::5].argmax(axis=1)  # the diagonal
    quat = shepperd.reshape(-1, 4, 4)[np.arange(len(pick)), pick]
    w, xyz = quat[:, 0], quat[:, 1:]
    xyz_norm = np.sqrt(np.add.reduce(xyz * xyz, axis=1))
    # the quaternion with w >= 0 gives the angle in [0, pi]
    angle = 2.0 * np.arctan2(xyz_norm, np.abs(w))
    # xyz_norm is 0 only at angle 0, where xyz is 0 too; otherwise it is at
    # least 1e-162, the root of the least double, so the floor only guards 0 / 0
    factor = np.copysign(angle, w) / np.maximum(xyz_norm, 1e-300)
    return (factor[:, None] * xyz).reshape(lead + (3,))


def pose_error(target, current: Array) -> Array:
    """6-vector (position, rotation-vector) error from a current 4x4 transform.

    target is a Pose or (..., 4, 4) target transforms, current (..., 4, 4);
    the two broadcast, and the error is (..., 6). The rotation part is the
    log map of R_target @ R_current^T, which avoids Euler wrap artifacts near
    the representation boundaries.
    """
    if isinstance(target, Pose):
        target = make_transform(target.translation, target.rpy)
    rot = target[..., :3, :3] @ current[..., :3, :3].swapaxes(-1, -2)
    return np.concatenate([target[..., :3, 3] - current[..., :3, 3], rotation_log(rot)], axis=-1)


IK_POS_TOL = 1e-4  # m
IK_ORI_TOL = 1e-3  # rad
IK_MAX_ITERS = 200
IK_DAMPING = 1e-3


# a lockstep solution farther than this from its predecessor's, in any joint,
# may sit on another IK branch than the chained solve; it is solved again,
# seeded from that predecessor (rad)
IK_BRANCH_STEP = 0.5
_SQUARED_TOLS = np.array([IK_POS_TOL, IK_ORI_TOL]) ** 2


def _lockstep(config: ChainConfig, goals: Array, seed: Array, walk: tuple[Array, Array] | None) -> tuple:
    """Damped-least-squares iteration of every goal transform, (N, 4, 4),
    from one clamped seed, in lockstep: each iteration takes one batched
    step for all targets not yet converged. The damping factor adapts per
    target, Levenberg-style (x10 on error increase, /10 on decrease), and
    every iterate is clamped to the joint limits. walk is _frames(config,
    seed), when the caller has it, of a seed within the joint limits.

    Returns the solutions (N, dof), their errors (N, 6), which converged,
    and the solutions' walk, (N, dof, 4, 4) and (N, 4, 4).
    """
    n, dof = len(goals), config.dof
    # one walk down the chain per iteration, and one of the seed unless it
    # is given (copied: rows are replaced below): an accepted iterate's walk
    # gives its next Jacobian
    q = np.empty((n, dof))
    q[:] = seed
    frames, ee = _frames(config, q) if walk is None else (np.repeat(part[None], n, axis=0) for part in walk)
    err = pose_error(goals, ee)
    err_sq, done = _error_norms(err)
    lam = np.full(n, IK_DAMPING)
    for _ in range(IK_MAX_ITERS):
        active = (~done).nonzero()[0]
        if not active.size:
            break
        # views while every target iterates, copies once some have converged
        every = active.size == n
        sub = slice(None) if every else active
        q_sub, lam_sub = q[sub], lam[sub]
        jac = jacobian(config, q_sub, (frames[sub], ee[sub]))
        jac_t = jac.swapaxes(1, 2)
        normal = jac_t @ jac
        normal.reshape(len(jac), -1)[:, :: dof + 1] += lam_sub[:, None]  # the damping on the diagonal
        step = np.linalg.solve(normal, jac_t @ err[sub, :, None])
        q_new = config.clamp(q_sub + step[..., 0])
        frames_new, ee_new = _frames(config, q_new)
        err_new = pose_error(goals[sub], ee_new)
        sq_new, done_new = _error_norms(err_new)
        better = sq_new < err_sq[sub]
        if every and np.count_nonzero(better & done_new) == n:  # every target stepped and converged
            return q_new, err_new, done_new, (frames_new, ee_new)
        lam[sub] = np.where(better, np.maximum(lam_sub / 10.0, 1e-10), np.minimum(lam_sub * 10.0, 1e8))
        stepped = np.count_nonzero(better)
        if every and stepped == n:  # the new iterates replace the old ones
            q, frames, ee, err, err_sq, done = q_new, frames_new, ee_new, err_new, sq_new, done_new
            continue
        if not stepped:
            continue
        accepted = active[better]
        q[accepted] = q_new[better]
        frames[accepted] = frames_new[better]
        ee[accepted] = ee_new[better]
        err[accepted] = err_new[better]
        err_sq[accepted] = sq_new[better]
        done[accepted] = done_new[better]
    return q, err, done, (frames, ee)


def _error_norms(err: Array) -> tuple[Array, Array]:
    """Squared norms of (N, 6) pose errors, and which meet both tolerances."""
    parts = err.reshape(-1, 2, 3)
    sq = np.add.reduce(parts * parts, axis=2)
    within = sq <= _SQUARED_TOLS
    return sq[:, 0] + sq[:, 1], within[:, 0] & within[:, 1]


def inverse_kinematics(config: ChainConfig, targets, seed, walk: tuple[Array, Array] | None = None):
    """Damped-least-squares IK of one target Pose, (dof,), or of a sequence
    of N target Poses, (N, dof), seeded from a reference configuration. An
    (N, 6) array of pose vectors (x, y, z, roll, pitch, yaw) gives the
    (N, dof) solutions and the walk of the last one, as _frames gives it,
    for a solve seeded from that solution: walk is _frames(config, seed)
    when the caller has it, so the seed is not walked again.

    A sequence is solved as the chained rule defines it: target i seeded
    from solution i - 1, target 0 from the seed, so the seed continuity of
    consecutive solves is inherited directly from the iteration. All targets
    are iterated in lockstep from the seed; from the first one that fails
    there or lands more than IK_BRANCH_STEP from its predecessor's solution,
    each is solved again from its predecessor, one at a time.
    Raises IkConvergenceError, naming the first failing target, if one is
    unreachable within IK_MAX_ITERS.
    """
    single, given = isinstance(targets, Pose), isinstance(targets, np.ndarray)
    poses = [targets] if single else targets
    vectors = targets if given else np.array([(p.translation, p.rpy) for p in poses]).reshape(-1, 6)
    q0 = config.clamp(_check_q(config, seed))
    goals = np.zeros((len(vectors), 4, 4))
    goals[:, :3, :3] = rpy_to_matrix(*vectors[:, 3:].T)
    goals[:, :3, 3] = vectors[:, :3]
    goals[:, 3, 3] = 1.0
    q, err, done, (frames, ee) = _lockstep(config, goals, q0, walk)
    redo = ~done
    if len(q) > 1:
        redo[1:] |= np.abs(q[1:] - q[:-1]).max(axis=1) > IK_BRANCH_STEP
    redo = redo.nonzero()[0]
    start = redo[0] if redo.size else len(q)
    for i in range(start, len(q)):
        if i > 0:  # seeded from solution i - 1 and its walk
            row, before = slice(i, i + 1), (frames[i - 1], ee[i - 1])
            q[row], err[row], done[row], (frames[row], ee[row]) = _lockstep(config, goals[row], q[i - 1], before)
        if not done[i]:
            pos_err = float(np.linalg.norm(err[i, :3]))
            ori_err = float(np.linalg.norm(err[i, 3:]))
            raise IkConvergenceError(
                f"IK did not converge after {IK_MAX_ITERS} iterations "
                f"(position error {pos_err:.3e} m, orientation error {ori_err:.3e} rad)",
                pos_err,
                ori_err,
                i,
            )
    return q[0] if single else (q, (frames[-1], ee[-1])) if given else q
