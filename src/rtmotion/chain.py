"""Serial-chain kinematics: forward kinematics, geometric Jacobian, and seeded
damped-least-squares inverse kinematics.

All functions here are pure and operate on immutable inputs, so they are safe
to call from any thread. Orientation is carried everywhere as Z-Y-X intrinsic
Euler angles (roll, pitch, yaw), i.e. R = Rz(yaw) @ Ry(pitch) @ Rx(roll).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]


class IkConvergenceError(RuntimeError):
    """Raised when the IK iteration exhausts IK_MAX_ITERS without converging."""

    def __init__(self, message: str, position_error: float, orientation_error: float):
        super().__init__(message)
        self.position_error = position_error
        self.orientation_error = orientation_error


def rpy_to_matrix(roll: float, pitch: float, yaw: float) -> Array:
    """Rotation matrix for Z-Y-X intrinsic Euler angles."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def matrix_to_rpy(rot: Array) -> tuple[float, float, float]:
    """Extract (roll, pitch, yaw) with pitch kept in the (-pi/2, pi/2) branch.

    At the gimbal singularity (|cos(pitch)| ~ 0) roll is fixed to zero and the
    remaining freedom is folded into yaw.
    """
    cos_pitch = math.hypot(rot[0, 0], rot[1, 0])
    pitch = math.atan2(-rot[2, 0], cos_pitch)
    if cos_pitch < 1e-12:
        return 0.0, pitch, math.atan2(-rot[0, 1], rot[1, 1])
    roll = math.atan2(rot[2, 1], rot[2, 2])
    yaw = math.atan2(rot[1, 0], rot[0, 0])
    return roll, pitch, yaw


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
        if not (np.isfinite(self.translation).all() and np.isfinite(self.rpy).all()):
            raise ValueError("Pose components must be finite")

    @classmethod
    def from_vector(cls, vec) -> "Pose":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (6,):
            raise ValueError(f"pose vector must have 6 entries, got shape {vec.shape}")
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
    """

    axes: Array
    offsets: Array
    joint_limits: Array
    v_max: Array
    a_max: Array
    control_frequency: float
    ee_transform: Array
    name: str = "robot"

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
        if self.axes.shape != (dof, 3) or self.offsets.shape != (dof, 4, 4):
            raise ValueError(f"axes must be ({dof}, 3) and offsets ({dof}, 4, 4)")
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
        rots = np.concatenate([self.ee_transform[None, :3, :3], self.offsets[:, :3, :3]])
        gram_error = np.abs(rots @ rots.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2))
        good = (np.abs(np.linalg.det(rots) - 1.0) <= 1e-9) & (gram_error <= 1e-9)
        if not np.all(good):
            bad = int(np.argmin(good))
            name = "ee_transform" if bad == 0 else f"joint {bad - 1} offset"
            raise ValueError(f"{name} rotation is not orthonormal with det +1")

    @property
    def dof(self) -> int:
        return len(self.axes)

    def clamp(self, q: Array) -> Array:
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])

    def mid_position(self) -> Array:
        """Midpoint of the joint limits; the default rest configuration."""
        return 0.5 * (self.joint_limits[:, 0] + self.joint_limits[:, 1])


def load_chain(path: str | Path) -> ChainConfig:
    """Load a chain description from its JSON file format.

    Expected keys: dof, joints (list of {axis, offset: {xyz, rpy}}),
    joint_limits, v_max, a_max, control_frequency, ee_offset ({xyz, rpy}).
    """
    path = Path(path)
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


def _check_q(config: ChainConfig, q) -> Array:
    q = np.asarray(q, dtype=float)
    if q.shape != (config.dof,):
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
    """Cross-product matrices K(v), K(v) @ w = v x w, of (n, 3) vectors."""
    return (vectors @ _SKEW).reshape(-1, 3, 3)


def _axis_rotation(axes: Array, angles: Array) -> Array:
    """Rodrigues' formula R = I + sin(a) K + (1 - cos(a)) K^2, written as
    cos(a) I + sin(a) K + (1 - cos(a)) k k^T, for unit axes k of shape
    (n, 3) and angles a of shape (n,): the (n, 3, 3) rotation matrices."""
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    outer = axes[:, :, None] * axes[:, None, :]
    return c * np.eye(3) + s * _skew(axes) + (1.0 - c) * outer


def _frames(config: ChainConfig, q) -> tuple[Array, Array]:
    """One walk down the chain: every joint's 4x4 frame in the base frame
    after its fixed offset and its own rotation, shape (dof, 4, 4), and the
    end-effector transform.

    A joint's rotation moves neither its origin nor its axis, so frame i
    also carries joint i's origin (its translation) and axis (its rotation
    applied to the joint-frame axis).
    """
    q = _check_q(config, q)
    local = config.offsets.copy()
    local[:, :3, :3] = config.offsets[:, :3, :3] @ _axis_rotation(config.axes, q)
    frames = np.empty_like(local)
    frames[0] = local[0]
    for i in range(1, config.dof):
        np.matmul(frames[i - 1], local[i], out=frames[i])
    return frames, frames[-1] @ config.ee_transform


def fk_transform(config: ChainConfig, q) -> Array:
    """End-effector 4x4 transform in the base frame."""
    return _frames(config, q)[1]


def forward_kinematics(config: ChainConfig, q) -> Pose:
    """Compose joint transforms in order and extract the end-effector pose."""
    t = fk_transform(config, q)
    return Pose(t[:3, 3].copy(), np.array(matrix_to_rpy(t[:3, :3])))


def jacobian(config: ChainConfig, q, walk: tuple[Array, Array] | None = None) -> Array:
    """Geometric Jacobian of the end-effector in the base frame.

    Rows 0-2 are linear (m/rad), rows 3-5 angular (rad/rad); column i is the
    contribution of joint i. walk is _frames(config, q) when the caller has
    already walked the chain at q.
    """
    frames, ee = walk or _frames(config, q)
    origins = frames[:, :3, 3]
    axes = (frames[:, :3, :3] @ config.axes[:, :, None])[:, :, 0]
    jac = np.empty((6, config.dof))
    jac[:3] = (_skew(axes) @ (ee[:3, 3] - origins)[:, :, None])[:, :, 0].T
    jac[3:] = axes.T
    return jac


def rotation_log(rot: Array) -> Array:
    """Rotation vector (axis times angle in [0, pi]) of a rotation matrix.

    The quaternion comes by Shepperd's method: the diagonal picks its
    largest component c, and sums and differences of the entries give the
    quaternion times 4c >= 2, so no branch loses digits, near pi included.
    Only the direction of that scaled quaternion is used.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot.tolist()
    trace = r00 + r11 + r22
    pick = max(trace, r00, r11, r22)
    if pick == trace:
        w = 1.0 + trace
        x, y, z = r21 - r12, r02 - r20, r10 - r01
    elif pick == r00:
        x = 1.0 + 2.0 * r00 - trace
        w, y, z = r21 - r12, r01 + r10, r02 + r20
    elif pick == r11:
        y = 1.0 + 2.0 * r11 - trace
        w, x, z = r02 - r20, r01 + r10, r12 + r21
    else:
        z = 1.0 + 2.0 * r22 - trace
        w, x, y = r10 - r01, r02 + r20, r12 + r21
    if w < 0.0:  # the quaternion with w >= 0 gives the angle in [0, pi]
        w, x, y, z = -w, -x, -y, -z
    xyz_norm = math.sqrt(x * x + y * y + z * z)
    norm = math.sqrt(w * w + xyz_norm * xyz_norm)
    angle = 2.0 * math.atan2(xyz_norm, w)
    # angle / sin(angle / 2), by its series where the quotient loses digits
    if angle <= 1e-3:
        scale = 2.0 + angle * angle / 12.0 + 7.0 * angle**4 / 2880.0
    else:
        scale = angle / math.sin(0.5 * angle)
    scale /= norm
    return np.array([scale * x, scale * y, scale * z])


def pose_error(target: Pose, current: Array) -> Array:
    """6-vector (position, rotation-vector) error from a current 4x4 transform.

    The rotation part is the log map of R_target @ R_current^T, which avoids
    Euler wrap artifacts near the representation boundaries.
    """
    pos_err = target.translation - current[:3, 3]
    rot_err = rotation_log(target.rotation_matrix() @ current[:3, :3].T)
    return np.concatenate([pos_err, rot_err])


IK_POS_TOL = 1e-4  # m
IK_ORI_TOL = 1e-3  # rad
IK_MAX_ITERS = 200
IK_DAMPING = 1e-3


def inverse_kinematics(config: ChainConfig, target: Pose, seed) -> Array:
    """Damped-least-squares IK seeded from a reference configuration.

    The damping factor adapts Levenberg-style (x10 on error increase, /10 on
    decrease) and every iterate is clamped to the joint limits, so the seed
    continuity of consecutive solves is inherited directly from the iteration.
    Raises IkConvergenceError if the target is unreachable within IK_MAX_ITERS.
    """
    q = config.clamp(_check_q(config, seed))
    lam = IK_DAMPING
    # one walk down the chain per iterate: the accepted iterate's walk gives
    # the next Jacobian
    walk = _frames(config, q)
    err = pose_error(target, walk[1])
    err_norm = np.linalg.norm(err)
    eye = np.eye(config.dof)
    for _ in range(IK_MAX_ITERS):
        pos_err = np.linalg.norm(err[:3])
        ori_err = np.linalg.norm(err[3:])
        if pos_err <= IK_POS_TOL and ori_err <= IK_ORI_TOL:
            return q
        jac = jacobian(config, q, walk)
        step = np.linalg.solve(jac.T @ jac + lam * eye, jac.T @ err)
        q_new = config.clamp(q + step)
        walk_new = _frames(config, q_new)
        err_new = pose_error(target, walk_new[1])
        new_norm = np.linalg.norm(err_new)
        if new_norm < err_norm:
            q, err, err_norm, walk = q_new, err_new, new_norm, walk_new
            lam = max(lam / 10.0, 1e-10)
        else:
            lam = min(lam * 10.0, 1e8)
    pos_err = float(np.linalg.norm(err[:3]))
    ori_err = float(np.linalg.norm(err[3:]))
    if pos_err <= IK_POS_TOL and ori_err <= IK_ORI_TOL:
        return q
    raise IkConvergenceError(
        f"IK did not converge after {IK_MAX_ITERS} iterations "
        f"(position error {pos_err:.3e} m, orientation error {ori_err:.3e} rad)",
        pos_err,
        ori_err,
    )
