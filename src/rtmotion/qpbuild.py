"""Per-joint minimum-jerk QP assembly.

The decision vector stacks the (L+1) polynomial coefficients of the N
segments. The cost is the block-diagonal Gram matrix of sampled
third-derivative basis rows; equalities pin the initial state, the terminal
rest state, waypoint pass-through, and junction continuity; inequalities
bound velocity and acceleration on the same sampling grid as the cost, in
two-sided interval form l <= A p <= u (equality rows are tight intervals).
Every row is poly.state_rows of the segment, so it carries the D**-k scaling
that a plan is evaluated with.
A segment of D seconds has round(f_c * D) + 1 samples (at least 2), so one
of whole control periods is sampled on every tick it spans. Only the bounds
differ between joints: assemble_qp builds one column of them per joint.

A is held as BlockRows: the 4N+2 equality rows form a dense head (continuity
rows span two segments), and the limit rows form one (R, L+1) block per
segment, so products with A cost O(N * R * (L+1)) for the tail instead of
O(m * n). Every block has as many rows as the longest segment's: a shorter
segment repeats the limit rows of its last tick, which adds copies of rows
it already has and so no constraint. assemble_qp computes the sample grid
once, for the cost and the limit rows, and builds the limit rows straight
into the problem's one BlockRows, which the solver iterates on as it is.
Q and A depend on (degree, durations, control frequency) alone: assemble_qp
keeps the last such structure, read-only, and a request that repeats it (a
teleop window) gets the same Q and BlockRows and builds only its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

# basis_row is imported but not called: perfbench's COUNTED table and
# test_runtime's no-basis_row tick test look the name up in this module, and
# tests/test_trace_tables.py fails without it
from rtmotion.poly import MIN_DEGREE, basis_row, state_rows  # noqa: F401

Array = NDArray[np.float64]

RIDGE = 1e-9


class QpBuildError(ValueError):
    """Structurally invalid problem (bad inputs or rank-deficient equalities)."""


def _block_diagonal(blocks: Array) -> Array:
    """The (N*r, N*c) block-diagonal matrix of (N, r, c) blocks."""
    n_blocks, n_rows, n_cols = blocks.shape
    out = np.zeros((n_blocks, n_rows, n_blocks, n_cols))
    diagonal = np.arange(n_blocks)
    out[diagonal, :, diagonal, :] = blocks
    return out.reshape(n_blocks * n_rows, n_blocks * n_cols)


class BlockRows:
    """Constraint rows: a dense head stacked above a block-diagonal tail.

    head is (m_head, n); blocks is (N, R, w) with n = N * w, and block i acts
    on columns i*w .. (i+1)*w. The rows are the head rows, then the rows of
    each block in block order: toarray, row_norms, dot, tdot and gram all
    use that one order. A dense matrix is the case of a tail with no rows
    (wrap).
    """

    def __init__(self, head: Array, blocks: Array):
        n_blocks, n_tail, width = blocks.shape
        if head.ndim != 2 or head.shape[1] != n_blocks * width:
            raise QpBuildError("head and blocks disagree on the column count")
        self.head = head
        self.blocks = blocks
        self._blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
        self.shape = (head.shape[0] + n_blocks * n_tail, head.shape[1])

    @classmethod
    def wrap(cls, a) -> "BlockRows":
        """a itself if it is BlockRows, else a dense matrix as a head."""
        if isinstance(a, cls):
            return a
        a = np.asarray(a, dtype=float)
        return cls(a, np.zeros((1, 0, a.shape[1])))

    def toarray(self) -> Array:
        return np.vstack([self.head, _block_diagonal(self.blocks)])

    def __array__(self, dtype=None, copy=None):
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype)

    def row_norms(self) -> Array:
        """Max-abs of each row, as max(max, -min): abs would copy the rows. The
        tail's come from the transposed blocks, since numpy reduces a short
        contiguous axis (a block row) one row at a time."""
        head, tail = (np.maximum(r.max(axis=1, initial=0.0), -r.min(axis=1, initial=0.0))
                      for r in (self.head, self._blocks_t))
        return np.concatenate([head, tail.ravel()])

    def dot(self, x: Array) -> Array:
        """A x, for x of shape (n, k)."""
        n_blocks, _, width = self.blocks.shape
        # a Fortran-ordered x (as LAPACK returns it) would reshape to a strided
        # view that matmul cannot hand to BLAS
        x = np.ascontiguousarray(x)
        tail = np.matmul(self.blocks, x.reshape(n_blocks, width, x.shape[1]))
        return np.concatenate([self.head @ x, tail.reshape(-1, x.shape[1])])

    def tdot(self, y: Array) -> Array:
        """A^T y, for y of shape (m, k)."""
        m_head = self.head.shape[0]
        n_blocks, n_tail, _ = self.blocks.shape
        tail = np.matmul(self._blocks_t, y[m_head:].reshape(n_blocks, n_tail, y.shape[1]))
        return self.head.T @ y[:m_head] + tail.reshape(-1, y.shape[1])

    def gram(self, weights: Array) -> Array:
        """A^T diag(weights) A, for one weight per row."""
        m_head = self.head.shape[0]
        tail_w = weights[m_head:].reshape(self.blocks.shape[:2])[..., None]
        tail = np.matmul(self._blocks_t, self.blocks * tail_w)
        return (self.head.T * weights[:m_head]) @ self.head + _block_diagonal(tail)


@dataclass
class QpProblem:
    """min p^T Q p  subject to  lower <= A p <= upper.

    The first n_eq rows of A are equalities (lower == upper). a_matrix is
    BlockRows (or a dense array); lower and upper follow its rows, with one
    column per joint when they are 2-D.
    """

    q_matrix: Array
    a_matrix: BlockRows | Array
    lower: Array
    upper: Array
    n_eq: int

    @property
    def n_vars(self) -> int:
        return self.q_matrix.shape[0]

    def validate(self) -> None:
        n = self.n_vars
        rows = BlockRows.wrap(self.a_matrix)
        if self.q_matrix.shape != (n, n):
            raise QpBuildError("Q must be square")
        if not np.isfinite(self.q_matrix).all():
            raise QpBuildError("Q must be finite")
        if np.max(np.abs(self.q_matrix - self.q_matrix.T)) > 0:
            raise QpBuildError("Q must be symmetric")
        if rows.shape[1] != n:
            raise QpBuildError("A column count must match Q")
        if self.lower.shape != self.upper.shape or self.lower.shape[0] != rows.shape[0]:
            raise QpBuildError("bounds must match A row count")
        # an infinite bound leaves a row free; NaN compares False either way
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise QpBuildError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise QpBuildError("lower bounds exceed upper bounds")
        if np.any(rows.row_norms() == 0.0):
            raise QpBuildError("A contains an all-zero row")


def _sample_grid(durations: Array, control_frequency: float) -> tuple[Array, NDArray[np.bool_]]:
    """Each segment's max(2, round(f_c * D) + 1) normalized sample times over
    [0, 1], one per control tick, padded by repeating u = 1 to a common length:
    the (N, S) sample times and the (N, S) mask of each segment's own."""
    if not np.all(np.isfinite(durations) & (durations > 0)):
        raise QpBuildError("segment duration must be positive and finite")
    if not (np.isfinite(control_frequency) and control_frequency > 0):
        raise QpBuildError("control frequency must be positive and finite")
    counts = np.maximum(2, np.round(control_frequency * durations).astype(int) + 1)
    steps = np.arange(counts.max())
    u = steps * (1.0 / (counts - 1))[:, None]  # np.linspace's arithmetic
    u[steps >= counts[:, None] - 1] = 1.0
    return u, steps < counts[:, None]


def _jerk_blocks(degree: int, durations: Array, u: Array, real: NDArray[np.bool_]) -> Array:
    """The (N, L+1, L+1) jerk cost of every segment: the Gram matrix, symmetric
    PSD, of its third-derivative rows on its _sample_grid, scaled by D**-6."""
    rows = state_rows(degree, u, durations[:, None], orders=(3,))[:, :, 0]
    rows[~real] = 0.0
    q = np.matmul(rows.transpose(0, 2, 1), rows)
    return 0.5 * (q + q.transpose(0, 2, 1))


def _equality_rhs(targets: Array, initial_states: Array) -> Array:
    """Right-hand side of build_equality's rows, one column per entry of the
    (N, k) waypoint targets and the (3, k) initial (q, qd, qdd) states."""
    n_seg = targets.shape[0]
    b_eq = np.zeros((4 * n_seg + 2,) + targets.shape[1:])
    b_eq[:3] = initial_states
    b_eq[3] = targets[-1]
    b_eq[6::4] = targets[:-1]  # pass-through row of each interior junction
    return b_eq


# from this degree on the equality rows have full row rank whatever N and the
# durations: segment by segment, the start rows fix coefficients 0-2 and the
# end rows, through a nonsingular 3x3 system, coefficients 3-5, so every
# right-hand side is reached
FULL_RANK_DEGREE = 5


def _equality_rows(degree: int, durations: Array) -> Array:
    """build_equality's A_eq for positive durations."""
    n_seg = len(durations)
    # every row is a segment's start or end (q, qd, qdd) row
    start = state_rows(degree, 0.0, durations)
    end = state_rows(degree, 1.0, durations)
    a_eq = np.zeros((4 * n_seg + 2, n_seg, degree + 1))
    a_eq[0:3, 0] = start[0]  # initial state of segment 1
    a_eq[3:6, -1] = end[-1]  # terminal rest at the last waypoint
    # per interior junction i: pass-through row, then three continuity rows
    junctions = a_eq[6:].reshape(n_seg - 1, 4, n_seg, degree + 1)
    i = np.arange(n_seg - 1)
    junctions[i, 0, i] = end[:-1, 0]
    junctions[i, 1:, i] = end[:-1]
    junctions[i, 1:, i + 1] = -start[1:]
    return a_eq.reshape(4 * n_seg + 2, -1)


def _checked_request(
    waypoints: list[tuple[ArrayLike, float]], initial_state: ArrayLike, degree: int
) -> tuple[Array, Array, Array]:
    """The positions, durations and initial state of a request, checked,
    and its equality rows' rank below FULL_RANK_DEGREE (by an SVD)."""
    if not waypoints:
        raise QpBuildError("waypoints: empty")
    positions = np.array([w[0] for w in waypoints], dtype=float)
    durations = np.array([w[1] for w in waypoints], dtype=float)
    initial_state = np.asarray(initial_state, dtype=float)
    if not (np.all(np.isfinite(initial_state)) and np.all(np.isfinite(positions))):
        raise QpBuildError("initial state or waypoint positions contain non-finite entries")
    if not np.all(np.isfinite(durations) & (durations > 0)):
        raise QpBuildError("waypoint durations must be positive and finite")
    if degree < MIN_DEGREE:
        raise QpBuildError(f"polynomial degree must be >= {MIN_DEGREE}, got {degree}")
    n_rows = 4 * len(durations) + 2
    if degree < FULL_RANK_DEGREE and np.linalg.matrix_rank(_equality_rows(degree, durations)) < n_rows:
        raise QpBuildError(
            f"equality constraints are rank-deficient: {n_rows} rows need "
            f"degree >= 4 and N*(L+1) >= 4N+2 (got N={len(durations)}, L={degree})"
        )
    return positions, durations, initial_state


def build_equality(
    waypoints: list[tuple[ArrayLike, float]],
    initial_state: ArrayLike,
    degree: int,
) -> tuple[Array, Array]:
    """Equality rows (A_eq, b_eq) in fixed order.

    Rows: 3 initial-state rows, 3 terminal rows (position = last waypoint,
    velocity = acceleration = 0), then per interior junction one pass-through
    row and three continuity rows, for 4N + 2 rows total. Derivative rows
    carry the same D**-k scaling used at evaluation time. Below
    FULL_RANK_DEGREE the row rank is checked by an SVD. A position is a
    scalar, or one per joint with a (3, dof) initial state and b_eq columns.
    """
    positions, durations, initial_state = _checked_request(waypoints, initial_state, degree)
    return _equality_rows(degree, durations), _equality_rhs(positions, initial_state)


def _structure(degree: int, durations: Array, control_frequency: float) -> tuple[Array, BlockRows]:
    """The part of assemble_qp that depends on (degree, durations,
    control_frequency) alone: the ridged cost and the constraint rows, both
    made read-only. A segment's limit rows and jerk block depend on its
    duration alone, so they are built once per distinct duration."""
    distinct, segment_of = np.unique(durations, return_inverse=True)
    u, real = _sample_grid(distinct, control_frequency)
    rows = state_rows(degree, u, distinct[:, None], orders=(1, 2))[segment_of]
    a_matrix = BlockRows(_equality_rows(degree, durations), rows.reshape(len(durations), -1, degree + 1))
    q_matrix = _block_diagonal(_jerk_blocks(degree, distinct, u, real)[segment_of])
    q_matrix += RIDGE * np.eye(q_matrix.shape[0])
    for array in (q_matrix, a_matrix.head, a_matrix.blocks, a_matrix._blocks_t):
        array.flags.writeable = False
    return q_matrix, a_matrix


# ((degree, control_frequency, durations as bytes), q_matrix, a_matrix) of the
# last call. One entry: a teleop stream repeats one structure, and requests
# whose durations never repeat keep one alive, not more. Read once and
# replaced whole, never mutated, so concurrent callers may share it.
_last_structure = None


def assemble_qp(
    waypoints: list[tuple[ArrayLike, float]],
    initial_state: ArrayLike,
    degree: int,
    control_frequency: float,
    v_max: ArrayLike,
    a_max: ArrayLike,
) -> QpProblem:
    """Full problem of every joint: block-diagonal jerk cost, equality rows as
    the dense head (tight intervals) above the limit rows.

    Positions and initial state as in build_equality, the limits alike. The
    limit rows sit on the cost's sampling grid: per sample a velocity row then
    an acceleration row, one block per segment (a shorter segment's block
    repeats its last tick, which the cost counts once); the two-sided interval
    form absorbs the absolute values. The tiny diagonal ridge lifts the
    cubic-and-below nullspace of the jerk Gram matrix so downstream
    factorizations stay stable.

    Q and A are read-only: a request with the previous call's degree,
    durations and control frequency gets the same objects.
    """
    global _last_structure
    positions, durations, initial_state = _checked_request(waypoints, initial_state, degree)
    if not all(np.all(np.isfinite(x) & (np.asarray(x) > 0)) for x in (v_max, a_max)):
        raise QpBuildError("velocity and acceleration limits must be positive and finite")
    key = (degree, control_frequency, durations.tobytes())
    last = _last_structure
    if last is None or last[0] != key:
        last = _last_structure = (key, *_structure(degree, durations, control_frequency))
    _, q_matrix, a_matrix = last
    b_eq = _equality_rhs(positions, initial_state)
    limits = np.empty((a_matrix.shape[0] - len(b_eq),) + np.shape(v_max))
    limits[0::2] = v_max
    limits[1::2] = a_max

    return QpProblem(
        q_matrix=q_matrix,
        a_matrix=a_matrix,
        lower=np.concatenate([b_eq, -limits]),
        upper=np.concatenate([b_eq, limits]),
        n_eq=len(b_eq),
    )
