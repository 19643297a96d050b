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
rows span two segments), and the limit rows one (R, L+1) block per distinct
duration, shared by its segments. Every block has as many rows as the
longest segment's: a shorter segment repeats the limit rows of its last
tick, which adds copies of rows it already has and so no constraint. The
bounds follow the stored rows: the head's, each block's, then again each
shared block's, where the solver's start checks A x's max and then its min
over the block's segments. assemble_qp computes the sample grid once, for
the cost and the limit rows. Q is carried as its (N, L+1, L+1) segment
blocks (a dense Q is one block, see cost_blocks). Q and A depend on
(degree, durations, control frequency) alone: assemble_qp returns them
read-only, as the problem's structure, and a request given the structure of
the plan it replaces gets the same Q and BlockRows when it repeats those
three (a teleop window) and builds only its bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

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


def cost_blocks(q_matrix: ArrayLike) -> Array:
    """Q as its (N, w, w) diagonal blocks: an (N, w, w) Q is that already, and
    a dense (n, n) Q is one block (a view, not a copy)."""
    q_matrix = np.asarray(q_matrix, dtype=float)
    return q_matrix if q_matrix.ndim == 3 else q_matrix[None]


class BlockRows:
    """Constraint rows: a dense head stacked above a block-diagonal tail.

    head is (m_head, n); blocks is (D, R, w), those that more segments share
    first; segment i has block segment_of[i] on columns i*w .. (i+1)*w. The
    matrix's rows (shape, toarray, dot, tdot, gram) are the head's, then
    each segment's block in turn. The n_stored rows that row_norms, extremes
    and a problem's bounds follow are the head's, each block's once, then
    again each shared block's; spread takes them to the matrix's rows. A
    dense matrix is a head (wrap).
    """

    def __init__(self, head: Array, blocks: Array, segment_of: NDArray[np.intp]):
        n_blocks, n_tail, width = blocks.shape
        counts = np.bincount(segment_of).tolist()
        # runs of blocks that as many segments share, as (blocks, segments
        # each): extremes takes each run in one matmul
        self._runs = [(sum(1 for _ in run), count) for count, run in itertools.groupby(counts)]
        if head.ndim != 2 or head.shape[1] != len(segment_of) * width:
            raise QpBuildError("head and blocks disagree on the column count")
        if len(counts) != n_blocks or counts != sorted(counts, reverse=True):
            raise QpBuildError("every block must be used, in order of how many segments share it")
        self.head, self.blocks, self.segment_of = head, blocks, segment_of
        self._blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
        self._n_shared = sum(n_run for n_run, count in self._runs if count > 1)
        self.n_stored = head.shape[0] + (n_blocks + self._n_shared) * n_tail
        self.shape = (head.shape[0] + len(segment_of) * n_tail, head.shape[1])
        # the segments in block order, and each segment's block, as indices:
        # all of an axis (a view) when that is 0, 1, 2, ...
        in_order = bool(np.all(segment_of[1:] >= segment_of[:-1]))
        self._by_block = slice(None) if in_order else np.argsort(segment_of, kind="stable")
        self._tail = slice(None) if in_order and n_blocks == len(segment_of) else segment_of

    @classmethod
    def wrap(cls, a) -> "BlockRows":
        """a itself if it is BlockRows, else a dense matrix as a head."""
        if isinstance(a, cls):
            return a
        a = np.asarray(a, dtype=float)
        return cls(a, np.zeros((1, 0, a.shape[1])), np.zeros(1, dtype=np.intp))

    def per_segment(self) -> "BlockRows":
        """These rows with each segment's block stored for it."""
        return BlockRows(self.head, self.blocks[self._tail], np.arange(len(self.segment_of)))

    def spread(self, values: Array) -> Array:
        """Values of the stored rows (bounds, row norms) at the matrix's rows."""
        m_head, (n_blocks, n_tail, _) = self.head.shape[0], self.blocks.shape
        tail = values[m_head : m_head + n_blocks * n_tail].reshape((n_blocks, n_tail) + values.shape[1:])
        return np.concatenate([values[:m_head], tail[self.segment_of].reshape((-1,) + values.shape[1:])])

    def toarray(self) -> Array:
        return np.vstack([self.head, _block_diagonal(self.blocks[self._tail])])

    def __array__(self, dtype=None, copy=None):
        dense = self.toarray()
        return dense if dtype is None else dense.astype(dtype)

    def row_norms(self) -> Array:
        """Max-abs of each stored row, as max(max, -min): abs would copy the
        rows. The tail's come from the transposed blocks, since numpy reduces
        a short contiguous axis (a block row) one row at a time."""
        head, tail = (np.maximum(r.max(axis=1, initial=0.0), -r.min(axis=1, initial=0.0))
                      for r in (self.head, self._blocks_t))
        return np.concatenate([head, tail.ravel(), tail[: self._n_shared].ravel()])

    def extremes(self, x: Array) -> Array:
        """A x at the stored rows, for x of shape (n, k): at a block's rows its
        max over the segments of the block, and at a shared block's rows
        again its min; max and min are exact. A run of blocks is one matmul,
        of each block by each of its segments' x, as dot takes them."""
        m_head, (n_blocks, n_tail, width), k = self.head.shape[0], self.blocks.shape, x.shape[1]
        segments = x.reshape(len(self.segment_of), width, k)[self._by_block]
        ax = np.empty((self.n_stored, k))
        np.matmul(self.head, x, out=ax[:m_head])
        tops = ax[m_head : m_head + n_blocks * n_tail].reshape(n_blocks, 1, n_tail, k)
        bottoms = ax[m_head + n_blocks * n_tail :].reshape(self._n_shared, n_tail, k)
        a = start = 0
        for n_run, count in self._runs:
            b, stop = a + n_run, start + n_run * count
            shared = segments[start:stop].reshape(n_run, count, width, k)
            if count == 1:
                np.matmul(self.blocks[a:b, None], shared, out=tops[a:b])
            else:
                products = np.matmul(self.blocks[a:b, None], shared)
                products.max(axis=1, out=tops[a:b, 0])
                products.min(axis=1, out=bottoms[a:b])
            a, start = b, stop
        return ax

    def dot(self, x: Array) -> Array:
        """A x, for x of shape (n, k), written into one (m, k) array."""
        n_segments, n_tail, width = len(self.segment_of), *self.blocks.shape[1:]
        m_head, k = self.head.shape[0], x.shape[1]
        # a Fortran-ordered x (as LAPACK returns it) would reshape to a strided
        # view that matmul cannot hand to BLAS
        x = np.ascontiguousarray(x)
        out = np.empty((self.shape[0], k))
        np.matmul(self.head, x, out=out[:m_head])
        np.matmul(self.blocks[self._tail], x.reshape(n_segments, width, k), out=out[m_head:].reshape(n_segments, n_tail, k))
        return out

    def tdot(self, y: Array) -> Array:
        """A^T y, for y of shape (m, k)."""
        m_head = self.head.shape[0]
        n_segments, n_tail = len(self.segment_of), self.blocks.shape[1]
        tail = np.matmul(self._blocks_t[self._tail], y[m_head:].reshape(n_segments, n_tail, y.shape[1]))
        return self.head.T @ y[:m_head] + tail.reshape(-1, y.shape[1])

    def gram(self, weights: Array) -> Array:
        """A^T diag(weights) A, for one weight per row."""
        m_head, blocks = self.head.shape[0], self.blocks[self._tail]
        tail_w = weights[m_head:].reshape(blocks.shape[:2])[..., None]
        tail = np.matmul(self._blocks_t[self._tail], blocks * tail_w)
        return (self.head.T * weights[:m_head]) @ self.head + _block_diagonal(tail)


@dataclass
class QpProblem:
    """min p^T Q p  subject to  lower <= A p <= upper.

    Q is held as its (N, w, w) diagonal blocks or dense (cost_blocks). The
    first n_eq rows of A are equalities (lower == upper). a_matrix is
    BlockRows (or a dense array); lower and upper follow its stored rows,
    with one column per joint when they are 2-D. assemble_qp sets structure to
    ((degree, control_frequency, durations as bytes), Q, A).
    """

    q_matrix: Array
    a_matrix: BlockRows | Array
    lower: Array
    upper: Array
    n_eq: int
    structure: Optional[tuple] = None

    @property
    def n_vars(self) -> int:
        blocks = cost_blocks(self.q_matrix)
        return blocks.shape[0] * blocks.shape[1]

    def validate(self) -> None:
        n = self.n_vars
        rows = BlockRows.wrap(self.a_matrix)
        blocks = cost_blocks(self.q_matrix)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise QpBuildError("Q must be square")
        if not np.isfinite(blocks).all():
            raise QpBuildError("Q must be finite")
        if np.max(np.abs(blocks - blocks.transpose(0, 2, 1))) > 0:
            raise QpBuildError("Q must be symmetric")
        if rows.shape[1] != n:
            raise QpBuildError("A column count must match Q")
        if self.lower.shape != self.upper.shape or self.lower.shape[0] != rows.n_stored:
            raise QpBuildError("bounds must match A's stored row count")
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
    control_frequency) alone: the ridged cost blocks and the constraint
    rows, both made read-only. A segment's limit rows and jerk block depend
    on its duration alone: they are built, and the limit rows kept, once."""
    index = {}  # distinct durations as first seen
    first_seen = np.array([index.setdefault(d, len(index)) for d in durations.tolist()])
    # blocks that more segments share first (BlockRows), else as first seen:
    # with none repeated, block i is segment i's
    order = np.argsort(-np.bincount(first_seen), kind="stable")
    distinct, segment_of = np.array(list(index))[order], np.argsort(order)[first_seen]
    u, real = _sample_grid(distinct, control_frequency)
    rows = state_rows(degree, u, distinct[:, None], orders=(1, 2)).reshape(len(distinct), -1, degree + 1)
    a_matrix = BlockRows(_equality_rows(degree, durations), rows, segment_of)
    q_matrix = _jerk_blocks(degree, distinct, u, real)[segment_of]
    q_matrix += RIDGE * np.eye(degree + 1)
    for array in (q_matrix, a_matrix.head, a_matrix.blocks, a_matrix._blocks_t, a_matrix.segment_of):
        array.flags.writeable = False
    return q_matrix, a_matrix


def assemble_qp(
    waypoints: list[tuple[ArrayLike, float]],
    initial_state: ArrayLike,
    degree: int,
    control_frequency: float,
    v_max: ArrayLike,
    a_max: ArrayLike,
    previous: Optional[tuple] = None,
) -> QpProblem:
    """Full problem of every joint: block-diagonal jerk cost, equality rows as
    the dense head (tight intervals) above the limit rows.

    Positions and initial state as in build_equality, the limits alike. The
    limit rows sit on the cost's sampling grid: per sample a velocity row then
    an acceleration row, one block per distinct duration (a shorter segment's
    block repeats its last tick, which the cost counts once); the two-sided
    interval form absorbs the absolute values. The tiny diagonal ridge lifts
    the cubic-and-below nullspace of the jerk Gram matrix so downstream
    factorizations stay stable.

    Q and A are read-only: previous, the structure of an earlier problem,
    gives them when its degree, durations and control frequency are this
    request's, and is otherwise ignored.
    """
    positions, durations, initial_state = _checked_request(waypoints, initial_state, degree)
    if not all(np.all(np.isfinite(x) & (np.asarray(x) > 0)) for x in (v_max, a_max)):
        raise QpBuildError("velocity and acceleration limits must be positive and finite")
    key = (degree, control_frequency, durations.tobytes())
    structure = previous
    if structure is None or structure[0] != key:
        structure = (key, *_structure(degree, durations, control_frequency))
    _, q_matrix, a_matrix = structure
    b_eq = _equality_rhs(positions, initial_state)
    n_eq = len(b_eq)
    lower = np.empty((a_matrix.n_stored,) + np.shape(v_max))
    upper = np.empty_like(lower)
    lower[:n_eq] = upper[:n_eq] = b_eq
    upper[n_eq::2], upper[n_eq + 1 :: 2] = v_max, a_max
    np.negative(upper[n_eq:], out=lower[n_eq:])

    return QpProblem(
        q_matrix=q_matrix,
        a_matrix=a_matrix,
        lower=lower,
        upper=upper,
        n_eq=n_eq,
        structure=structure,
    )
