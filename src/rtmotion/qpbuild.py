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

Q is carried as its (N, L+1, L+1) segment blocks (cost_blocks) and A as
BlockRows: the 4N+2 equality rows as a dense head, the limit rows as one
block per distinct duration. Q, A, the segments' rows at u = 0 and u = 1
that a plan is evaluated with, and the minimizer over the equality rows in
closed form (KnotStart) depend on (degree, durations, control frequency)
alone: assemble_qp computes the sample grid once, returns them read-only as
the problem's structure, and a request given the structure of the plan it
replaces gets the same objects when it repeats those three (a teleop
window) and builds only its bounds. That first reuse compiles the start
into one verified matrix of the right-hand sides (KnotStart.compile); a
fresh structure builds none.
"""

from __future__ import annotations

import functools
import itertools
import math
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
TOLERANCE = 1e-8  # the solver's default eps_abs and eps_rel (qpsolve.SolverSettings)
MAP_SPREAD = 8.0  # the widest ratio of a structure's durations whose start is compiled
_TINY = np.finfo(float).tiny  # the least normal float


class QpBuildError(ValueError):
    """Structurally invalid problem (bad inputs or rank-deficient equalities)."""


def _block_diagonal(blocks: Array) -> Array:
    """The (N*r, N*c) block-diagonal matrix of (N, r, c) blocks."""
    n_blocks, n_rows, n_cols = blocks.shape
    out = np.zeros((n_blocks, n_rows, n_blocks, n_cols))
    diagonal = np.arange(n_blocks)
    out[diagonal, :, diagonal, :] = blocks
    return out.reshape(n_blocks * n_rows, n_blocks * n_cols)


def cost_scale(blocks: Array) -> float:
    """The factor taking Q's blocks to unit max-abs, as the solver scales Q."""
    return 1.0 / max(float(blocks.max()), -float(blocks.min()), 0.5e-12)  # no abs(Q) temporary


def cost_blocks(q_matrix: ArrayLike) -> Array:
    """Q as its (N, w, w) diagonal blocks: an (N, w, w) Q is that already, and
    a dense (n, n) Q is one block (a view, not a copy)."""
    q_matrix = np.asarray(q_matrix, dtype=float)
    return q_matrix if q_matrix.ndim == 3 else q_matrix[None]


class BlockRows:
    """Constraint rows: a dense head stacked above a block-diagonal tail.

    head is (m_head, n); blocks is (D, R, w); segment i has block
    segment_of[i] on columns i*w .. (i+1)*w. The matrix's rows (shape,
    toarray, dot, tdot, gram) are the head's, then each segment's block in
    turn. The n_stored rows that norms, extremes and a problem's bounds
    follow are the head's, then each block's once; spread takes them to the
    matrix's rows. A dense matrix is a head (wrap).

    A stored block row stands for that row of each of the block's segments
    through one value, max |A x| over them (extremes). That gives the
    stopping test the terms of every row only if the block rows' bounds are
    symmetric, lower == -upper, as assemble_qp writes them (check_bounds):
    a row's distance to such an interval grows with |A x| alone.
    """

    def __init__(self, head: Array, blocks: Array, segment_of: NDArray[np.intp]):
        n_blocks, n_tail, width = blocks.shape
        counts = np.bincount(segment_of).tolist()
        # runs of blocks that as many segments share, as (blocks, segments
        # each): extremes takes each run in one matmul
        self._runs = [(sum(1 for _ in run), count) for count, run in itertools.groupby(counts)]
        if head.ndim != 2 or head.shape[1] != len(segment_of) * width:
            raise QpBuildError("head and blocks disagree on the column count")
        if len(counts) != n_blocks or 0 in counts:
            raise QpBuildError("every block must be used")
        self.head, self.blocks, self.segment_of = head, blocks, segment_of
        self._blocks_t = np.ascontiguousarray(blocks.transpose(0, 2, 1))
        # max-abs of each stored row, as max(max, -min): abs would copy the
        # rows. The tail's come from the transposed blocks, since numpy
        # reduces a short contiguous axis (a block row) one row at a time
        head_norms, tail_norms = (np.maximum(r.max(axis=1, initial=0.0), -r.min(axis=1, initial=0.0))
                                  for r in (head, self._blocks_t))
        self.norms = np.concatenate([head_norms, tail_norms.ravel()])
        if np.any(self.norms <= 0):
            raise QpBuildError("A contains an all-zero row")
        self.n_stored = head.shape[0] + n_blocks * n_tail
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

    def check_bounds(self, lower: Array, upper: Array) -> None:
        """Raise QpBuildError unless the block rows' bounds are symmetric."""
        m_head = self.head.shape[0]
        if not (lower[m_head:] == -upper[m_head:]).all():
            raise QpBuildError("the bounds of the block rows must be symmetric, lower == -upper")

    def extremes(self, x: Array) -> Array:
        """A x at the head's rows and, at a block's rows, max |A x| over the
        segments of the block, for x of shape (n, k); max and abs are exact.
        A run of blocks is one matmul, of each block by each of its segments'
        x, as dot takes them."""
        m_head, (n_blocks, n_tail, width), k = self.head.shape[0], self.blocks.shape, x.shape[1]
        segments = x.reshape(len(self.segment_of), width, k)[self._by_block]
        ax = np.empty((self.n_stored, k))
        np.matmul(self.head, x, out=ax[:m_head])
        tail = ax[m_head:].reshape(n_blocks, 1, n_tail, k)
        a = start = 0
        for n_run, count in self._runs:
            b, stop = a + n_run, start + n_run * count
            shared = segments[start:stop].reshape(n_run, count, width, k)
            if count == 1:
                np.matmul(self.blocks[a:b, None], shared, out=tail[a:b])
                np.abs(tail[a:b], out=tail[a:b])
            else:
                products = np.matmul(self.blocks[a:b, None], shared)
                np.abs(products, out=products).max(axis=1, out=tail[a:b, 0])
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
    ((degree, control_frequency, durations as bytes), Q, A, unit_rows, start)
    and start to the last, the solver's equality start (KnotStart, or None).
    """

    q_matrix: Array
    a_matrix: BlockRows | Array
    lower: Array
    upper: Array
    n_eq: int
    structure: Optional[tuple] = None
    start: Optional[KnotStart] = None

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
        rows.check_bounds(self.lower, self.upper)


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


def unit_rows(degree: int, durations: Array) -> Array:
    """Every segment's state_rows at u = 0 and at u = 1, (2, N, 3, L+1)."""
    return state_rows(degree, np.array([[0.0], [1.0]]), durations)


def inverse_factor(matrix: Array) -> Array:
    """L^-1 for matrix = L L^T (else numpy.linalg.LinAlgError), subnormal
    entries flushed to 0: the inverse of a banded factor decays away from
    the diagonal, and a product with subnormals runs many times slower."""
    inverse = np.linalg.inv(np.linalg.cholesky(matrix))
    inverse[np.abs(inverse) < _TINY] = 0.0
    return inverse


@functools.cache
def _boundary_basis(degree: int) -> tuple[Array, Array]:
    """A right inverse of unit_rows at D = 1 and their null space; read-only."""
    rows = state_rows(degree, np.array([0.0, 1.0]), 1.0).reshape(6, degree + 1)
    basis, triangle = np.linalg.qr(rows.T, mode="complete")
    right_inverse, null_basis = basis[:, :6] @ np.linalg.inv(triangle[:6]).T, basis[:, 6:]
    right_inverse.flags.writeable = null_basis.flags.writeable = False
    return right_inverse, null_basis


def _equality_rows(degree: int, durations: Array, rows: Optional[Array] = None) -> Array:
    """build_equality's A_eq for positive durations; rows is their unit_rows
    when the caller has them."""
    n_seg = len(durations)
    # every row is a segment's start or end (q, qd, qdd) row
    start, end = unit_rows(degree, durations) if rows is None else rows
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


class KnotStart:
    """The minimizer over assemble_qp's equality rows and its multipliers, in
    closed form over the knot states: the free-derivative form of polynomial
    spline QPs (Richter, Bry & Roy, ISRR 2013), the null-space method
    (Nocedal & Wright, Numerical Optimization, 16.2).

    Segment i's coefficients are G_i s_i, s_i its boundary states (q, qd,
    qdd at u = 0, then u = 1): G_i = E_i + F Y_i, E_i a right inverse of its
    boundary rows, F their L-5 interior directions, Y_i = -(F^T Q_i F)^-1
    F^T Q_i E_i. The head's bounds fix every boundary state but the interior
    (qd, qdd) knots z, whose cost is one SPD block-tridiagonal K shared by
    every joint. The boundary rows' multipliers are -H_i s_i, H_i = E_i^T Q_i
    G_i. A segment is computed relative to its start position, which G_i
    maps to its constant coefficient exactly (Q_i's first column is the
    ridge's alone), so junctions far from q = 0 meet to the rounding of the
    motion. Raises numpy.linalg.LinAlgError if K has no Cholesky factor (at
    degree 7 with 3 samples a segment the ridge alone fixes some knots).
    """

    def __init__(self, degree: int, durations: Array, q_blocks: Array):
        right_inverse, f = _boundary_basis(degree)
        e = right_inverse * (durations[:, None] ** (np.arange(6) % 3))[:, None]  # D**k for order k
        g = e + f @ -np.linalg.solve(f.T @ q_blocks @ f, f.T @ q_blocks @ e)  # (N, L+1, 6)
        self.scale = cost_scale(q_blocks)  # H, K and lambda are the scaled cost's, the solver's
        h = np.swapaxes(e, 1, 2) @ (q_blocks * self.scale) @ g
        h = 0.5 * (h + np.swapaxes(h, 1, 2))
        n_knots = len(durations) - 1
        k = np.zeros((n_knots, 2, n_knots, 2))
        i = np.arange(n_knots)
        k[i, :, i] = h[:-1, 4:, 4:] + h[1:, 1:3, 1:3]
        k[i[:-1], :, i[1:]] = h[1:-1, 1:3, 4:]
        k[i[1:], :, i[:-1]] = h[1:-1, 4:, 1:3]
        k = k.reshape(2 * n_knots, 2 * n_knots)
        jacobi = 1.0 / np.sqrt(np.diagonal(k))
        self.factor = inverse_factor(k * jacobi * jacobi[:, None]) * jacobi  # L^-1 J for J K J = L L^T
        # a segment's boundary states, and its start position as a seventh,
        # to its coefficients and lambda (H_i times a constant's: G_i^T Q_i)
        constant = np.broadcast_to(np.eye(degree + 1, 1), (len(durations), degree + 1, 1))
        self.coefficients = np.concatenate([g, constant], 2)
        self.multipliers = -np.concatenate([h, np.swapaxes(g, 1, 2) @ (q_blocks[:, :, :1] * self.scale)], 2)
        self.map = None  # set by compile on the structure's first reuse; () if refused

    def compile(self, head: Array, q_blocks: Array) -> None:
        """This start as one verified matrix, set as self.map once.

        _equality_rhs makes only N+3 rows of b_eq nonzero, `rows`: the
        initial (q, qd, qdd), the terminal q and each interior pass-through.
        On b_eq zero at the `others`, this start is linear in b_eq[rows]: M_x
        is this call on their unit columns, M_y its multipliers. The
        stationarity residual scale * Q M_x + A_eq^T M_y is checked here,
        once: its largest absolute row sum bounds any such b_eq's residual
        per unit of its max-abs, and M_y is then dropped (the equality's
        residual is read off A x on each request). A bound over TOLERANCE,
        which no b_eq of unit size could pass at the solver's default
        tolerances, refuses the map: self.map is then (). Otherwise it is
        (rows, others, M_x read-only, the bound), stored at once, so that a
        thread reading it never sees it half-built.
        """
        n_seg, width = q_blocks.shape[:2]
        rows = np.r_[0:4, 6 : 4 * n_seg + 2 : 4]
        unit = np.zeros((4 * n_seg + 2, len(rows)))
        unit[rows, np.arange(len(rows))] = 1.0
        m_x, m_y = self(unit)
        q_x = np.matmul(q_blocks * self.scale, m_x.reshape(n_seg, width, -1)).reshape(m_x.shape)
        stationarity = float(np.abs(q_x + head.T @ m_y).sum(axis=1).max())
        if not stationarity <= TOLERANCE:  # NaN included
            self.map = ()
            return
        m_x.flags.writeable = False
        self.map = (rows, np.flatnonzero(~unit.any(axis=1)), m_x, stationarity)

    def mapped(self, b_eq: Array) -> Optional[tuple[Array, Array]]:
        """x for the (4N+2, k) b_eq by the compiled map, with a bound on each
        column's stationarity residual; None without a map, or for b_eq
        nonzero off its rows.

        The product is taken relative to the initial position, as __call__
        takes each segment: an equal shift of every position moves each
        segment's constant coefficient alone, so junctions far from q = 0
        still meet to the rounding of the motion. The bound is the map's
        times that motion's max-abs, to the rounding of the product."""
        start_map = self.map  # read once: another thread may be compiling it
        if not start_map or b_eq[start_map[1]].any():
            return None
        rows, _, m_x, stationarity = start_map
        motion = b_eq[rows]  # q0, qd0, qdd0, then positions
        motion[3:] -= b_eq[0]
        motion[0] = 0.0
        x = m_x @ motion
        x.reshape(len(self.coefficients), -1, x.shape[1])[:, 0] += b_eq[0]
        return x, stationarity * np.abs(motion).max(axis=0)

    def __call__(self, b_eq: Array) -> tuple[Array, Array]:
        """x and y with A_eq x = b_eq and scale * Q x + A_eq^T y = 0, for the
        (4N+2, k) right-hand sides b_eq of build_equality's rows: y are the
        multipliers of the scaled cost the solver iterates on."""
        n, k = len(self.factor) // 2 + 1, b_eq.shape[1]
        junctions = b_eq[6:].reshape(n - 1, 4, k)  # pass-through, then continuity rows
        s = np.zeros((n, 7, k))  # positions relative to the start position, state 6
        s[0, 6], s[0, 1:3], s[-1, 4:6] = b_eq[0], b_eq[1:3], b_eq[4:6]
        np.subtract(junctions[:, 0], junctions[:, 1], out=s[1:, 6])
        np.negative(junctions[:, 2:], out=s[1:, 1:3])
        np.subtract(junctions[:, 0], s[:-1, 6], out=s[:-1, 3])
        np.subtract(b_eq[3], s[-1, 6], out=s[-1, 3])
        lam = self.multipliers @ s  # the interior knots are 0 so far: this is -K z's right-hand side
        z = (self.factor.T @ (self.factor @ (lam[:-1, 4:] + lam[1:, 1:3]).reshape(-1, k))).reshape(n - 1, 2, k)
        s[:-1, 4:6] += z
        s[1:, 1:3] += z
        lam = self.multipliers @ s
        y = np.empty_like(b_eq)
        y[:3], y[3:6] = lam[0, :3], lam[-1, 3:6]
        y_junctions = y[6:].reshape(n - 1, 4, k)
        np.add(lam[:-1, 3], lam[1:, 0], out=y_junctions[:, 0])
        np.negative(lam[1:, :3], out=y_junctions[:, 1:])
        return (self.coefficients @ s).reshape(-1, k), y


def _structure(degree: int, durations: Array, control_frequency: float) -> tuple:
    """The part of assemble_qp that depends on (degree, durations,
    control_frequency) alone: the ridged cost blocks, the constraint rows
    and the unit_rows the equality rows are made of, all made read-only,
    and from FULL_RANK_DEGREE on their KnotStart, never compiled when a
    segment is under-sampled or the durations spread over MAP_SPREAD. A
    segment's limit rows and jerk block depend on its duration alone: they
    are built, and the limit rows kept, once."""
    index = {}  # distinct durations as first seen: with none repeated, block i is segment i's
    segment_of = np.array([index.setdefault(d, len(index)) for d in durations.tolist()])
    distinct = np.array(list(index))
    u, real = _sample_grid(distinct, control_frequency)
    rows = state_rows(degree, u, distinct[:, None], orders=(1, 2)).reshape(len(distinct), -1, degree + 1)
    ends = unit_rows(degree, durations)
    a_matrix = BlockRows(_equality_rows(degree, durations, ends), rows, segment_of)
    q_matrix = _jerk_blocks(degree, distinct, u, real)[segment_of]
    q_matrix += RIDGE * np.eye(degree + 1)
    try:
        start = KnotStart(degree, durations, q_matrix) if degree >= FULL_RANK_DEGREE else None
    except np.linalg.LinAlgError:  # K singular to working precision: the solver's dense start
        start = None
    if start is not None and (real.sum(axis=1).min() < degree - 2 or distinct.max() > MAP_SPREAD * distinct.min()):
        # no map is built where it and the start call would both pass the
        # stopping test yet differ: a segment sampled at fewer points than
        # its jerk has coefficients leaves knots to the ridge alone (they
        # differed by up to 1e-3), and durations spread wider than MAP_SPREAD
        # make the knot system ill-conditioned (up to 6.3e-12 of max |p| at
        # 12-37x, against 3.9e-13 at most under 8x over 5,215 seeded
        # structures)
        start.map = ()
    for array in (q_matrix, a_matrix.head, a_matrix.blocks, a_matrix._blocks_t, a_matrix.norms, a_matrix.segment_of, ends):
        array.flags.writeable = False
    return q_matrix, a_matrix, ends, start


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
    gives them and the start when its degree, durations and control
    frequency are this request's, and is otherwise ignored. The first such
    reuse compiles the start (KnotStart.compile); a fresh structure builds
    no map.
    """
    positions, durations, initial_state = _checked_request(waypoints, initial_state, degree)
    limits = np.concatenate([np.ravel(v_max), np.ravel(a_max)])
    if not (0.0 < limits.min() and limits.max() < math.inf):  # min and max return any NaN
        raise QpBuildError("velocity and acceleration limits must be positive and finite")
    key = (degree, control_frequency, durations.tobytes())
    reused = previous is not None and previous[0] == key
    structure = previous if reused else (key, *_structure(degree, durations, control_frequency))
    _, q_matrix, a_matrix, _, start = structure
    if reused and start is not None and start.map is None:  # the structure's first reuse
        start.compile(a_matrix.head, q_matrix)
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
        start=start,
    )
