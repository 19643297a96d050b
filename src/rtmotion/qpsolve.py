"""Operator-splitting (ADMM) solver for min p^T Q p s.t. l <= A p <= u, plus
a dense KKT solve used as the equality-only verification oracle.

The iteration follows the standard splitting: factor (P + sigma*I +
A^T diag(rho) A) once, then alternate a linear solve, a relaxed averaging
step, projection of z onto [l, u], and a dual update, with OSQP's rho, sigma
and alpha (Stellato et al., Math. Prog. Comp. 2020). Tight rows (l == u) get
a 1000x penalty weight. So that the fixed penalty works across the wide
dynamic range the short-segment problems produce, the cost is scaled near
unity and each row's penalty is divided by its squared max-abs norm: that is
the iteration on rows normalized to unit norm, run on the caller's rows with
z and y in their own units, so no scaled copy of A is built and the primal
residuals are read directly. Neither changes the minimizer. The 1e-8
default tolerances keep limit, junction and terminal residuals inside the
1e-6 contracts.

The iterate does not start at zero. One banded LU of the KKT system
[P A_eq^T; A_eq 0] over the tight rows of the head (normalized to unit norm,
each ordered between the columns it touches, all columns at once) gives the
minimizer over the equalities and its multipliers; x starts there, z at A x
clipped to [l, u], y at the multipliers on the tight rows and 0 elsewhere.
When no limit row is active that start passes the stopping test and is
returned with iterations == 1. That start path takes A x at A's stored
rows (BlockRows.extremes), at a block's rows as max |A x| over the block's
segments: OSQP's test is a max-norm over rows and a block row's bounds are
symmetric, so its residuals and verdict are those over every row, bit for
bit. It reads P x from Q's blocks and A^T y from the unit-norm tight rows.
Only ADMM builds every segment's block, bounds and penalties at every row,
y, the dense scaled cost and the reduced matrix. A KKT matrix singular to
working precision falls back to the zero start, silently. A saddle point of
a nonconvex cost passes the stopping test too, so a Cholesky of each block
of P + sigma*I first raises scipy.linalg.LinAlgError for a Q that is not
positive semidefinite.

Q is taken as its (N, w, w) diagonal blocks (a dense Q is one block, see
qpbuild.cost_blocks) and A as qpbuild.BlockRows (a dense matrix is a head
with no tail), so one iteration costs products with the dense head,
O(N * R * (L+1)) for the per-segment blocks, and a pair of n x n triangular
solves with the factor. The caller's bounds and the start's z follow A's
stored rows; ADMM's z and y follow every row.

The problems of a request's joints share Q and A and are solved as the
columns of one batch (solve_batch), which amortizes the factorization and
the per-iteration matrix products. What depends on Q, A and the tight rows
alone (row norms, cost scale, unit-norm tight rows and the KKT start's LU)
is the solution's Structure, reused when passed back as previous with the
same read-only Q and A objects (as assemble_qp returns them for a repeated
request) and the same tight rows: a teleop window then costs the start path
alone. A writeable Q or A may have changed: it is never reused. The reduced
factor is not kept: a solve that iterates runs hundreds of iterations, each
costing about as much as the factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs, dpotrs

from rtmotion import qpbuild  # _block_diagonal through the module: a test counts its calls
from rtmotion.qpbuild import BlockRows, QpProblem, cost_blocks

Array = NDArray[np.float64]

STATUS_SOLVED = "solved"
STATUS_MAX_ITERS = "max_iters"
STATUS_PRIMAL_INFEASIBLE = "primal_infeasible"

_RHO = 0.1
_SIGMA = 1e-6
_ALPHA = 1.6
_CHECK_INTERVAL = 25

_EQUALITY_GAP = 1e-12
_EQUALITY_RHO_SCALE = 1e3
_STALL_RATIO = 0.99
_STALL_CHECKS = 10
_STALL_LEVEL = 1e3
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverSettings:
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        if min(self.eps_abs, self.eps_rel, self.max_iters) <= 0:
            raise ValueError("tolerances and max_iters must be positive")


@dataclass
class Solution:
    p: Array
    status: str
    iterations: int
    solve_time: float
    primal_residual: float
    dual_residual: float


@dataclass
class BatchSolution:
    """Solution columns for problems sharing (Q, A) but not bounds."""

    p: Array  # (n_vars, n_problems)
    status: str
    iterations: int
    solve_time: float
    primal_residuals: Array
    dual_residuals: Array
    converged: NDArray[np.bool_]
    structure: Structure  # what the solve derived from Q, A and the tight rows


def solve_batch(
    q_matrix: Array,
    a_matrix: BlockRows | Array,
    lower: Array,
    upper: Array,
    settings: Optional[SolverSettings] = None,
    previous: Optional[Structure] = None,
) -> BatchSolution:
    """ADMM over the columns of lower/upper; all columns share Q and A.

    Q is (N, w, w) blocks or a dense (n, n) matrix (qpbuild.cost_blocks).
    lower and upper follow the stored rows of A (qpbuild.BlockRows), and a
    ValueError is raised unless those of its block rows are symmetric.
    The start is returned as it is when it passes the stopping test; only
    otherwise is the reduced matrix formed and factored and ADMM run from it.
    For a Q that is not positive semidefinite (P + sigma*I has no Cholesky
    factor) scipy.linalg.LinAlgError is raised. previous is an earlier
    solution's structure, reused by the rule of the module docstring.
    """
    settings = settings or SolverSettings()
    start = time.perf_counter()
    a = BlockRows.wrap(a_matrix)
    blocks = cost_blocks(q_matrix)
    n_problems = lower.shape[1]
    a.check_bounds(lower, upper)
    s = _structure(q_matrix, blocks, a_matrix, a, lower, upper, previous)

    prim_res = dual_res = np.full(n_problems, np.inf)
    converged = np.zeros(n_problems, dtype=bool)
    start_point = None if s.kkt is None else _kkt_solve(s.kkt, lower[s.eq_rows] * s.unit)
    if start_point is not None:
        x, y_unit = start_point
        # A x at the stored rows: its terms are those of every row
        ax = a.extremes(x)
        z = np.maximum(ax, lower)
        np.minimum(z, upper, out=z)  # np.clip, without its overhead
        px = np.matmul(blocks, x.reshape(len(blocks), blocks.shape[1], n_problems)).reshape(x.shape) * s.scale
        # with no limit row active the start is already the optimum; y is 0
        # off the tight rows, so A^T y is a_eq^T y_unit
        prim_res, dual_res, converged = _stopping_test(ax, z, px, s.a_eq.T @ y_unit, settings)

    status, iterations = STATUS_SOLVED, 1
    if not converged.all():
        # only ADMM needs every segment's rows, the bounds and penalties at
        # every row, y on every row and the dense scaled cost
        rows, lower, upper = a.per_segment(), a.spread(lower), a.spread(upper)
        y = np.zeros((rows.shape[0], n_problems))
        if start_point is None:
            x, z = np.zeros((rows.shape[1], n_problems)), np.zeros_like(y)
        else:
            y[s.eq_rows] = y_unit * s.unit
            z = np.minimum(np.maximum(rows.dot(x), lower), upper)
        rho = a.spread(np.where(s.tight, _RHO * _EQUALITY_RHO_SCALE, _RHO) / s.norms**2)
        p_s = qpbuild._block_diagonal(blocks) * s.scale
        factor, lower_factor = scipy.linalg.cho_factor(p_s + _SIGMA * np.eye(len(x)) + rows.gram(rho), check_finite=False)
        # per-row penalties as a full (m, k) array: broadcasting an (m, 1)
        # column over the k problems defeats numpy's contiguous inner loops
        rho_col = np.repeat(rho[:, None], n_problems, axis=1)
        status, iterations = STATUS_MAX_ITERS, settings.max_iters
        prev_check, stall = np.inf, 0

        for iteration in range(1, settings.max_iters + 1):
            rhs = _SIGMA * x + rows.tdot(rho_col * z - y)
            # LAPACK's triangular solves directly: cho_solve's argument
            # handling costs more than the solve itself at teleop sizes
            x_tilde, _ = dpotrs(factor, rhs, lower=lower_factor)
            z_tilde = rows.dot(x_tilde)
            x = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
            v = _ALPHA * z_tilde + (1.0 - _ALPHA) * z + y / rho_col
            z = np.minimum(np.maximum(v, lower), upper)  # np.clip, without its overhead
            y = rho_col * (v - z)

            if iteration == 1 or iteration % _CHECK_INTERVAL == 0 or iteration == settings.max_iters:
                prim_res, dual_res, converged = _stopping_test(rows.dot(x), z, p_s @ x, rows.tdot(y), settings)
                if converged.all():
                    status, iterations = STATUS_SOLVED, iteration
                    break
                worst = float(prim_res.max())
                if worst > _STALL_LEVEL * settings.eps_abs and worst > _STALL_RATIO * prev_check:
                    stall += 1
                    if stall >= _STALL_CHECKS:
                        status, iterations = STATUS_PRIMAL_INFEASIBLE, iteration
                        break
                else:
                    stall = 0
                prev_check = worst

    return BatchSolution(
        p=x,
        status=status,
        iterations=iterations,
        solve_time=time.perf_counter() - start,
        primal_residuals=prim_res,
        dual_residuals=dual_res,
        converged=converged,
        structure=s,
    )


class Structure(NamedTuple):
    """What solve_batch derives from Q, A and the tight rows alone."""

    q_matrix: Array
    a_matrix: BlockRows | Array
    norms: Array
    tight: NDArray[np.bool_]
    scale: float  # the scaled cost P_s is scale * Q (see the module docstring)
    eq_rows: NDArray[np.intp]
    unit: Array  # 1 / norms[eq_rows, None]
    a_eq: Array  # the eq_rows of A at unit norm
    kkt: Optional[tuple]  # _kkt_factor of a_eq


def _structure(q_matrix, blocks: Array, a_matrix, a: BlockRows, lower: Array, upper: Array, previous) -> Structure:
    """previous if it is of this (Q, A) and its tight rows, and Q and A are
    read-only, as assemble_qp returns them: only then can they not have
    changed under it. Else a new Structure."""
    read_only = isinstance(a_matrix, BlockRows) and not any(
        array.flags.writeable for array in (blocks, a_matrix.head, a_matrix.blocks)
    )
    hit = read_only and previous is not None and previous.q_matrix is q_matrix and previous.a_matrix is a_matrix
    norms = previous.norms if hit else a.row_norms()
    # reduced from a (k, m) copy: numpy reduces the short rows of an (m, k)
    # array one at a time, several times slower at k = 6
    tight = np.ascontiguousarray((upper - lower).T).max(axis=0) <= _EQUALITY_GAP * norms
    if hit and np.array_equal(tight, previous.tight):
        return previous
    if np.any(norms <= 0):
        raise ValueError("A contains an all-zero row")
    # P = 2Q (gradient convention for p^T Q p) at unit max-abs; no abs(Q) temporary
    scale = 1.0 / max(float(blocks.max()), -float(blocks.min()), 0.5e-12)
    cost_entries = _cost_entries(blocks, scale)  # checks that Q is positive semidefinite
    # the start solves on the tight rows of the head at unit norm (tight rows
    # in the blocks, which no caller builds, are left to the iteration)
    eq_rows = np.flatnonzero(tight[: a.head.shape[0]])
    unit = 1.0 / norms[eq_rows, None]
    a_eq = a.head[eq_rows]
    a_eq *= unit  # in place: one (m, n) copy of the head, not two
    return Structure(q_matrix, a_matrix, norms, tight, scale, eq_rows, unit, a_eq, _kkt_factor(cost_entries, a_eq))


def _stopping_test(ax: Array, z: Array, px: Array, aty: Array, settings: SolverSettings):
    """Primal and dual residuals of each column (ax is A x, px is P_s x and
    aty is A^T y), and whether each passes OSQP's test against the
    tolerances. Each pair's terms are reduced from a (3, k, rows) scratch
    array of its own, as the tight rows are in _structure."""
    reduced = []
    for first, second, combine in ((ax, z, np.subtract), (px, aty, np.add)):
        terms = np.empty((3, first.shape[1], len(first)))
        terms[0], terms[1] = first.T, second.T
        combine(terms[0], terms[1], out=terms[2])
        np.abs(terms, out=terms)
        reduced.append(terms.max(axis=2))
    (ax_ref, z_ref, prim_res), (px_ref, aty_ref, dual_res) = reduced
    converged = (prim_res <= settings.eps_abs + settings.eps_rel * np.maximum(ax_ref, z_ref)) & (
        dual_res <= settings.eps_abs + settings.eps_rel * np.maximum(px_ref, aty_ref)
    )
    return prim_res, dual_res, converged


def _cost_entries(blocks: Array, scale: float) -> tuple[Array, Array, Array]:
    """The nonzero entries of the block-diagonal P_s = scale * Q of (N, w, w)
    blocks: their rows, columns and values. Raises
    scipy.linalg.LinAlgError unless every block of P_s + sigma*I has a
    Cholesky factor."""
    scaled = blocks * scale
    np.linalg.cholesky(scaled + _SIGMA * np.eye(blocks.shape[1]))  # numpy's LinAlgError is scipy's
    block, row, col = np.nonzero(scaled)
    offset = block * blocks.shape[1]
    return offset + row, offset + col, scaled[block, row, col]


def _kkt_factor(cost_entries: tuple[Array, Array, Array], a_eq: Array) -> Optional[tuple]:
    """The banded LU of the KKT matrix [p_s a_eq^T; a_eq 0], for _kkt_solve;
    None if it is singular to working precision.

    cost_entries is _cost_entries of p_s. Ordering each equality row at the
    midpoint of its first and last nonzero column, among the variables at
    their own index, makes the KKT matrix banded. It is built straight into
    LAPACK band storage and factored by banded LU with partial pivoting (it
    is indefinite); its condition estimate is checked, as
    scipy.linalg.solve does, but without a warning.
    """
    cost_rows, cost_cols, cost_values = cost_entries
    m, n = a_eq.shape
    nonzero = a_eq != 0
    first, last = nonzero.argmax(axis=1), n - 1 - nonzero[:, ::-1].argmax(axis=1)
    keys = np.concatenate([np.arange(n), 0.5 * (first + last)])
    position = np.empty(n + m, dtype=np.intp)
    position[np.argsort(keys, kind="stable")] = np.arange(n + m)
    # each row's columns first..last, clipped at last (where it repeats that entry)
    eq_cols = np.minimum(first[:, None] + np.arange((last - first).max(initial=0) + 1), last[:, None])
    eq_values = a_eq[np.arange(m)[:, None], eq_cols]
    var_pos, row_pos = position[cost_rows], position[n:, None]
    cost_pos, eq_pos = position[cost_cols], position[eq_cols]
    kd = int(max(np.abs(cost_pos - var_pos).max(initial=0), np.abs(eq_pos - row_pos).max(initial=0)))
    # general band storage, [2kd + i - j, j], with kd rows on top for the LU's fill
    band = np.zeros((3 * kd + 1, n + m), order="F")
    band[2 * kd + var_pos - cost_pos, cost_pos] = cost_values
    band[2 * kd + row_pos - eq_pos, eq_pos] = eq_values
    band[2 * kd + eq_pos - row_pos, row_pos] = eq_values
    kkt_norm = float(np.abs(band).sum(axis=0).max())  # 1-norm: largest column sum
    lu, pivots, info = dgbtrf(band, kd, kd, overwrite_ab=1)
    if info != 0:
        return None
    rcond, info = dgbcon(kd, kd, lu, pivots, kkt_norm)
    if info != 0 or not rcond >= _EPS:
        return None
    return lu, pivots, kd, position


def _kkt_solve(kkt: tuple, b_eq: Array) -> Optional[tuple[Array, Array]]:
    """Minimizer of 1/2 x^T p_s x subject to a_eq x = b_eq, one column per
    column of b_eq, and its multipliers y (p_s x + a_eq^T y = 0), from
    _kkt_factor(cost_entries, a_eq); None if the back-solve is not finite."""
    lu, pivots, kd, position = kkt
    n = position.shape[0] - b_eq.shape[0]
    rhs = np.zeros((position.shape[0], b_eq.shape[1]), order="F")
    rhs[position[n:]] = b_eq
    sol, info = dgbtrs(lu, kd, kd, rhs, pivots, overwrite_b=1)
    if info != 0 or not np.isfinite(sol).all():
        return None
    return sol[position[:n]], sol[position[n:]]


def solve(problem: QpProblem, settings: Optional[SolverSettings] = None) -> Solution:
    """Solve one QpProblem; deterministic for fixed settings."""
    if problem.lower.ndim != 1:
        raise ValueError("problem has one bound column per joint: solve it with solve_batch")
    problem.validate()
    batch = solve_batch(
        problem.q_matrix,
        problem.a_matrix,
        problem.lower[:, None],
        problem.upper[:, None],
        settings,
    )
    return Solution(
        p=batch.p[:, 0],
        status=batch.status,
        iterations=batch.iterations,
        solve_time=batch.solve_time,
        primal_residual=float(batch.primal_residuals[0]),
        dual_residual=float(batch.dual_residuals[0]),
    )


def solve_kkt_equality(q_matrix: Array, a_eq: Array, b_eq: Array) -> Array:
    """Exact minimizer of p^T Q p subject to A_eq p = b_eq.

    Q is blocks or a dense matrix (qpbuild.cost_blocks). One dense
    symmetric-indefinite solve of the stationarity system
    [Q A^T; A 0] [p; lam] = [0; b], refined once. Requires A_eq to have full
    row rank.
    """
    q_matrix = qpbuild._block_diagonal(cost_blocks(q_matrix))
    n = q_matrix.shape[0]
    m = a_eq.shape[0]
    # scale-invariant in p: normalize the cost and the constraint rows so the
    # indefinite solve stays well conditioned at short-segment cost scales
    cost_scale = 1.0 / max(float(np.max(np.abs(q_matrix))), 1e-12)
    row_norms = np.max(np.abs(a_eq), axis=1)
    if np.any(row_norms <= 0):
        raise ValueError("singular KKT matrix (zero constraint row)")
    e_scale = 1.0 / row_norms
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = q_matrix * cost_scale
    kkt[:n, n:] = (a_eq * e_scale[:, None]).T
    kkt[n:, :n] = a_eq * e_scale[:, None]
    rhs = np.concatenate([np.zeros(n), b_eq * e_scale])
    try:
        sol = scipy.linalg.solve(kkt, rhs, assume_a="sym", check_finite=False)
        # one step of iterative refinement: at degree 7 and durations of 0.03
        # to 1.2 s the solve alone was up to 3e-7 (relative) from a 40-digit
        # solve, and 4e-11 after this step
        sol += scipy.linalg.solve(kkt, rhs - kkt @ sol, assume_a="sym", check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"singular KKT matrix (rank-deficient constraints): {exc}") from exc
    p = sol[:n]
    residual = np.max(np.abs(a_eq @ p - b_eq)) if m else 0.0
    if not np.isfinite(p).all() or residual > 1e-6 * max(1.0, float(np.max(np.abs(b_eq), initial=0.0))):
        raise ValueError("singular KKT matrix (rank-deficient constraints)")
    return p
