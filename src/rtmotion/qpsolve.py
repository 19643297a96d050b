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
returned with iterations == 1: the reduced matrix is never formed. Otherwise
it is factored and ADMM iterates from the start. A KKT matrix singular to
working precision falls back to the zero start, silently. A saddle point of
a nonconvex cost passes the stopping test too, so a banded Cholesky of
P + sigma*I first raises scipy.linalg.LinAlgError for a Q that is not
positive semidefinite.

A is taken as qpbuild.BlockRows (a dense matrix is a head with no tail), so
one iteration costs products with the dense head, O(N * R * (L+1)) for the
per-segment blocks, and a pair of n x n triangular solves with the factor.
The bounds, z and y follow A's one row order (the head, then each block in
block order), so the caller's bounds are used as they are.

The problems of a request's joints share Q and A and are solved as the
columns of one batch (solve_batch), which amortizes the factorization and
the per-iteration matrix products. What depends on Q, A and the tight rows
alone (row norms, scaled cost and the KKT start's LU) is kept for the last
read-only (Q, A), as assemble_qp returns it for a repeated request: a
teleop window then costs one banded back-solve, one A x and the stopping
test. One entry, shared by the process; a writeable Q or A is never kept.
The reduced factor is not kept: a solve that iterates runs hundreds of
iterations, each costing about as much as the factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs, dpbtrf, dpotrs

from rtmotion.qpbuild import BlockRows, QpProblem

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


def solve_batch(
    q_matrix: Array,
    a_matrix: BlockRows | Array,
    lower: Array,
    upper: Array,
    settings: Optional[SolverSettings] = None,
) -> BatchSolution:
    """ADMM over the columns of lower/upper; all columns share Q and A.

    lower and upper follow the rows of A, and so do the iterates z and y.
    The start is returned as it is when it passes the stopping test; only
    otherwise is the reduced matrix formed and factored and ADMM run from it.
    For a Q that is not positive semidefinite (P + sigma*I has no Cholesky
    factor) scipy.linalg.LinAlgError is raised.
    """
    settings = settings or SolverSettings()
    start = time.perf_counter()
    a = BlockRows.wrap(a_matrix)
    n = q_matrix.shape[0]
    n_problems = lower.shape[1]
    s = _structure(q_matrix, a_matrix, a, lower, upper)
    p_s = s.p_s

    x = np.zeros((n, n_problems))
    z = np.zeros((a.shape[0], n_problems))
    y = np.zeros((a.shape[0], n_problems))
    prim_res = dual_res = np.full(n_problems, np.inf)
    converged = np.zeros(n_problems, dtype=bool)
    start_point = None if s.kkt is None else _kkt_solve(s.kkt, lower[s.eq_rows] * s.unit)
    if start_point is not None:
        x, y_unit = start_point
        y[s.eq_rows] = y_unit * s.unit
        ax = a.dot(x)
        z = np.minimum(np.maximum(ax, lower), upper)
        # with no limit row active the start is already the optimum
        prim_res, dual_res, converged = _stopping_test(p_s, a, x, ax, z, y, settings)

    status, iterations = STATUS_SOLVED, 1
    if not converged.all():
        factor, lower_factor = scipy.linalg.cho_factor(p_s + _SIGMA * np.eye(n) + a.gram(s.rho), check_finite=False)
        # per-row penalties as a full (m, k) array: broadcasting an (m, 1)
        # column over the k problems defeats numpy's contiguous inner loops
        rho_col = np.repeat(s.rho[:, None], n_problems, axis=1)
        status, iterations = STATUS_MAX_ITERS, settings.max_iters
        prev_check, stall = np.inf, 0

        for iteration in range(1, settings.max_iters + 1):
            rhs = _SIGMA * x + a.tdot(rho_col * z - y)
            # LAPACK's triangular solves directly: cho_solve's argument
            # handling costs more than the solve itself at teleop sizes
            x_tilde, _ = dpotrs(factor, rhs, lower=lower_factor)
            z_tilde = a.dot(x_tilde)
            x = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
            v = _ALPHA * z_tilde + (1.0 - _ALPHA) * z + y / rho_col
            z = np.minimum(np.maximum(v, lower), upper)  # np.clip, without its overhead
            y = rho_col * (v - z)

            if iteration == 1 or iteration % _CHECK_INTERVAL == 0 or iteration == settings.max_iters:
                prim_res, dual_res, converged = _stopping_test(p_s, a, x, a.dot(x), z, y, settings)
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
    )


class _Structure(NamedTuple):
    """What solve_batch derives from Q, A and the tight rows alone."""

    q_matrix: Array
    a_matrix: BlockRows | Array
    norms: Array
    tight: NDArray[np.bool_]
    rho: Array  # per-row penalties, equilibrated (see the module docstring)
    p_s: Array
    eq_rows: NDArray[np.intp]
    unit: Array  # 1 / norms[eq_rows, None]
    kkt: Optional[tuple]  # _kkt_factor of the unit-norm eq_rows


# the _Structure of the last read-only (Q, A) solved. Read once and replaced
# whole, never mutated, so every Session in the process may share it.
_last: Optional[_Structure] = None


def _structure(q_matrix: Array, a_matrix, a: BlockRows, lower: Array, upper: Array) -> _Structure:
    """The stored _Structure if it is of this (Q, A) and its tight rows, else
    a new one, stored if Q and A are read-only, as assemble_qp returns them:
    only then can they not change under it."""
    global _last
    read_only = isinstance(a_matrix, BlockRows) and not any(
        array.flags.writeable for array in (q_matrix, a_matrix.head, a_matrix.blocks)
    )
    last = _last
    hit = read_only and last is not None and last.q_matrix is q_matrix and last.a_matrix is a_matrix
    norms = last.norms if hit else a.row_norms()
    tight = _max(upper - lower, axis=1) <= _EQUALITY_GAP * norms
    if hit and np.array_equal(tight, last.tight):
        return last
    if np.any(norms <= 0):
        raise ValueError("A contains an all-zero row")
    rho = np.where(tight, _RHO * _EQUALITY_RHO_SCALE, _RHO) / norms**2
    # P = 2Q (gradient convention for p^T Q p) at unit max-abs; no abs(Q) temporary
    p_s = q_matrix * (1.0 / max(float(q_matrix.max()), -float(q_matrix.min()), 0.5e-12))
    cost_band = _cost_band(p_s)  # checks that Q is positive semidefinite
    # the start solves on the tight rows of the head at unit norm (tight rows
    # in the blocks, which no caller builds, are left to the iteration)
    eq_rows = np.flatnonzero(tight[: a.head.shape[0]])
    unit = 1.0 / norms[eq_rows, None]
    a_eq = a.head[eq_rows]
    a_eq *= unit  # in place: one (m, n) copy of the head, not two
    s = _Structure(q_matrix, a_matrix, norms, tight, rho, p_s, eq_rows, unit, _kkt_factor(cost_band, a_eq))
    if read_only:
        _last = s
    return s


def _stopping_test(
    p_s: Array, a: BlockRows, x: Array, ax: Array, z: Array, y: Array, settings: SolverSettings
):
    """Primal and dual residuals of each column (ax is A x), and whether
    each passes OSQP's test against the tolerances."""
    prim_res = _max(np.abs(ax - z), axis=0)
    prim_ref = _max(np.maximum(np.abs(ax), np.abs(z)), axis=0)
    px, aty = p_s @ x, a.tdot(y)
    dual_res = _max(np.abs(px + aty), axis=0)
    dual_ref = np.maximum(_max(np.abs(px), axis=0), _max(np.abs(aty), axis=0))
    converged = (prim_res <= settings.eps_abs + settings.eps_rel * prim_ref) & (
        dual_res <= settings.eps_abs + settings.eps_rel * dual_ref
    )
    return prim_res, dual_res, converged


def _max(rows: Array, axis: int) -> Array:
    """rows.max(axis) of a tall (m, k) array, reduced from a (k, m) copy:
    numpy reduces the short rows of an (m, k) array one at a time, which at
    k = 6 takes several times longer than the copy and the reduction."""
    return np.ascontiguousarray(rows.T).max(axis=1 - axis)


def _cost_band(p_s: Array) -> tuple[Array, Array]:
    """The symmetric p_s within its bandwidth kd, read once: the
    (n, 2*kd + 1) column indices and values, entry [i, kd + d] at column
    i + d (clipped to the matrix, where it repeats an entry of the band).
    Raises scipy.linalg.LinAlgError unless p_s + sigma*I has a banded
    Cholesky factor."""
    n = p_s.shape[0]
    rows = np.arange(n)
    nonzero = p_s != 0
    first = nonzero.argmax(axis=1)  # 0 for a zero row too: masked below
    kd = int(np.where(nonzero[rows, first], rows - first, 0).max())
    cols = np.minimum(np.maximum(rows[:, None] + np.arange(-kd, kd + 1), 0), n - 1)
    values = p_s[rows[:, None], cols]
    # LAPACK's lower band storage, [d, j] = p_s[j + d, j]; a copy even at kd = 0
    lower_band = np.array(values[:, kd:].T, order="F")
    lower_band[0] += _SIGMA
    if dpbtrf(lower_band, lower=1, overwrite_ab=1)[1] != 0:
        raise scipy.linalg.LinAlgError("the cost matrix is not positive semidefinite")
    return cols, values


def _kkt_factor(cost_band: tuple[Array, Array], a_eq: Array) -> Optional[tuple]:
    """The banded LU of the KKT matrix [p_s a_eq^T; a_eq 0], for _kkt_solve;
    None if it is singular to working precision.

    cost_band is _cost_band(p_s). Ordering each equality row at the midpoint
    of its first and last nonzero column, among the variables at their own
    index, makes the KKT matrix banded. It is built straight into LAPACK band
    storage and factored by banded LU with partial pivoting (it is
    indefinite); its condition estimate is checked, as scipy.linalg.solve
    does, but without a warning.
    """
    cost_cols, cost_values = cost_band
    n, m = cost_cols.shape[0], a_eq.shape[0]
    nonzero = a_eq != 0
    first, last = nonzero.argmax(axis=1), n - 1 - nonzero[:, ::-1].argmax(axis=1)
    keys = np.concatenate([np.arange(n), 0.5 * (first + last)])
    position = np.empty(n + m, dtype=np.intp)
    position[np.argsort(keys, kind="stable")] = np.arange(n + m)
    # each row's columns first..last, clipped at last like the cost's band
    eq_cols = np.minimum(first[:, None] + np.arange((last - first).max(initial=0) + 1), last[:, None])
    eq_values = a_eq[np.arange(m)[:, None], eq_cols]
    var_pos, row_pos = position[:n, None], position[n:, None]
    cost_pos, eq_pos = position[cost_cols], position[eq_cols]
    kd = int(max(np.abs(cost_pos - var_pos).max(), np.abs(eq_pos - row_pos).max(initial=0)))
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
    _kkt_factor(cost_band, a_eq); None if the back-solve is not finite."""
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

    One dense symmetric-indefinite solve of the stationarity system
    [Q A^T; A 0] [p; lam] = [0; b], refined once. Requires A_eq to have full
    row rank.
    """
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
