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

The iterate does not start at zero. One symmetric-indefinite solve of the
KKT system [P A_eq^T; A_eq 0] over the tight rows of the head, normalized
to unit norm (all columns at once), gives the minimizer over the equalities
and its multipliers; x starts there, z at A x clipped to [l, u], y at the
multipliers on the tight rows and 0 elsewhere. When no limit row is active
at that point it is a fixed point of the iteration, so the stopping test
runs after iteration 1 (and then every 25 iterations) and such a problem
reports iterations == 1.
When a limit binds, the iteration continues from there unchanged. A KKT
matrix that is singular to working precision falls back to the zero start,
silently.

A is taken as qpbuild.BlockRows (a dense matrix is a head with no tail), so
one iteration costs products with the dense head, O(N * R * (L+1)) for the
per-segment blocks, and a pair of n x n triangular solves with the factor.
The bounds, z and y follow A's one row order (the head, then each block in
block order), so the caller's bounds are used as they are.

The problems of a request's joints share Q and A and are solved as the
columns of one batch (solve_batch), which amortizes the factorization and
the per-iteration matrix products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

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
    The reduced matrix is positive definite for a positive semidefinite Q;
    for any other Q its Cholesky factorization raises
    scipy.linalg.LinAlgError.
    """
    settings = settings or SolverSettings()
    start = time.perf_counter()
    a = BlockRows.wrap(a_matrix)
    n = q_matrix.shape[0]
    n_problems = lower.shape[1]

    # equilibration (see the module docstring): rho / norm**2 per row
    norms = a.row_norms()
    if np.any(norms <= 0):
        raise ValueError("A contains an all-zero row")
    p_full = 2.0 * q_matrix  # gradient convention for the p^T Q p objective
    cost_scale = 1.0 / max(float(np.max(np.abs(p_full))), 1e-12)
    p_s = p_full * cost_scale

    tight = np.all(upper - lower <= _EQUALITY_GAP * norms[:, None], axis=1)
    rho = np.where(tight, _RHO * _EQUALITY_RHO_SCALE, _RHO) / norms**2

    reduced = p_s + _SIGMA * np.eye(n) + a.gram(rho)
    factor, lower_factor = scipy.linalg.cho_factor(reduced, check_finite=False)

    # LAPACK's triangular solves directly: cho_solve's argument handling
    # costs more than the solve itself at teleop sizes
    (potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (factor,))
    x = np.zeros((n, n_problems))
    z = np.zeros((a.shape[0], n_problems))
    y = np.zeros_like(z)
    # start at the minimizer over the tight rows of the head, with its
    # multipliers (tight rows in the blocks, which no caller builds, are left
    # to the iteration)
    eq_rows = np.flatnonzero(tight[: a.head.shape[0]])
    unit = 1.0 / norms[eq_rows, None]  # the start solves on unit-norm rows
    start_point = _equality_start(p_s, a.head[eq_rows] * unit, lower[eq_rows] * unit)
    if start_point is not None:
        x, y_unit = start_point
        y[eq_rows] = y_unit * unit
        z = np.minimum(np.maximum(a.dot(x), lower), upper)
    # per-row penalties as a full (m, k) array: broadcasting an (m, 1) column
    # over the k problems defeats numpy's contiguous inner loops
    rho_col = np.repeat(rho[:, None], n_problems, axis=1)

    status = STATUS_MAX_ITERS
    iterations = settings.max_iters
    prim_res = np.full(n_problems, np.inf)
    dual_res = np.full(n_problems, np.inf)
    converged = np.zeros(n_problems, dtype=bool)
    prev_check = np.inf
    stall = 0

    for iteration in range(1, settings.max_iters + 1):
        rhs = _SIGMA * x + a.tdot(rho_col * z - y)
        x_tilde, _ = potrs(factor, rhs, lower=lower_factor)
        z_tilde = a.dot(x_tilde)
        x = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
        v = _ALPHA * z_tilde + (1.0 - _ALPHA) * z + y / rho_col
        z = np.minimum(np.maximum(v, lower), upper)  # np.clip, without its overhead
        y = rho_col * (v - z)

        # the start is a fixed point when no limit row is active: check at once
        if iteration == 1 or iteration % _CHECK_INTERVAL == 0 or iteration == settings.max_iters:
            ax = a.dot(x)
            prim_res = np.abs(ax - z).max(axis=0)
            prim_ref = np.maximum(np.abs(ax), np.abs(z)).max(axis=0)
            px, aty = p_s @ x, a.tdot(y)
            dual_res = np.abs(px + aty).max(axis=0)
            dual_ref = np.maximum(np.abs(px).max(axis=0), np.abs(aty).max(axis=0))
            converged = (prim_res <= settings.eps_abs + settings.eps_rel * prim_ref) & (
                dual_res <= settings.eps_abs + settings.eps_rel * dual_ref
            )
            if converged.all():
                status = STATUS_SOLVED
                iterations = iteration
                break
            worst = float(prim_res.max())
            if worst > _STALL_LEVEL * settings.eps_abs and worst > _STALL_RATIO * prev_check:
                stall += 1
                if stall >= _STALL_CHECKS:
                    status = STATUS_PRIMAL_INFEASIBLE
                    iterations = iteration
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


def _equality_start(p_s: Array, a_eq: Array, b_eq: Array) -> Optional[tuple[Array, Array]]:
    """Minimizer of 1/2 x^T p_s x subject to a_eq x = b_eq, one column per
    column of b_eq, and its multipliers y (p_s x + a_eq^T y = 0); None if the
    KKT matrix [p_s a_eq^T; a_eq 0] is singular to working precision.

    One LDL^T factorization of the KKT matrix, in place and from its lower
    triangle alone; its condition estimate is checked, as scipy.linalg.solve
    does, but without a warning.
    """
    n, m = p_s.shape[0], a_eq.shape[0]
    kkt = np.zeros((n + m, n + m), order="F")
    kkt[:n, :n] = p_s
    kkt[n:, :n] = a_eq
    abs_eq = np.abs(a_eq)
    # 1-norm of the symmetric matrix: its largest column sum
    kkt_norm = max(
        float(np.max(np.abs(p_s).sum(axis=0) + abs_eq.sum(axis=0))),
        float(np.max(abs_eq.sum(axis=1), initial=0.0)),
    )
    sytrf, sytrf_lwork, sycon, sytrs = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrf_lwork", "sycon", "sytrs"), (kkt,)
    )
    # the blocked factorization needs its workspace query: the wrapper's
    # default workspace runs the unblocked one, about 3x slower
    lwork = int(sytrf_lwork(n + m, lower=1)[0])
    ldl, pivots, info = sytrf(kkt, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:
        return None
    rcond, info = sycon(ldl, pivots, kkt_norm, lower=1)
    if info != 0 or not rcond >= np.finfo(float).eps:
        return None
    rhs = np.zeros((n + m, b_eq.shape[1]), order="F")
    rhs[n:] = b_eq
    sol, info = sytrs(ldl, pivots, rhs, lower=1, overwrite_b=1)
    if info != 0 or not np.isfinite(sol).all():
        return None
    return sol[:n], sol[n:]


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
    [Q A^T; A 0] [p; lam] = [0; b]. Requires A_eq to have full row rank.
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
    except scipy.linalg.LinAlgError as exc:
        raise ValueError(f"singular KKT matrix (rank-deficient constraints): {exc}") from exc
    p = sol[:n]
    residual = np.max(np.abs(a_eq @ p - b_eq)) if m else 0.0
    if not np.isfinite(p).all() or residual > 1e-6 * max(1.0, float(np.max(np.abs(b_eq), initial=0.0))):
        raise ValueError("singular KKT matrix (rank-deficient constraints)")
    return p
