"""Operator-splitting (ADMM) solver for min p^T Q p s.t. l <= A p <= u, plus
a dense KKT solve used as the equality-only verification oracle.

The iteration follows the standard splitting: factor (P + sigma*I +
A^T diag(rho) A) once, then alternate a linear solve, a relaxed averaging
step, projection of z onto [l, u], and a dual update, with OSQP's rho, sigma
and alpha (Stellato et al., Math. Prog. Comp. 2020). The factor is numpy's
Cholesky, kept as L^-1, so each solve is two matrix products. Tight rows
(l == u) get a 1000x penalty weight. The cost is scaled to unit max-abs
and each row's penalty divided by its squared max-abs norm: the iteration
on unit-norm rows, run on the caller's rows with z and y in their own units.
Neither changes the minimizer. The 1e-8 default tolerances keep limit,
junction and terminal residuals inside the 1e-6 contracts.

The iterate starts at the minimizer over the head's equality rows and its
multipliers (z at A x clipped to [l, u], y 0 off the head), and is returned
as it is, with iterations == 1, when it passes the stopping test: when no
limit row is active. For assemble_qp's problems that start is the closed
form of their structure (qpbuild.KnotStart). On a reused structure that
start is one product by its compiled, verified map (KnotStart.compile),
returned when A x passes the primal half of the stopping test, as any
start's, and the map's stationarity bound passes eps_abs alone; any other
request, a binding one included, takes the start call. Otherwise (degree 4,
a dense problem, a freed head row) a dense QR of the tight rows at unit norm
gives it by the null-space method; rows rank-deficient to working precision
fall back to the zero start, silently. The start's test reads A x at A's
stored rows (BlockRows.extremes), which gives the verdict over every row,
bit for bit. Only ADMM builds every segment's block, the dense scaled cost
and the reduced matrix. A saddle point of a nonconvex cost passes the
stopping test too, so the dense start raises numpy.linalg.LinAlgError for a
Q that is not positive semidefinite (assemble_qp's is by construction).

The problems of a request's joints share Q and A and are solved as the
columns of one batch (solve_batch). The solver keeps nothing between calls:
what depends on Q and A alone is assemble_qp's structure, which a request
that repeats the plan it replaces gets from that plan. The reduced factor
is not kept: a solve that iterates runs hundreds of iterations, each
costing about as much as the factorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from rtmotion import qpbuild  # _block_diagonal through the module: a test counts its calls
# ADMM factors through this name, which a test replaces to see whether it does
from rtmotion.qpbuild import TOLERANCE, BlockRows, KnotStart, QpProblem, cost_blocks, cost_scale, inverse_factor as _inverse_factor

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
    eps_abs: float = TOLERANCE
    eps_rel: float = TOLERANCE
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
    start: Optional[KnotStart] = None,
) -> BatchSolution:
    """ADMM over the columns of lower/upper; all columns share Q and A.

    Q is (N, w, w) blocks or a dense (n, n) matrix (qpbuild.cost_blocks).
    lower and upper follow the stored rows of A (qpbuild.BlockRows), and a
    ValueError is raised unless those of its block rows are symmetric.
    start, the KnotStart of this Q and A (QpProblem.start), is used when
    every head row's bounds are equal, through its compiled map when the
    request passes there; otherwise the start is the dense one, which raises
    numpy.linalg.LinAlgError for a Q that is not positive semidefinite. Only
    a start that fails the stopping test is iterated.
    """
    settings = settings or SolverSettings()
    t_start = time.perf_counter()
    a = BlockRows.wrap(a_matrix)
    blocks = cost_blocks(q_matrix)
    n_problems, m_head = lower.shape[1], a.head.shape[0]
    a.check_bounds(lower, upper)
    if start is not None and (lower[:m_head] == upper[:m_head]).all():
        scale, mapped = start.scale, start.mapped(lower[:m_head])
        if mapped is not None:
            # the map's dual residual is a bound, with no terms for eps_rel
            # to scale: held to eps_abs alone, a start the full test would
            # refuse is never passed
            x, dual_res = mapped
            prim_res, prim_ref = _residual(*_at_rows(a, x, lower, upper), np.subtract)
            converged = (prim_res <= settings.eps_abs + settings.eps_rel * prim_ref) & (dual_res <= settings.eps_abs)
            if converged.all():
                return BatchSolution(x, STATUS_SOLVED, 1, time.perf_counter() - t_start, prim_res, dual_res, converged)
        start_point = start(lower[:m_head])
    else:
        scale = cost_scale(blocks)
        tight = _tight_rows(a, lower, upper)[:m_head]
        start_point = _dense_start(blocks * scale, a.head, a.norms[:m_head], tight, lower[:m_head])

    if start_point is None:
        prim_res = dual_res = np.full(n_problems, np.inf)
        converged = np.zeros(n_problems, dtype=bool)
    else:
        x, y_head = start_point
        ax, z = _at_rows(a, x, lower, upper)  # first: P_s x held through extremes' products raises the peak
        px = np.matmul(blocks, x.reshape(len(blocks), blocks.shape[1], n_problems)).reshape(x.shape) * scale
        prim_res, dual_res, converged = _stopping_test(ax, z, px, a.head.T @ y_head, settings)

    status, iterations = STATUS_SOLVED, 1
    if not converged.all():
        # only ADMM needs every segment's rows, the bounds and penalties at
        # every row, y on every row and the dense scaled cost
        rho = a.spread(np.where(_tight_rows(a, lower, upper), _RHO * _EQUALITY_RHO_SCALE, _RHO) / a.norms**2)
        rows, lower, upper = a.per_segment(), a.spread(lower), a.spread(upper)
        y = np.zeros((rows.shape[0], n_problems))
        if start_point is None:
            x, z = np.zeros((rows.shape[1], n_problems)), np.zeros_like(y)
        else:
            y[:m_head] = y_head
            z = np.minimum(np.maximum(rows.dot(x), lower), upper)
        p_s = qpbuild._block_diagonal(blocks) * scale
        inverse_factor = _inverse_factor(p_s + _SIGMA * np.eye(len(x)) + rows.gram(rho))
        # per-row penalties as a full (m, k) array: broadcasting an (m, 1)
        # column over the k problems defeats numpy's contiguous inner loops
        rho_col = np.repeat(rho[:, None], n_problems, axis=1)
        status, iterations = STATUS_MAX_ITERS, settings.max_iters
        prev_check, stall = np.inf, 0

        for iteration in range(1, settings.max_iters + 1):
            rhs = _SIGMA * x + rows.tdot(rho_col * z - y)
            x_tilde = inverse_factor.T @ (inverse_factor @ rhs)
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
        solve_time=time.perf_counter() - t_start,
        primal_residuals=prim_res,
        dual_residuals=dual_res,
        converged=converged,
    )


def _tight_rows(a: BlockRows, lower: Array, upper: Array) -> NDArray[np.bool_]:
    """The stored rows whose bounds are equal in every column, to 1e-12 of
    the row's norm."""
    # reduced from a (k, m) copy: numpy reduces the short rows of an (m, k)
    # array one at a time, several times slower at k = 6
    return np.ascontiguousarray((upper - lower).T).max(axis=0) <= _EQUALITY_GAP * a.norms


def _dense_start(p_s: Array, head: Array, norms: Array, tight: NDArray[np.bool_], b_head: Array) -> Optional[tuple]:
    """Minimizer of 1/2 x^T P_s x over the tight rows of the head, and its
    multipliers y on every head row (0 off the tight rows), from one QR of
    the tight rows at unit norm; None if they are rank-deficient or P_s is
    singular on their null space. p_s is P_s's (N, w, w) blocks: LinAlgError
    unless each block of P_s + sigma*I has a Cholesky factor."""
    np.linalg.cholesky(p_s + _SIGMA * np.eye(p_s.shape[1]))
    p_s = qpbuild._block_diagonal(p_s)
    eq_rows = np.flatnonzero(tight)
    m, n = len(eq_rows), head.shape[1]
    unit = 1.0 / norms[eq_rows, None]
    basis, triangle = np.linalg.qr((head[eq_rows] * unit).T, mode="complete")
    diagonal = np.abs(np.diagonal(triangle))
    if diagonal.min(initial=np.inf) <= max(m, n) * _EPS * diagonal.max(initial=0.0):
        return None
    range_basis, null_basis = basis[:, :m], basis[:, m:]
    x = range_basis @ np.linalg.solve(triangle[:m].T, b_head[eq_rows] * unit)
    reduced = null_basis.T @ p_s @ null_basis
    try:
        np.linalg.cholesky(reduced)
    except np.linalg.LinAlgError:
        return None
    x -= null_basis @ np.linalg.solve(reduced, null_basis.T @ (p_s @ x))
    y = np.zeros_like(b_head)
    y[eq_rows] = -np.linalg.solve(triangle[:m], range_basis.T @ (p_s @ x)) * unit
    return x, y


def _residual(first: Array, second: Array, combine) -> tuple[Array, Array]:
    """Each column's max |first combine second| over its rows, and the
    test's reference max(|first|, |second|), reduced from one (3, k, rows)
    scratch array, as the tight rows are in solve_batch."""
    terms = np.empty((3, first.shape[1], len(first)))
    terms[0], terms[1] = first.T, second.T
    combine(terms[0], terms[1], out=terms[2])
    np.abs(terms, out=terms)
    first_ref, second_ref, residual = terms.max(axis=2)
    return residual, np.maximum(first_ref, second_ref)


def _at_rows(a: BlockRows, x: Array, lower: Array, upper: Array) -> tuple[Array, Array]:
    """A x at the stored rows (BlockRows.extremes), whose terms are those of
    every row, and z at it clipped to [lower, upper]."""
    ax = a.extremes(x)
    z = np.maximum(ax, lower)
    np.minimum(z, upper, out=z)  # np.clip, without its overhead
    return ax, z


def _stopping_test(ax: Array, z: Array, px: Array, aty: Array, settings: SolverSettings):
    """Primal and dual residuals of each column (ax is A x, px is P_s x and
    aty is A^T y), and whether each passes OSQP's test against the
    tolerances."""
    prim_res, prim_ref = _residual(ax, z, np.subtract)
    dual_res, dual_ref = _residual(px, aty, np.add)
    converged = (prim_res <= settings.eps_abs + settings.eps_rel * prim_ref) & (dual_res <= settings.eps_abs + settings.eps_rel * dual_ref)
    return prim_res, dual_res, converged


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
        problem.start,
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

    Q is blocks or a dense matrix (qpbuild.cost_blocks). One dense LU solve
    of the stationarity system [Q A^T; A 0] [p; lam] = [0; b], refined once.
    Requires A_eq to have full row rank.
    """
    q_matrix = qpbuild._block_diagonal(cost_blocks(q_matrix))
    n = q_matrix.shape[0]
    m = a_eq.shape[0]
    # scale-invariant in p: normalize the cost and the constraint rows so the
    # indefinite solve stays well conditioned at short-segment cost scales
    q_scale = 1.0 / max(float(np.max(np.abs(q_matrix))), 1e-12)
    row_norms = np.max(np.abs(a_eq), axis=1)
    if np.any(row_norms <= 0):
        raise ValueError("singular KKT matrix (zero constraint row)")
    e_scale = 1.0 / row_norms
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = q_matrix * q_scale
    kkt[:n, n:] = (a_eq * e_scale[:, None]).T
    kkt[n:, :n] = a_eq * e_scale[:, None]
    rhs = np.concatenate([np.zeros(n), b_eq * e_scale])
    try:
        sol = np.linalg.solve(kkt, rhs)
        # one step of iterative refinement: at degree 7 and durations of 0.03
        # to 1.2 s the solve alone was up to 3e-7 (relative) from a 40-digit
        # solve, and 4e-11 after this step
        sol += np.linalg.solve(kkt, rhs - kkt @ sol)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular KKT matrix (rank-deficient constraints): {exc}") from exc
    p = sol[:n]
    residual = np.max(np.abs(a_eq @ p - b_eq)) if m else 0.0
    if not np.isfinite(p).all() or residual > 1e-6 * max(1.0, float(np.max(np.abs(b_eq), initial=0.0))):
        raise ValueError("singular KKT matrix (rank-deficient constraints)")
    return p
