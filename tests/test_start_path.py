"""Attack tests for the solver's start path, which reads each stored limit
row once: a block that several segments share holds max |A x| over them,
against bounds that must be symmetric, and the stopping test reduces those.
The start itself, qpbuild.KnotStart, must meet every equality row and the
stationarity condition to the rounding of their terms.

Its verdict must be the dense formulation's, bit for bit: the stopping test
on A x at every row of BlockRows.toarray(), clipped to the bounds spread to
every row. Each row's product is taken as the block product takes it
(per_segment().dot): a BLAS product with toarray() sums a row over all n
columns, zeros included, in an order of its own, and differs from it in
the last bit. And the largest request the planner admits must start within
a fixed memory bound, and in less memory when its durations repeat than
when they all differ.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rtmotion import qpbuild, qpsolve
from rtmotion.planner import DEFAULT_DEGREE, MAX_WAYPOINT_DURATION_S, MAX_WAYPOINTS
from rtmotion.qpbuild import QpProblem, assemble_qp

FC = 100.0
LOOSE = 1e9  # above any peak the drawn cases reach
MEMORY_BOUND_BYTES = 20e6
stopping_test = qpsolve._stopping_test


@st.composite
def mixed_duration_cases(draw):
    """Degree 5 or 7; 1-5 distinct durations over 1-8 segments in mixed
    order, the last two possibly rounding to the same sample count; 1-3
    joints; and how the limits are set: 'scaled' by 0.9-3x the start's
    sampled peak, or 'one segment' just below the peak of the segment whose
    velocity peaks highest."""
    degree = draw(st.sampled_from([5, 7]))
    distinct = draw(st.lists(st.floats(0.05, 0.6), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        count = draw(st.integers(5, 60))
        distinct[-1:] = [(count + 0.1) / FC, (count + 0.3) / FC]  # both round to count
    n_seg = draw(st.integers(len(distinct), 8))
    kinds = list(range(len(distinct))) + draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=n_seg - len(distinct), max_size=n_seg - len(distinct))
    )
    durations = np.array(distinct)[draw(st.permutations(kinds))]
    joints = draw(st.integers(1, 3))
    values = st.floats(-0.5, 0.5, allow_nan=False)
    targets = np.array(draw(st.lists(values, min_size=n_seg * joints, max_size=n_seg * joints)))
    initial = np.array(draw(st.lists(values, min_size=3 * joints, max_size=3 * joints)))
    mode = draw(st.sampled_from(["scaled", "one segment"]))
    factors = np.array(draw(st.lists(st.floats(0.9, 3.0), min_size=2, max_size=2)))
    return degree, durations, targets.reshape(n_seg, joints), initial.reshape(3, joints), mode, factors


def limits_for(case):
    """The case's (v_max, a_max), from the sampled peaks of its start."""
    degree, durations, targets, initial, mode, factors = case
    waypoints = list(zip(targets, durations))
    loose = assemble_qp(waypoints, initial, degree, FC, np.full(targets.shape[1], LOOSE), np.full(targets.shape[1], LOOSE))
    start = qpsolve.solve_batch(loose.q_matrix, loose.a_matrix, loose.lower, loose.upper, start=loose.start)
    assert start.iterations == 1
    # per sample a velocity row then an acceleration row, as (N, samples, 2, k)
    values = (loose.a_matrix.toarray() @ start.p)[loose.n_eq :].reshape(len(durations), -1, 2, targets.shape[1])
    peaks = np.abs(values).max(axis=1)  # (N, 2, k)
    if mode == "scaled":
        limits = peaks.max(axis=0) * factors[:, None]
    else:
        limits = np.full((2, targets.shape[1]), LOOSE)
        by_segment = np.sort(peaks[:, 0, 0])
        top, second = by_segment[-1], by_segment[:-1].max(initial=0.0)
        limits[0, 0] = 0.5 * (top + second) if top > second else 0.95 * top
    return np.maximum(limits, 1e-6)


@settings(max_examples=60)
@given(mixed_duration_cases())
@example((5, np.array([0.3, 0.303, 0.3, 0.5]), np.array([[0.2, 0.1], [0.5, 0.0], [-0.1, 0.2], [0.3, 0.3]]), np.zeros((3, 2)), "one segment", np.ones(2)))
@example((7, np.array([0.2, 0.45, 0.2]), np.array([[0.4, -0.2], [0.1, 0.3], [0.0, 0.0]]), np.zeros((3, 2)), "scaled", np.array([3.0, 3.0])))
# every duration twice; one block shared by all segments but one; blocks
# not in the order of how many segments share them (1, 3, then 2)
@example((5, np.array([0.2, 0.35, 0.35, 0.2, 0.5, 0.5]), np.array([[0.2, 0.1], [0.4, -0.1], [0.1, 0.3], [-0.2, 0.0], [0.3, 0.2], [0.0, 0.4]]), np.zeros((3, 2)), "one segment", np.ones(2)))
@example((7, np.array([0.3, 0.3, 0.3, 0.55, 0.3, 0.3]), np.array([[0.1], [0.3], [0.2], [0.5], [0.1], [0.4]]), np.zeros((3, 1)), "scaled", np.array([0.95, 1.5])))
@example((5, np.array([0.5, 0.25, 0.25, 0.4, 0.25, 0.4]), np.array([[0.3, 0.0, 0.1], [0.1, 0.2, 0.0], [0.4, -0.1, 0.2], [0.0, 0.3, 0.1], [0.2, 0.1, -0.3], [0.5, 0.0, 0.0]]), np.zeros((3, 3)), "one segment", np.ones(2)))
def test_start_verdict_is_the_dense_formulations(case):
    degree, durations, targets, initial = case[:4]
    v_max, a_max = limits_for(case)
    problem = assemble_qp(list(zip(targets, durations)), initial, degree, FC, v_max, a_max)
    rows, lower, upper = problem.a_matrix, problem.lower, problem.upper
    assert rows.blocks.shape[0] == len(np.unique(durations))
    # the start path's terms are those of the first stopping test; a start
    # that fails gets ADMM iterations, capped here to keep the test short
    calls = []
    with mock.patch.object(qpsolve, "_stopping_test", lambda *terms: calls.append(terms) or stopping_test(*terms)):
        batch = qpsolve.solve_batch(
            problem.q_matrix, rows, lower, upper, qpsolve.SolverSettings(max_iters=50), problem.start
        )
    ax, z, px, aty, settings_ = calls[0]
    start = stopping_test(ax, z, px, aty, settings_)

    x, _ = problem.start(lower[: problem.n_eq])
    dense_ax = rows.per_segment().dot(x)
    np.testing.assert_allclose(dense_ax, rows.toarray() @ x, rtol=1e-13, atol=1e-13 * np.abs(dense_ax).max())
    dense_z = np.minimum(np.maximum(dense_ax, rows.spread(lower)), rows.spread(upper))
    dense = stopping_test(dense_ax, dense_z, px, aty, settings_)
    for got, want in zip(start, dense):
        assert got.tobytes() == want.tobytes()
    if start[2].all():
        assert (batch.status, batch.iterations) == (qpsolve.STATUS_SOLVED, 1)
        for got, want in zip((batch.primal_residuals, batch.dual_residuals), start):
            assert got.tobytes() == want.tobytes()
    else:
        assert batch.iterations > 1


def test_both_verdicts_occur():
    # a limit just below the one segment's peak fails the start; 3x it passes
    case = (5, np.array([0.3, 0.303, 0.3, 0.5]), np.array([[0.2], [0.5], [-0.1], [0.3]]), np.zeros((3, 1)))
    for mode, passes in (("one segment", False), ("scaled", True)):
        v_max, a_max = limits_for((*case, mode, np.array([3.0, 3.0])))
        problem = assemble_qp(list(zip(case[2], case[1])), case[3], case[0], FC, v_max, a_max)
        batch = qpsolve.solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper, start=problem.start)
        assert (batch.iterations == 1) == passes


# subnormal inputs make subnormal terms, whose products round to 0
REAL = {"allow_nan": False, "allow_subnormal": False}


@settings(max_examples=60)
@given(
    degree=st.integers(5, 7),
    log_duration=st.floats(np.log(0.02), np.log(5.0)),
    spread=st.lists(st.floats(1.0, 2.0, **REAL), min_size=1, max_size=60),
    positions=st.lists(st.floats(-3.0, 3.0, **REAL), min_size=122, max_size=122),
    rates=st.lists(st.floats(-1.0, 1.0, **REAL), min_size=4, max_size=4),
)
# a teleop window 3 rad from 0; 60 segments of 0.05-0.1 s at degree 7
@example(5, np.log(0.04), [1.0] * 5, [3.0 - 1e-3 * k for k in range(122)], [0.01, 0.0, 0.0, 0.0])
@example(7, np.log(0.05), [1.0, 2.0] * 30, [(-1.0) ** k * 3.0 for k in range(122)], [1.0, -1.0, 1.0, -1.0])
def test_knot_start_meets_every_equality_row(degree, log_duration, spread, positions, rates):
    # durations mixed within a factor of 2 around a scale of 0.02-10 s, and
    # positions anywhere in +-3 rad: each segment is computed relative to its
    # start position, or a junction far from 0 would meet only to the
    # rounding of that position (6.3e-11 rad/s^2 on teleop windows)
    durations = np.exp(log_duration) * np.array(spread)
    # a segment sampled at fewer points than its jerk has coefficients (L-2)
    # leaves some knots to the ridge alone, and K singular to working precision
    assume(np.round(FC * durations.min()) + 1 >= degree - 2)
    q = np.reshape(positions, (61, 2))[: len(durations) + 1]
    initial = np.vstack([q[0], np.reshape(rates, (2, 2))])
    problem = assemble_qp(list(zip(q[1:], durations)), initial, degree, FC, np.full(2, LOOSE), np.full(2, LOOSE))
    start, head, b_eq = problem.start, problem.a_matrix.head, problem.lower[: problem.n_eq]
    x, y = start(b_eq)
    # every start, terminal, pass-through and junction row, and P_s x +
    # A_eq^T y, each within 1e-12 of the magnitude of the terms it sums
    rows = np.abs(head @ x - b_eq) <= 1e-12 * (np.abs(head) @ np.abs(x) + np.abs(b_eq))
    assert rows.all(), f"rows {np.flatnonzero(~rows.all(axis=1))} miss their right-hand sides"
    p_s = qpbuild._block_diagonal(problem.q_matrix) * start.scale
    stationary = np.abs(p_s @ x + head.T @ y) <= 1e-12 * (np.abs(p_s) @ np.abs(x) + np.abs(head.T) @ np.abs(y))
    assert stationary.all()


def test_block_row_bounds_must_be_symmetric():
    # a stored block row stands for that row in each of its segments through
    # one max |A x|, which decides the start only against symmetric bounds
    problem = assemble_qp([(0.3, 0.5), (0.1, 0.2), (0.2, 0.5)], (0.0, 0.0, 0.0), 5, FC, 2.0, 20.0)
    rows, n_eq = problem.a_matrix, problem.n_eq

    def bounds(row, low, high):
        lower, upper = problem.lower.copy(), problem.upper.copy()
        lower[row], upper[row] = low, high
        return lower, upper

    for lower, upper in (bounds(n_eq + 1, -1.0, 2.0), bounds(-1, 0.0, np.inf), bounds(n_eq, -np.inf, 1.0)):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(problem.q_matrix, rows, lower, upper, n_eq).validate()
        with pytest.raises(ValueError, match="symmetric"):
            qpsolve.solve_batch(problem.q_matrix, rows, lower[:, None], upper[:, None])
    # +-inf on a block row, and any interval on a row of the head, are accepted
    for lower, upper in (bounds(n_eq + 1, -np.inf, np.inf), bounds(0, -1.0, 5.0)):
        QpProblem(problem.q_matrix, rows, lower, upper, n_eq).validate()
        batch = qpsolve.solve_batch(problem.q_matrix, rows, lower[:, None], upper[:, None])
        assert (batch.status, batch.iterations) == (qpsolve.STATUS_SOLVED, 1)


def peak_of(problem_of):
    """The tracemalloc peak of assembling and solving problem_of()'s request,
    with the problem and its solution."""
    tracemalloc.start()
    try:
        problem = problem_of()
        batch = qpsolve.solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper, start=problem.start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return problem, batch, peak


def test_largest_admissible_request_starts_in_bounded_memory(arm6):
    # 100 waypoints x 10 s: 200,602 limit rows when every segment has its own
    rng = np.random.default_rng(7)
    low, high = arm6.joint_limits.T
    targets = rng.uniform(low, high, (MAX_WAYPOINTS, arm6.dof))
    initial = np.stack([arm6.mid_position(), np.zeros(arm6.dof), np.zeros(arm6.dof)])

    def request(durations):
        waypoints = list(zip(targets, durations))
        return lambda: assemble_qp(waypoints, initial, DEFAULT_DEGREE, arm6.control_frequency, arm6.v_max, arm6.a_max)

    # one duration; durations of as many samples that all differ; the same,
    # each repeated twice
    distinct = MAX_WAYPOINT_DURATION_S - 1e-4 * np.arange(MAX_WAYPOINTS)
    cases = {1: np.full(MAX_WAYPOINTS, MAX_WAYPOINT_DURATION_S), MAX_WAYPOINTS: distinct}
    cases[MAX_WAYPOINTS // 2] = distinct[np.arange(MAX_WAYPOINTS) // 2]
    peaks = {}
    for n_blocks, durations in cases.items():
        problem, batch, peaks[n_blocks] = peak_of(request(durations))
        assert (batch.status, batch.iterations) == (qpsolve.STATUS_SOLVED, 1)
        assert problem.a_matrix.n_stored == problem.n_eq + n_blocks * problem.a_matrix.blocks.shape[1]
    assert peaks[1] <= MEMORY_BOUND_BYTES
    # a shared block's rows are stored once, whatever the number of segments
    assert peaks[MAX_WAYPOINTS // 2] < peaks[MAX_WAYPOINTS]
