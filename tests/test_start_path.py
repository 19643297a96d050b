"""Attack tests for the solver's start path, which reads each stored limit
row once: a block that several segments share holds A x's max and min over
them, and the stopping test reduces those.

Its verdict must be the dense formulation's, bit for bit: the stopping test
on A x at every row of BlockRows.toarray(), clipped to the bounds spread to
every row. Each row's product is taken as the block product takes it
(per_segment().dot): a BLAS product with toarray() sums a row over all n
columns, zeros included, in an order of its own, and differs from it in
the last bit. And the largest request the planner admits must start within
a fixed memory bound.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtmotion import qpsolve
from rtmotion.planner import DEFAULT_DEGREE, MAX_WAYPOINT_DURATION_S, MAX_WAYPOINTS
from rtmotion.qpbuild import assemble_qp

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
    start = qpsolve.solve_batch(loose.q_matrix, loose.a_matrix, loose.lower, loose.upper)
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
        batch = qpsolve.solve_batch(problem.q_matrix, rows, lower, upper, qpsolve.SolverSettings(max_iters=50))
    ax, z, px, aty, settings_ = calls[0]
    start = stopping_test(ax, z, px, aty, settings_)

    s = batch.structure
    x, _ = qpsolve._kkt_solve(s.kkt, lower[s.eq_rows] * s.unit)
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
        batch = qpsolve.solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper)
        assert (batch.iterations == 1) == passes


def test_largest_admissible_request_starts_in_bounded_memory(arm6):
    # 100 waypoints x 10 s: 200,602 limit rows when every segment has its own
    rng = np.random.default_rng(7)
    low, high = arm6.joint_limits.T
    targets = rng.uniform(low, high, (MAX_WAYPOINTS, arm6.dof))
    initial = np.stack([arm6.mid_position(), np.zeros(arm6.dof), np.zeros(arm6.dof)])
    waypoints = [(target, MAX_WAYPOINT_DURATION_S) for target in targets]
    tracemalloc.start()
    try:
        problem = assemble_qp(waypoints, initial, DEFAULT_DEGREE, arm6.control_frequency, arm6.v_max, arm6.a_max)
        batch = qpsolve.solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (batch.status, batch.iterations) == (qpsolve.STATUS_SOLVED, 1)
    assert peak <= MEMORY_BOUND_BYTES
