"""Property tests for the structured constraint rows: a dense equality head
above limit blocks, one per distinct duration and shared by its segments,
where a segment with fewer samples than the longest repeats the limit rows
of its last tick.

The oracle is the row-by-row assembly from basis_row that the structured
form replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion.poly import basis_row
from rtmotion.qpbuild import RIDGE, BlockRows, QpBuildError, _block_diagonal, assemble_qp, build_equality
from rtmotion.qpsolve import STATUS_SOLVED, solve_batch, solve_kkt_equality

FC = 100.0
V_MAX, A_MAX = 2.0, 20.0
# numpy's vectorized pow may differ from Python's scalar pow in the last bit
BASIS_RTOL = 1e-13
PROPERTY = settings(max_examples=30)


@st.composite
def segment_problems(draw, dof=1, durations=(0.02, 0.3), degrees=(5, 6)):
    """1-8 segments of unequal durations (by default 2 to 30 samples each at
    FC), the targets of dof joints and their initial (q, qd, qdd) states."""
    n_seg = draw(st.integers(1, 8))
    degree = draw(st.sampled_from(degrees))
    values = st.floats(-0.5, 0.5, allow_nan=False)
    durations = draw(st.lists(st.floats(*durations), min_size=n_seg, max_size=n_seg))
    targets = np.array(draw(st.lists(values, min_size=n_seg * dof, max_size=n_seg * dof)))
    initial = np.array(draw(st.lists(values, min_size=3 * dof, max_size=3 * dof)))
    return degree, np.array(durations), targets.reshape(n_seg, dof), initial.reshape(3, dof)


def waypoints_of(targets, durations, joint=0):
    return [(float(q), float(d)) for q, d in zip(targets[:, joint], durations)]


def sample_counts(durations):
    return [max(2, int(round(FC * d)) + 1) for d in durations]


def reference_assembly(degree, durations):
    """Jerk cost and limit rows built sample by sample from basis_row; the
    limit rows of a segment with fewer samples than the longest repeat its
    last tick, which the cost counts once."""
    n_seg = len(durations)
    width = degree + 1
    q_matrix = np.zeros((width * n_seg, width * n_seg))
    limit_rows = []
    n_samples = max(sample_counts(durations))
    for i, (d, count) in enumerate(zip(durations, sample_counts(durations))):
        cols = slice(i * width, (i + 1) * width)
        samples = np.linspace(0.0, 1.0, count)
        jerk = np.array([basis_row(degree, u, 3) for u in samples])
        q_matrix[cols, cols] = jerk.T @ jerk * d**-6
        for u in np.concatenate([samples, np.ones(n_samples - count)]):
            for k in (1, 2):
                row = np.zeros(width * n_seg)
                row[cols] = basis_row(degree, u, k) * d**-k
                limit_rows.append(row)
    return q_matrix, np.array(limit_rows)


@PROPERTY
@given(segment_problems())
def test_dense_view_matches_row_by_row_assembly(case):
    degree, durations, targets, initial = case
    wps = waypoints_of(targets, durations)
    problem = assemble_qp(wps, tuple(initial[:, 0]), degree, FC, V_MAX, A_MAX)
    a_eq, b_eq = build_equality(wps, tuple(initial[:, 0]), degree)
    q_ref, limit_rows = reference_assembly(degree, durations)

    dense = problem.a_matrix.toarray()
    np.testing.assert_array_equal(dense[: problem.n_eq], a_eq)
    np.testing.assert_allclose(dense[problem.n_eq :], limit_rows, rtol=BASIS_RTOL, atol=0.0)
    np.testing.assert_array_equal(np.asarray(problem.a_matrix), dense)
    assert problem.a_matrix.shape == dense.shape
    rows = problem.a_matrix
    np.testing.assert_array_equal(rows.spread(rows.norms), np.abs(dense).max(axis=1))
    jerk = _block_diagonal(problem.q_matrix) - RIDGE * np.eye(problem.n_vars)
    np.testing.assert_allclose(jerk, q_ref, rtol=1e-12, atol=1e-12 * np.abs(q_ref).max())
    limits = np.tile([V_MAX, A_MAX], len(limit_rows) // 2)
    np.testing.assert_array_equal(rows.spread(problem.lower), np.concatenate([b_eq, -limits]))
    np.testing.assert_array_equal(rows.spread(problem.upper), np.concatenate([b_eq, limits]))


@PROPERTY
@given(segment_problems(dof=2))
def test_repeated_rows_copy_the_last_tick(case):
    degree, durations, targets, initial = case
    v_max, a_max = np.array([1.0, 2.0]), np.array([10.0, 20.0])
    problem = assemble_qp(list(zip(targets, durations)), initial, degree, FC, v_max, a_max)
    rows = problem.a_matrix
    blocks = rows.per_segment().blocks
    lower = rows.spread(problem.lower)[problem.n_eq :].reshape(len(durations), -1, 2, 2)
    upper = rows.spread(problem.upper)[problem.n_eq :].reshape(lower.shape)
    assert blocks.shape[1] == 2 * max(sample_counts(durations))
    for i, count in enumerate(sample_counts(durations)):
        # per sample a velocity row then an acceleration row
        rows = blocks[i].reshape(-1, 2, degree + 1)
        for per_sample in (rows, lower[i], upper[i]):
            assert np.all(per_sample[count:] == per_sample[count - 1])


@PROPERTY
@given(segment_problems(dof=3))
def test_bound_columns_match_per_joint_assembly(case):
    degree, durations, targets, initial = case
    v_max, a_max = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])
    problem = assemble_qp(list(zip(targets, durations)), initial, degree, FC, v_max, a_max)
    assert problem.lower.shape == problem.upper.shape == (problem.a_matrix.n_stored, 3)
    for j in range(3):
        wps = waypoints_of(targets, durations, j)
        single = assemble_qp(wps, tuple(initial[:, j]), degree, FC, v_max[j], a_max[j])
        np.testing.assert_array_equal(problem.q_matrix, single.q_matrix)
        np.testing.assert_array_equal(problem.a_matrix.toarray(), single.a_matrix.toarray())
        np.testing.assert_array_equal(problem.lower[:, j], single.lower)
        np.testing.assert_array_equal(problem.upper[:, j], single.upper)


@PROPERTY
@given(segment_problems(dof=2))
def test_structured_solve_matches_dense_solve(case):
    degree, durations, targets, initial = case
    v_max, a_max = np.full(2, V_MAX), np.full(2, A_MAX)
    problem = assemble_qp(list(zip(targets, durations)), initial, degree, FC, v_max, a_max)
    structured = solve_batch(problem.q_matrix, problem.a_matrix, problem.lower, problem.upper)
    rows = problem.a_matrix
    dense = solve_batch(problem.q_matrix, rows.toarray(), rows.spread(problem.lower), rows.spread(problem.upper))
    assert structured.status == dense.status
    if dense.status == STATUS_SOLVED:
        scale = 1.0 + np.max(np.abs(dense.p))
        assert np.max(np.abs(structured.p - dense.p)) <= 1e-6 * scale


# the default tolerances, degrees 5-7 and the durations of acceptance
# criterion 2; much shorter segments next to long ones make the KKT matrix
# itself ill-conditioned. ADMM starts at the equality-constrained minimizer,
# so this holds at degree 6 too, where the zero start's stopping test
# accepted coefficients 6e-5 from the optimum
@PROPERTY
@given(segment_problems(durations=(0.3, 1.5), degrees=(5, 6, 7)))
def test_equality_only_structured_solve_matches_kkt(case):
    degree, durations, targets, initial = case
    wps = waypoints_of(targets, durations)
    problem = assemble_qp(wps, tuple(initial[:, 0]), degree, FC, V_MAX, A_MAX)
    a_eq, b_eq = build_equality(wps, tuple(initial[:, 0]), degree)
    # the equality head over per-segment blocks without rows
    rows = BlockRows(a_eq, np.zeros((len(durations), 0, degree + 1)), np.arange(len(durations)))
    admm = solve_batch(problem.q_matrix, rows, b_eq[:, None], b_eq[:, None])
    assert admm.status == STATUS_SOLVED
    kkt = solve_kkt_equality(problem.q_matrix, a_eq, b_eq)
    assert np.max(np.abs(admm.p[:, 0] - kkt)) <= 1e-5 * (1.0 + np.max(np.abs(kkt)))


def test_extremes_hold_a_shared_blocks_max_abs():
    # durations 0.5, 0.2, 0.5, 0.5: block 0 is shared by segments 0, 2 and 3
    problem = assemble_qp([(0.3, 0.5), (0.6, 0.2), (0.1, 0.5), (0.4, 0.5)], (0.0, 0.0, 0.0), 5, FC, V_MAX, A_MAX)
    rows, n_eq = problem.a_matrix, problem.n_eq
    np.testing.assert_array_equal(rows.segment_of, [0, 1, 0, 0])
    x = np.random.default_rng(0).normal(size=(rows.shape[1], 2))
    every = rows.per_segment().dot(x)
    ax = rows.extremes(x)
    assert len(ax) == rows.n_stored == n_eq + 2 * rows.blocks.shape[1]
    np.testing.assert_array_equal(ax[:n_eq], every[:n_eq])
    by_segment, stored = np.abs(every[n_eq:]).reshape(4, -1, 2), ax[n_eq:].reshape(2, -1, 2)
    assert stored.tobytes() == np.stack([by_segment[[0, 2, 3]].max(axis=0), by_segment[1]]).tobytes()


def test_every_block_must_be_used():
    # a block no segment has would be an unused index
    head, blocks = np.ones((1, 18)), np.ones((2, 4, 6))
    assert BlockRows(head, blocks, np.array([0, 1, 0])).n_stored == 1 + 2 * 4
    assert BlockRows(head, blocks, np.array([0, 1, 1])).n_stored == 1 + 2 * 4
    with pytest.raises(QpBuildError, match="every block must be used"):
        BlockRows(head, blocks, np.array([0, 0, 0]))
