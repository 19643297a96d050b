import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion.poly import basis_row
from rtmotion.qpbuild import (
    FULL_RANK_DEGREE,
    QpBuildError,
    _block_diagonal,
    _equality_rows,
    _jerk_blocks,
    _sample_grid,
    assemble_qp,
    build_equality,
)


def segment_samples(duration, fc):
    """One segment's normalized sample times, from _sample_grid."""
    return _sample_grid(np.array([duration], dtype=float), fc)[0][0]


def jerk_cost_matrix(degree, duration, fc):
    """One segment's jerk cost block, built as assemble_qp builds it."""
    durations = np.array([duration], dtype=float)
    return _jerk_blocks(degree, durations, *_sample_grid(durations, fc))[0]


class TestJerkCostMatrix:
    def test_single_sample_gram_structure(self):
        # Gram matrix of one third-derivative row at u=0: only [3][3] nonzero
        row = basis_row(5, 0.0, 3)
        gram = np.outer(row, row) * 0.5**-6
        assert gram[3, 3] == pytest.approx(36.0 * 0.5**-6)
        nz = np.nonzero(gram)
        assert nz[0].tolist() == [3] and nz[1].tolist() == [3]

    @pytest.mark.parametrize("degree,duration,fc", [(5, 1.0, 100.0), (4, 0.5, 50.0), (6, 2.0, 20.0)])
    def test_symmetric_psd(self, degree, duration, fc):
        q = jerk_cost_matrix(degree, duration, fc)
        np.testing.assert_array_equal(q, q.T)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.normal(size=degree + 1)
            assert x @ q @ x >= -1e-10

    def test_riemann_sum_consistency(self):
        # mean of sampled (d3 u^3)^2 = 36 equals the integral of 36 du exactly
        q = jerk_cost_matrix(5, 1.0, 100.0)
        samples = len(segment_samples(1.0, 100.0))
        assert q[3, 3] / samples == pytest.approx(36.0, rel=0.01)

    def test_sample_count_floor(self):
        assert len(segment_samples(0.001, 100.0)) == 2
        # one sample per control tick of the segment, both ends included
        np.testing.assert_allclose(segment_samples(0.5, 100.0), np.arange(51) / 50)

    def test_rejects_bad_inputs(self):
        with pytest.raises(QpBuildError):
            jerk_cost_matrix(5, -1.0, 100.0)
        with pytest.raises(QpBuildError):
            jerk_cost_matrix(5, 1.0, 0.0)


class TestBuildEquality:
    def test_single_segment_rows(self):
        a_eq, b_eq = build_equality([(1.0, 1.0)], (0.0, 0.0, 0.0), 5)
        assert a_eq.shape == (6, 6)
        np.testing.assert_array_equal(b_eq, [0, 0, 0, 1, 0, 0])

    def test_two_segment_structure(self):
        a_eq, b_eq = build_equality([(1.0, 1.0), (2.0, 1.0)], (0.0, 0.0, 0.0), 5)
        assert a_eq.shape == (10, 12)
        # initial rows touch only the first block
        assert np.all(a_eq[:3, 6:] == 0.0)
        # terminal rows touch only the last block
        assert np.all(a_eq[3:6, :6] == 0.0)
        # continuity rows have support in exactly the two adjacent blocks
        for row in a_eq[7:10]:
            assert np.any(row[:6] != 0.0) and np.any(row[6:] != 0.0)

    def test_row_count_formula(self):
        for n in range(1, 7):
            a_eq, _ = build_equality([(float(i), 0.5) for i in range(n)], (0.0, 0.0, 0.0), 5)
            assert a_eq.shape[0] == 4 * n + 2

    def test_rank_deficiency_is_a_build_error(self):
        # L=4, N=1: 6 rows but only 5 unknowns cannot be full row rank
        with pytest.raises(QpBuildError, match="rank"):
            build_equality([(1.0, 1.0)], (0.0, 0.0, 0.0), 4)

    def test_full_rank_for_valid_sizes(self):
        rng = np.random.default_rng(5)
        for n, degree in [(2, 4), (1, 5), (3, 5), (5, 6)]:
            wps = [(float(rng.normal()), float(rng.uniform(0.2, 1.5))) for _ in range(n)]
            a_eq, _ = build_equality(wps, (0.0, 0.1, -0.2), degree)
            assert np.linalg.matrix_rank(a_eq) == 4 * n + 2

    @settings(max_examples=60)
    @given(
        st.integers(4, 8),
        st.lists(st.floats(0.02, 2.0), min_size=1, max_size=12),
    )
    def test_structural_rank_rule_agrees_with_svd(self, degree, durations):
        # the rows as built, whether or not build_equality accepts them
        rows = _equality_rows(degree, np.array(durations))
        full_rank = np.linalg.matrix_rank(rows) == 4 * len(durations) + 2
        if degree >= FULL_RANK_DEGREE:
            assert full_rank
        wps = [(0.1 * i, d) for i, d in enumerate(durations)]
        if full_rank:
            a_eq, _ = build_equality(wps, (0.0, 0.1, -0.2), degree)
            np.testing.assert_array_equal(a_eq, rows)
        else:
            with pytest.raises(QpBuildError, match="rank"):
                build_equality(wps, (0.0, 0.1, -0.2), degree)

    def test_no_svd_from_the_full_rank_degree_on(self, monkeypatch):
        calls = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: calls.append(a.shape) or rank(a))
        build_equality([(1.0, 0.5), (2.0, 0.5)], (0.0, 0.0, 0.0), FULL_RANK_DEGREE)
        assert calls == []
        build_equality([(1.0, 0.5), (2.0, 0.5)], (0.0, 0.0, 0.0), FULL_RANK_DEGREE - 1)
        assert calls == [(10, 10)]

    @pytest.mark.parametrize("n_seg", range(1, 9))
    def test_rows_match_row_by_row_basis_row_assembly(self, n_seg):
        degree = 5
        durations = np.random.default_rng(n_seg).uniform(0.02, 3.0, n_seg)
        width = degree + 1

        def row(i, u, k):
            out = np.zeros(width * n_seg)
            out[i * width : (i + 1) * width] = basis_row(degree, u, k) * durations[i] ** -k
            return out

        # 3 initial rows, 3 terminal rows, then per junction one pass-through
        # row and 3 continuity rows
        expected = [row(0, 0.0, k) for k in range(3)] + [row(n_seg - 1, 1.0, k) for k in range(3)]
        for i in range(n_seg - 1):
            expected.append(row(i, 1.0, 0))
            expected += [row(i, 1.0, k) - row(i + 1, 0.0, k) for k in range(3)]
        np.testing.assert_allclose(_equality_rows(degree, durations), expected, rtol=1e-13, atol=0)

    def test_degree_below_minimum_is_a_build_error(self):
        with pytest.raises(QpBuildError, match="degree must be >= 4"):
            build_equality([(1.0, 1.0), (2.0, 1.0)], (0.0, 0.0, 0.0), 3)

    def test_empty_waypoints(self):
        with pytest.raises(QpBuildError, match="waypoints: empty"):
            build_equality([], (0.0, 0.0, 0.0), 5)

    def test_non_finite_initial_state(self):
        with pytest.raises(QpBuildError, match="finite"):
            build_equality([(1.0, 1.0)], (np.nan, 0.0, 0.0), 5)


def limit_rows(problem):
    """assemble_qp's limit rows (below the equalities) and their bounds."""
    rows = slice(problem.n_eq, None)
    return problem.a_matrix.toarray()[rows], problem.lower[rows], problem.upper[rows]


class TestLimitRows:
    def test_row_count(self):
        # one segment, D=1, fc=10: 11 samples -> 22 interval rows
        a_in, l_in, u_in = limit_rows(assemble_qp([(1.0, 1.0)], (0.0, 0.0, 0.0), 5, 10.0, 1.0, 2.0))
        assert a_in.shape == (22, 6)
        assert l_in.shape == (22,) and u_in.shape == (22,)

    def test_zero_coefficients_strictly_feasible(self):
        problem = assemble_qp([(0.0, 1.0), (0.0, 0.5)], (0.0, 0.0, 0.0), 5, 25.0, 1.0, 2.0)
        a_in, l_in, u_in = limit_rows(problem)
        vals = a_in @ np.zeros(12)
        assert np.all(vals > l_in) and np.all(vals < u_in)

    def test_bounds_alternate_velocity_acceleration(self):
        _, l_in, u_in = limit_rows(assemble_qp([(1.0, 1.0)], (0.0, 0.0, 0.0), 5, 10.0, 1.5, 7.0))
        np.testing.assert_array_equal(u_in[0::2], 1.5)
        np.testing.assert_array_equal(u_in[1::2], 7.0)
        np.testing.assert_array_equal(l_in, -u_in)

    def test_rejects_non_positive_limits(self):
        with pytest.raises(QpBuildError, match="positive"):
            assemble_qp([(1.0, 1.0)], (0.0, 0.0, 0.0), 5, 10.0, 0.0, 1.0)


class TestAssembleQp:
    def test_dimensions_and_equality_count(self):
        wps = [(float(i), 0.5) for i in range(5)]
        problem = assemble_qp(wps, (0.0, 0.0, 0.0), 5, 100.0, 2.0, 8.0)
        assert problem.n_vars == 30
        assert problem.n_eq == 22
        assert np.all(problem.lower[: problem.n_eq] == problem.upper[: problem.n_eq])

    def test_block_diagonal_cost(self):
        wps = [(1.0, 1.0), (2.0, 0.5), (1.5, 0.8)]
        problem = assemble_qp(wps, (0.0, 0.0, 0.0), 5, 50.0, 2.0, 8.0)
        q = _block_diagonal(problem.q_matrix)
        for i in range(3):
            for j in range(3):
                block = q[i * 6 : (i + 1) * 6, j * 6 : (j + 1) * 6]
                if i != j:
                    assert np.all(block == 0.0)

    def test_psd_with_ridge(self):
        wps = [(1.0, 1.0), (0.5, 0.5)]
        problem = assemble_qp(wps, (0.0, 0.0, 0.0), 5, 50.0, 2.0, 8.0)
        eigvals = np.linalg.eigvalsh(problem.q_matrix)
        assert eigvals.min() >= -1e-10

    def test_deterministic_bit_identical(self):
        wps = [(0.3, 0.7), (0.9, 0.4)]
        a = assemble_qp(wps, (0.1, 0.0, -0.2), 5, 100.0, 2.0, 8.0)
        b = assemble_qp(wps, (0.1, 0.0, -0.2), 5, 100.0, 2.0, 8.0)
        assert np.array_equal(a.q_matrix, b.q_matrix)
        assert np.array_equal(a.a_matrix, b.a_matrix)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    @pytest.mark.parametrize(
        "position, duration, fc, v_max",
        [
            (1.0, np.nan, 100.0, 5.0),
            (1.0, 1.0, 100.0, np.nan),
            (1.0, 1.0, np.nan, 5.0),
            (1.0, 1.0, np.inf, 5.0),
            (np.nan, 1.0, 100.0, 5.0),
        ],
        ids=["nan duration", "nan v_max", "nan fc", "inf fc", "nan position"],
    )
    def test_non_finite_inputs_are_build_errors(self, position, duration, fc, v_max):
        # NaN compares False with 0 either way, so a sign check alone lets it
        # through, and a NaN target used to run ADMM to its iteration cap
        with pytest.raises(QpBuildError, match="finite"):
            assemble_qp([(position, duration)], (0.0, 0.0, 0.0), 5, fc, v_max, 10.0)

    def test_no_zero_rows(self):
        wps = [(1.0, 1.0)]
        problem = assemble_qp(wps, (0.0, 0.0, 0.0), 5, 100.0, 2.0, 8.0)
        assert not np.any(np.all(problem.a_matrix.toarray() == 0.0, axis=1))
