import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion.poly import JointTrajectory, Segment, basis_row, state_rows

QUINTIC_REST = np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])


class TestBasisRow:
    def test_monomials_at_zero(self):
        np.testing.assert_array_equal(basis_row(5, 0.0, 0), [1, 0, 0, 0, 0, 0])

    def test_power_rule_at_one(self):
        np.testing.assert_array_equal(basis_row(5, 1.0, 1), [0, 1, 2, 3, 4, 5])

    def test_third_derivative_at_half(self):
        # analytic: [0, 0, 0, 6, 24u, 60u^2] at u = 0.5
        np.testing.assert_allclose(basis_row(5, 0.5, 3), [0, 0, 0, 6, 12, 15])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_finite_differences_of_lower_order(self, k):
        step = 1e-7
        for degree in (4, 5, 6):
            for u in np.linspace(step, 1 - step, 9):
                fd = (basis_row(degree, u + step, k - 1) - basis_row(degree, u - step, k - 1)) / (2 * step)
                np.testing.assert_allclose(basis_row(degree, u, k), fd, atol=1e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            basis_row(5, 1.5, 0)
        with pytest.raises(ValueError):
            basis_row(5, 0.5, 4)
        with pytest.raises(ValueError):
            basis_row(3, 0.5, 0)


class TestStateRows:
    @settings(max_examples=200)
    @given(
        st.integers(4, 8),
        st.floats(0.0, 1.0),
        st.floats(0.02, 10.0),
        st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    )
    def test_matches_scaled_basis_row(self, degree, u, duration, orders):
        rows = state_rows(degree, u, duration, tuple(orders))
        expected = [basis_row(degree, u, k) * duration**-k for k in orders]
        np.testing.assert_allclose(rows, expected, rtol=1e-13, atol=0)


class TestSegment:
    def test_quintic_boundary_value(self):
        seg = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
        assert seg.eval(1.0, 0) == pytest.approx(1.0)

    def test_rest_to_rest_boundary_derivatives(self):
        seg = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
        assert seg.eval(1.0, 1) == pytest.approx(0.0, abs=1e-12)
        assert seg.eval(1.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_midpoint(self):
        # direct evaluation: 10*(0.5)^3 - 15*(0.5)^4 + 6*(0.5)^5
        expected = 10 * 0.125 - 15 * 0.0625 + 6 * 0.03125
        seg = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
        assert seg.eval(0.5, 0) == pytest.approx(expected)
        assert expected == pytest.approx(0.5)

    def test_duration_scaling_matches_absolute_time_differences(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=6)
        seg = Segment(coeffs, start_time=1.5, duration=0.7)
        step = 1e-6
        for k in (1, 2, 3):
            for t in np.linspace(1.5 + 1e-3, 2.2 - 1e-3, 7):
                fd = (seg.eval(t + step, k - 1) - seg.eval(t - step, k - 1)) / (2 * step)
                assert seg.eval(t, k) == pytest.approx(fd, abs=1e-4 * max(1, abs(fd)))

    def test_rejects_time_outside(self):
        seg = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
        with pytest.raises(ValueError, match="outside segment"):
            seg.eval(1.2, 0)


def _two_segment_trajectory():
    a = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
    b = Segment(np.array([1.0, 0.0, 0.0, -10.0, 15.0, -6.0]), start_time=1.0, duration=0.5)
    return JointTrajectory([a, b])


class TestJointTrajectory:
    def test_terminal_state(self):
        traj = _two_segment_trajectory()
        q, qd, qdd = traj.eval(traj.total_time)
        assert q == pytest.approx(0.0, abs=1e-12)
        assert qd == 0.0 and qdd == 0.0

    def test_hold_semantics(self):
        traj = _two_segment_trajectory()
        assert traj.eval(traj.total_time + 10.0) == traj.eval(traj.total_time)

    def test_hold_is_exact_rest(self):
        traj = _two_segment_trajectory()
        for t in np.linspace(traj.total_time, traj.total_time + 5, 13):
            _, qd, qdd = traj.eval(t)
            assert qd == 0.0 and qdd == 0.0

    def test_boundary_belongs_to_later_segment(self):
        traj = _two_segment_trajectory()
        assert traj.segment_index(1.0) == 1
        assert traj.segment_index(1.0 - 1e-12) == 0

    def test_lookup_total_on_half_line(self):
        traj = _two_segment_trajectory()
        for t in np.linspace(0, traj.total_time + 2, 400):
            q, qd, qdd = traj.eval(t)
            assert np.isfinite([q, qd, qdd]).all()

    def test_rejects_negative_time(self):
        traj = _two_segment_trajectory()
        with pytest.raises(ValueError, match="precedes"):
            traj.eval(-0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one segment"):
            JointTrajectory([])

    def test_rejects_gap(self):
        a = Segment(QUINTIC_REST, start_time=0.0, duration=1.0)
        b = Segment(QUINTIC_REST, start_time=1.5, duration=1.0)
        with pytest.raises(ValueError, match="contiguous"):
            JointTrajectory([a, b])
