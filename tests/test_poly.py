import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion.planner import Plan
from rtmotion.poly import basis_row, state_rows

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


def plan_of(chain, pieces, durations, epoch=0.0):
    """A plan whose segment i has the (degree + 1,) coefficients pieces[i] on every joint."""
    stacked = np.repeat(np.asarray(pieces, dtype=float)[:, :, None], chain.dof, axis=2)
    return Plan(chain, stacked, np.asarray(durations, dtype=float), np.zeros((len(pieces), chain.dof)), epoch, "p")


def one_segment_plan(chain, coeffs, duration=1.0, epoch=0.0):
    return plan_of(chain, [coeffs], [duration], epoch)


class TestOneSegmentPlan:
    def test_quintic_boundary_value(self, arm6):
        plan_ = one_segment_plan(arm6, QUINTIC_REST)
        q, _, _ = plan_.state_at(np.nextafter(1.0, 0.0))
        np.testing.assert_allclose(q, 1.0)
        q, _, _ = plan_.state_at(1.0)
        np.testing.assert_allclose(q, 1.0)

    def test_rest_to_rest_boundary_derivatives(self, arm6):
        plan_ = one_segment_plan(arm6, QUINTIC_REST)
        _, qd, qdd = plan_.state_at(np.nextafter(1.0, 0.0))
        np.testing.assert_allclose(qd, 0.0, atol=1e-12)
        np.testing.assert_allclose(qdd, 0.0, atol=1e-12)

    def test_symmetric_midpoint(self, arm6):
        # direct evaluation: 10*(0.5)^3 - 15*(0.5)^4 + 6*(0.5)^5
        expected = 10 * 0.125 - 15 * 0.0625 + 6 * 0.03125
        q, _, _ = one_segment_plan(arm6, QUINTIC_REST).state_at(0.5)
        np.testing.assert_allclose(q, expected)
        assert expected == pytest.approx(0.5)

    def test_duration_scaling_matches_absolute_time_differences(self, arm6):
        rng = np.random.default_rng(3)
        plan_ = one_segment_plan(arm6, rng.normal(size=6), duration=0.7, epoch=1.5)
        step = 1e-6

        def derivatives(t):  # absolute time: the plan starts at its epoch
            state = plan_.state(t)
            return state.q, state.qd, state.qdd

        for k in (1, 2):
            for t in np.linspace(1.5 + 1e-3, 2.2 - 1e-3, 7):
                fd = (derivatives(t + step)[k - 1] - derivatives(t - step)[k - 1]) / (2 * step)
                np.testing.assert_allclose(derivatives(t)[k], fd, atol=1e-4 * max(1, np.max(np.abs(fd))))


def two_segment_plan(chain, jump=0.0):
    """QUINTIC_REST over 1 s, then back to rest at 0 over 0.5 s, on every
    joint; jump adds a constant to the second segment."""
    back = np.array([1.0 + jump, 0.0, 0.0, -10.0, 15.0, -6.0])
    return plan_of(chain, [QUINTIC_REST, back], [1.0, 0.5])


class TestJointTrajectory:
    """The rules each joint's trajectory in a plan keeps: a hold at rest
    from the end on, boundaries on the later segment, a value for every
    t >= 0 and none before 0."""

    def test_terminal_state(self, arm6):
        plan_ = two_segment_plan(arm6)
        q, qd, qdd = plan_.state_at(plan_.total_time)
        np.testing.assert_allclose(q, 0.0, atol=1e-12)
        assert not qd.any() and not qdd.any()

    def test_hold_semantics(self, arm6):
        plan_ = two_segment_plan(arm6)
        np.testing.assert_array_equal(plan_.state_at(plan_.total_time + 10.0), plan_.state_at(plan_.total_time))

    def test_hold_is_exact_rest(self, arm6):
        plan_ = two_segment_plan(arm6)
        for t in np.linspace(plan_.total_time, plan_.total_time + 5, 13):
            _, qd, qdd = plan_.state_at(t)
            assert not qd.any() and not qdd.any()

    def test_boundary_belongs_to_later_segment(self, arm6):
        plan_ = two_segment_plan(arm6, jump=1.0)  # q jumps from 1 to 2 at t = 1
        q, _, _ = plan_.state_at(1.0)
        np.testing.assert_allclose(q, 2.0)
        q, _, _ = plan_.state_at(1.0 - 1e-12)
        np.testing.assert_allclose(q, 1.0)

    def test_lookup_total_on_half_line(self, arm6):
        plan_ = two_segment_plan(arm6)
        for t in np.linspace(0, plan_.total_time + 2, 400):
            assert np.isfinite(plan_.state_at(t)).all()

    def test_rejects_negative_time(self, arm6):
        plan_ = two_segment_plan(arm6)
        with pytest.raises(ValueError, match="precedes"):
            plan_.state_at(-0.1)
