"""Plan's one coefficient array against state_rows of the segment at the
same u, and against basis_row per joint read through its coefficient views;
its junction residuals against basis_row per joint."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion.chain import load_chain
from rtmotion.planner import Plan
from rtmotion.poly import basis_row, state_rows

from conftest import data_path

ARM6 = load_chain(data_path("chains", "arm6.json"))

PROPERTY = settings(max_examples=60)
# the two evaluations order the same few products differently
RTOL = 1e-12


@st.composite
def plans(draw, chain=ARM6):
    """1-6 segments of 0.02-2 s with random degree 4-7 coefficients."""
    n_seg = draw(st.integers(1, 6))
    degree = draw(st.integers(4, 7))
    durations = np.array(draw(st.lists(st.floats(0.02, 2.0), min_size=n_seg, max_size=n_seg)))
    size = n_seg * (degree + 1) * chain.dof
    coeffs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))
    return Plan(
        chain=chain,
        coeffs=coeffs.reshape(n_seg, degree + 1, chain.dof),
        durations=durations,
        joint_waypoints=np.zeros((n_seg, chain.dof)),
        epoch=0.0,
        request_id="p",
    )


def joint_eval(plan_, j, t):
    """Joint j at t >= 0 from plan_.joints[j], one basis_row per order:
    boundary times belong to the later segment, and from the end on the
    terminal position holds at rest."""
    segments, durations = plan_.joints[j].segments, plan_.durations
    starts = np.concatenate([[0.0], np.cumsum(durations)[:-1]])
    if t >= starts[-1] + durations[-1]:
        return [basis_row(plan_.degree, 1.0) @ segments[-1].coeffs, 0.0, 0.0]
    i = bisect.bisect_right(starts, t) - 1
    u = min((t - starts[i]) / durations[i], 1.0)
    return [basis_row(plan_.degree, u, k) @ segments[i].coeffs * durations[i] ** -k for k in range(3)]


def assert_close(got, want):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * (1.0 + np.max(np.abs(want))))


@PROPERTY
@given(plan_=plans(), data=st.data())
def test_state_at_matches_per_joint_eval(plan_, data):
    """Random times, every segment boundary, the exact end and past it."""
    total = plan_.total_time
    times = plan_.starts + [total, total + 1.0]
    times += [data.draw(st.floats(0.0, total * 1.2)) for _ in range(5)]
    for t in times:
        want = np.array([joint_eval(plan_, j, t) for j in range(plan_.chain.dof)]).T  # (3, dof)
        assert_close(np.array(plan_.state_at(t)), want)


@PROPERTY
@given(plan_=plans(), data=st.data())
def test_state_at_is_the_power_table_product_bit_for_bit(plan_, data):
    """Every control-grid time before the end, and random ones: state_at's
    row is the matmul of u's powers and its segment's power table."""
    total = plan_.total_time
    fc = plan_.chain.control_frequency
    times = [k / fc for k in range(int(total * fc) + 1) if k / fc < total]
    times += [data.draw(st.floats(0.0, total, exclude_max=True)) for _ in range(5)]
    for t in times:
        i = bisect.bisect_right(plan_.starts, t) - 1
        u = min((t - plan_.starts[i]) / plan_.spans[i], 1.0)
        want = (u ** plan_.exponents) @ plan_.power_table[i]
        np.testing.assert_array_equal(np.concatenate(plan_.state_at(t)), want)


@PROPERTY
@given(plan_=plans(), data=st.data())
def test_state_at_matches_state_rows_of_its_segment(plan_, data):
    """Random times, every segment boundary, the last double before each
    boundary (where u reaches 1 and no further), the exact end and past it."""
    total, durations, coeffs = plan_.total_time, plan_.durations, plan_.coeffs
    ends = [float(np.nextafter(t, 0.0)) for t in plan_.starts[1:] + [total]]
    times = plan_.starts + ends + [total, total + 1.0]
    times += [data.draw(st.floats(0.0, total * 1.2)) for _ in range(5)]
    for t in times:
        if t >= total:
            q = state_rows(plan_.degree, 1.0, durations[-1])[0] @ coeffs[-1]
            want = [q, np.zeros_like(q), np.zeros_like(q)]
        else:
            i = bisect.bisect_right(plan_.starts, t) - 1
            u = min((t - plan_.starts[i]) / durations[i], 1.0)
            want = state_rows(plan_.degree, u, durations[i]) @ coeffs[i]
        assert_close(np.array(plan_.state_at(t)), want)


@PROPERTY
@given(plan_=plans())
def test_junction_residuals_match_per_joint_oracle(plan_):
    """Every joint and junction: the left segment at u = 1 against the right
    one at u = 0, order k scaled by D**-k."""
    degree, durations, coeffs = plan_.degree, plan_.durations, plan_.coeffs
    want = np.zeros(3)
    for i in range(1, len(durations)):
        for j in range(plan_.chain.dof):
            for k in range(3):
                left = basis_row(degree, 1.0, k) @ coeffs[i - 1, :, j] * durations[i - 1] ** -k
                right = basis_row(degree, 0.0, k) @ coeffs[i, :, j] * durations[i] ** -k
                want[k] = max(want[k], abs(left - right))
    assert_close(plan_.junction_residuals(), want)


def test_boundaries_belong_to_later_segment_and_end_holds(arm6):
    coeffs = np.zeros((2, 6, arm6.dof))
    coeffs[0, 1] = 1.0  # q = u on the first segment
    coeffs[1, 0] = 7.0  # q = 7 on the second
    plan_ = Plan(arm6, coeffs, np.array([0.5, 0.25]), np.zeros((2, arm6.dof)), 0.0, "p")
    assert plan_.total_time == 0.75
    q, qd, _ = plan_.state_at(0.5)
    assert np.all(q == 7.0) and np.all(qd == 0.0)
    q, qd, _ = plan_.state_at(0.25)
    assert np.allclose(q, 0.5) and np.allclose(qd, 2.0)
    for t in (0.75, 9.0):
        q, qd, qdd = plan_.state_at(t)
        assert np.all(q == 7.0) and not qd.any() and not qdd.any()
    for t in (-1e-9, float("nan")):  # NaN fails the guard too
        with pytest.raises(ValueError):
            plan_.state_at(t)
    with pytest.raises(ValueError):
        plan_.state(float("nan"))


def test_joint_views_write_through_to_the_coefficient_array(arm6):
    coeffs = np.zeros((3, 6, arm6.dof))
    plan_ = Plan(arm6, coeffs, np.array([0.5, 0.5, 0.5]), np.zeros((3, arm6.dof)), 0.0, "p")
    assert not plan_.junction_residuals().any()
    before = plan_.state_at(1.0 - 1e-9)
    plan_.joints[2].segments[1].coeffs[3] += 1e-3
    assert coeffs[1, 3, 2] == 1e-3
    assert plan_.junction_residuals()[0] == pytest.approx(1e-3)
    # evaluation serves the power table fixed when the plan was made
    for got, want in zip(plan_.state_at(1.0 - 1e-9), before):
        np.testing.assert_array_equal(got, want)
    # a plan made from the written coefficients evaluates q = 1e-3 u^3 on segment 1
    q, qd, _ = Plan(arm6, coeffs, plan_.durations, plan_.joint_waypoints, 0.0, "p").state_at(1.0 - 1e-9)
    assert q[2] == pytest.approx(1e-3) and qd[2] == pytest.approx(3e-3 / 0.5)
    assert not np.delete(q, 2).any()


@PROPERTY
@given(plan_=plans())
def test_power_table_at_the_edges(plan_):
    """Every control-grid time and the last double before each boundary
    against state_rows of the segment; from total_time on, the coefficients'
    sum bit for bit; (dof,) arrays throughout."""
    total, durations, coeffs = plan_.total_time, plan_.durations, plan_.coeffs
    fc = plan_.chain.control_frequency
    grid = [k / fc for k in range(int(total * fc) + 1) if k / fc < total]
    ends = [float(np.nextafter(t, 0.0)) for t in plan_.starts[1:] + [total]]
    for t in grid + ends:
        state = plan_.state_at(t)
        assert [x.shape for x in state] == [(plan_.chain.dof,)] * 3
        i = bisect.bisect_right(plan_.starts, t) - 1
        u = min((t - plan_.starts[i]) / durations[i], 1.0)
        assert_close(np.array(state), state_rows(plan_.degree, u, durations[i]) @ coeffs[i])
    hold = coeffs[-1].sum(axis=0)
    for t in (total, float(np.nextafter(total, np.inf)), total + 1.0, 10.0 * total):
        q, qd, qdd = plan_.state_at(t)
        assert q.tobytes() == hold.tobytes()
        assert qd.shape == qdd.shape == hold.shape and not qd.any() and not qdd.any()

