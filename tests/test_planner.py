import contextlib
import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import chain as chain_module
from rtmotion import planner, qpbuild
from rtmotion.chain import Pose, forward_kinematics, inverse_kinematics
from rtmotion.planner import (
    CartesianWaypoint,
    IkFailure,
    PlanRequest,
    QpFailure,
    RobotState,
    ValidationError,
    plan,
    reference_at,
)
from rtmotion.runtime import Session

from conftest import TELEOP_BUFFER, TELEOP_PERIOD_S, data_path


def scenario_request(name: str):
    """The drawing fixtures shipped with the package: (q0, waypoints)."""
    raw = json.loads(data_path("scenarios", f"{name}.json").read_text())
    payload = raw["events"][0]["request"]
    return np.array(raw["q0"]), planner.waypoints_from_payload(payload["waypoints"])


def make_request(waypoints, request_id="req"):
    return PlanRequest("sim", tuple(waypoints), request_id)


@pytest.fixture(scope="module")
def line_plan(arm6):
    q0, waypoints = scenario_request("draw-line")
    return plan(make_request(waypoints, "line"), arm6, RobotState.rest(q0)), waypoints


@pytest.fixture(scope="module")
def circle_plan(arm6):
    q0, waypoints = scenario_request("draw-circle")
    return plan(make_request(waypoints, "circle"), arm6, RobotState.rest(q0)), waypoints


class TestPlan:
    def test_line_timing_and_pass_through(self, arm6, line_plan):
        plan_, waypoints = line_plan
        assert len(waypoints) == 7
        assert plan_.total_time == pytest.approx(3.5)
        times = np.cumsum([w.duration for w in waypoints])
        for i, t in enumerate(times):
            q, _, _ = plan_.state_at(min(t, plan_.total_time))
            np.testing.assert_allclose(q, plan_.joint_waypoints[i], atol=1e-6)

    def test_circle_timing(self, arm6, circle_plan):
        plan_, waypoints = circle_plan
        assert len(waypoints) == 18
        assert plan_.total_time == pytest.approx(9.0)

    def test_junction_continuity(self, line_plan, circle_plan):
        for plan_, _ in (line_plan, circle_plan):
            residual = plan_.junction_residuals()
            assert np.all(residual <= 1e-6)

    def test_terminal_rest(self, line_plan):
        plan_, _ = line_plan
        _, qd, qdd = plan_.state_at(plan_.total_time)
        assert np.max(np.abs(qd)) <= 1e-6
        assert np.max(np.abs(qdd)) <= 1e-6

    def test_limit_compliance_on_control_grid(self, arm6, line_plan):
        plan_, _ = line_plan
        for k in range(int(plan_.total_time * arm6.control_frequency) + 1):
            t = min(k / arm6.control_frequency, plan_.total_time)
            _, qd, qdd = plan_.state_at(t)
            assert np.all(np.abs(qd) <= arm6.v_max + 1e-6)
            assert np.all(np.abs(qdd) <= arm6.a_max + 1e-6)

    def test_binding_velocity_limit_holds_on_every_tick(self, arm6):
        # degree 7, one 1 s waypoint turning the base: joint 0's unconstrained
        # peak is 5% over its v_max. Sampling the limits at round(fc * D)
        # points, one short of the segment's ticks, let the plan exceed v_max
        # by 4.2e-4 rad/s at tick times
        q0 = arm6.mid_position()
        q1 = q0.copy()
        q1[0] += 1.0
        request = make_request([CartesianWaypoint(forward_kinematics(arm6, q1), 1.0)])
        free = plan(request, arm6, RobotState.rest(q0), degree=7)
        peak = max(abs(free.state_at(t)[1][0]) for t in np.linspace(0.0, 1.0, 1001))
        v_max = arm6.v_max.copy()
        v_max[0] = peak / 1.05
        chain = dataclasses.replace(arm6, v_max=v_max)
        plan_ = plan(request, chain, RobotState.rest(q0), degree=7)
        assert plan_.iterations > 1  # the limit binds
        for k in range(101):
            _, qd, qdd = plan_.state_at(k / chain.control_frequency)
            assert np.all(np.abs(qd) <= chain.v_max + 1e-6)
            assert np.all(np.abs(qdd) <= chain.a_max + 1e-6)

    def test_hold_request_is_constant(self, arm6):
        # the IK fixed point returns q0 exactly, so the plan is the constant
        # trajectory up to solver tolerance with zero jerk cost
        q0 = arm6.mid_position()
        pose = forward_kinematics(arm6, q0)
        request = make_request([CartesianWaypoint(pose, 0.5)], "hold")
        plan_ = plan(request, arm6, RobotState.rest(q0))
        np.testing.assert_array_equal(plan_.joint_waypoints[0], q0)
        for t in np.linspace(0, 0.5, 11):
            q, qd, qdd = plan_.state_at(t)
            np.testing.assert_allclose(q, q0, atol=1e-6)
            assert np.max(np.abs(qd)) <= 1e-6
            assert np.max(np.abs(qdd)) <= 1e-5

    def test_deterministic(self, arm6):
        q0, waypoints = scenario_request("draw-line")
        a = plan(make_request(waypoints, "a"), arm6, RobotState.rest(q0))
        b = plan(make_request(waypoints, "a"), arm6, RobotState.rest(q0))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_build_time_excludes_ik(self, arm6, monkeypatch):
        ik_delay = 0.2
        solve_ik = planner.inverse_kinematics

        def slow_ik(*args, **kwargs):
            time.sleep(ik_delay)
            return solve_ik(*args, **kwargs)

        monkeypatch.setattr(planner, "inverse_kinematics", slow_ik)
        q0 = arm6.mid_position()
        request = make_request([CartesianWaypoint(forward_kinematics(arm6, q0), 0.5)], "hold")
        plan_ = plan(request, arm6, RobotState.rest(q0))
        assert 0.0 < plan_.build_time < ik_delay

    def test_one_sample_grid_and_one_block_rows_per_request(self, arm6, monkeypatch):
        # the limit rows go straight into the problem's BlockRows, and the
        # solver iterates on them: no second grid, no scaled copy. The same
        # request planned again, replacing the first plan, reuses both.
        calls = {"grid": 0, "rows": 0}
        sample_grid, init = qpbuild._sample_grid, qpbuild.BlockRows.__init__

        def counted_grid(*args):
            calls["grid"] += 1
            return sample_grid(*args)

        def counted_init(self, *args):
            calls["rows"] += 1
            init(self, *args)

        monkeypatch.setattr(qpbuild, "_sample_grid", counted_grid)
        monkeypatch.setattr(qpbuild.BlockRows, "__init__", counted_init)
        q0, waypoints = scenario_request("draw-line")
        first = plan(make_request(waypoints), arm6, RobotState.rest(q0))
        assert calls == {"grid": 1, "rows": 1}
        plan(make_request(waypoints), arm6, RobotState.rest(q0), previous=first)
        assert calls == {"grid": 1, "rows": 1}

    def test_epoch_from_initial_state(self, arm6):
        q0, waypoints = scenario_request("draw-line")
        plan_ = plan(make_request(waypoints), arm6, RobotState.rest(q0, timestamp=12.5))
        assert plan_.epoch == 12.5


class TestValidation:
    def test_empty_waypoints(self, arm6):
        with pytest.raises(ValidationError, match="waypoints: empty"):
            plan(make_request([]), arm6, RobotState.rest(arm6.mid_position()))

    def test_short_duration(self, arm6):
        pose = forward_kinematics(arm6, arm6.mid_position())
        request = make_request([CartesianWaypoint(pose, 0.015)])
        with pytest.raises(ValidationError, match="duration"):
            plan(request, arm6, RobotState.rest(arm6.mid_position()))

    def test_non_positive_duration_rejected_at_construction(self, arm6):
        pose = forward_kinematics(arm6, arm6.mid_position())
        with pytest.raises(ValidationError, match="duration"):
            CartesianWaypoint(pose, 0.0)

    def test_wrong_request_type(self, arm6):
        pose = forward_kinematics(arm6, arm6.mid_position())
        request = PlanRequest("sim", (CartesianWaypoint(pose, 0.5),), "x", request_type="move-joint")
        with pytest.raises(ValidationError, match="request type"):
            plan(request, arm6, RobotState.rest(arm6.mid_position()))

    def test_state_dimension_mismatch(self, arm6):
        pose = forward_kinematics(arm6, arm6.mid_position())
        request = make_request([CartesianWaypoint(pose, 0.5)])
        with pytest.raises(ValidationError, match="dof"):
            plan(request, arm6, RobotState.rest(np.zeros(3)))

    def test_waypoint_payload_parsing(self):
        with pytest.raises(ValidationError, match="waypoints: empty"):
            planner.waypoints_from_payload([])
        with pytest.raises(ValidationError, match="waypoint 0"):
            planner.waypoints_from_payload([{"pose": [0, 0, 0], "duration": 1.0}])


class TestFailures:
    def test_unreachable_waypoint_rejects_request(self, arm6):
        q0 = arm6.mid_position()
        good = forward_kinematics(arm6, q0)
        bad = Pose(np.array([3.0, 0.0, 0.0]), np.zeros(3))
        request = make_request(
            [CartesianWaypoint(good, 0.5), CartesianWaypoint(bad, 0.5)]
        )
        with pytest.raises(IkFailure) as excinfo:
            plan(request, arm6, RobotState.rest(q0))
        assert excinfo.value.waypoint_index == 1
        assert excinfo.value.stage == "ik"

    def test_infeasible_limits_reject_request(self, arm6):
        # a 1.2 rad base rotation in 0.5 s needs ~4.5 rad/s peak against
        # v_max = 2.5, so the velocity rows cut off the equality set
        q0 = arm6.mid_position()
        q1 = q0.copy()
        q1[0] += 1.2
        pose = forward_kinematics(arm6, q1)
        request = make_request([CartesianWaypoint(pose, 0.5)])
        with pytest.raises(QpFailure) as excinfo:
            plan(request, arm6, RobotState.rest(q0))
        assert excinfo.value.stage == "qp"


class TestReferenceAt:
    def test_initial_state_reproduced(self, arm6, line_plan):
        plan_, _ = line_plan
        q0, _ = scenario_request("draw-line")
        state, pose = reference_at(plan_, plan_.epoch)
        np.testing.assert_allclose(state.q, q0, atol=1e-6)
        np.testing.assert_allclose(state.qd, np.zeros(6), atol=1e-6)
        np.testing.assert_allclose(state.qdd, np.zeros(6), atol=1e-6)
        np.testing.assert_allclose(
            pose.translation, forward_kinematics(arm6, state.q).translation, atol=1e-12
        )

    def test_terminal_hold(self, line_plan):
        plan_, _ = line_plan
        end, _ = reference_at(plan_, plan_.epoch + plan_.total_time)
        later, _ = reference_at(plan_, plan_.epoch + plan_.total_time + 10.0)
        np.testing.assert_array_equal(end.q, later.q)
        assert np.all(later.qd == 0.0) and np.all(later.qdd == 0.0)
        np.testing.assert_allclose(end.q, plan_.joint_waypoints[-1], atol=1e-6)

    def test_before_epoch_raises(self, line_plan):
        plan_, _ = line_plan
        with pytest.raises(ValueError, match="epoch"):
            reference_at(plan_, plan_.epoch - 0.1)

    def test_line_path_within_2mm(self, arm6, line_plan):
        plan_, waypoints = line_plan
        bounds = np.cumsum([w.duration for w in waypoints])
        anchors = [reference_at(plan_, plan_.epoch)[1].translation] + [
            forward_kinematics(arm6, wp).translation for wp in plan_.joint_waypoints
        ]
        worst = 0.0
        for t in np.arange(0.0, plan_.total_time, 0.01):
            _, pose = reference_at(plan_, plan_.epoch + t)
            i = int(np.searchsorted(bounds, t, side="right"))
            a, b = anchors[i], anchors[i + 1]
            ab = b - a
            denom = ab @ ab
            if denom < 1e-18:
                dist = np.linalg.norm(pose.translation - a)
            else:
                s = np.clip((pose.translation - a) @ ab / denom, 0.0, 1.0)
                dist = np.linalg.norm(pose.translation - (a + s * ab))
            worst = max(worst, dist)
        assert worst <= 0.002


class TestPreempt:
    def test_chase_style_preemption(self, arm6):
        q0 = arm6.mid_position()
        rpy = np.array([0.0, -0.2, 0.0])
        first = make_request(
            [CartesianWaypoint(Pose(np.array([0.70, 0.10, 0.45]), rpy), 1.5)], "t1"
        )
        active = plan(first, arm6, RobotState.rest(q0))
        t_preempt = active.epoch + 1.0
        expected, _ = reference_at(active, t_preempt)
        second = make_request(
            [CartesianWaypoint(Pose(np.array([0.67, 0.10, 0.45]), rpy), 1.5)], "t2"
        )
        replanned = plan(second, arm6, active.state(t_preempt))
        assert replanned.epoch == t_preempt
        q, qd, qdd = replanned.state_at(0.0)
        assert np.max(np.abs(q - expected.q)) <= 1e-9
        assert np.max(np.abs(qd - expected.qd)) <= 1e-9
        assert np.max(np.abs(qdd - expected.qdd)) <= 1e-8

    def test_preempt_with_same_goal_is_smooth(self, arm6):
        q0 = arm6.mid_position()
        pose = forward_kinematics(arm6, q0)
        request = make_request([CartesianWaypoint(pose, 1.0)], "hold")
        active = plan(request, arm6, RobotState.rest(q0))
        replanned = plan(request, arm6, active.state(active.epoch + 1.2))  # at rest, post-hold
        expected, _ = reference_at(active, active.epoch + 1.2)
        q, qd, _ = replanned.state_at(0.0)
        assert np.max(np.abs(q - expected.q)) <= 1e-8
        assert np.max(np.abs(qd)) <= 1e-8

    def test_failed_preemption_leaves_active_usable(self, arm6):
        q0 = arm6.mid_position()
        pose = forward_kinematics(arm6, q0)
        active = plan(make_request([CartesianWaypoint(pose, 1.0)], "ok"), arm6, RobotState.rest(q0))
        bad = make_request([CartesianWaypoint(Pose(np.array([9.9, 0, 0]), np.zeros(3)), 0.5)], "bad")
        with pytest.raises(IkFailure):
            plan(bad, arm6, active.state(active.epoch + 0.5))
        state, _ = reference_at(active, active.epoch + 0.6)  # still evaluable
        assert np.isfinite(state.q).all()

    def test_buffered_streaming_junctions(self, arm6):
        # teleop-style: 30 consecutive buffered preemptions, 5 waypoints each
        q0 = arm6.mid_position()
        base = forward_kinematics(arm6, q0)
        rpy = base.rpy

        def master(t):
            return base.translation + np.array(
                [0.02 * (1 - np.cos(0.8 * t)), 0.03 * (1 - np.cos(0.6 * t)), 0.0]
            )

        stamps = [k * 0.04 for k in range(36)]
        active = None
        worst = np.zeros(3)
        for k in range(4, 36):
            window = stamps[k - 4 : k + 1]
            waypoints = [CartesianWaypoint(Pose(master(t), rpy), 0.04) for t in window]
            request = make_request(waypoints, f"buf-{k}")
            t_now = stamps[k]
            if active is None:
                active = plan(request, arm6, RobotState.rest(q0, timestamp=t_now))
            else:
                expected, _ = reference_at(active, t_now)
                active = plan(request, arm6, active.state(t_now))
                q, qd, qdd = active.state_at(0.0)
                worst = np.maximum(
                    worst,
                    [
                        np.max(np.abs(q - expected.q)),
                        np.max(np.abs(qd - expected.qd)),
                        np.max(np.abs(qdd - expected.qdd)),
                    ],
                )
        assert np.all(worst <= 1e-6)


@contextlib.contextmanager
def recorded_ik():
    """The calls planner.plan makes to inverse_kinematics while the block
    runs, as (target pose vectors, seed)."""
    calls = []
    solve = planner.inverse_kinematics

    def record(chain, targets, seed, walk):
        calls.append((np.array(targets), np.array(seed)))
        return solve(chain, targets, seed, walk)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "inverse_kinematics", record)
        yield calls


def first_window(arm6, stream, k):
    """Window k planned from rest at its first sample, and the state one
    master period later."""
    rest = inverse_kinematics(arm6, stream.poses(k)[0], stream.q0)
    active = plan(stream.window(k), arm6, RobotState.rest(rest))
    return active, active.state(active.epoch + TELEOP_PERIOD_S)


class TestReuse:
    """A request whose leading poses repeat the trailing poses of the plan it
    replaces keeps that plan's IK solutions: sliding teleop windows."""

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 20), shift=st.integers(1, TELEOP_BUFFER - 1))
    def test_repeated_samples_keep_their_solutions_and_only_new_ones_are_solved(
        self, arm6, teleop_stream, seed, k, shift
    ):
        stream = teleop_stream(seed, k + shift + 1)
        active, start = first_window(arm6, stream, k)
        with recorded_ik() as calls:
            replan = plan(stream.window(k + shift), arm6, start, previous=active)
        kept = TELEOP_BUFFER - shift
        assert replan.joint_waypoints[:kept].tobytes() == active.joint_waypoints[shift:].tobytes()
        assert len(calls) == 1
        targets, seed_q = calls[0]
        np.testing.assert_array_equal(targets, stream.samples[k + TELEOP_BUFFER : k + shift + TELEOP_BUFFER])
        assert seed_q.tobytes() == active.joint_waypoints[-1].tobytes()
        np.testing.assert_array_equal(replan.poses, stream.samples[k + shift : k + shift + TELEOP_BUFFER])

    @settings(max_examples=12)
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(0, 20),
        index=st.integers(0, TELEOP_BUFFER - 2),
        component=st.integers(0, 5),
        up=st.booleans(),
    )
    def test_a_leading_pose_one_ulp_off_is_solved_again(self, arm6, teleop_stream, seed, k, index, component, up):
        stream = teleop_stream(seed, k + 2)
        active, start = first_window(arm6, stream, k)
        vectors = stream.samples[k + 1 : k + 1 + TELEOP_BUFFER].copy()
        vectors[index, component] = np.nextafter(vectors[index, component], np.inf if up else -np.inf)
        with recorded_ik() as calls:
            plan(stream.window(k + 1, [Pose.from_vector(v) for v in vectors]), arm6, start, previous=active)
        assert len(calls) == 1
        targets, seed_q = calls[0]
        np.testing.assert_array_equal(targets, vectors)
        np.testing.assert_array_equal(seed_q, start.q)

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 8), shift=st.integers(1, TELEOP_BUFFER - 1))
    def test_an_unreachable_new_sample_is_named_request_wide_and_keeps_what_was_kept(
        self, arm6, teleop_stream, seed, k, shift
    ):
        stream = teleop_stream(seed, k + shift + 1)
        session = Session(arm6, stream.q0)
        for j in range(k + 1):
            assert session.submit(stream.window(j), stream.send_time(j)).accepted
        active = session.active_plan
        solutions, poses = active.joint_waypoints.tobytes(), active.poses.tobytes()
        bad = TELEOP_BUFFER - shift  # the first new sample
        window = stream.poses(k + shift)
        window[bad] = Pose(np.array([3.0, 0.0, 0.0]), np.zeros(3))
        t = stream.send_time(k + shift)
        record = session.submit(stream.window(k + shift, window), t)
        assert not record.accepted
        assert record.reason.startswith(f"ik: IK failed at waypoint {bad}:")
        assert session.active_plan is active
        assert (active.joint_waypoints.tobytes(), active.poses.tobytes()) == (solutions, poses)
        with recorded_ik() as calls:
            assert session.submit(stream.window(k + shift), t).accepted
        assert [len(targets) for targets, _ in calls] == [shift]

    @settings(max_examples=6)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 20))
    def test_a_different_chain_object_never_reuses(self, arm6, teleop_stream, seed, k):
        twin = dataclasses.replace(arm6)
        stream = teleop_stream(seed, k + 2)
        active, start = first_window(arm6, stream, k)
        with recorded_ik() as calls:
            plan(stream.window(k + 1), twin, start, previous=active)
        assert [len(targets) for targets, _ in calls] == [TELEOP_BUFFER]

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 20), count=st.integers(1, TELEOP_BUFFER))
    def test_a_window_of_repeated_samples_only_calls_no_ik(self, arm6, teleop_stream, seed, k, count):
        stream = teleop_stream(seed, k + 1)
        active, start = first_window(arm6, stream, k)
        # half a second each, so that even one waypoint can be reached at rest
        repeats = [CartesianWaypoint(pose, 0.5) for pose in stream.poses(k)[TELEOP_BUFFER - count :]]
        with recorded_ik() as calls:
            replan = plan(make_request(repeats), arm6, start, previous=active)
        assert calls == []
        assert replan.joint_waypoints.tobytes() == active.joint_waypoints[-count:].tobytes()


@contextlib.contextmanager
def counted_walks():
    """Chain walks and Jacobians IK takes while the block runs."""
    counts = {"walks": 0, "jacobians": 0}
    frames, jac = chain_module._frames, chain_module.jacobian

    def walk(*args):
        counts["walks"] += 1
        return frames(*args)

    def jacobian(*args):
        counts["jacobians"] += 1
        return jac(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_frames", walk)
        patch.setattr(chain_module, "jacobian", jacobian)
        yield counts


def assert_walk_of(plan_, chain):
    """plan_.walk is the walk of its last joint solution, bit for bit."""
    frames, ee = chain_module._frames(chain, plan_.joint_waypoints[-1])
    assert plan_.walk[0].tobytes() == frames.tobytes() and plan_.walk[1].tobytes() == ee.tobytes()


class TestHandover:
    """What the replaced plan hands to the plan that replaces it, beside its
    joint solutions and QP structure: the walk of its last solution, which
    seeds the next IK, and its segments' unit rows."""

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 20), shift=st.integers(1, TELEOP_BUFFER - 1))
    def test_a_window_that_keeps_poses_does_not_walk_its_seed(self, arm6, teleop_stream, seed, k, shift):
        stream = teleop_stream(seed, k + shift + 1)
        with counted_walks() as counts:
            active, start = first_window(arm6, stream, k)
        assert counts["walks"] == counts["jacobians"] + 1 + 1  # first_window's IK and plan each walk a seed
        assert_walk_of(active, arm6)
        with counted_walks() as counts:
            replan = plan(stream.window(k + shift), arm6, start, previous=active)
        assert counts["jacobians"] >= 1 and counts["walks"] == counts["jacobians"]
        assert_walk_of(replan, arm6)

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**16), k=st.integers(0, 20), case=st.sampled_from(["fresh", "twin", "ulp"]))
    def test_a_request_that_keeps_no_pose_walks_its_seed(self, arm6, teleop_stream, seed, k, case):
        stream = teleop_stream(seed, k + 2)
        active, start = first_window(arm6, stream, k)
        config, request, previous = arm6, stream.window(k + 1), active
        if case == "fresh":
            previous = None
        elif case == "twin":
            config = dataclasses.replace(arm6)
        else:
            vectors = stream.samples[k + 1 : k + 1 + TELEOP_BUFFER].copy()
            vectors[0, 0] = np.nextafter(vectors[0, 0], np.inf)
            request = stream.window(k + 1, [Pose.from_vector(v) for v in vectors])
        with counted_walks() as counts:
            replan = plan(request, config, start, previous=previous)
        assert counts["walks"] == counts["jacobians"] + 1
        assert_walk_of(replan, config)

    def test_a_window_of_kept_poses_hands_on_the_walk_it_got(self, arm6, teleop_stream):
        stream = teleop_stream(5, 2)
        active, start = first_window(arm6, stream, 1)
        repeats = [CartesianWaypoint(pose, 0.5) for pose in stream.poses(1)[2:]]
        replan = plan(make_request(repeats), arm6, start, previous=active)
        assert replan.walk is active.walk

    def test_unit_rows_and_junction_residuals_match_a_plan_without_structure(self, arm6, teleop_stream):
        stream = teleop_stream(9, 3)
        session = Session(arm6, stream.q0)
        for k in range(3):  # the later windows reuse the first one's structure
            assert session.submit(stream.window(k), stream.send_time(k)).accepted
            built = session.active_plan
            assert built.structure is not None
            bare = planner.Plan(built.chain, built.coeffs, built.durations, built.joint_waypoints, 0.0, "bare")
            assert built.unit_rows.tobytes() == bare.unit_rows.tobytes()
            assert built.junction_residuals().tobytes() == bare.junction_residuals().tobytes()
            assert [t.tobytes() for t in built.power_table] == [t.tobytes() for t in bare.power_table]

    def test_a_plan_holds_its_requests_read_only_arrays(self, arm6):
        q0 = arm6.mid_position()
        pose = forward_kinematics(arm6, q0).to_vector().tolist()
        payload = {"id": "r", "robot": "sim", "type": planner.REQUEST_TYPE,
                   "waypoints": [{"pose": pose, "duration": 0.5}, {"pose": pose, "duration": 0.25}]}
        request = planner.request_from_payload(payload)
        assert request.poses.tolist() == [pose, pose] and request.durations.tolist() == [0.5, 0.25]
        plan_ = plan(request, arm6, RobotState.rest(q0))
        assert plan_.poses is request.poses and plan_.durations is request.durations
        for array in (request.poses, request.durations):
            assert not array.flags.writeable


class TestWaypointFiles:
    def test_load_waypoints(self):
        waypoints = planner.load_waypoints(data_path("waypoints", "line7.json"))
        assert len(waypoints) == 7
        assert waypoints[0].duration == 0.5

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "wps.json"
        payload = [{"pose": [0.1234567891234, 0, 0.5, 0, -0.2, 0], "duration": 0.5}]
        path.write_text(json.dumps(payload))
        loaded = planner.load_waypoints(path)
        assert loaded[0].pose.translation[0] == 0.1234567891234

    @pytest.mark.parametrize("duration", [0.0, -0.5])
    def test_a_non_positive_duration_names_its_waypoint(self, tmp_path, duration):
        path = tmp_path / "wps.json"
        pose = [0.6, 0.0, 0.4, 0.0, -0.2, 0.0]
        path.write_text(json.dumps([{"pose": pose, "duration": 0.5}, {"pose": pose, "duration": duration}]))
        with pytest.raises(ValidationError, match=rf"^waypoint 1: duration must be positive, got {duration}$"):
            planner.load_waypoints(path)
