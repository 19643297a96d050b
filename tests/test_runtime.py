import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from rtmotion import chain, planner, poly, qpbuild, runtime
from rtmotion.chain import Pose, forward_kinematics
from rtmotion.iface import SERVE_HISTORY, RobotServer, handle_request_line
from rtmotion.planner import CartesianWaypoint, PlanRequest, RobotState
from rtmotion.runtime import ScenarioError, Session, SimArm, load_scenario, run_scenario

from conftest import data_path, scenario_result


def hold_request(chain, q0, request_id="hold", duration=0.5):
    pose = forward_kinematics(chain, q0)
    return PlanRequest("sim", (CartesianWaypoint(pose, duration),), request_id)


def edited_draw_line(tmp_path, edit):
    """The packaged draw-line scenario, edited, written under tmp_path."""
    raw = json.loads(data_path("scenarios", "draw-line.json").read_text())
    edit(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    return path


class TestSimArm:
    def test_perfect_tracking_is_exact_copy(self, arm6):
        arm = SimArm(arm6, RobotState.rest(arm6.mid_position()))
        ref = RobotState.rest(arm6.mid_position() + 0.01, timestamp=0.5)
        out = arm.advance(ref)
        np.testing.assert_array_equal(out.q, ref.q)
        np.testing.assert_array_equal(out.qd, ref.qd)


class TestSession:
    def test_no_plan_holds_initial_rest(self, arm6):
        session = Session(arm6, arm6.mid_position())
        record = session.tick(0.0)
        np.testing.assert_array_equal(record.reference.q, arm6.mid_position())
        assert np.all(record.reference.qd == 0.0)
        assert record.active_request_id is None
        np.testing.assert_array_equal(record.encoder.q, record.reference.q)

    def test_lag_zero_encoder_equals_reference_bit_exact(self, arm6):
        session = Session(arm6, arm6.mid_position())
        session.submit(hold_request(arm6, arm6.mid_position()), 0.0)
        for k in range(30):
            record = session.tick(k / session.fc)
            np.testing.assert_array_equal(record.encoder.q, record.reference.q)
            np.testing.assert_array_equal(record.encoder.qd, record.reference.qd)
            np.testing.assert_array_equal(record.encoder.qdd, record.reference.qdd)

    def test_tick_states_are_float_arrays_of_one_value_per_joint(self, arm6):
        # the tick's states hold the arrays it computed, unconverted: idle,
        # on a plan, and past its end, from a q0 given as integers
        session = Session(arm6, [0, 1, -1, 0, 1, 0])
        records = [session.tick(0.0)]
        session.submit(hold_request(arm6, arm6.mid_position(), duration=0.05), 0.01)
        records += [session.tick(k / session.fc) for k in range(1, 10)]
        for record in records:
            for state in (record.reference, record.encoder):
                for values in (state.q, state.qd, state.qdd):
                    assert values.dtype == np.float64 and values.shape == (arm6.dof,)
                assert state.timestamp == record.t
            for values in (record.ee_pose_ref.translation, record.ee_pose_ref.rpy):
                assert values.dtype == np.float64 and values.shape == (3,)

    @pytest.mark.parametrize("q0", [[np.nan, 0, 0, 0, 0, 0], [np.inf] * 6, [0.0] * 5])
    def test_initial_q_must_be_dof_finite_values(self, arm6, q0):
        # a NaN hold would kill the first tick of a served session's dispatch thread
        with pytest.raises(ValueError, match="q0 must hold 6 finite joint values"):
            Session(arm6, q0)

    def test_clock_regression_is_fatal(self, arm6):
        session = Session(arm6, arm6.mid_position())
        session.tick(0.0)
        session.tick(0.01)
        with pytest.raises(RuntimeError, match="clock regression"):
            session.tick(0.005)

    def test_non_finite_times_are_rejected_before_they_are_recorded(self, arm6):
        session = Session(arm6, arm6.mid_position())
        session.tick(1.0)
        for t in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                session.tick(t)
        assert [record.t for record in session.telemetry] == [1.0]
        with pytest.raises(RuntimeError, match="clock regression"):
            session.tick(0.2)
        with pytest.raises(ValueError, match="non-finite"):
            session.submit(hold_request(arm6, arm6.mid_position()), float("nan"))
        assert session.active_plan is None and not session.requests
        session.submit(hold_request(arm6, arm6.mid_position()), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            session.tick(float("nan"))
        assert len(session.telemetry) == 1

    def test_rejected_request_keeps_plan(self, arm6):
        q0 = arm6.mid_position()
        session = Session(arm6, q0)
        ok = session.submit(hold_request(arm6, q0, "ok"), 0.0)
        assert ok.accepted
        bad = session.submit(
            PlanRequest("sim", (), "bad"), 0.01
        )
        assert not bad.accepted
        assert "waypoints: empty" in bad.reason
        assert session.active_plan.request_id == "ok"

    def test_preemption_reference_stream_continuous(self, arm6):
        q0 = arm6.mid_position()
        rpy = np.array([0.0, -0.2, 0.0])
        session = Session(arm6, q0)
        target = forward_kinematics(arm6, q0).translation + [0.0, 0.08, 0.0]
        from rtmotion.chain import Pose

        session.submit(
            PlanRequest("sim", (CartesianWaypoint(Pose(target, rpy), 1.5),), "r1"), 0.0
        )
        bound = arm6.v_max / session.fc * 1.001
        prev = None
        for k in range(160):
            t = k / session.fc
            if k == 100:  # preempt mid-flight toward a shifted target
                session.submit(
                    PlanRequest(
                        "sim",
                        (CartesianWaypoint(Pose(target + [0.0, 0.03, 0.0], rpy), 1.5),),
                        "r2",
                    ),
                    t,
                )
            record = session.tick(t)
            if prev is not None:
                assert np.all(np.abs(record.reference.q - prev.reference.q) <= bound)
            prev = record
        jump = session.requests[-1].preemption_jump
        assert jump is not None and max(jump) <= 1e-6

    def test_lagging_arm_preemptions_stay_continuous(self, arm6):
        # the encoder reads 0.01 rad off the reference at every swap; each new
        # plan starts from the commanded reference, so the command stream
        # stays C2 regardless
        q0 = arm6.mid_position()
        base = forward_kinematics(arm6, q0)
        session = Session(arm6, q0)
        bound = arm6.v_max / session.fc * 1.001
        prev = None
        for k in range(240):
            t = k / session.fc
            if k % 40 == 0:  # a plan, then five mid-flight preemptions
                target = base.translation + [0.0, 0.02 * (k // 40 + 1), 0.01 * (-1) ** (k // 40)]
                request = PlanRequest("sim", (CartesianWaypoint(Pose(target, base.rpy), 0.6),), f"r{k}")
                before = session.reference(t)
                session.arm.encoder_state = RobotState(before.q + 0.01, before.qd, before.qdd, t)
                record = session.submit(request, t)
                assert record.accepted, record.reason
                if k:
                    after = session.reference(t)
                    for a, b in ((after.q, before.q), (after.qd, before.qd), (after.qdd, before.qdd)):
                        assert np.max(np.abs(a - b)) <= 1e-6
                    assert max(record.preemption_jump) <= 1e-6
            rec = session.tick(t)
            if prev is not None:
                assert np.all(np.abs(rec.reference.q - prev.reference.q) <= bound)
            prev = rec
        assert sum(r.preemption_jump is not None for r in session.requests) == 5

    def test_preemption_past_a_joint_limit_is_continuous(self, arm6):
        # the QP bounds no position, so the reference overshoots joint 0's
        # 2.9 rad limit; a plan from a clamped start would jump by 0.12 rad
        q0 = arm6.mid_position()
        q0[0] = 2.3
        session = Session(arm6, q0)
        q1 = q0.copy()
        q1[0] = 2.89
        targets = [q1, q1 + [0.0, 0.2, 0, 0, 0, 0], q1 + [0.0, 0.4, 0, 0, 0, 0]]
        waypoints = tuple(CartesianWaypoint(forward_kinematics(arm6, q), 0.5) for q in targets)
        assert session.submit(PlanRequest("sim", waypoints, "over"), 0.0).accepted
        t_over = 0.694
        assert session.reference(t_over).q[0] > arm6.joint_limits[0, 1] + 0.1
        record = session.submit(hold_request(arm6, targets[-1], "next"), t_over)
        assert record.accepted, record.reason
        assert max(record.preemption_jump) <= 1e-6

    def test_no_record_mixes_plans(self, arm6):
        # each record's joints must come from one plan: with two plans whose
        # targets differ per joint, a mixed evaluation would break FK(q) vs
        # the recorded pose
        session = Session(arm6, arm6.mid_position())
        session.submit(hold_request(arm6, arm6.mid_position(), "a"), 0.0)
        record = session.tick(0.0)
        np.testing.assert_allclose(
            record.ee_pose_ref.to_vector(),
            forward_kinematics(arm6, record.reference.q).to_vector(),
            atol=1e-12,
        )

    def test_bounded_history_keeps_the_newest_records(self, arm6):
        q0 = arm6.mid_position()
        session = Session(arm6, q0, history=4)
        for k in range(7):
            t = k / session.fc
            session.submit(hold_request(arm6, q0, f"r{k}"), t)
            session.tick(t)
        session.submit(PlanRequest("sim", (), "bad"), 0.07)  # rejects are kept too
        session.tick(0.07)
        assert [r.request_id for r in session.requests] == ["r4", "r5", "r6", "bad"]
        assert [r.t for r in session.telemetry] == [k / session.fc for k in range(4, 7)] + [0.07]
        assert session.telemetry[-1].active_request_id == "r6"

    def test_served_session_is_bounded_and_scenarios_are_not(self, arm6, draw_line_result):
        server = RobotServer(arm6)
        try:
            assert server.session.telemetry.maxlen == SERVE_HISTORY
            assert server.session.requests.maxlen == SERVE_HISTORY
        finally:
            server.stop()
        assert draw_line_result.session.telemetry.maxlen is None
        assert len(draw_line_result.session.telemetry) == draw_line_result.summary["ticks"]

    def test_tick_on_an_active_plan_runs_one_fk_and_no_basis_row(self, arm6, monkeypatch):
        session = Session(arm6, arm6.mid_position())
        session.submit(hold_request(arm6, arm6.mid_position(), "r"), 0.0)
        calls = {"fk": 0, "fk_transform": 0, "basis_row": 0, "state_rows": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (planner, runtime):
            monkeypatch.setattr(module, "forward_kinematics", counted("fk", module.forward_kinematics))
        monkeypatch.setattr(chain, "fk_transform", counted("fk_transform", chain.fk_transform))
        for module in (poly, qpbuild):
            monkeypatch.setattr(module, "basis_row", counted("basis_row", module.basis_row))
        # the rows fixed at plan time serve every tick
        for module in (poly, qpbuild):
            monkeypatch.setattr(module, "state_rows", counted("state_rows", module.state_rows))
        for k, t in enumerate((0.2, 0.21, 0.5, 0.6), start=1):
            record = session.tick(t)
            assert calls == {"fk": k, "fk_transform": k, "basis_row": 0, "state_rows": 0}
            assert record.active_request_id == "r"


class TestTeleopStream:
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_a_repeated_sample_keeps_its_joint_target_across_windows(self, arm6, teleop_stream, seed):
        # each window repeats four samples of the last one; solving them
        # again moved their joint targets by up to 1.1e-3 rad between windows
        count = 100
        stream = teleop_stream(seed, count)
        session = Session(arm6, stream.q0)
        previous = None
        for k in range(count):
            t = stream.send_time(k)
            assert session.submit(stream.window(k), t).accepted
            targets = session.active_plan.joint_waypoints
            if previous is not None:
                assert np.abs(targets[:-1] - previous[1:]).max() == 0.0
            previous = targets
            for j in range(4):
                session.tick(t + j / session.fc)


class TestScenarios:
    def test_draw_line_summary(self, draw_line_result):
        summary = draw_line_result.summary
        assert summary["fc"] == 100.0
        assert summary["requests_accepted"] == 1
        assert summary["limit_violation_ticks"] == 0
        assert max(summary["max_junction_residual"]) <= 1e-6
        assert summary["terminal_velocity"] <= 1e-6
        assert summary["terminal_acceleration"] <= 1e-6
        # 3.5 s of motion plus settle; dispatch never skips a tick
        assert summary["ticks"] == 401

    def test_draw_line_motion_tick_count(self, draw_line_result):
        # 350 ticks strictly inside the motion window, then hold
        records = draw_line_result.session.telemetry
        moving = [r for r in records if r.t < 3.5]
        assert len(moving) == 350

    def test_draw_circle_summary(self, draw_circle_result):
        summary = draw_circle_result.summary
        assert summary["requests_accepted"] == 1
        assert max(summary["max_junction_residual"]) <= 1e-6
        assert summary["limit_violation_ticks"] == 0

    @pytest.mark.parametrize("name", ["draw-line", "draw-circle", "repeated waypoint"])
    def test_path_deviation_matches_a_per_tick_reference(self, tmp_path, name):
        def segment_distance(point, a, b):
            ab = b - a
            denom = float(ab @ ab)
            if denom < 1e-18:
                return float(np.linalg.norm(point - a))
            s = min(max(float((point - a) @ ab) / denom, 0.0), 1.0)
            return float(np.linalg.norm(point - (a + s * ab)))

        def repeat_a_waypoint(raw):  # waypoints 3 and 4 give one anchor: a zero-length chord
            waypoints = raw["events"][0]["request"]["waypoints"]
            waypoints.insert(3, waypoints[3])
            raw["events"][1]["t"] = 4.5  # the at_rest check, past the now 4.0 s plan

        if name == "repeated waypoint":
            result = run_scenario(edited_draw_line(tmp_path, repeat_a_waypoint))
        else:
            result = scenario_result(name)
        plan_ = result.session.active_plan  # the drawing's one request
        anchors = [forward_kinematics(result.script.chain, q).translation
                   for q in [plan_.state_at(0.0)[0], *plan_.joint_waypoints]]
        bounds = np.cumsum(plan_.durations)
        expected = 0.0
        for rec in result.session.telemetry:
            local = rec.t - plan_.epoch
            if rec.active_request_id == plan_.request_id and local < bounds[-1]:
                idx = int(np.searchsorted(bounds, local, side="right"))
                expected = max(expected, segment_distance(rec.ee_pose_ref.translation, anchors[idx], anchors[idx + 1]))
        if name == "repeated waypoint":
            assert np.array_equal(anchors[4], anchors[5])
        assert expected > 0 and result.summary["path_deviation_m"] == expected

    def test_chase_preemptions_and_grasp(self, chase_result):
        summary = chase_result.summary
        assert summary["preemptions"] >= 10
        assert summary["max_tick_step_ratio"] <= 1.0
        assert any(m["label"] == "grasp_triggered" for m in summary["markers"])
        assert summary["terminal_velocity"] <= 1e-6

    def test_chase_settles_on_last_target(self, arm6, chase_result):
        final = chase_result.session.telemetry[-1]
        gap = np.linalg.norm(final.ee_pose_ref.translation - [0.7205, 0.10, 0.45])
        assert gap <= 1e-3  # IK tolerance

    def test_teleop_delay_and_continuity(self, teleop_result):
        summary = teleop_result.summary
        assert summary["preemptions"] >= 100
        delay = summary["pipeline_delay"]
        assert abs(delay["median_s"] - 0.2) <= 0.02
        assert max(summary["max_preemption_jump"]) <= 1e-6
        assert max(summary["max_junction_residual"]) <= 1e-6

    def test_dispatch_regularity(self, draw_line_result):
        times = np.array([r.t for r in draw_line_result.session.telemetry])
        spacing = np.diff(times)
        np.testing.assert_allclose(spacing, 1.0 / 100.0, atol=1e-9)
        # exactly fc records per simulated second
        assert np.sum((times >= 1.0) & (times < 2.0)) == 100

    def test_scenario_rejection_aborts(self, tmp_path, arm6):
        script = {
            "name": "bad",
            "chain": "arm6.json",
            "q0": arm6.mid_position().tolist(),
            "events": [
                {
                    "t": 0.0,
                    "action": "send_request",
                    "request": {
                        "id": "r1",
                        "robot": "sim",
                        "type": "rt-move-cartesian",
                        "waypoints": [{"pose": [9.0, 0, 0, 0, 0, 0], "duration": 0.5}],
                    },
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(script))
        with pytest.raises(ScenarioError, match="rejected"):
            run_scenario(path)

    @pytest.mark.parametrize(
        "edits, accepted",
        [
            ({"type": None}, False),
            ({"robot": "arm-b"}, False),
            ({"id": None}, True),
            ({"robot": "arm-b", "waypoints": [{"pose": "here"}]}, False),
        ],
        ids=["no type", "other robot", "no id", "other robot and malformed waypoints"],
    )
    def test_requests_get_the_wire_decision(self, tmp_path, arm6, edits, accepted):
        # the scenario runner accepts exactly what the wire accepts, and
        # rejects for the wire's reason
        raw = json.loads(data_path("scenarios", "draw-line.json").read_text())
        request = raw["events"][0]["request"]
        for key, value in edits.items():
            if value is None:
                del request[key]
            else:
                request[key] = value
        ack = handle_request_line({"sim": Session(arm6, raw["q0"])}, json.dumps(request), 0.0)
        assert (ack["status"] == "accepted") == accepted
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        if accepted:
            assert run_scenario(path).summary["requests_accepted"] == 1
        else:
            with pytest.raises(ScenarioError, match=re.escape(f"rejected ({ack['reason']})")):
                run_scenario(path)
        if "robot" in edits:
            assert ack["reason"] == "unknown robot 'arm-b'"

    def test_assert_action_failure(self, tmp_path, arm6):
        script = {
            "name": "impatient",
            "chain": "arm6.json",
            "q0": arm6.mid_position().tolist(),
            "settle_time": 0.5,
            "events": [
                {"t": 0.0, "action": "assert", "check": "near_pose", "pose": [0, 0, 9.0], "tol": 0.001}
            ],
        }
        path = tmp_path / "impatient.json"
        path.write_text(json.dumps(script))
        with pytest.raises(ScenarioError, match="near_pose"):
            run_scenario(path)

    def test_log_csv_export(self, tmp_path, draw_line_result):
        out = tmp_path / "log.csv"
        draw_line_result.write_log_csv(out)
        lines = out.read_text().splitlines()
        assert len(lines) == draw_line_result.summary["ticks"] + 1
        header = lines[0].split(",")
        assert header[0] == "t" and "q0" in header and "request" in header
        for line, rec in zip(lines[1:], draw_line_result.session.telemetry):
            *cells, request = line.split(",")
            ref, dof = rec.reference, len(rec.reference.q)
            state = [x for j in range(dof) for x in (ref.q[j], ref.qd[j], ref.qdd[j])]
            want = [rec.t, *state, *rec.encoder.q, *rec.ee_pose_ref.to_vector()]
            assert [float(cell) for cell in cells] == want  # bit for bit
            assert request == (rec.active_request_id or "")

    def test_report_export(self, tmp_path, draw_line_result):
        out = tmp_path / "report.json"
        draw_line_result.write_report(out)
        loaded = json.loads(out.read_text())
        assert loaded["scenario"] == "draw-line"


class TestRunLength:
    """A run lasts to its last event, or settle_time past the end of its last
    accepted plan if that is later."""

    def test_a_marker_after_the_last_plan_ends_extends_the_run(self, tmp_path):
        # the plan ends at 3.5 s and settles by 4.0 s
        late = {"t": 5.0, "action": "marker", "label": "late"}
        result = run_scenario(edited_draw_line(tmp_path, lambda raw: raw["events"].append(late)))
        assert result.summary["ticks"] == 501
        assert [label for _, label in result.markers] == ["late"]
        assert result.markers[0][0] == pytest.approx(5.0)

    def test_a_plan_that_outlasts_every_event_sets_the_run_length(self, tmp_path, arm6):
        pose = forward_kinematics(arm6, arm6.mid_position()).to_vector().tolist()
        request = {"id": "r", "robot": "sim", "type": "rt-move-cartesian",
                   "waypoints": [{"pose": pose, "duration": 1.2}, {"pose": pose, "duration": 0.8}]}
        script = {"name": "late", "chain": "arm6.json", "q0": arm6.mid_position().tolist(), "settle_time": 0.25,
                  "events": [{"t": 1.0, "action": "send_request", "request": request}]}
        path = tmp_path / "late.json"
        path.write_text(json.dumps(script))
        result = run_scenario(path)
        # 1.0 s + 2.0 s of plan + 0.25 s of settling, ticks 0 to 325
        assert result.summary["ticks"] == 326
        assert result.session.telemetry[-1].t == pytest.approx(3.25)

    def test_an_event_between_ticks_runs_though_it_is_the_last(self, tmp_path):
        # no tick falls on 4.004 s, past the 4.0 s end: the assert runs at 4.01 s
        check = {"t": 4.004, "action": "assert", "check": "near_pose", "pose": [0, 0, 9.0], "tol": 0.001}
        with pytest.raises(ScenarioError, match="near_pose failed at t=4.01"):
            run_scenario(edited_draw_line(tmp_path, lambda raw: raw["events"].append(check)))

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda request: request["waypoints"][3].update(duration=10**400),
             "validation: waypoint 3: int too large to convert to float"),
            (lambda request: request.pop("waypoints"), "validation: waypoints: empty"),
        ],
        ids=["duration no float holds", "no waypoints"],
    )
    def test_a_rejected_request_fails_the_script_for_the_wires_reason(self, tmp_path, edit, reason):
        def add_second_request(raw):
            second = copy.deepcopy(raw["events"][0])
            second["t"], second["request"]["id"] = 1.0, "line-2"
            edit(second["request"])
            raw["events"].append(second)

        path = edited_draw_line(tmp_path, add_second_request)
        with pytest.raises(ScenarioError, match=re.escape(f"request line-2 at t=1.000 rejected ({reason})")):
            run_scenario(path)

    def test_one_tick_with_no_events_reports_a_still_arm(self, tmp_path, arm6):
        script = {"name": "still", "chain": "arm6.json", "q0": arm6.mid_position().tolist(), "settle_time": 0}
        path = tmp_path / "still.json"
        path.write_text(json.dumps(script))
        summary = run_scenario(path).summary
        assert summary["ticks"] == 1 and summary["preemptions"] == 0
        assert summary["max_tick_step_ratio"] == 0.0
        assert summary["terminal_velocity"] == summary["terminal_acceleration"] == 0.0
        assert summary["max_junction_residual"] == summary["max_preemption_jump"] == [0.0, 0.0, 0.0]

    def test_an_integer_request_id_reports_the_same_path_deviation(self, tmp_path, draw_line_result):
        result = run_scenario(edited_draw_line(tmp_path, lambda raw: raw["events"][0]["request"].update(id=17)))
        assert result.session.telemetry[100].active_request_id == "17"
        deviation = result.summary["path_deviation_m"]
        assert deviation > 0 and deviation == draw_line_result.summary["path_deviation_m"]


class TestScenarioLoading:
    def test_a_packaged_bare_name_resolves_from_any_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert load_scenario("chase.json").name == "chase"
        # a file of that name in the working directory comes first
        mine = data_path("scenarios", "chase.json").read_text().replace('"chase"', '"mine"', 1)
        (tmp_path / "chase.json").write_text(mine)
        assert load_scenario("chase.json").name == "mine"

    def test_a_scenario_reads_its_files_next_to_itself(self, tmp_path, monkeypatch):
        sub, other = tmp_path / "sub", tmp_path / "other"
        sub.mkdir()
        other.mkdir()
        raw_chain = json.loads(data_path("chains", "arm6.json").read_text())
        (sub / "local-arm.json").write_text(json.dumps(dict(raw_chain, name="local")))
        raw = json.loads(data_path("scenarios", "draw-line.json").read_text())
        (sub / "s.json").write_text(json.dumps(dict(raw, chain="local-arm.json")))
        monkeypatch.chdir(tmp_path)
        assert load_scenario("sub/s.json").chain.name == "local"
        assert load_scenario(Path("sub/s.json")).chain.name == "local"
        monkeypatch.chdir(other)
        assert load_scenario(sub / "s.json").chain.name == "local"
        assert load_scenario("../sub/s.json").chain.name == "local"
        with pytest.raises(FileNotFoundError, match="cannot resolve scenarios file 'sub/s.json'"):
            load_scenario("sub/s.json")

    def test_packaged_scenarios_load(self):
        for name in ("draw-line", "draw-circle", "chase", "teleop-replay"):
            script = load_scenario(data_path("scenarios", f"{name}.json"))
            assert script.chain.dof == 6
            assert script.chain.control_frequency == 100.0

    def test_scenario_rate_must_be_the_chains(self, tmp_path, arm6):
        # the QP samples the limits at the chain's rate, so a script may not
        # tick at another
        script = {"name": "slow", "chain": "arm6.json", "fc": 50.0, "q0": arm6.mid_position().tolist()}
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(script))
        with pytest.raises(ScenarioError, match="fc 50.0 Hz"):
            load_scenario(path)

    def test_chase_expansion(self):
        script = load_scenario(data_path("scenarios", "chase.json"))
        sends = [e for e in script.events if e["action"] == "send_request"]
        markers = [e for e in script.events if e["action"] == "marker"]
        assert len(sends) == 13  # 12 moving observations + the stopped one
        assert len(markers) == 1
        assert all(len(e["request"]["waypoints"]) == 1 for e in sends)
        assert all(e["request"]["waypoints"][0]["duration"] == 1.5 for e in sends)

    def test_teleop_expansion(self):
        script = load_scenario(data_path("scenarios", "teleop-replay.json"))
        sends = [e for e in script.events if e["action"] == "send_request"]
        assert len(sends) == 147  # 151 samples, windows start once 5 are buffered
        assert all(len(e["request"]["waypoints"]) == 5 for e in sends)
        # oldest-first sliding window: consecutive requests share 4 waypoints
        first = sends[0]["request"]["waypoints"]
        second = sends[1]["request"]["waypoints"]
        assert first[1:] == second[:4]
