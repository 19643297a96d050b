import json

import numpy as np
import pytest

from rtmotion import planner, poly, qpbuild, runtime
from rtmotion.chain import Pose, forward_kinematics
from rtmotion.iface import SERVE_HISTORY, RobotServer, handle_request_line
from rtmotion.planner import CartesianWaypoint, PlanRequest, RobotState
from rtmotion.runtime import ScenarioError, Session, SimArm, load_scenario, run_scenario

from conftest import data_path


def hold_request(chain, q0, request_id="hold", duration=0.5):
    pose = forward_kinematics(chain, q0)
    return PlanRequest("sim", (CartesianWaypoint(pose, duration),), request_id)


class TestSimArm:
    def test_perfect_tracking_is_exact_copy(self, arm6):
        arm = SimArm(arm6, RobotState.rest(arm6.mid_position()))
        ref = RobotState.rest(arm6.mid_position() + 0.01, timestamp=0.5)
        out = arm.advance(ref, 0.01)
        np.testing.assert_array_equal(out.q, ref.q)
        np.testing.assert_array_equal(out.qd, ref.qd)

    def test_first_order_step_response(self, arm6):
        # time constant 0.05 s: ~63% of a position step after one constant
        q0 = arm6.mid_position()
        arm = SimArm(arm6, RobotState.rest(q0), tracking_lag=0.05)
        step = q0.copy()
        step[0] += 0.1
        dt = 0.001
        for k in range(50):  # 0.05 s
            out = arm.advance(RobotState.rest(step, timestamp=(k + 1) * dt), dt)
        progress = (out.q[0] - q0[0]) / 0.1
        assert progress == pytest.approx(1 - np.exp(-1.0), abs=0.02)


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

    def test_clock_regression_is_fatal(self, arm6):
        session = Session(arm6, arm6.mid_position())
        session.tick(0.0)
        session.tick(0.01)
        with pytest.raises(RuntimeError, match="clock regression"):
            session.tick(0.005)

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
        # the encoder trails the reference; each new plan starts from the
        # commanded reference, so the command stream stays C2 regardless
        q0 = arm6.mid_position()
        base = forward_kinematics(arm6, q0)
        session = Session(arm6, q0, tracking_lag=0.05)
        bound = arm6.v_max / session.fc * 1.001
        prev = None
        for k in range(240):
            t = k / session.fc
            if k % 40 == 0:  # a plan, then five mid-flight preemptions
                target = base.translation + [0.0, 0.02 * (k // 40 + 1), 0.01 * (-1) ** (k // 40)]
                request = PlanRequest("sim", (CartesianWaypoint(Pose(target, base.rpy), 0.6),), f"r{k}")
                before = session.reference(t)
                offset = np.max(np.abs(session.arm.encoder_state.q - before.q))
                record = session.submit(request, t)
                assert record.accepted, record.reason
                if k:
                    assert offset > 1e-3  # the swap happens while the arm lags
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
        calls = {"fk": 0, "basis_row": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (planner, runtime):
            monkeypatch.setattr(module, "forward_kinematics", counted("fk", module.forward_kinematics))
        for module in (poly, qpbuild):
            monkeypatch.setattr(module, "basis_row", counted("basis_row", module.basis_row))
        record = session.tick(0.2)
        assert calls == {"fk": 1, "basis_row": 0}
        assert record.active_request_id == "r"


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
        "key, value, accepted",
        [("type", None, False), ("robot", "arm-b", False), ("id", None, True)],
        ids=["no type", "other robot", "no id"],
    )
    def test_requests_get_the_wire_decision(self, tmp_path, arm6, key, value, accepted):
        # the scenario runner accepts exactly what the wire accepts
        raw = json.loads(data_path("scenarios", "draw-line.json").read_text())
        request = raw["events"][0]["request"]
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
            with pytest.raises(ScenarioError, match="rejected"):
                run_scenario(path)

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

    def test_report_export(self, tmp_path, draw_line_result):
        out = tmp_path / "report.json"
        draw_line_result.write_report(out)
        loaded = json.loads(out.read_text())
        assert loaded["scenario"] == "draw-line"


class TestScenarioLoading:
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
