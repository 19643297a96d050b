import json
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import iface, planner
from rtmotion.chain import Pose, forward_kinematics, inverse_kinematics, load_chain
from rtmotion.iface import RobotServer, encode_line, handle_request_line, telemetry_message
from rtmotion.planner import RobotState
from rtmotion.runtime import Session, TelemetryRecord, handle_payload, load_scenario

from conftest import data_path


def make_session(arm6):
    return Session(arm6, arm6.mid_position(), robot_id="sim")


def request_line(request_id, waypoints, robot="sim", rtype="rt-move-cartesian"):
    return json.dumps(
        {"id": request_id, "robot": robot, "type": rtype, "waypoints": waypoints}
    )


def hold_waypoints(arm6, duration=0.5):
    pose = forward_kinematics(arm6, arm6.mid_position())
    return [{"pose": pose.to_vector().tolist(), "duration": duration}]


class TestHandleRequestLine:
    def test_happy_path(self, arm6):
        sessions = {"sim": make_session(arm6)}
        ack = handle_request_line(sessions, request_line("r1", hold_waypoints(arm6)), 0.0)
        assert ack == {"id": "r1", "status": "accepted"}
        assert sessions["sim"].active_plan.request_id == "r1"

    def test_zero_duration_rejected(self, arm6):
        sessions = {"sim": make_session(arm6)}
        pose = forward_kinematics(arm6, arm6.mid_position()).to_vector().tolist()
        ack = handle_request_line(
            sessions, request_line("r2", [{"pose": pose, "duration": 0.0}]), 0.0
        )
        assert ack["status"] == "rejected"
        assert "duration" in ack["reason"]

    def test_malformed_json(self, arm6):
        sessions = {"sim": make_session(arm6)}
        ack = handle_request_line(sessions, "{not json", 0.0)
        assert ack["status"] == "rejected"
        assert "parse" in ack["reason"]

    @pytest.mark.parametrize("field, value", [("duration", True), ("pose", False)])
    def test_boolean_where_a_number_belongs_rejected(self, arm6, field, value):
        # float(True) is 1.0: a true duration used to plan a 1 s waypoint
        sessions = {"sim": make_session(arm6)}
        waypoints = hold_waypoints(arm6)
        if field == "duration":
            waypoints[0]["duration"] = value
        else:
            waypoints[0]["pose"][4] = value
        ack = handle_request_line(sessions, request_line("b", waypoints), 0.0)
        assert ack == {"id": "b", "status": "rejected",
                       "reason": "validation: waypoint 0: pose entries and duration must be numbers"}
        assert sessions["sim"].active_plan is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pose_rejected_on_the_wire_and_from_a_script(self, arm6, bad):
        sessions = {"sim": make_session(arm6)}
        waypoints = hold_waypoints(arm6)
        waypoints[0]["pose"][1] = bad
        # the wire's JSON cannot carry one; a scenario file's parser can
        ack = handle_request_line(sessions, request_line("w", waypoints), 0.0)
        assert ack["status"] == "rejected" and ack["reason"].startswith("parse: ")
        payload = {"id": "s", "robot": "sim", "type": "rt-move-cartesian", "waypoints": waypoints}
        ack = handle_payload(sessions, payload, 0.0)
        assert ack == {"id": "s", "status": "rejected",
                       "reason": "validation: waypoint 0: Pose components must be finite"}
        assert sessions["sim"].active_plan is None

    def test_unknown_robot(self, arm6):
        sessions = {"sim": make_session(arm6)}
        ack = handle_request_line(sessions, request_line("r3", hold_waypoints(arm6), robot="nope"), 0.0)
        assert ack["status"] == "rejected"
        assert "unknown robot" in ack["reason"]

    def test_wrong_type_rejected(self, arm6):
        sessions = {"sim": make_session(arm6)}
        ack = handle_request_line(
            sessions, request_line("r4", hold_waypoints(arm6), rtype="move-joint"), 0.0
        )
        assert ack["status"] == "rejected"
        assert "request type" in ack["reason"]

    def test_unreachable_rejected_with_stage(self, arm6):
        sessions = {"sim": make_session(arm6)}
        ack = handle_request_line(
            sessions,
            request_line("r5", [{"pose": [9, 0, 0, 0, 0, 0], "duration": 0.5}]),
            0.0,
        )
        assert ack["status"] == "rejected"
        assert ack["reason"].startswith("ik")

    @pytest.mark.parametrize("count, duration", [(101, 0.04), (1, 11.0)])
    def test_oversized_request_rejected_before_ik(self, arm6, monkeypatch, count, duration):
        calls = []

        def counted_ik(*args):
            calls.append(args)
            return inverse_kinematics(*args)

        monkeypatch.setattr(planner, "inverse_kinematics", counted_ik)
        sessions = {"sim": make_session(arm6)}
        line = request_line("big", hold_waypoints(arm6, duration) * count)
        ack = handle_request_line(sessions, line, 0.0)
        assert ack["status"] == "rejected"
        assert ack["reason"].startswith("validation: ")
        assert calls == []
        assert sessions["sim"].active_plan is None

    def test_preemption_keeps_stream_continuous(self, arm6):
        # two requests one second apart with 1.5 s horizons
        sessions = {"sim": make_session(arm6)}
        session = sessions["sim"]
        base = forward_kinematics(arm6, arm6.mid_position())
        wp1 = [{"pose": (base.translation + [0, 0.06, 0]).tolist() + base.rpy.tolist(), "duration": 1.5}]
        wp2 = [{"pose": (base.translation + [0, 0.09, 0]).tolist() + base.rpy.tolist(), "duration": 1.5}]
        assert handle_request_line(sessions, request_line("a", wp1), 0.0)["status"] == "accepted"
        prev = None
        bound = arm6.v_max / session.fc * 1.001
        for k in range(260):
            t = k / session.fc
            if k == 100:
                ack = handle_request_line(sessions, request_line("b", wp2), t)
                assert ack["status"] == "accepted"
            record = session.tick(t)
            if prev is not None:
                assert np.all(np.abs(record.reference.qd - prev.reference.qd) <= arm6.a_max / session.fc * 1.1 + 1e-9)
                assert np.all(np.abs(record.reference.q - prev.reference.q) <= bound)
            prev = record

    def test_stamp_behind_active_epoch_is_acked_once(self, arm6):
        # receipt stamps from different connections may interleave: a line
        # stamped before the active plan's epoch preempts at that epoch
        sessions = {"sim": make_session(arm6)}
        session = sessions["sim"]
        base = forward_kinematics(arm6, arm6.mid_position())
        wp = [{"pose": (base.translation + [0, 0.06, 0]).tolist() + base.rpy.tolist(), "duration": 1.5}]
        assert handle_request_line(sessions, request_line("a", wp), 1.0)["status"] == "accepted"
        ack = handle_request_line(sessions, request_line("b", hold_waypoints(arm6)), 0.99)
        assert ack == {"id": "b", "status": "accepted"}
        assert [r.request_id for r in session.requests] == ["a", "b"]
        record = session.requests[-1]
        assert record.preempted_request == "a"
        assert max(record.preemption_jump) <= 1e-6
        assert session.active_plan.epoch == 1.0


ARM6 = load_chain(data_path("chains", "arm6.json"))
REST_POSE = forward_kinematics(ARM6, ARM6.mid_position())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def teleop_payloads(draw, robot=st.just("sim"), duration=st.just(0.04)):
    """A buffered teleop window of 1-5 poses within 1 cm of the rest pose."""
    offsets = draw(st.lists(st.tuples(*[st.floats(-0.01, 0.01)] * 3), min_size=1, max_size=5))
    waypoints = [
        {"pose": (REST_POSE.translation + offset).tolist() + REST_POSE.rpy.tolist(), "duration": 0.04}
        for offset in offsets
    ]
    waypoints[draw(st.integers(0, len(waypoints) - 1))]["duration"] = draw(duration)
    return {"id": draw(JSON_VALUES), "robot": draw(robot), "type": "rt-move-cartesian", "waypoints": waypoints}


# a JSON integer too large for a float, in a pose entry (the duration case is
# drawn by teleop_payloads)
HUGE_POSE_LINE = json.dumps(
    {"id": "huge", "robot": "sim", "type": "rt-move-cartesian",
     "waypoints": [{"pose": [10**400, 0, 0, 0, 0, 0], "duration": 0.04}]}
)
# booleans where the schema says number (the duration case is drawn by
# teleop_payloads)
BOOLEAN_POSE_LINE = json.dumps(
    {"id": "bool", "robot": "sim", "type": "rt-move-cartesian",
     "waypoints": [{"pose": [True, 0, 0.5, 0, 0, False], "duration": 0.04}]}
)


def _truncated(line_and_cut):
    line, cut = line_and_cut
    return line[: cut % len(line)]


WIRE_LINES = st.one_of(
    teleop_payloads().map(json.dumps),
    st.tuples(teleop_payloads().map(json.dumps), st.integers(0, 10**6)).map(_truncated),
    JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
    teleop_payloads(robot=JSON_VALUES.filter(lambda r: r != "sim")).map(json.dumps),
    teleop_payloads(duration=st.sampled_from([0.0, -0.04, 0.005, 10**400, True, False])).map(json.dumps),
    st.text(max_size=40),
    st.sampled_from(['{"id": 1e400}', '{"id": NaN}', "[" * 5000, HUGE_POSE_LINE, BOOLEAN_POSE_LINE]),
)


def strict_json(line):
    """The line's JSON value if it has no NaN or infinity, else None."""
    try:
        payload = json.loads(line)
        json.dumps(payload, allow_nan=False)
    except (ValueError, RecursionError):
        return None
    return payload


class TestOneAckProperty:
    @settings(max_examples=60)
    @given(st.lists(WIRE_LINES, min_size=1, max_size=4))
    def test_every_line_yields_one_ack_and_rejections_keep_the_plan(self, lines):
        session = Session(ARM6, ARM6.mid_position(), robot_id="sim")
        sessions = {"sim": session}
        for k, line in enumerate(lines):
            payload = strict_json(line)
            before = session.active_plan
            ack = handle_request_line(sessions, line, 0.04 * k)
            assert isinstance(ack, dict) and ack["status"] in ("accepted", "rejected")
            encode_line(ack)  # the ack can go on the wire
            want_id = payload.get("id") if isinstance(payload, dict) else None
            assert json.dumps(ack["id"]) == json.dumps(want_id)
            if ack["status"] == "accepted":
                assert session.active_plan is not before
                assert session.active_plan.request_id == str(want_id)
            else:
                assert session.active_plan is before


class TestNoPartialSwap:
    def test_ik_and_qp_failures_leave_the_active_plan_and_its_stream(self, arm6):
        # one line that fails at IK (x = 3 m is out of reach) and one that
        # fails at the QP (test_planner's 1.2 rad base turn in 0.5 s needs
        # ~4.5 rad/s against v_max = 2.5)
        turned = arm6.mid_position()
        turned[0] += 1.2
        turned_pose = forward_kinematics(arm6, turned).to_vector().tolist()
        bad_lines = {
            "ik": request_line("far", [{"pose": [3, 0, 0, 0, 0, 0], "duration": 0.5}]),
            "qp": request_line("fast", [{"pose": turned_pose, "duration": 0.5}]),
        }
        sessions = {"sim": make_session(arm6)}
        session = sessions["sim"]
        # a moving plan, so that a swap would show in the reference stream
        base = forward_kinematics(arm6, arm6.mid_position())
        move = [{"pose": (base.translation + [0, 0.06, 0]).tolist() + base.rpy.tolist(), "duration": 1.5}]
        assert handle_request_line(sessions, request_line("move", move), 0.0)["status"] == "accepted"
        before = session.active_plan
        t = 0.0
        for stage, line in bad_lines.items():
            t += 0.1
            n_records = len(session.requests)
            ack = handle_request_line(sessions, line, t)
            assert ack["status"] == "rejected"
            assert ack["reason"].startswith(f"{stage}:")
            assert len(session.requests) == n_records + 1
            assert session.active_plan is before
            record = session.tick(t)
            expected = before.state(t)
            assert record.active_request_id == "move"
            for got, want in zip(
                (record.reference.q, record.reference.qd, record.reference.qdd),
                (expected.q, expected.qd, expected.qdd),
            ):
                np.testing.assert_array_equal(got, want)


class TestWireFidelity:
    def test_round_trip_bit_identical(self):
        values = [0.1234567891234567, -1.9999999999999998e-05, np.pi, 0.45]
        line = encode_line({"pose": values})
        decoded = json.loads(line.decode())
        assert decoded["pose"] == values

    @settings(max_examples=100)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 0.0, 1e-5, -1e-5, 1e16, 1.7976931348623157e308, 5e-324]),
            min_size=25,
            max_size=25,
        ),
        robot=st.text(max_size=8),
        request=st.none() | st.text(max_size=8),
    )
    def test_telemetry_line_is_the_json_dumps_line(self, values, robot, request):
        t, q, qd, qdd, pose = values[0], values[1:7], values[7:13], values[13:19], values[19:]
        record = TelemetryRecord(
            t=t,
            reference=RobotState(q, qd, qdd, t),
            encoder=RobotState(q, qd, qdd, t),
            ee_pose_ref=Pose(pose[:3], pose[3:]),
            active_request_id=request,
        )
        message = {"robot": robot, "t": t, "q": q, "qd": qd, "qdd": qdd, "pose": pose, "request": request}
        want = (json.dumps(message, allow_nan=False) + "\n").encode("utf-8")
        assert encode_line(telemetry_message(robot, record)) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_telemetry_refuses_what_json_cannot_carry(self, bad):
        q = np.zeros(6)
        q[2] = bad
        record = TelemetryRecord(0.0, RobotState.rest(q), RobotState.rest(q), Pose(np.zeros(3), np.zeros(3)), None)
        with pytest.raises(ValueError, match="JSON compliant"):
            telemetry_message("sim", record)

    def test_one_object_per_lf_terminated_line(self):
        line = encode_line({"id": "x", "status": "accepted"})
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]


class _LineClient:
    def __init__(self, host, port, timeout=5.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.buffer = b""

    def send_line(self, line: str | bytes):
        self.sock.sendall((line.encode() if isinstance(line, str) else line) + b"\n")

    def read_message(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line.decode())

    def read_acks(self, count):
        # telemetry keeps arriving, so a missing ack is awaited for 10 s, not forever
        deadline = time.monotonic() + 10.0
        acks = []
        while len(acks) < count:
            if time.monotonic() > deadline:
                raise TimeoutError(f"{len(acks)} of {count} acks within 10 s")
            message = self.read_message()
            if "status" in message:
                acks.append(message)
        return acks

    def close(self):
        self.sock.close()


@pytest.fixture()
def server(arm6):
    server = RobotServer(arm6, robot_id="sim", port=0)
    server.start()
    yield server
    server.stop()


class TestServer:
    def test_ack_and_motion(self, arm6, server):
        client = _LineClient(server.host, server.port)
        try:
            base = forward_kinematics(arm6, arm6.mid_position())
            target = (base.translation + [0.0, 0.05, 0.0]).tolist() + base.rpy.tolist()
            client.send_line(request_line("m1", [{"pose": target, "duration": 0.8}]))
            acks = client.read_acks(1)
            assert acks[0] == {"id": "m1", "status": "accepted"}
            # telemetry shows the request going active and the arm moving
            deadline = time.monotonic() + 5.0
            moved = False
            while time.monotonic() < deadline and not moved:
                message = client.read_message()
                if "q" in message and message.get("request") == "m1":
                    gap = np.linalg.norm(np.array(message["pose"][:3]) - target[:3])
                    if gap < 0.01:
                        moved = True
            assert moved
        finally:
            client.close()

    @pytest.mark.parametrize("sends", ["one-send-per-line", "one-send-for-all", "three-sends-per-line"])
    def test_every_line_acked_in_order(self, arm6, server, sends):
        client = _LineClient(server.host, server.port)
        try:
            lines = [
                request_line("q1", hold_waypoints(arm6)),
                "{broken",
                b"\xff\xfe not utf-8",
                request_line("q2", hold_waypoints(arm6, duration=0.0)),
                request_line("q3", hold_waypoints(arm6)),
            ]
            data = [(line.encode() if isinstance(line, str) else line) + b"\n" for line in lines]
            if sends == "one-send-for-all":
                data = [b"".join(data)]
            elif sends == "three-sends-per-line":  # each piece its own segment, 20 ms apart
                client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                data = [line[k * len(line) // 3 : (k + 1) * len(line) // 3] for line in data for k in range(3)]
            for piece in data:
                client.sock.sendall(piece)
                if sends == "three-sends-per-line":
                    time.sleep(0.02)
            acks = client.read_acks(5)
            assert [a.get("id") for a in acks] == ["q1", None, None, "q2", "q3"]
            assert [a["status"] for a in acks] == ["accepted", "rejected", "rejected", "rejected", "accepted"]
        finally:
            client.close()

    @pytest.mark.parametrize("length", [iface.MAX_LINE_BYTES, iface.MAX_LINE_BYTES + 1, 100_000])
    def test_overlong_line_rejected_unread(self, arm6, server, length):
        # a valid request padded past the line bound is not parsed; padded to
        # the bound, it is
        client = _LineClient(server.host, server.port)
        try:
            line = request_line("big", hold_waypoints(arm6))
            client.send_line(line + " " * (length - len(line)))
            client.send_line(request_line("q1", hold_waypoints(arm6)))
            acks = client.read_acks(2)
            parsed = length <= iface.MAX_LINE_BYTES
            assert [a.get("id") for a in acks] == ["big" if parsed else None, "q1"]
            assert [a["status"] for a in acks] == ["accepted" if parsed else "rejected", "accepted"]
            assert parsed or acks[0]["reason"] == f"parse: line exceeds {iface.MAX_LINE_BYTES} bytes"
        finally:
            client.close()

    def test_blank_lines_are_acked_as_parse_rejections(self, arm6, server):
        client = _LineClient(server.host, server.port)
        try:
            for line in [request_line("b1", hold_waypoints(arm6)), "", "  ", "\t\r", request_line("b2", hold_waypoints(arm6))]:
                client.send_line(line)
            acks = client.read_acks(5)
            assert [a.get("id") for a in acks] == ["b1", None, None, None, "b2"]
            assert [a["status"] for a in acks] == ["accepted", "rejected", "rejected", "rejected", "accepted"]
            assert all(a["reason"].startswith("parse: Expecting value") for a in acks[1:4])
        finally:
            client.close()

    @pytest.mark.parametrize("field", ["duration", "pose"])
    def test_number_too_large_for_a_float_is_acked_and_the_connection_kept(self, arm6, server, field):
        waypoints = hold_waypoints(arm6)
        if field == "duration":
            waypoints[0]["duration"] = 10**400
        else:
            waypoints[0]["pose"][1] = 10**400
        client = _LineClient(server.host, server.port)
        try:
            client.send_line(request_line(7, waypoints))
            client.send_line(request_line("next", hold_waypoints(arm6)))
            acks = client.read_acks(2)
            assert [a["id"] for a in acks] == [7, "next"]
            assert [a["status"] for a in acks] == ["rejected", "accepted"]
            assert acks[0]["reason"] == "validation: waypoint 0: int too large to convert to float"
        finally:
            client.close()

    @pytest.mark.parametrize("field", ["duration", "pose"])
    def test_boolean_where_a_number_belongs_is_acked_and_the_connection_kept(self, arm6, server, field):
        waypoints = hold_waypoints(arm6)
        if field == "duration":
            waypoints[0]["duration"] = True
        else:
            waypoints[0]["pose"][0] = True
        client = _LineClient(server.host, server.port)
        try:
            client.send_line(request_line(8, waypoints))
            client.send_line(request_line("next", hold_waypoints(arm6)))
            acks = client.read_acks(2)
            assert [a["id"] for a in acks] == [8, "next"]
            assert [a["status"] for a in acks] == ["rejected", "accepted"]
            assert acks[0]["reason"] == "validation: waypoint 0: pose entries and duration must be numbers"
        finally:
            client.close()

    def test_telemetry_rate_and_fields(self, server):
        client = _LineClient(server.host, server.port)
        try:
            t_first = None
            count = 0
            while count < 25:
                message = client.read_message()
                if "q" in message:
                    count += 1
                    if t_first is None:
                        t_first = message["t"]
                    assert message["robot"] == "sim"
                    assert len(message["q"]) == 6 and len(message["pose"]) == 6
                    t_last = message["t"]
            # ~100 Hz wall-clock pacing: 24 intervals within a loose budget
            assert 0.15 <= (t_last - t_first) <= 1.5
        finally:
            client.close()

    def test_concurrent_clients_multiplex(self, arm6, server):
        c1 = _LineClient(server.host, server.port)
        c2 = _LineClient(server.host, server.port)
        try:
            c1.send_line(request_line("a1", hold_waypoints(arm6)))
            assert c1.read_acks(1)[0]["status"] == "accepted"
            c2.send_line(request_line("a2", hold_waypoints(arm6)))
            assert c2.read_acks(1)[0]["status"] == "accepted"
            assert server.session.active_plan.request_id == "a2"
        finally:
            c1.close()
            c2.close()

    def test_a_connection_past_the_cap_gets_one_busy_line_and_is_closed(self, arm6, server, monkeypatch):
        monkeypatch.setattr("rtmotion.iface.MAX_CLIENTS", 2)
        served = [_LineClient(server.host, server.port) for _ in range(2)]
        extra = None
        try:
            for i, client in enumerate(served):  # an ack shows the server holds the connection
                client.send_line(request_line(f"c{i}", hold_waypoints(arm6)))
                assert client.read_acks(1)[0]["status"] == "accepted"
            extra = _LineClient(server.host, server.port)
            message = extra.read_message()
            assert message["id"] is None and message["status"] == "rejected"
            assert message["reason"].startswith("busy: ")
            with pytest.raises(ConnectionError):
                extra.read_message()
            served[0].send_line(request_line("after", hold_waypoints(arm6)))
            assert served[0].read_acks(1)[0] == {"id": "after", "status": "accepted"}
        finally:
            for client in served + [extra]:
                if client is not None:
                    client.close()

    def test_stop_is_prompt_and_ends_every_thread_it_started(self, arm6):
        before = set(threading.enumerate())
        server = RobotServer(arm6, robot_id="sim", port=0)
        server.start()
        client = _LineClient(server.host, server.port)
        try:
            client.send_line(request_line("s1", hold_waypoints(arm6)))
            assert client.read_acks(1)[0]["status"] == "accepted"
            t_stop = time.monotonic()
            server.stop()
            assert time.monotonic() - t_stop < 0.5
            assert set(threading.enumerate()) <= before
        finally:
            server.stop()
            client.close()

    def test_two_threads_serve_every_client(self, arm6):
        before = set(threading.enumerate())
        server = RobotServer(arm6, robot_id="sim", port=0)
        server.start()
        clients = [_LineClient(server.host, server.port) for _ in range(3)]
        try:
            for i, client in enumerate(clients):  # an ack shows the server holds the connection
                client.send_line(request_line(f"t{i}", hold_waypoints(arm6)))
                assert client.read_acks(1)[0]["status"] == "accepted"
            assert len(set(threading.enumerate()) - before) == 2
            t_stop = time.monotonic()
            server.stop()
            assert time.monotonic() - t_stop < 0.5
            assert set(threading.enumerate()) <= before
        finally:
            server.stop()
            for client in clients:
                client.close()

    def test_connection_churn_leaves_no_client_behind(self, arm6, server):
        # clients come and go while telemetry fans out to them; a short switch
        # interval interleaves the intake and dispatch threads finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(50):
                client = _LineClient(server.host, server.port)
                client.read_message()  # telemetry shows it is served
                client.close()
        finally:
            sys.setswitchinterval(interval)
        deadline = time.monotonic() + 5.0
        while server._clients and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server._clients
        client = _LineClient(server.host, server.port)
        try:
            client.send_line(request_line("last", hold_waypoints(arm6)))
            assert client.read_acks(1) == [{"id": "last", "status": "accepted"}]
        finally:
            client.close()

    def _serve_beside_a_slow_client(self, arm6, server, t_connect, on_message=lambda: None):
        """Read a second client's acks and telemetry until the slow client,
        connected first, is dropped: within 5 s of t_connect, with the reader's
        acks in order, its telemetry on time and the freed place served."""
        reader = newcomer = None
        try:
            reader = _LineClient(server.host, server.port)
            reader.send_line(request_line("r1", hold_waypoints(arm6)))
            stamps, acks, dropped = [], [], False
            while not dropped or len(stamps) < 100:
                message = reader.read_message()  # the slow client, accepted first, is served by now
                if "status" in message:
                    acks.append(message)
                else:
                    stamps.append(message["t"])
                dropped = dropped or len(server._clients) < 2
                on_message()
                assert time.monotonic() - t_connect < 5.0, "the slow client was not dropped within 5 s"
            reader.send_line(request_line("r2", hold_waypoints(arm6)))
            acks += reader.read_acks(1)
            assert acks == [{"id": "r1", "status": "accepted"}, {"id": "r2", "status": "accepted"}]
            # telemetry kept its rate while the slow client filled its buffers
            gaps = np.diff(stamps)
            assert gaps.max() < 0.25 and len(stamps) >= 0.5 * server.session.fc * (stamps[-1] - stamps[0])
            # the dropped connection freed its place under the cap of 2
            newcomer = _LineClient(server.host, server.port)
            newcomer.send_line(request_line("n1", hold_waypoints(arm6)))
            assert newcomer.read_acks(1) == [{"id": "n1", "status": "accepted"}]
        finally:
            for client in (reader, newcomer):
                if client is not None:
                    client.close()

    def test_a_client_that_never_reads_is_dropped_and_stalls_no_one(self, arm6, server, monkeypatch):
        # README's contract: a slow telemetry consumer is disconnected and
        # never stalls dispatch. The server bounds its unsent bytes by
        # iface.SEND_BUFFER_BYTES; the silent client's small receive buffer
        # makes it fill sooner
        monkeypatch.setattr(iface, "MAX_CLIENTS", 2)
        silent = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            silent.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            silent.connect((server.host, server.port))
            self._serve_beside_a_slow_client(arm6, server, time.monotonic())
        finally:
            silent.close()

    def test_a_client_that_sends_but_never_reads_is_dropped_and_stalls_no_one(self, arm6, server, monkeypatch):
        # its acks fill the buffer beside telemetry; its requests keep coming
        # at 25 Hz until it is dropped, and none is planned after that
        monkeypatch.setattr(iface, "MAX_CLIENTS", 2)
        sender = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        line = (request_line("s", hold_waypoints(arm6)) + "\n").encode()
        next_send = [0.0]
        t_dropped = []

        def send_at_25_hz():
            if not t_dropped and len(server._clients) < 2:
                t_dropped.append(server.now())
            if time.monotonic() >= next_send[0]:
                next_send[0] = time.monotonic() + 0.04
                try:
                    sender.sendall(line)
                except OSError:  # dropped
                    next_send[0] = float("inf")

        try:
            sender.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sender.connect((server.host, server.port))
            self._serve_beside_a_slow_client(arm6, server, time.monotonic(), send_at_25_hz)
            submitted = [r.t_submitted for r in list(server.session.requests) if r.request_id == "s"]
            assert submitted and max(submitted) < t_dropped[0]
        finally:
            sender.close()


class TestJitterRobustness:
    def test_teleop_replay_with_jitter(self, arm6):
        # +/-10 ms delivery jitter: same acceptance decisions, continuity intact
        script = load_scenario(data_path("scenarios", "teleop-replay.json"))
        rng = np.random.default_rng(2024)
        events = []
        for event in script.events:
            if event["action"] != "send_request":
                continue
            t = max(0.0, event["t"] + rng.uniform(-0.01, 0.01))
            events.append((t, event["request"]))
        events.sort(key=lambda pair: pair[0])

        session = Session(arm6, script.q0)
        fc = arm6.control_frequency
        bound = arm6.v_max / fc * 1.001
        horizon = events[-1][0] + 5 * 0.04 + 0.3
        cursor = 0
        prev = None
        accepted = 0
        for k in range(int(horizon * fc) + 1):
            t = k / fc
            while cursor < len(events) and events[cursor][0] <= t + 1e-9:
                jt, payload = events[cursor]
                cursor += 1
                request = planner.PlanRequest(
                    robot_id="sim",
                    waypoints=tuple(planner.waypoints_from_payload(payload["waypoints"])),
                    request_id=payload["id"],
                )
                record = session.submit(request, jt)
                assert record.accepted, record.reason
                accepted += 1
            rec = session.tick(t)
            if prev is not None:
                assert np.all(np.abs(rec.reference.q - prev.reference.q) <= bound)
            prev = rec
        assert accepted == len(events)
        jumps = [r.preemption_jump for r in session.requests if r.preemption_jump]
        assert max(max(j) for j in jumps) <= 1e-6
