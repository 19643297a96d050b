import json
import socket
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import planner
from rtmotion.chain import forward_kinematics, load_chain
from rtmotion.iface import RobotServer, encode_line, handle_request_line
from rtmotion.runtime import Session, load_scenario

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


def _truncated(line_and_cut):
    line, cut = line_and_cut
    return line[: cut % len(line)]


WIRE_LINES = st.one_of(
    teleop_payloads().map(json.dumps),
    st.tuples(teleop_payloads().map(json.dumps), st.integers(0, 10**6)).map(_truncated),
    JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
    teleop_payloads(robot=JSON_VALUES.filter(lambda r: r != "sim")).map(json.dumps),
    teleop_payloads(duration=st.sampled_from([0.0, -0.04, 0.005])).map(json.dumps),
    st.text(max_size=40),
    st.sampled_from(['{"id": 1e400}', '{"id": NaN}', "[" * 5000]),
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
    @settings(max_examples=60, deadline=None, derandomize=True)
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


class TestWireFidelity:
    def test_round_trip_bit_identical(self):
        values = [0.1234567891234567, -1.9999999999999998e-05, np.pi, 0.45]
        line = encode_line({"pose": values})
        decoded = json.loads(line.decode())
        assert decoded["pose"] == values

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
        acks = []
        while len(acks) < count:
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

    def test_every_line_acked_in_order(self, arm6, server):
        client = _LineClient(server.host, server.port)
        try:
            lines = [
                request_line("q1", hold_waypoints(arm6)),
                "{broken",
                b"\xff\xfe not utf-8",
                request_line("q2", hold_waypoints(arm6, duration=0.0)),
                request_line("q3", hold_waypoints(arm6)),
            ]
            for line in lines:
                client.send_line(line)
            acks = client.read_acks(5)
            assert [a.get("id") for a in acks] == ["q1", None, None, "q2", "q3"]
            assert [a["status"] for a in acks] == ["accepted", "rejected", "rejected", "rejected", "accepted"]
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
        bound = arm6.v_max / script.fc * 1.001
        horizon = events[-1][0] + 5 * 0.04 + 0.3
        cursor = 0
        prev = None
        accepted = 0
        for k in range(int(horizon * script.fc) + 1):
            t = k / script.fc
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
