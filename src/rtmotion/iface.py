"""Network service for rt-move-cartesian plus telemetry.

One JSON object per LF-terminated line over a stream socket. Inbound requests:

    {"id": str, "robot": str, "type": "rt-move-cartesian",
     "waypoints": [{"pose": [x, y, z, roll, pitch, yaw], "duration": s}, ...]}

Every inbound line is answered by exactly one ack, in order:

    {"id": str|null, "status": "accepted"|"rejected", "reason": str?}

Telemetry is broadcast to all connected clients at the control frequency:

    {"robot": str, "t": s, "q": [...], "qd": [...], "qdd": [...],
     "pose": [...], "request": str|null}

The transport is deliberately a single ubiquitous text protocol; the planning
layers underneath never see sockets, so further transports can be layered on
without touching them. Slow telemetry consumers are disconnected rather than
allowed to stall the dispatch loop, and at most MAX_CLIENTS connections are
served at once.
"""

from __future__ import annotations

import json
import math
import queue
import socket
import threading
import time
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from rtmotion.chain import ChainConfig
from rtmotion.runtime import Session, TelemetryRecord, handle_payload

# telemetry and request records a served session keeps: 10 s at 100 Hz
SERVE_HISTORY = 1000
# lines queued to one client before it counts as slow and is dropped
OUTBOX_LINES = 512
# longest inbound line read; a longer one is rejected and skipped unread
MAX_LINE_BYTES = 65536
# connections served at once, each with two threads and an outbox; one past
# the cap gets a single rejection line and is closed
MAX_CLIENTS = 16


def encode_line(message: dict | str) -> bytes:
    """One wire line from a message object, or from the JSON text of one, as
    telemetry_message returns it.

    repr-based float serialization: shortest exact round trip (>= 17 digits
    where needed), satisfying the 9-significant-digit wire contract."""
    if not isinstance(message, str):
        message = json.dumps(message, allow_nan=False)
    return (message + "\n").encode("utf-8")


def telemetry_message(robot_id: str, record: TelemetryRecord) -> str:
    """The telemetry object of one tick as JSON text, byte for byte what
    json.dumps gives for it (t sent as a float), built without the dict: the
    repr of a list of floats is its JSON array."""
    ref, pose = record.reference, record.ee_pose_ref
    numbers = (
        f'"t": {float(record.t)!r}, "q": {ref.q.tolist()!r}, "qd": {ref.qd.tolist()!r}, '
        f'"qdd": {ref.qdd.tolist()!r}, "pose": {pose.translation.tolist() + pose.rpy.tolist()!r}'
    )
    if "n" in numbers:  # nan or inf, which JSON cannot carry
        raise ValueError(f"Out of range float values are not JSON compliant: {numbers}")
    request = record.active_request_id
    request = "null" if request is None else encode_basestring_ascii(request)
    return f'{{"robot": {encode_basestring_ascii(robot_id)}, {numbers}, "request": {request}}}'


def _finite_float(text: str) -> float:
    """JSON has no NaN or infinity, and an ack echoing one could not be sent."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def handle_request_line(sessions: dict[str, Session], line: str, t_now: float) -> dict:
    """Parse one wire line and apply it by runtime.handle_payload: the ack."""
    try:
        payload = json.loads(line, parse_float=_finite_float, parse_constant=_finite_float)
    except (ValueError, RecursionError) as exc:
        return {"id": None, "status": "rejected", "reason": f"parse: {exc}"}
    if not isinstance(payload, dict):
        return {"id": None, "status": "rejected", "reason": "parse: expected a JSON object"}
    return handle_payload(sessions, payload, t_now)


def _refuse(conn: socket.socket, reason: str) -> None:
    """Send one rejection line to a connection that is not served, and close it."""
    try:
        conn.sendall(encode_line({"id": None, "status": "rejected", "reason": reason}))
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    conn.close()


class _Client:
    """One connection: a reader loop plus a queue-drained writer thread."""

    def __init__(self, server: "RobotServer", conn: socket.socket):
        self.server = server
        self.conn = conn
        self.outbox: queue.Queue[Optional[bytes]] = queue.Queue(maxsize=OUTBOX_LINES)
        self.alive = True
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)

    def start(self):
        self._writer.start()
        self._reader.start()

    def send(self, data: bytes) -> None:
        try:
            self.outbox.put_nowait(data)
        except queue.Full:
            # slow consumer: drop the connection, never the dispatch loop
            self.close()

    def close(self):
        if not self.alive:
            return
        self.alive = False
        try:
            self.outbox.put_nowait(None)
        except queue.Full:
            pass
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.conn.close()
        self.server._drop(self)

    def _write_loop(self):
        while self.alive:
            data = self.outbox.get()
            if data is None:
                return
            try:
                self.conn.sendall(data)
            except OSError:
                self.close()
                return

    def _read_loop(self):
        stream = self.conn.makefile("rb")
        try:
            while self.alive:
                line = stream.readline(MAX_LINE_BYTES + 1)
                if not line.endswith(b"\n"):
                    if len(line) <= MAX_LINE_BYTES:
                        break  # closed, possibly mid-line
                    reason = f"parse: line exceeds {MAX_LINE_BYTES} bytes"
                    self.send(encode_line({"id": None, "status": "rejected", "reason": reason}))
                    while line and not line.endswith(b"\n"):
                        line = stream.readline(MAX_LINE_BYTES + 1)
                    continue
                if not line.strip():
                    continue
                ack = handle_request_line(
                    self.server.sessions, line[:-1].decode("utf-8", "replace"), self.server.now()
                )
                self.send(encode_line(ack))
        except OSError:
            pass
        finally:
            stream.close()
            self.close()


class RobotServer:
    """Live service: wall-clock dispatch, per-connection intake threads.

    The dispatch thread ticks the session at the configured control frequency
    and fans telemetry out to every client; request handling happens on the
    connection threads and swaps the plan handle atomically, so dispatch is
    never blocked by planning.
    """

    def __init__(
        self,
        chain: ChainConfig,
        robot_id: str = "sim",
        host: str = "127.0.0.1",
        port: int = 0,
        initial_q=None,
    ):
        q0 = chain.mid_position() if initial_q is None else np.asarray(initial_q, dtype=float)
        self.session = Session(chain, q0, robot_id=robot_id, history=SERVE_HISTORY)
        self.sessions = {robot_id: self.session}
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._clients: set[_Client] = set()
        self._clients_lock = threading.Lock()
        self._stop = threading.Event()
        self._t0 = time.monotonic()
        self._threads: list[threading.Thread] = []

    def now(self) -> float:
        return time.monotonic() - self._t0

    def start(self):
        self._t0 = time.monotonic()
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        dispatch = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._threads = [accept, dispatch]
        accept.start()
        dispatch.start()

    def stop(self):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            client.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _drop(self, client: _Client):
        with self._clients_lock:
            self._clients.discard(client)

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._clients_lock:
                busy = len(self._clients) >= MAX_CLIENTS
                if not busy:
                    client = _Client(self, conn)
                    self._clients.add(client)
            if busy:
                _refuse(conn, f"busy: {MAX_CLIENTS} clients are connected")
            else:
                client.start()

    def _dispatch_loop(self):
        period = 1.0 / self.session.fc
        k = 0
        while not self._stop.is_set():
            deadline = self._t0 + k * period
            delay = deadline - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record = self.session.tick(self.now())
            data = encode_line(telemetry_message(self.session.robot_id, record))
            with self._clients_lock:
                clients = list(self._clients)
            for client in clients:
                client.send(data)
            k += 1
