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
without touching them. One intake thread reads every connection and handles
its lines in order, a blank one too; acks and telemetry are written straight
into the connection's send buffer without waiting, so a consumer that lets
SEND_BUFFER_BYTES fill is disconnected rather than allowed to stall the
dispatch loop. At most MAX_CLIENTS connections are served at once.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import threading
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from rtmotion.chain import ChainConfig
from rtmotion.runtime import Session, TelemetryRecord, handle_payload

# telemetry and request records a served session keeps: 10 s at 100 Hz
SERVE_HISTORY = 1000
# kernel send buffer of one client, which Linux doubles to 32 KB: over 0.5 s of
# arm6 telemetry. A line that does not fit whole drops the client, which may
# then see its last line cut
SEND_BUFFER_BYTES = 16384
# longest inbound line parsed; a longer one is rejected at its newline, and no
# more of it than this is kept
MAX_LINE_BYTES = 65536
# connections served at once: the cap bounds their line and send buffers and
# each tick's telemetry fan-out; one past it gets a single rejection line and is
# closed
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
    """One connection: the bytes read after its last complete line, and send,
    by which its acks and the dispatch thread's telemetry go out."""

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.alive = True
        self.pending = b""
        self._lock = threading.Lock()  # one writer at a time

    def send(self, data: bytes) -> None:
        """Write one whole line without waiting, or hang up: a slow consumer
        never stalls the thread that sends to it. The hang-up wakes the intake
        loop, which closes the socket."""
        with self._lock:
            try:
                whole = not self.alive or self.conn.send(data, socket.MSG_DONTWAIT) == len(data)
            except OSError:  # BlockingIOError when the send buffer is full
                whole = False
            if not whole:
                self.alive = False
                try:
                    self.conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def close(self) -> None:
        with self._lock:
            self.alive = False
            self.conn.close()


class RobotServer:
    """Live service: two threads, whatever the number of clients.

    The dispatch thread ticks the session at the configured control frequency
    and fans telemetry out to every client. The intake thread accepts
    connections and handles each complete request line in arrival order; a
    request swaps the plan handle atomically, so dispatch is never blocked by
    planning. Only intake closes a socket, and it publishes the client set as
    a frozenset, replaced on every change, that dispatch reads once per tick.
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
        self._sock.setblocking(False)  # a connection reset before accept must not block intake
        self.host, self.port = self._sock.getsockname()[:2]
        self._clients: frozenset[_Client] = frozenset()
        self._stop = threading.Event()
        self._t0 = time.monotonic()
        self._threads: list[threading.Thread] = []

    def now(self) -> float:
        return time.monotonic() - self._t0

    def start(self):
        self._t0 = time.monotonic()
        self._threads = [threading.Thread(target=loop, daemon=True) for loop in (self._intake_loop, self._dispatch_loop)]
        for thread in self._threads:
            thread.start()

    def stop(self):
        self._stop.set()
        try:  # wakes the intake loop; closing alone would not
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._sock.close()

    def _intake_loop(self):
        selector = selectors.DefaultSelector()
        selector.register(self._sock, selectors.EVENT_READ)
        try:
            while not self._stop.is_set():
                for key, _ in selector.select():
                    if key.data is None:
                        self._accept(selector)
                    elif not self._read(key.data):
                        selector.unregister(key.fileobj)
                        key.data.close()
                        self._clients -= {key.data}
        finally:
            for client in self._clients:
                client.close()
            selector.close()

    def _accept(self, selector: selectors.BaseSelector):
        try:
            conn, _ = self._sock.accept()
        except OSError:  # shut down by stop(), or the connection is already gone
            return
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER_BYTES)
        if len(self._clients) >= MAX_CLIENTS:
            _refuse(conn, f"busy: {MAX_CLIENTS} clients are connected")
            return
        client = _Client(conn)
        selector.register(conn, selectors.EVENT_READ, client)
        self._clients |= {client}

    def _read(self, client: _Client) -> bool:
        """Ack every complete line the client has sent, in order: False once
        it has closed or been hung up on."""
        try:
            chunk = client.conn.recv(MAX_LINE_BYTES) if client.alive else b""
        except OSError:
            chunk = b""
        if not chunk:
            return False
        *lines, rest = (client.pending + chunk).split(b"\n")
        client.pending = rest[: MAX_LINE_BYTES + 1]  # enough of an overlong line to reject it
        for line in lines:
            if not client.alive:  # hung up on: its queued lines are not handled
                break
            if len(line) > MAX_LINE_BYTES:
                ack = {"id": None, "status": "rejected", "reason": f"parse: line exceeds {MAX_LINE_BYTES} bytes"}
            else:
                ack = handle_request_line(self.sessions, line.decode("utf-8", "replace"), self.now())
            client.send(encode_line(ack))
        return True

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
            for client in self._clients:  # read once: intake replaces, never mutates, the set
                client.send(data)
            k += 1
