"""Span tracing from outside the program, and the per-layer metrics.

A traced run replaces public callables at the module attribute their caller
looks up at call time, so nothing under ``src/`` changes and the untraced run
carries no instrumentation at all. Spans live in one list in memory and are
read when the run ends. The workloads run on one thread.

Span record: [name, start, end, parent index (-1 for a root), request id,
counts of counted calls made while the span was open, note].
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time

# (module, attribute) -> span name; the layer is the part before the dot
TIMED = {
    ("rtmotion.planner", "inverse_kinematics"): "chain.ik",
    ("rtmotion.planner", "forward_kinematics"): "chain.fk",
    ("rtmotion.runtime", "forward_kinematics"): "chain.fk",
    ("rtmotion.planner", "reference_at"): "planner.reference_at",
    ("rtmotion.planner", "plan"): "planner.plan",
    ("rtmotion.qpbuild", "assemble_qp"): "qpbuild.assemble",
    ("rtmotion.qpbuild", "build_equality"): "qpbuild.equality",
    ("rtmotion.qpsolve", "solve_batch"): "qpsolve.solve",
    ("rtmotion.runtime", "Session.submit"): "runtime.submit",
    ("rtmotion.runtime", "Session.tick"): "runtime.tick",
    ("rtmotion.iface", "handle_request_line"): "iface.handle",
    ("rtmotion.iface", "telemetry_message"): "iface.telemetry",
    ("rtmotion.iface", "encode_line"): "iface.encode",
}
COUNTED = {
    ("rtmotion.chain", "jacobian"): "chain.jacobian",
    ("rtmotion.chain", "fk_transform"): "chain.fk_transform",
    ("rtmotion.poly", "basis_row"): "poly.basis_row",
    ("rtmotion.qpbuild", "basis_row"): "qpbuild.basis_row",
}
BASIS_ROW = ("poly.basis_row", "qpbuild.basis_row")
ROOT = "bench"  # layer name of the benchmark's own root spans


def _solve_note(batch):
    return [batch.iterations, batch.status]


NOTES = {"qpsolve.solve": _solve_note}


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = None

    def _open(self, name: str) -> list:
        stack = self.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rid, {}, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def timed(self, name: str, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                rec[6] = note(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.enabled:
                spans = self.spans
                for i in self.stack:
                    counts = spans[i][5]
                    counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for table, wrap in ((TIMED, self.timed), (COUNTED, self.counted)):
            for (module_name, attr), name in table.items():
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                setattr(owner, leaf, wrap(name, getattr(owner, leaf)))

    @contextlib.contextmanager
    def root(self, kind: str, rid):
        """The benchmark's own span around one timed call into the program."""
        self.rid = rid
        rec = self._open(f"{ROOT}.{kind}")
        try:
            yield
        finally:
            self._close(rec)
            self.rid = None

    @contextlib.contextmanager
    def paused(self):
        """Correctness checks call the program too; keep them out of the trace."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True


# --- analysis -----------------------------------------------------------------


class Node:
    __slots__ = ("rec", "children")

    def __init__(self, rec):
        self.rec = rec
        self.children: list[Node] = []

    @property
    def name(self) -> str:
        return self.rec[0]

    @property
    def duration(self) -> float:
        return self.rec[2] - self.rec[1]

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def roots(spans: list[list]) -> list[Node]:
    """Span trees, their roots in start order."""
    nodes = [Node(rec) for rec in spans]
    out = []
    for node in nodes:
        parent = node.rec[3]
        (nodes[parent].children if parent >= 0 else out).append(node)
    return out


def _median(values, scale=1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_self_times(root: Node) -> dict[str, float]:
    """Self time per layer over one root's tree (seconds); sums to its span."""
    out: dict[str, float] = {}
    for node in root.walk():
        layer = node.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + node.self_time
    return out


def layer_metrics(requests: list[Node], ticks: list[Node], encodes: list[Node],
                  request_times: list[float]) -> dict[str, float]:
    """Per-layer metrics over the request, tick and telemetry-encode trees of
    the measured window; request_times are the request times the benchmark
    saw, one per request tree, in seconds."""
    in_requests = [n for r in requests for n in r.walk()]
    in_ticks = [n for t in ticks for n in t.walk()]
    every = in_requests + in_ticks

    def spans(name, nodes=every):
        return [n for n in nodes if n.name == name]

    def per_root(root_list, name):
        return [[n for n in r.walk() if n.name == name] for r in root_list]

    solves = spans("qpsolve.solve", in_requests)
    notes = [n.rec[6] for n in solves if n.rec[6]]
    ik = spans("chain.ik", in_requests)
    layer_sum = [sum(v for k, v in layer_self_times(r).items() if k != ROOT) for r in requests]
    return {
        "chain.ik_ms": _median((n.duration for n in ik), 1e3),
        "chain.ik_iters": _mean(n.rec[5].get("chain.jacobian", 0) for n in ik),
        "chain.fk_us": _median((n.duration for n in spans("chain.fk")), 1e6),
        "chain.fk_calls_per_tick": _mean(len(s) for s in per_root(ticks, "chain.fk")),
        "qpbuild.assemble_ms": _median((sum(n.duration for n in s) for s in per_root(requests, "qpbuild.assemble")), 1e3),
        "qpbuild.equality_ms": _median((sum(n.duration for n in s) for s in per_root(requests, "qpbuild.equality")), 1e3),
        "qpbuild.equality_calls": _mean(len(s) for s in per_root(requests, "qpbuild.equality")),
        "poly.basis_row_calls_per_request": _mean(sum(r.rec[5].get(k, 0) for k in BASIS_ROW) for r in requests),
        "poly.basis_row_calls_per_tick": _mean(sum(t.rec[5].get(k, 0) for k in BASIS_ROW) for t in ticks),
        "qpsolve.solve_ms": _median((n.duration for n in solves), 1e3),
        "qpsolve.iterations": _median(it for it, _ in notes),
        "qpsolve.us_per_iter": _median((n.duration / n.rec[6][0] for n in solves if n.rec[6] and n.rec[6][0]), 1e6),
        "qpsolve.unsolved": sum(1 for _, status in notes if status != "solved"),
        "planner.plan_ms": _median((n.duration for n in spans("planner.plan", in_requests)), 1e3),
        "planner.self_ms": _median((n.self_time for n in spans("planner.plan", in_requests)), 1e3),
        "planner.reference_at_us": _median((n.duration for n in spans("planner.reference_at", in_ticks)), 1e6),
        "runtime.submit_self_ms": _median((n.self_time for n in spans("runtime.submit", in_requests)), 1e3),
        "runtime.tick_self_us": _median((n.self_time for n in spans("runtime.tick", in_ticks)), 1e6),
        "iface.handle_ms": _median((n.duration for n in spans("iface.handle", in_requests)), 1e3),
        "iface.encode_us": _median((sum(c.duration for c in e.children) for e in encodes), 1e6),
        "trace.unattributed_ms": _median((t - s for t, s in zip(request_times, layer_sum)), 1e3),
    }


def stage_table(requests: list[Node], request_times: list[float]) -> list[str]:
    """Mean self time per layer per request; the rows add up to the mean
    request time, and the remainder is what no layer span covers."""
    totals: dict[str, float] = {}
    for r in requests:
        for layer, t in layer_self_times(r).items():
            if layer != ROOT:
                totals[layer] = totals.get(layer, 0.0) + t
    n = max(len(requests), 1)
    mean_request = sum(request_times) / n
    lines = [f"  {layer:<10} {t / n * 1e3:9.3f} ms" for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])]
    attributed = sum(totals.values()) / n
    lines.append(f"  {'sum':<10} {attributed * 1e3:9.3f} ms of {mean_request * 1e3:.3f} ms per traced request "
                 f"(unattributed {(mean_request - attributed) * 1e3:.3f} ms)")
    return lines
