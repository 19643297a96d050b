"""In-process workloads, run by run.py as a child process so that set-up is
timed from process start.

teleop-sim  buffered teleop windows as wire lines through the iface handlers
            and runtime.Session on the simulated 100 Hz clock: the work of
            `rtmotion serve` per line and per tick, without sockets or threads
draw-offline  drawing requests planned from rest with planner.plan, back to
            back, then evaluated on the control grid, as `rtmotion plan --out`

Protocol on stdout: "READY" once set-up (imports, chain load, one untimed
warm-up request) is done, then one "RESULT <json>" line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import gen
import stats

ROOT = Path(__file__).resolve().parents[1]
CHAIN = ROOT / "src" / "rtmotion" / "data" / "chains" / "arm6.json"

CONTINUITY_TOL = 1e-6  # junction residual and preemption jump contract
LIMIT_TOL = 1e-6
IK_POS_TOL, IK_ORI_TOL = 1e-4, 1e-3  # chain.inverse_kinematics defaults
# a drawing run plans one cycle of the 15 sizes per DRAW_CYCLE_S of --seconds,
# so four cycles at --seconds 36; a cycle takes about 12 s, grid evaluation
# included, on a 2-core x86 VM. A fixed count keeps the request tail at the
# same percentile on both commits
DRAW_CYCLE_S = 9
# size 21 (the median size), from an index the measured stream never uses
DRAW_WARMUP_INDEX = -8
MAX_REASONS = 5


class Tally:
    """Timings, operation counts and the first failure reasons of one phase."""

    def __init__(self):
        self.request_s: list[float] = []
        self.tick_s: list[float] = []
        self.segments = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append("; ".join(problems))

    def as_dict(self) -> dict:
        return {
            "request_s": self.request_s,
            "tick_s": self.tick_s,
            "segments": self.segments,
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": self.reasons,
        }


def timed_call(tracer, kind: str, rid: str, fn, *args):
    """Wall time of one call into the program; in a traced phase it is
    wrapped in the benchmark's own root span."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0
    with tracer.root(kind, rid):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
    return out, dt


class Program:
    """The rtmotion entry points the workloads call, plus the output checks."""

    def __init__(self):
        import numpy as np
        from rtmotion import chain as chain_mod
        from rtmotion import iface, planner, runtime

        self.np, self.chain_mod, self.iface, self.planner, self.runtime = np, chain_mod, iface, planner, runtime
        self.chain = chain_mod.load_chain(CHAIN)

    def request(self, payload: dict):
        planner = self.planner
        return planner.PlanRequest(
            robot_id=payload["robot"],
            waypoints=tuple(planner.waypoints_from_payload(payload["waypoints"])),
            request_id=payload["id"],
            request_type=payload["type"],
        )

    def rest(self, q) -> tuple:
        q = self.chain.clamp(self.np.asarray(q, dtype=float))
        return q, self.np.zeros_like(q), self.np.zeros_like(q)

    def pose_error(self, q, target) -> tuple[float, float]:
        """Position (m) and rotation angle (rad) between FK(q) and a target."""
        np = self.np
        pose = self.chain_mod.forward_kinematics(self.chain, q)
        want = self.chain_mod.Pose.from_vector(target)
        pos = float(np.linalg.norm(want.translation - pose.translation))
        m = want.rotation_matrix() @ pose.rotation_matrix().T
        sin = 0.5 * np.linalg.norm([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
        return pos, float(np.arctan2(sin, 0.5 * (np.trace(m) - 1.0)))

    def plan_problems(self, plan, payload: dict, start: tuple) -> list[str]:
        """Junction residuals, the jump against the state planned from, the IK
        of every waypoint, and pass-through of every waypoint at its time."""
        np = self.np
        problems = []
        junction = float(np.max(plan.junction_residuals()))
        if not junction <= CONTINUITY_TOL:
            problems.append(f"junction residual {junction:.2e}")
        jump = max(float(np.max(np.abs(a - b))) for a, b in zip(plan.state_at(0.0), start))
        if not jump <= CONTINUITY_TOL:
            problems.append(f"start-state jump {jump:.2e}")
        waypoints = payload["waypoints"]
        if len(plan.joint_waypoints) != len(waypoints):
            return problems + [f"{len(plan.joint_waypoints)} IK waypoints for {len(waypoints)} targets"]
        t = 0.0
        for i, (wp, q) in enumerate(zip(waypoints, plan.joint_waypoints)):
            t += wp["duration"]
            pos, ori = self.pose_error(q, wp["pose"])
            if not (pos <= IK_POS_TOL and ori <= IK_ORI_TOL):
                problems.append(f"waypoint {i}: FK off target by {pos:.2e} m, {ori:.2e} rad")
            gap = float(np.max(np.abs(plan.state_at(t)[0] - q)))
            if not gap <= CONTINUITY_TOL:
                problems.append(f"waypoint {i}: trajectory misses its IK solution by {gap:.2e}")
        return problems

    def limit_problems(self, qd, qdd) -> list[str]:
        np = self.np
        over_v = float(np.max(np.abs(qd) - self.chain.v_max))
        over_a = float(np.max(np.abs(qdd) - self.chain.a_max))
        if over_v <= LIMIT_TOL and over_a <= LIMIT_TOL:
            return []
        return [f"limit exceeded by {max(over_v, over_a):.2e}"]


def warm_up(program: Program, workload: str, seed: int) -> None:
    planner = program.planner
    if workload == "teleop-sim":
        payload, q0 = gen.TeleopPath(seed).request(0), gen.TELEOP_Q0
    else:
        payload, q0 = gen.drawing(seed, DRAW_WARMUP_INDEX), gen.DRAW_Q0
    planner.plan(program.request(payload), program.chain, planner.RobotState.rest(program.rest(q0)[0]))


def serve_line(iface, sessions: dict, line: str, t: float) -> bytes:
    """What `rtmotion serve` does with one inbound line, minus the socket."""
    return iface.encode_line(iface.handle_request_line(sessions, line, t))


def encode_telemetry(iface, session, record) -> bytes:
    """What the dispatch loop sends per tick, minus the fan-out."""
    return iface.encode_line(iface.telemetry_message(session.robot_id, record))


def ack_problems(ack: dict, rid: str) -> list[str]:
    """The ack of the line just sent must accept that line."""
    if ack.get("id") != rid or ack.get("status") != "accepted":
        return [f"ack {ack} for {rid}"]
    return []


def teleop_sim(program: Program, seed: int, seconds: float, tracer) -> Tally:
    """`seconds` of stream time: one window per master period as a wire line
    through iface.handle_request_line on the simulated clock, followed by the
    ticks up to the next one; every Session.tick is timed, its telemetry is
    encoded after it, and both are checked."""
    planner, iface = program.planner, program.iface
    path = gen.TeleopPath(seed)
    session = program.runtime.Session(program.chain, gen.TELEOP_Q0, robot_id=gen.ROBOT_ID)
    sessions = {session.robot_id: session}
    ticks_per_request = round(gen.TELEOP_PERIOD_S * session.fc)
    tally = Tally()
    paused = tracer.paused if tracer else contextlib.nullcontext
    for k in range(round(seconds / gen.TELEOP_PERIOD_S)):
        payload = path.request(k)
        line = json.dumps(payload)
        t = gen.send_time(k)
        old = session.active_plan
        ack, dt = timed_call(tracer, "request", payload["id"], serve_line, iface, sessions, line, t)
        tally.request_s.append(dt)
        with paused():
            problems = ack_problems(json.loads(ack), payload["id"])
            if not problems:
                tally.segments += len(payload["waypoints"])
                if old is None:
                    start = program.rest(gen.TELEOP_Q0)
                else:
                    state, _ = planner.reference_at(old, t)
                    start = (state.q, state.qd, state.qdd)
                problems = program.plan_problems(session.active_plan, payload, start)
        tally.op(problems)
        for j in range(ticks_per_request):
            tick, dt = timed_call(tracer, "tick", f"tick-{k}-{j}", session.tick, t + j / session.fc)
            tally.tick_s.append(dt)
            # in a traced phase the encoding gets a root span of its own
            timed_call(tracer, "encode", f"tick-{k}-{j}", encode_telemetry, iface, session, tick)
            tally.op(program.limit_problems(tick.reference.qd, tick.reference.qdd))
    return tally


def draw_offline(program: Program, seed: int, seconds: float, tracer) -> Tally:
    """seconds / DRAW_CYCLE_S cycles of drawing requests, planned back to back;
    each plan is then evaluated with state_at on the control grid, every
    sample timed and checked against the limits."""
    planner = program.planner
    chain = program.chain
    start = program.rest(gen.DRAW_Q0)
    s0 = planner.RobotState.rest(start[0])
    tally = Tally()
    paused = tracer.paused if tracer else contextlib.nullcontext
    for index in range(max(1, round(seconds / DRAW_CYCLE_S)) * len(gen.DRAW_SIZES)):
        payload = gen.drawing(seed, index)
        request = program.request(payload)
        try:
            plan, dt = timed_call(tracer, "request", payload["id"], planner.plan, request, chain, s0)
        except (planner.ValidationError, planner.PlanningError) as exc:
            tally.op([f"rejected: {exc}"])
            continue
        tally.request_s.append(dt)
        tally.segments += len(payload["waypoints"])
        with paused():
            tally.op(program.plan_problems(plan, payload, start))
        fc = chain.control_frequency
        for k in range(round(plan.total_time * fc) + 1):
            t = min(k / fc, plan.total_time)
            (_, qd, qdd), dt = timed_call(tracer, "tick", f"{payload['id']}-{k}", plan.state_at, t)
            tally.tick_s.append(dt)
            tally.op(program.limit_problems(qd, qdd))
    return tally


WORKLOADS = {"teleop-sim": teleop_sim, "draw-offline": draw_offline}


def run_phase(program: Program, workload: str, seed: int, seconds: float, tracer) -> dict:
    tally = WORKLOADS[workload](program, seed, seconds, tracer)
    out = tally.as_dict()
    if tracer is not None:
        import tracing

        tree = tracing.roots(tracer.spans)
        requests, ticks, encodes = ([r for r in tree if r.name == f"{tracing.ROOT}.{kind}"]
                                    for kind in ("request", "tick", "encode"))
        times = [r.duration for r in requests]
        out["layers"] = tracing.layer_metrics(requests, ticks, encodes, times)
        out["stage_table"] = tracing.stage_table(requests, times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    program = Program()
    warm_up(program, args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = {"untraced": run_phase(program, args.workload, args.seed, args.seconds, None)}
    result["peak_rss_mb"] = stats.peak_rss_mb()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        result["traced"] = run_phase(program, args.workload, args.seed, args.seconds, tracer)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
