"""Command line entry points: offline planning, the live service, scenario
simulation, and the QP solve-time benchmark."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from rtmotion import planner, qpbuild, qpsolve, runtime
from rtmotion.chain import load_chain
from rtmotion.iface import RobotServer


def _parse_q0(text: str | None, chain) -> np.ndarray:
    if text is None:
        return chain.mid_position()
    values = np.array([float(v) for v in text.split(",")])
    if values.shape != (chain.dof,):
        raise planner.ValidationError(f"--q0 needs {chain.dof} comma-separated values")
    return values


def cmd_plan(args) -> int:
    chain = load_chain(args.chain)
    waypoints = planner.load_waypoints(args.waypoints)
    q0 = _parse_q0(args.q0, chain)
    request = planner.PlanRequest("cli", tuple(waypoints), request_id="offline")
    plan_ = planner.plan(request, chain, planner.RobotState.rest(q0), degree=args.degree)
    junction = plan_.junction_residuals()
    print(
        f"planned {len(waypoints)} waypoints, T_N = {plan_.total_time:.3f} s, "
        f"solve {plan_.solve_time * 1e3:.2f} ms ({plan_.iterations} iterations)"
    )
    print(
        f"max junction residual: q {junction[0]:.2e}, qd {junction[1]:.2e}, "
        f"qdd {junction[2]:.2e}"
    )
    if args.out:
        fc = chain.control_frequency
        # the plan on the control grid, its end included
        grid = np.minimum(np.arange(round(plan_.total_time * fc) + 1) / fc, plan_.total_time)
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(runtime.state_columns(chain.dof))
            writer.writerows(runtime.state_cells(t, *plan_.state_at(t)) for t in grid)
        print(f"trajectory written to {args.out}")
    return 0


def cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise planner.ValidationError(f"--port {args.port} is not in 0-65535")
    chain = load_chain(args.chain)
    q0 = _parse_q0(args.q0, chain)
    server = RobotServer(chain, robot_id=args.robot_id, host=args.host, port=args.port, initial_q=q0)
    server.start()
    print(f"serving robot '{args.robot_id}' on {server.host}:{server.port} at {server.session.fc:.0f} Hz")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("stopping")
    finally:
        server.stop()
    return 0


def cmd_sim(args) -> int:
    result = runtime.run_scenario(args.scenario)
    summary = result.summary
    print(f"scenario '{summary['scenario']}': {summary['ticks']} ticks at {summary['fc']:.0f} Hz")
    print(
        f"requests accepted {summary['requests_accepted']}, rejected "
        f"{summary['requests_rejected']}, preemptions {summary['preemptions']}"
    )
    jq, jqd, jqdd = summary["max_junction_residual"]
    print(f"max junction residual: q {jq:.2e}, qd {jqd:.2e}, qdd {jqdd:.2e}")
    print(
        f"limit violations: {summary['limit_violation_ticks']} ticks, "
        f"max tick step ratio {summary['max_tick_step_ratio']:.3f}"
    )
    if "path_deviation_m" in summary:
        print(f"path deviation: {summary['path_deviation_m'] * 1e3:.3f} mm")
    if summary.get("pipeline_delay"):
        print(f"pipeline delay: {summary['pipeline_delay']['median_s']:.3f} s median")
    if args.out:
        result.write_log_csv(args.out)
        print(f"telemetry written to {args.out}")
    if args.report:
        result.write_report(args.report)
        print(f"report written to {args.report}")
    return 0


def bench_problems(n_waypoints: int, degree: int, joints: int, fc: float, duration: float,
                   v_max: float, a_max: float, rng: np.random.Generator):
    """One benchmark instance: joints independent smooth streams sharing the
    segment grid, each feasible including the terminal-stop braking demand."""
    omega = 2 * np.pi * 0.25
    amp_cap = 0.5 * min(v_max, a_max * duration / 3.0) / omega
    times = np.arange(1, n_waypoints + 1) * duration
    targets = np.empty((n_waypoints, joints))
    initial_states = np.empty((3, joints))
    for j in range(joints):
        amp = amp_cap * rng.uniform(0.3, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        targets[:, j] = amp * np.sin(omega * times + phase)
        initial_states[:, j] = (
            amp * np.sin(phase),
            amp * omega * np.cos(phase),
            -amp * omega**2 * np.sin(phase),
        )
    problem = qpbuild.assemble_qp(
        [(p, duration) for p in targets], initial_states, degree, fc,
        np.full(joints, v_max), np.full(joints, a_max),
    )
    return problem, problem.lower, problem.upper


def cmd_bench(args) -> int:
    for name in ("n", "joints", "samples"):
        if getattr(args, name) < 1:
            raise planner.ValidationError(f"--{name} must be at least 1")
    for name in ("vmax", "amax", "duration", "fc"):
        if not 0 < getattr(args, name) < np.inf:
            raise planner.ValidationError(f"--{name} must be positive and finite, got {getattr(args, name)}")
    rng = np.random.default_rng(args.seed)
    records = []
    for _ in range(args.samples):
        shared, lower, upper = bench_problems(
            args.n, args.L, args.joints, args.fc, args.duration, args.vmax, args.amax, rng
        )
        batch = qpsolve.solve_batch(shared.q_matrix, shared.a_matrix, lower, upper, start=shared.start)
        records.append(
            {
                "n": args.n,
                "L": args.L,
                "joints": args.joints,
                "solve_time_s": batch.solve_time,
                "iterations": batch.iterations,
                "status": batch.status,
            }
        )
    times = np.array([r["solve_time_s"] for r in records])
    solved = sum(r["status"] == "solved" for r in records)
    print(
        f"{len(records)} samples ({args.joints} joints, N={args.n}, L={args.L}): "
        f"median {np.median(times) * 1e3:.3f} ms, p90 {np.percentile(times, 90) * 1e3:.3f} ms, "
        f"max {times.max() * 1e3:.3f} ms, solved {solved}/{len(records)}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        print(f"benchmark records written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rtmotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a waypoint file offline and export the trajectory")
    p_plan.add_argument("chain", help="chain description JSON")
    p_plan.add_argument("waypoints", help="waypoint list JSON")
    p_plan.add_argument("--out", help="trajectory CSV output path")
    p_plan.add_argument("--q0", help="initial joint position, comma separated (default: limit midpoints)")
    p_plan.add_argument("--degree", type=int, default=planner.DEFAULT_DEGREE)
    p_plan.set_defaults(func=cmd_plan)

    p_serve = sub.add_parser("serve", help="run the live JSON-lines service")
    p_serve.add_argument("chain")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7075)
    p_serve.add_argument("--robot-id", default="sim")
    p_serve.add_argument("--q0")
    p_serve.set_defaults(func=cmd_serve)

    p_sim = sub.add_parser("sim", help="run a scenario script on the simulated clock")
    p_sim.add_argument("scenario", help="scenario JSON (path or packaged name)")
    p_sim.add_argument("--out", help="telemetry CSV output path")
    p_sim.add_argument("--report", help="summary report JSON output path")
    p_sim.set_defaults(func=cmd_sim)

    p_bench = sub.add_parser("bench", help="QP solve-time benchmark")
    p_bench.add_argument("--n", type=int, default=5, help="waypoints per request")
    p_bench.add_argument("--L", type=int, default=5, help="polynomial degree")
    p_bench.add_argument("--joints", type=int, default=6)
    p_bench.add_argument("--samples", type=int, default=400)
    p_bench.add_argument("--fc", type=float, default=100.0)
    p_bench.add_argument("--duration", type=float, default=0.05, help="waypoint duration (s)")
    p_bench.add_argument("--vmax", type=float, default=2.5)
    p_bench.add_argument("--amax", type=float, default=15.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", help="JSONL output path")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # every input error is a ValueError (planner.ValidationError, a malformed
    # number, JSON file or chain, qpbuild.QpBuildError), an OverflowError (an
    # integer too large for a float) or an OSError
    except (ValueError, OverflowError, planner.PlanningError, runtime.ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
