"""rtmotion benchmark: one seeded workload, its outputs checked, its metrics
printed by name with their units; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload teleop-sim --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):
  teleop-sim    buffered teleop windows as wire lines through the iface
                handlers and runtime.Session, on the simulated clock
  draw-offline  drawing requests planned from rest with planner.plan

--trace 0 measures the end-to-end metrics with no instrumentation installed.
--trace 1 runs the workload untraced and then traced, and reports the
per-layer metrics from the spans plus the tracing overhead between the two.
Run it from the root of a source checkout; it uses src/ directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata

import stats
from proc import BLAS_THREADS, ROOT, SRC, Child

SETUPS = 5  # set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 165.0  # plus at most Child.stop's 5 s

# metric names and units are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(args) -> tuple[list[float], dict]:
    """SETUPS workers, each timed from spawn to READY; the last one measures."""
    base = ["perfbench/inproc.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        child = Child(base if last else base + ["--setup-only"])
        try:
            child.expect("READY", deadline)
            setups.append(time.perf_counter() - child.started)
            if last:
                result = json.loads(child.expect("RESULT ", deadline)[len("RESULT "):])
        finally:
            code = child.stop()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
    return setups, result


def timing_lines(phase: dict) -> tuple[dict, dict, list[str]]:
    req, tick = stats.summarize(phase["request_s"]), stats.summarize(phase["tick_s"])
    lines = [
        f"requests: p50 {req['p50'] * 1e3:.3f} ms, {stats.label(req['tail_p'])} {req['tail'] * 1e3:.3f} ms, n={req['n']}",
        f"ticks:    p50 {tick['p50'] * 1e6:.1f} us, {stats.label(tick['tail_p'])} {tick['tail'] * 1e6:.1f} us, n={tick['n']}",
    ]
    return req, tick, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "rtmotion" / "__init__.py").is_file():
        print(f"error: no rtmotion sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env = environment()
    print(f"rtmotion benchmark: workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    setups, result = run_workload(args)
    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    base = result["untraced"]
    print("env: " + json.dumps(env))
    for phase in phases:
        for reason in phase["reasons"]:
            print(f"FAILED: {reason}")
    print(f"failed_share: {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")

    req, tick, lines = timing_lines(base)
    notes = {}
    if args.trace:
        treq, ttick, tlines = timing_lines(result["traced"])
        print("untraced " + "\nuntraced ".join(lines))
        print("traced   " + "\ntraced   ".join(tlines))
        metrics = dict(result["traced"]["layers"])
        metrics["trace.overhead_request_ms"] = (treq["p50"] - req["p50"]) * 1e3
        metrics["trace.overhead_tick_us"] = (ttick["p50"] - tick["p50"]) * 1e6
        print("self time per layer, mean per traced request:")
        print("\n".join(result["traced"]["stage_table"]))
        spec = SPEC["per_layer"]
    else:
        print("\n".join(lines))
        metrics = {
            "setup_s": statistics.median(setups),
            "request_p50_ms": req["p50"] * 1e3,
            "request_tail_ms": req["tail"] * 1e3,
            "segments_per_s": base["segments"] / sum(base["request_s"]),
            "tick_p50_us": tick["p50"] * 1e6,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        spec = SPEC["end_to_end"]
        notes = {"setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups),
                 "request_tail_ms": f"{stats.label(req['tail_p'])}, n={req['n']}"}
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    for name, value in metrics.items():
        unit = out[name]["unit"] if name in out else ""
        print(f"{name:<34} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
