"""Tests of the benchmark itself: generators, checks, percentile rule, spans.

    python3 -m pytest perfbench/tests -q
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DATA = ROOT / "src" / "rtmotion" / "data"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import inproc  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def _master_log():
    with open(DATA / "scenarios" / "teleop-master.csv", newline="") as fh:
        return [[float(row[k]) for k in ("x", "y", "z", "roll", "pitch", "yaw")] for row in csv.DictReader(fh)]


def test_constants_match_packaged_data():
    log = _master_log()
    assert gen.TELEOP_START == pytest.approx(log[0], abs=1e-12)
    for i, (centre, half) in enumerate(zip(gen.TELEOP_CENTER, gen.TELEOP_HALF)):
        column = [row[i] for row in log]
        assert centre - half == pytest.approx(min(column), abs=1e-7)
        assert centre + half == pytest.approx(max(column), abs=1e-7)
    teleop = json.loads((DATA / "scenarios" / "teleop-replay.json").read_text())
    assert list(gen.TELEOP_Q0) == teleop["q0"]
    circle = json.loads((DATA / "scenarios" / "draw-circle.json").read_text())
    assert list(gen.DRAW_Q0) == circle["q0"]
    for name in ("draw-circle", "draw-line"):
        scenario = json.loads((DATA / "scenarios" / f"{name}.json").read_text())
        for event in (e for e in scenario["events"] if e["action"] == "send_request"):
            for wp in event["request"]["waypoints"]:
                x, y, z, *rpy = wp["pose"]
                assert gen.DRAW_X[0] <= x <= gen.DRAW_X[1] and gen.DRAW_Y[0] <= y <= gen.DRAW_Y[1]
                assert z == gen.DRAW_START[2] and rpy == pytest.approx(list(gen.DRAW_RPY))


def test_generators_are_deterministic_per_seed():
    assert gen.TeleopPath(7).request(40) == gen.TeleopPath(7).request(40)
    assert gen.TeleopPath(7).request(40) != gen.TeleopPath(8).request(40)
    assert gen.drawing(7, 12) == gen.drawing(7, 12)
    assert gen.drawing(7, 12) != gen.drawing(8, 12)


def test_teleop_stream_is_continuous_and_in_the_log_box():
    path = gen.TeleopPath(3)
    assert path.pose(0.0) == pytest.approx(list(gen.TELEOP_START))
    prev = path.request(0)
    for k in range(1, 1500):
        window = path.request(k)
        # sliding windows: each shares four waypoints with the one before
        assert window["waypoints"][:4] == prev["waypoints"][1:]
        step = math.dist(window["waypoints"][-1]["pose"][:3], prev["waypoints"][-1]["pose"][:3])
        assert step <= 0.1 * gen.TELEOP_PERIOD_S  # below 0.1 m/s
        box = zip(window["waypoints"][-1]["pose"], gen.TELEOP_START, gen.TELEOP_CENTER, gen.TELEOP_HALF)
        for value, start, centre, half in box:
            assert min(centre - half, start) - 1e-12 <= value <= max(centre + half, start) + 1e-12
        prev = window


def test_drawings_cover_the_sizes_and_stay_in_the_workspace():
    sizes, kinds = [], []
    for index in range(2 * len(gen.DRAW_SIZES)):
        request = gen.drawing(11, index)
        sizes.append(len(request["waypoints"]))
        kinds.append(request["id"].rsplit("-", 1)[1])
        durations = {wp["duration"] for wp in request["waypoints"]}
        assert len(durations) == 1 and gen.DRAW_DURATION_S[0] <= durations.pop() <= gen.DRAW_DURATION_S[1]
        for wp in request["waypoints"]:
            x, y, z, *rpy = wp["pose"]
            assert gen.DRAW_X[0] - 1e-12 <= x <= gen.DRAW_X[1] + 1e-12
            assert gen.DRAW_Y[0] - 1e-12 <= y <= gen.DRAW_Y[1] + 1e-12
    assert sizes == list(gen.DRAW_SIZES) * 2 and sizes[0] == 7 and sizes[-1] == 35
    # each size is drawn once as a circle and once as a polyline per two cycles
    cycle = len(gen.DRAW_SIZES)
    assert all({kinds[i], kinds[i + cycle]} == {"circle", "polyline"} for i in range(cycle))


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    summary = stats.summarize(list(range(n)))
    assert sum(1 for v in range(n) if v > summary["tail"]) >= stats.MIN_BEYOND


def test_too_few_samples_for_a_tail():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


@pytest.fixture(scope="module")
def program():
    return inproc.Program()


def _teleop_plan(program):
    payload = gen.TeleopPath(0).request(0)
    q0 = program.rest(gen.TELEOP_Q0)
    plan = program.planner.plan(program.request(payload), program.chain, program.planner.RobotState.rest(q0[0]))
    return plan, payload, q0


def test_a_correct_plan_passes_every_check(program):
    plan, payload, q0 = _teleop_plan(program)
    assert program.plan_problems(plan, payload, q0) == []


def test_a_perturbed_coefficient_is_caught_and_counted(program):
    plan, payload, q0 = _teleop_plan(program)
    plan.joints[2].segments[1].coeffs[3] += 1e-3
    tally = inproc.Tally()
    tally.op(program.plan_problems(plan, payload, q0))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "junction residual" in tally.reasons[0]


def test_a_wrong_start_state_is_caught(program):
    plan, payload, (q, qd, qdd) = _teleop_plan(program)
    problems = program.plan_problems(plan, payload, (q, qd + 1e-3, qdd))
    assert any("start-state jump" in p for p in problems)


def test_limit_check(program):
    v, a = program.chain.v_max, program.chain.a_max
    assert program.limit_problems(v, -a) == []
    assert program.limit_problems(v * 1.001, a * 0) != []


def test_teleop_sim_phase_has_no_failures(program):
    tally = inproc.teleop_sim(program, seed=5, seconds=1.0, tracer=None)
    assert tally.failed == 0 and tally.reasons == []
    # every request and every tick is checked and timed
    assert (tally.attempted, len(tally.request_s), len(tally.tick_s)) == (125, 25, 100)


def test_a_rejected_or_misplaced_ack_is_caught_and_counted():
    tally = inproc.Tally()
    tally.op(inproc.ack_problems({"id": "a", "status": "accepted"}, "a"))
    # a rejected line, and the ack of another line where this one's belongs
    tally.op(inproc.ack_problems({"id": "a", "status": "rejected", "reason": "qp: primal_infeasible"}, "a"))
    tally.op(inproc.ack_problems({"id": "b", "status": "accepted"}, "a"))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_self_times_add_up_and_counts_reach_enclosing_spans():
    tracer = tracing.Tracer()
    leaf = tracer.counted("poly.basis_row", lambda: None)

    def inner():
        leaf()
        leaf()

    inner = tracer.timed("chain.ik", inner)
    outer = tracer.timed("planner.plan", lambda: [inner() for _ in range(3)])
    with tracer.root("request", "r1"):
        outer()
    with tracer.paused():
        outer()  # not recorded
    (root,) = tracing.roots(tracer.spans)
    assert [n.name for n in root.walk()] == ["bench.request", "planner.plan"] + ["chain.ik"] * 3
    assert all(n.rec[4] == "r1" for n in root.walk())
    assert root.rec[5] == {"poly.basis_row": 6}
    assert sum(tracing.layer_self_times(root).values()) == pytest.approx(root.duration, abs=1e-12)
    metrics = tracing.layer_metrics([root], [], [], [root.duration])
    assert metrics["poly.basis_row_calls_per_request"] == 6
    assert metrics["trace.unattributed_ms"] == pytest.approx(root.self_time * 1e3)
