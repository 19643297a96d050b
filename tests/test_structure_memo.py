"""QP structure reuse through the plan a request replaces: given the
previous problem's structure, qpbuild.assemble_qp returns the same read-only
Q, A and equality start for a repeated request, with the results of a solve
from scratch. The first reuse compiles the start into one verified matrix
(KnotStart.compile); a request passed at that map's start rounds differently
from the start call, within MAP_RTOL, and every other request is
bit-identical. Nothing is kept between calls otherwise: the solver keeps
nothing. Within one structure, segments of one duration share their
blocks."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import qpbuild, qpsolve
from rtmotion.chain import Pose, forward_kinematics
from rtmotion.planner import DEFAULT_DEGREE, MAX_WAYPOINT_DURATION_S, MAX_WAYPOINTS, CartesianWaypoint, PlanRequest, RobotState, plan
from rtmotion.poly import state_rows
from rtmotion.qpbuild import assemble_qp
from rtmotion.qpsolve import STATUS_SOLVED, SolverSettings, solve_batch
from rtmotion.runtime import Session, run_scenario

from conftest import data_path
from test_qpsolve import binding_problem

BINDING = ([(1.0, 1.0)], (0.0, 0.0, 0.0), 7, 100.0, 1.8, 100.0)  # binding_problem's request
# a window of five 0.04 s segments on two joints, its limits loose
TELEOP = (list(zip(np.linspace(0.01, 0.05, 5)[:, None] * [1.0, -2.0], [0.04] * 5)), [[0.0, 0.1], [0.2, 0.0], [0.0, -1.0]], 5, 100.0, [10.0, 10.0], [1e3, 1e3])
# a p from the compiled map rounds differently from the start call: by up
# to 3.9e-13 of a column's max |p| over 5,215 seeded structures of degree
# 5-7, 1-35 segments and durations spread up to qpbuild.MAP_SPREAD, and by
# at most 2.2e-14 on teleop windows
MAP_RTOL = 1e-12


def solved(problem, settings=None):
    """solve_batch of problem, from its structure's start, as the planner
    solves it."""
    columns = len(problem.lower), -1
    return solve_batch(
        problem.q_matrix, problem.a_matrix, problem.lower.reshape(columns), problem.upper.reshape(columns),
        settings, problem.start,
    )


def count_builds(monkeypatch) -> list:
    """Calls of qpbuild._structure from now on, one entry each."""
    calls, build = [], qpbuild._structure
    monkeypatch.setattr(qpbuild, "_structure", lambda *args: calls.append(1) or build(*args))
    return calls


def count_compiles(monkeypatch) -> list:
    """Calls of qpbuild.KnotStart.compile from now on, one entry each."""
    calls, compile_ = [], qpbuild.KnotStart.compile
    monkeypatch.setattr(qpbuild.KnotStart, "compile", lambda *args: calls.append(1) or compile_(*args))
    return calls


def assert_same_solve(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    for field in ("p", "primal_residuals", "dual_residuals", "converged"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def compiled(problem) -> bool:
    """Whether problem's start has a map, which a solve may take."""
    return problem.start is not None and bool(problem.start.map)


def close(p, fresh) -> bool:
    """Whether each column of p is within MAP_RTOL of fresh's max |p| in
    that column."""
    p, fresh = p.reshape(-1, p.shape[-1]), fresh.reshape(-1, fresh.shape[-1])
    return bool(np.all(np.abs(p - fresh).max(axis=0) <= MAP_RTOL * np.abs(fresh).max(axis=0)))


def assert_reused_solve(reused, fresh, mapped: bool):
    """A solve on a reused structure against one on a structure built anew:
    every bit the same unless it was solved with a compiled map (mapped) and
    passed at its start, which the map may have given; then the same status,
    iterations and verdicts, and p within MAP_RTOL."""
    if not (mapped and reused.iterations == 1):
        assert_same_solve(reused, fresh)
        return
    assert reused.status == fresh.status and reused.iterations == fresh.iterations
    np.testing.assert_array_equal(reused.converged, fresh.converged)
    assert close(reused.p, fresh.p)


class TestReuse:
    def test_a_repeated_request_gets_the_same_read_only_structure(self):
        first = binding_problem()
        second = assemble_qp(*BINDING, previous=first.structure)
        assert second.structure is first.structure
        assert second.q_matrix is first.q_matrix
        assert second.a_matrix is first.a_matrix
        assert second.lower is not first.lower
        # no previous, or one of other durations: built anew
        assert binding_problem().q_matrix is not first.q_matrix
        other = assemble_qp([(1.0, 0.5)], *BINDING[1:], previous=first.structure)
        assert other.q_matrix is not first.q_matrix and other.structure[0] != first.structure[0]

    @pytest.mark.parametrize("field", ["q_matrix", "head", "blocks"])
    def test_memoized_arrays_reject_writes(self, field):
        problem = binding_problem()
        owner = problem if field == "q_matrix" else problem.a_matrix
        with pytest.raises(ValueError, match="read-only"):
            getattr(owner, field)[0, 0] = 1.0

    def test_binding_solves_factor_the_reduced_matrix_each_time(self, monkeypatch):
        calls = []
        factor = qpsolve._inverse_factor
        monkeypatch.setattr(qpsolve, "_inverse_factor", lambda *a: calls.append(1) or factor(*a))
        problem = binding_problem()
        first = solved(problem)
        repeated = assemble_qp(*BINDING, previous=problem.structure)
        assert repeated.start is problem.start  # the start is reused, the reduced factor is not
        second = solved(repeated)
        assert len(calls) == 2
        assert first.status == STATUS_SOLVED and first.iterations > 1
        assert_same_solve(first, second)
        assert_same_solve(first, solved(binding_problem()))
        assert len(calls) == 3

    def test_other_tight_rows_do_not_reuse_the_start(self):
        # the same read-only (Q, A) with one equality row freed: the
        # structure's start pins every head row, so the start is the dense
        # one over the remaining tight rows, as without the structure's
        problem = binding_problem()
        bounds = problem.lower[:, None].copy(), problem.upper[:, None].copy()
        bounds[0][0], bounds[1][0] = -np.inf, np.inf  # the initial position
        freed = solve_batch(problem.q_matrix, problem.a_matrix, *bounds, start=problem.start)
        assert_same_solve(freed, solve_batch(problem.q_matrix, problem.a_matrix, *bounds))
        assert not np.array_equal(freed.p, solved(problem).p)


class TestInvisible:
    @settings(max_examples=30)
    @given(
        durations=st.lists(st.lists(st.floats(0.03, 1.2), min_size=1, max_size=8), min_size=1, max_size=2),
        data=st.data(),
    )
    def test_results_equal_a_solve_from_scratch(self, durations, data):
        # a sequence of requests drawn from up to three structures (repeating,
        # alternating, interleaving, some sharing durations), some with a
        # velocity limit that binds
        structure = st.tuples(st.integers(5, 7), st.integers(0, len(durations) - 1), st.sampled_from([100.0, 50.0]))
        pool = data.draw(st.lists(structure, min_size=1, max_size=3))
        order = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=8))
        requests = []
        for k, index in enumerate(order):
            degree, which, fc = pool[index]
            rng = np.random.default_rng(k)
            request = [[(float(rng.normal(0.0, 0.3)), d) for d in durations[which]], tuple(rng.normal(0.0, 0.1, 3)), degree, fc, 1e3, 1e5]
            # loose, or just below the peak velocity of the loose solution
            fraction = data.draw(st.sampled_from([None, 0.97, 0.9]))
            if fraction is not None:
                loose = assemble_qp(*request)
                velocities = (loose.a_matrix @ solved(loose).p[:, 0])[loose.n_eq :: 2]
                request[4] = fraction * float(np.max(np.abs(velocities)))
            requests.append(request)
        # a binding solve may need thousands of iterations: the first 400
        # exercise the iteration as well. Each request is given the
        # structures of the one before, as a plan is given the one it replaces
        short = SolverSettings(max_iters=400)
        reused, problem = [], None
        for request in requests:
            previous = problem and problem.structure
            problem = assemble_qp(*request, previous=previous)
            assert (problem.structure is previous) == (previous is not None and previous[0] == problem.structure[0])
            reused.append((problem, compiled(problem), solved(problem, short)))
        for request, (problem, mapped, batch) in zip(requests, reused):
            fresh = assemble_qp(*request)
            np.testing.assert_array_equal(problem.lower, fresh.lower)
            np.testing.assert_array_equal(problem.upper, fresh.upper)
            np.testing.assert_array_equal(problem.q_matrix, fresh.q_matrix)
            np.testing.assert_array_equal(problem.a_matrix.toarray(), fresh.a_matrix.toarray())
            assert_reused_solve(batch, solved(fresh, short), mapped)


@pytest.mark.parametrize("degree", [5, 7])
def test_repeated_durations_build_what_one_segment_at_a_time_builds(degree):
    durations = np.array([0.3, 0.5, 0.3, 0.5, 0.04])
    q_matrix, a_matrix = qpbuild._structure(degree, durations, 100.0)[:2]
    u, real = qpbuild._sample_grid(durations, 100.0)
    blocks, jerk = [], []
    for i, duration in enumerate(durations):
        blocks.append(state_rows(degree, u[i], duration, orders=(1, 2)).reshape(-1, degree + 1))
        jerk.append(qpbuild._jerk_blocks(degree, durations[i : i + 1], u[i : i + 1], real[i : i + 1])[0])
    want_q = qpbuild._block_diagonal(np.array(jerk)) + qpbuild.RIDGE * np.eye(len(durations) * (degree + 1))
    np.testing.assert_array_equal(qpbuild._block_diagonal(q_matrix), want_q)
    np.testing.assert_array_equal(a_matrix.head, qpbuild._equality_rows(degree, durations))
    np.testing.assert_array_equal(a_matrix.per_segment().blocks, np.array(blocks))


def teleop_window(chain, q0):
    """Five 0.04 s waypoints 1 mm apart from the pose at q0."""
    pose = forward_kinematics(chain, q0)
    return tuple(
        CartesianWaypoint(Pose(pose.translation + [0.001 * (k + 1), 0.0, 0.0], pose.rpy), 0.04)
        for k in range(5)
    )


def drawing(chain, q0, count=20):
    """count (by default twenty) 0.5 s waypoints on a 1 cm circle through the
    pose at q0."""
    pose = forward_kinematics(chain, q0)
    angles = np.linspace(0.0, 2.0 * np.pi, count + 1)[1:]
    offsets = 0.01 * np.stack([np.cos(angles) - 1.0, np.sin(angles), np.zeros(count)], axis=1)
    return tuple(CartesianWaypoint(Pose(pose.translation + d, pose.rpy), 0.5) for d in offsets)


class TestConcurrency:
    def test_threads_alternating_structures_plan_as_sequentially(self, arm6):
        # neither request binds, so a plan on a reused structure, compiled by
        # either thread, is within MAP_RTOL of one planned from scratch, and
        # bit-identical to it while the structure has no map
        q0 = arm6.mid_position()
        start = RobotState.rest(q0)
        requests = [PlanRequest("sim", teleop_window(arm6, q0), "teleop"), PlanRequest("sim", drawing(arm6, q0), "draw")]
        expected = [plan(request, arm6, start) for request in requests]
        assert [reference.iterations for reference in expected] == [1, 1]
        # the plan last made by either thread: each plan replaces it, so the
        # threads pass each other their structures
        latest = [None]
        mismatches, errors = [], []

        def worker(request, reference):
            try:
                for _ in range(200):
                    result = latest[0] = plan(request, arm6, start, previous=latest[0])
                    if result.iterations != reference.iterations or not (
                        np.array_equal(result.coeffs, reference.coeffs)
                        or (result.structure[4].map and close(result.coeffs, reference.coeffs))
                    ):
                        mismatches.append(request.request_id)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=pair) for pair in zip(requests, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []


def test_a_non_binding_plan_builds_no_dense_cost(arm6, monkeypatch):
    # the jerk cost travels as its segment blocks: only ADMM, which a binding
    # limit starts, forms the dense n x n matrix
    shapes = []
    dense = qpbuild._block_diagonal
    monkeypatch.setattr(qpbuild, "_block_diagonal", lambda blocks: shapes.append(blocks.shape) or dense(blocks))
    q0 = arm6.mid_position()
    result = plan(PlanRequest("sim", drawing(arm6, q0, 35), "draw"), arm6, RobotState.rest(q0))
    assert len(result.durations) == 35 and result.iterations == 1
    assert shapes == []
    assert solved(binding_problem()).iterations > 1
    assert shapes == [(1, 8, 8)] * 2  # the cost, and the limit rows' Gram matrix


def test_teleop_replay_builds_one_structure(monkeypatch):
    # reuse keys on exact float durations: a parsing change that perturbs
    # one would turn every window into a miss without failing anything else.
    # The structure's first reuse compiles its start, once
    calls, compiles = count_builds(monkeypatch), count_compiles(monkeypatch)
    result = run_scenario(data_path("scenarios", "teleop-replay.json"))
    assert result.summary["preemptions"] >= 100
    assert len(calls) == 1 and len(compiles) == 1


def test_a_teleop_session_shares_one_structure_across_its_windows(arm6, teleop_stream, monkeypatch):
    # the session's first window builds its structure, start included;
    # every later one gets the same objects through the plan it replaces,
    # and a new session builds its own
    count = 20
    stream = teleop_stream(2, count)
    calls = count_builds(monkeypatch)
    for sessions in (1, 2):
        session = Session(arm6, stream.q0)
        structures = []
        for k in range(count):
            assert session.submit(stream.window(k), stream.send_time(k)).accepted
            structures.append(session.active_plan.structure)
        assert len(calls) == sessions
        assert all(s is structures[0] for s in structures)


def reused_problem(request) -> tuple:
    """request's problem on a structure built anew, then on that structure
    reused: the reuse compiles its start."""
    fresh = assemble_qp(*request)
    return fresh, assemble_qp(*request, previous=fresh.structure)


class TestCompiledStart:
    def test_maps_are_built_on_a_structures_first_reuse_alone(self, arm6, monkeypatch):
        # a plan from rest, as draw-offline's, builds no map; a teleop
        # session builds one on its second window and none after it
        calls = count_compiles(monkeypatch)
        q0 = arm6.mid_position()
        start = RobotState.rest(q0)
        assert plan(PlanRequest("sim", drawing(arm6, q0, 35), "draw"), arm6, start).iterations == 1
        window = PlanRequest("sim", teleop_window(arm6, q0), "teleop")
        first = latest = plan(window, arm6, start)
        assert calls == [] and first.structure[4].map is None
        for _ in range(4):
            latest = plan(window, arm6, start, previous=latest)
        assert len(calls) == 1 and latest.structure is first.structure
        assert latest.structure[4].map and latest.iterations == 1

    def test_the_largest_request_maps_its_start_alone(self):
        # 100 x 10 s at the default degree: M_x is N(L+1) x (N+3), with the
        # indices of the 4N+2 head rows and one bound, and no map of the
        # limit rows beside it
        request = ([(0.01 * k, MAX_WAYPOINT_DURATION_S) for k in range(MAX_WAYPOINTS)], (0.0, 0.0, 0.0), DEFAULT_DEGREE, 100.0, 3.0, 50.0)
        fresh, reused = reused_problem(request)
        rows, others, m_x, bound = start_map = reused.start.map
        assert m_x.shape == (600, 103) and not m_x.flags.writeable
        assert sum(np.size(entry) for entry in start_map) == 600 * 103 + 402 + 1
        assert bound <= qpbuild.TOLERANCE
        assert_reused_solve(solved(reused), solved(assemble_qp(*request)), True)

    def test_a_compiled_request_is_passed_without_the_start_call(self, monkeypatch):
        fresh, reused = reused_problem(TELEOP)
        calls, call = [], qpbuild.KnotStart.__call__
        monkeypatch.setattr(qpbuild.KnotStart, "__call__", lambda *args: calls.append(1) or call(*args))
        batch, reference = solved(reused), solved(assemble_qp(*TELEOP))
        assert len(calls) == 1  # the reference's alone
        assert_reused_solve(batch, reference, True)
        assert np.all(batch.dual_residuals <= SolverSettings().eps_abs)

    def test_the_dual_bound_is_held_to_eps_abs_alone(self):
        # the map's dual residual is a bound, with no terms for eps_rel to
        # scale: past eps_abs the request takes the start call, which the
        # full test passes against its terms
        fresh, reused = reused_problem(TELEOP)
        absolute = SolverSettings(eps_abs=1e-18, eps_rel=1e-6)
        batch = solved(reused, absolute)
        assert batch.iterations == 1
        assert_same_solve(batch, solved(assemble_qp(*TELEOP), absolute))

    @pytest.mark.parametrize("column", [0, 4, -1], ids=["initial q", "first pass-through", "last pass-through"])
    def test_a_map_with_a_column_zeroed_is_refused_when_built(self, column, monkeypatch):
        fresh = assemble_qp(*TELEOP)
        call = qpbuild.KnotStart.__call__

        def zeroed(start, b_eq):
            x, y = call(start, b_eq)
            if b_eq.shape[1] > 2:  # the unit columns compile hands it
                x[:, column] = 0.0
            return x, y

        with monkeypatch.context() as patch:
            patch.setattr(qpbuild.KnotStart, "__call__", zeroed)
            assemble_qp(*TELEOP, previous=fresh.structure)
        assert fresh.start.map == ()
        # refused for good: later requests compile nothing and solve as a
        # fresh structure does, bit for bit
        calls = count_compiles(monkeypatch)
        later = assemble_qp(*TELEOP, previous=fresh.structure)
        assert calls == [] and later.start is fresh.start
        assert_same_solve(solved(later), solved(assemble_qp(*TELEOP)))

    @pytest.mark.parametrize("row", [4, 5, 7, 9], ids=["terminal qd", "terminal qdd", "junction qd", "junction qdd"])
    def test_head_bounds_off_the_map_take_the_start_call(self, row):
        # right-hand sides assemble_qp never writes, held tight: the
        # compiled start gives way to today's path, bit for bit
        fresh, reused = reused_problem(TELEOP)
        assert reused.start.map
        lower, upper = reused.lower.copy(), reused.upper.copy()
        lower[row] = upper[row] = 0.01
        batch = solve_batch(reused.q_matrix, reused.a_matrix, lower, upper, start=reused.start)
        reference = solve_batch(reused.q_matrix, reused.a_matrix, lower, upper, start=assemble_qp(*TELEOP).start)
        assert batch.iterations == 1
        assert_same_solve(batch, reference)

    @pytest.mark.parametrize("degree, duration, n_seg", [(7, 0.024, 5), (7, 0.015, 3), (7, 0.034, 10), (6, 0.02, 30)])
    def test_under_sampled_segments_get_no_map(self, degree, duration, n_seg):
        # fewer samples than the jerk has coefficients: the start and a map
        # of it differ by up to 1e-3, so neither the reuse nor its solve moves
        rng = np.random.default_rng(n_seg)
        request = (list(zip(rng.uniform(-3.0, 3.0, (n_seg, 2)), [duration] * n_seg)), np.zeros((3, 2)), degree, 100.0, [1e9, 1e9], [1e9, 1e9])
        fresh, reused = reused_problem(request)
        assert reused.start is None or reused.start.map == ()
        short = SolverSettings(max_iters=50)
        assert_same_solve(solved(reused, short), solved(assemble_qp(*request), short))

    @pytest.mark.parametrize("spread, mapped", [(7.9, True), (8.1, False), (19.9, False)])
    def test_durations_spread_over_map_spread_get_no_map(self, spread, mapped):
        # degree 5 at 50 Hz, a 0.033 s segment among longer ones: at 19.9x
        # a map of the start differed from the start call by 6.3e-12 of
        # max |p|, so none is built and the reuse plans as a fresh one does
        durations = [0.0327, 0.0327 * spread, 0.0327 * spread]
        rng = np.random.default_rng(3)
        request = (list(zip(rng.normal(0.0, 0.3, (3, 3)), durations)), rng.normal(0.0, 0.1, (3, 3)), 5, 50.0, np.full(3, 1e3), np.full(3, 1e5))
        fresh, reused = reused_problem(request)
        assert bool(reused.start.map) == mapped
        assert_reused_solve(solved(reused), solved(assemble_qp(*request)), mapped)

    @settings(max_examples=25)
    @given(
        degree=st.integers(5, 7),
        n_seg=st.integers(1, 35),
        base=st.floats(0.03, 0.5),
        spreads=st.lists(st.floats(1.0, 12.0), min_size=0, max_size=2),
        data=st.data(),
    )
    def test_reused_requests_match_a_solve_from_scratch(self, degree, n_seg, base, spreads, data):
        # a structure of mixed and repeated durations, spread on either side
        # of MAP_SPREAD, then requests on its reuse, the first of which
        # compiles it, with limits loose or binding
        distinct = [base] + [base * spread for spread in spreads]
        durations = data.draw(st.lists(st.sampled_from(distinct), min_size=n_seg, max_size=n_seg))
        joints = data.draw(st.integers(1, 3))
        short = SolverSettings(max_iters=400)
        problem = None
        for k in range(3):
            rng = np.random.default_rng(k)
            request = [list(zip(rng.normal(0.0, 0.3, (n_seg, joints)), durations)), rng.normal(0.0, 0.1, (3, joints)), degree, 100.0, np.full(joints, 1e3), np.full(joints, 1e5)]
            fraction = data.draw(st.sampled_from([None, 0.97, 0.9]))
            if fraction is not None:
                loose = assemble_qp(*request)
                velocities = (loose.a_matrix @ solved(loose).p)[loose.n_eq :: 2]
                request[4] = fraction * np.abs(velocities).max(axis=0)
            problem = assemble_qp(*request, previous=problem and problem.structure)
            start = problem.start
            assert k == 0 or start is None or start.map is not None
            assert_reused_solve(solved(problem, short), solved(assemble_qp(*request), short), compiled(problem))
