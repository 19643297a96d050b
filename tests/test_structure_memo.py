"""QP structure reuse through the plan a request replaces: given the
previous problem's structure, qpbuild.assemble_qp returns the same read-only
Q, A and equality start for a repeated request, with results bit-identical
to a solve from scratch. Nothing is kept between calls otherwise: the solver
keeps nothing. Within one structure, segments of one duration share their
blocks."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import qpbuild, qpsolve
from rtmotion.chain import Pose, forward_kinematics
from rtmotion.planner import CartesianWaypoint, PlanRequest, RobotState, plan
from rtmotion.poly import state_rows
from rtmotion.qpbuild import assemble_qp
from rtmotion.qpsolve import STATUS_SOLVED, SolverSettings, solve_batch
from rtmotion.runtime import Session, run_scenario

from conftest import data_path
from test_qpsolve import binding_problem

BINDING = ([(1.0, 1.0)], (0.0, 0.0, 0.0), 7, 100.0, 1.8, 100.0)  # binding_problem's request


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


def assert_same_solve(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    for field in ("p", "primal_residuals", "dual_residuals", "converged"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


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
            problem = assemble_qp(*request, previous=problem and problem.structure)
            reused.append((problem, solved(problem, short)))
        for request, (problem, batch) in zip(requests, reused):
            fresh = assemble_qp(*request)
            np.testing.assert_array_equal(problem.lower, fresh.lower)
            np.testing.assert_array_equal(problem.upper, fresh.upper)
            np.testing.assert_array_equal(problem.q_matrix, fresh.q_matrix)
            np.testing.assert_array_equal(problem.a_matrix.toarray(), fresh.a_matrix.toarray())
            assert_same_solve(batch, solved(fresh, short))


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
        q0 = arm6.mid_position()
        start = RobotState.rest(q0)
        requests = [PlanRequest("sim", teleop_window(arm6, q0), "teleop"), PlanRequest("sim", drawing(arm6, q0), "draw")]
        expected = [plan(request, arm6, start) for request in requests]
        # the plan last made by either thread: each plan replaces it, so the
        # threads pass each other their structures
        latest = [None]
        mismatches, errors = [], []

        def worker(request, reference):
            try:
                for _ in range(200):
                    result = latest[0] = plan(request, arm6, start, previous=latest[0])
                    if not (np.array_equal(result.coeffs, reference.coeffs) and result.iterations == reference.iterations):
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
    # one would turn every window into a miss without failing anything else
    calls = count_builds(monkeypatch)
    result = run_scenario(data_path("scenarios", "teleop-replay.json"))
    assert result.summary["preemptions"] >= 100
    assert len(calls) == 1


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
