import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmotion import qpsolve
from rtmotion.poly import basis_row
from rtmotion.qpbuild import (
    RIDGE,
    BlockRows,
    QpBuildError,
    QpProblem,
    _block_diagonal,
    assemble_qp,
    build_equality,
    cost_blocks,
)
from rtmotion.qpsolve import (
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_SOLVED,
    SolverSettings,
    _dense_start,
    solve,
    solve_batch,
    solve_kkt_equality,
)

from test_qpbuild import jerk_cost_matrix


def quintic_by_boundary_conditions():
    """Independent derivation: the rest-to-rest unit quintic is fully
    determined by its six boundary conditions, no optimization involved."""
    rows = [basis_row(5, 0.0, k) for k in range(3)] + [basis_row(5, 1.0, k) for k in range(3)]
    rhs = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    return np.linalg.solve(np.array(rows), rhs)


QUINTIC = quintic_by_boundary_conditions()


def rest_to_rest_problem():
    return assemble_qp([(1.0, 1.0)], (0.0, 0.0, 0.0), 5, 100.0, 5.0, 10.0)


def binding_problem():
    """Degree 7 leaves two coefficients free; the velocity limit sits 5%
    below the unconstrained peak velocity of 1.90 rad/s."""
    return assemble_qp([(1.0, 1.0)], (0.0, 0.0, 0.0), 7, 100.0, 1.8, 100.0)


def random_equality_problem(rng):
    """Equality-constrained jerk-minimization instance with valid sizes."""
    while True:
        n_seg = int(rng.integers(1, 6))
        degree = int(rng.choice([4, 5, 6]))
        if n_seg * (degree + 1) >= 4 * n_seg + 2:
            break
    durations = rng.uniform(0.3, 1.5, n_seg)
    waypoints = [(float(rng.normal(0.0, 0.5)), float(d)) for d in durations]
    s0 = (float(rng.normal(0.0, 0.5)), float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.5, 0.5)))
    a_eq, b_eq = build_equality(waypoints, s0, degree)
    width = degree + 1
    q = np.zeros((width * n_seg, width * n_seg))
    for i, d in enumerate(durations):
        sl = slice(i * width, (i + 1) * width)
        q[sl, sl] = jerk_cost_matrix(degree, float(d), 100.0)
    q += 1e-9 * np.eye(width * n_seg)
    return QpProblem(
        q_matrix=q, a_matrix=a_eq, lower=b_eq.copy(), upper=b_eq.copy(),
        n_eq=a_eq.shape[0],
    )


class TestAnalyticQuintic:
    def test_boundary_system_oracle(self):
        np.testing.assert_allclose(QUINTIC, [0.0, 0.0, 0.0, 10.0, -15.0, 6.0], atol=1e-12)

    def test_admm_recovers_quintic(self):
        solution = solve(rest_to_rest_problem())
        assert solution.status == STATUS_SOLVED
        np.testing.assert_allclose(solution.p, QUINTIC, atol=1e-6)

    def test_kkt_recovers_quintic(self):
        problem = rest_to_rest_problem()
        p = solve_kkt_equality(problem.q_matrix, problem.a_matrix.toarray()[: problem.n_eq], problem.lower[: problem.n_eq])
        np.testing.assert_allclose(p, QUINTIC, atol=1e-9)


class TestKktOracle:
    def test_homogeneous_rhs_gives_zero(self):
        problem = rest_to_rest_problem()
        a_eq = problem.a_matrix.toarray()[: problem.n_eq]
        p = solve_kkt_equality(problem.q_matrix, a_eq, np.zeros(problem.n_eq))
        np.testing.assert_allclose(p, np.zeros(problem.n_vars), atol=1e-12)

    def test_constraint_residual_random_fixture(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            wps = [(float(rng.normal()), float(rng.uniform(0.4, 1.2))) for _ in range(3)]
            a_eq, b_eq = build_equality(wps, (0.0, 0.1, 0.0), 5)
            q = np.zeros((18, 18))
            for i, (_, d) in enumerate(wps):
                q[i * 6 : (i + 1) * 6, i * 6 : (i + 1) * 6] = jerk_cost_matrix(5, d, 100.0)
            q += 1e-9 * np.eye(18)
            p = solve_kkt_equality(q, a_eq, b_eq)
            assert np.max(np.abs(a_eq @ p - b_eq)) <= 1e-10

    def test_rank_deficient_raises(self):
        q = np.eye(4)
        a = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="singular KKT"):
            solve_kkt_equality(q, a, np.array([1.0, 2.0]))


class TestAdmm:
    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            problem = random_equality_problem(rng)
            admm = solve(problem)
            assert admm.status == STATUS_SOLVED
            kkt = solve_kkt_equality(
                problem.q_matrix, problem.a_matrix[: problem.n_eq], problem.lower[: problem.n_eq]
            )
            gap = np.max(np.abs(admm.p - kkt))
            assert gap <= 1e-5 * (1.0 + np.max(np.abs(kkt)))

    def test_constant_trajectory_zero_cost(self):
        # all waypoints equal the start: the constant polynomial is optimal
        problem = assemble_qp([(0.7, 0.5), (0.7, 0.5), (0.7, 0.5)], (0.7, 0.0, 0.0), 5, 100.0, 2.0, 8.0)
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        jerk_gram = _block_diagonal(problem.q_matrix) - RIDGE * np.eye(problem.n_vars)
        assert solution.p @ jerk_gram @ solution.p <= 1e-10
        for i in range(3):
            block = solution.p[i * 6 : (i + 1) * 6]
            assert block[0] == pytest.approx(0.7, abs=1e-6)
            np.testing.assert_allclose(block[1:], np.zeros(5), atol=1e-6)

    def test_solved_residuals_below_tolerance(self):
        settings = SolverSettings()
        solution = solve(rest_to_rest_problem(), settings)
        assert solution.status == STATUS_SOLVED
        assert solution.primal_residual <= settings.eps_abs * 10
        assert solution.dual_residual <= settings.eps_abs * 10

    def test_feasibility_at_solution(self):
        settings = SolverSettings()
        problem = assemble_qp(
            [(0.2, 0.5), (0.4, 0.5), (0.1, 0.5)], (0.0, 0.0, 0.0), 5, 100.0, 2.0, 20.0
        )
        solution = solve(problem, settings)
        assert solution.status == STATUS_SOLVED
        vals = problem.a_matrix @ solution.p
        slack = settings.eps_abs * 10
        assert np.all(vals >= problem.a_matrix.spread(problem.lower) - slack)
        assert np.all(vals <= problem.a_matrix.spread(problem.upper) + slack)

    def test_inactive_row_does_not_move_solution(self):
        problem = rest_to_rest_problem()
        base = solve(problem)
        loose = QpProblem(
            q_matrix=problem.q_matrix,
            a_matrix=np.vstack([problem.a_matrix, np.eye(6)[0]]),
            lower=np.concatenate([problem.lower, [-100.0]]),
            upper=np.concatenate([problem.upper, [100.0]]),
            n_eq=problem.n_eq,
        )
        augmented = solve(loose)
        assert augmented.status == STATUS_SOLVED
        assert np.max(np.abs(augmented.p - base.p)) <= 1e-5

    def test_deterministic_iterates(self):
        problem = assemble_qp([(0.5, 0.5), (1.0, 0.7)], (0.0, 0.1, 0.0), 5, 100.0, 2.0, 8.0)
        a = solve(problem)
        b = solve(problem)
        assert np.array_equal(a.p, b.p)
        assert a.iterations == b.iterations
        assert a.status == b.status

    def test_indefinite_cost_raises_linalg_error(self):
        # the equality start (x = 0) is feasible and stationary here, so it
        # would pass the stopping test as a saddle point: the Cholesky of
        # P + sigma*I's blocks is what rejects the indefinite cost
        q_matrix = np.diag([1.0, -1.0])
        bounds = np.zeros((1, 1))
        with pytest.raises(np.linalg.LinAlgError):
            solve_batch(q_matrix, np.array([[1.0, 0.0]]), bounds, bounds)

    def test_singular_psd_cost_solves(self):
        # positive semidefinite but singular: x1 has no cost, and the
        # equality row fixes it
        bounds = np.full((1, 1), 0.5)
        batch = solve_batch(np.diag([1.0, 0.0]), np.array([[0.0, 1.0]]), bounds, bounds)
        assert batch.status == STATUS_SOLVED
        assert batch.iterations == 1
        np.testing.assert_allclose(batch.p[:, 0], [0.0, 0.5], atol=1e-12)

    def test_primal_infeasible_detected(self):
        # 1 rad displacement in 0.5 s under a 0.1 rad/s velocity cap
        problem = assemble_qp([(1.0, 0.5)], (0.0, 0.0, 0.0), 5, 100.0, 0.1, 10.0)
        solution = solve(problem)
        assert solution.status == STATUS_PRIMAL_INFEASIBLE
        assert solution.primal_residual > 1e-3

    def test_batch_matches_single_columns(self):
        problem = assemble_qp(
            [(0.3, 0.5), (0.6, 0.5), (0.1, 0.5)], (0.0, 0.0, 0.0), 5, 100.0, 2.0, 20.0
        )
        lower = np.tile(problem.lower[:, None], (1, 3))
        upper = np.tile(problem.upper[:, None], (1, 3))
        for j, scale in enumerate([1.0, 0.5, -0.8]):
            lower[: problem.n_eq, j] = problem.lower[: problem.n_eq] * scale
            upper[: problem.n_eq, j] = problem.upper[: problem.n_eq] * scale
        batch = solve_batch(problem.q_matrix, problem.a_matrix, lower, upper)
        assert batch.status == STATUS_SOLVED
        for j, scale in enumerate([1.0, 0.5, -0.8]):
            single = QpProblem(
                q_matrix=problem.q_matrix,
                a_matrix=problem.a_matrix,
                lower=lower[:, j],
                upper=upper[:, j],
                n_eq=problem.n_eq,
            )
            result = solve(single)
            assert np.max(np.abs(result.p - batch.p[:, j])) <= 1e-6


def relative_gap(p, reference):
    return float(np.max(np.abs(p - reference)) / (1.0 + np.max(np.abs(reference))))


def assert_limits_held_at_the_active_set_minimizer(problem, p):
    """Every limit row holds to 1e-6, and p is the KKT oracle's minimizer
    with the rows active at p held as equalities."""
    dense = problem.a_matrix.toarray()
    values = dense @ p
    limits = slice(problem.n_eq, None)
    assert np.all(values[limits] >= problem.lower[limits] - 1e-6)
    assert np.all(values[limits] <= problem.upper[limits] + 1e-6)
    slack = np.minimum(values - problem.lower, problem.upper - values)
    active = problem.n_eq + np.flatnonzero(slack[limits] <= 1e-6)
    assert len(active) >= 1
    # a repeated row is the same constraint: keep one of each
    _, first = np.unique(dense[active], axis=0, return_index=True)
    active = active[np.sort(first)]
    bound = np.where(values[active] > 0.0, problem.upper[active], problem.lower[active])
    rows = np.concatenate([np.arange(problem.n_eq), active])
    kkt = solve_kkt_equality(problem.q_matrix, dense[rows], np.concatenate([problem.lower[: problem.n_eq], bound]))
    assert relative_gap(p, kkt) <= 1e-5


class TestWarmStart:
    """ADMM starts at the minimizer over the tight rows and its multipliers."""

    def test_equality_only_degree_6_matches_kkt(self):
        # from the zero start the stopping test accepted this problem at
        # iteration 50 with coefficients about 4e-5 (relative) from the optimum
        waypoints = [(0.0, 1.0), (0.0, 1.5), (0.0, 0.375)]
        a_eq, b_eq = build_equality(waypoints, (0.0, 0.0, 0.5), 6)
        problem = assemble_qp(waypoints, (0.0, 0.0, 0.5), 6, 100.0, 100.0, 1000.0)  # for its Q
        kkt = solve_kkt_equality(problem.q_matrix, a_eq, b_eq)
        for rows in (a_eq, BlockRows(a_eq, np.zeros((3, 0, 7)), np.arange(3))):
            admm = solve_batch(problem.q_matrix, rows, b_eq[:, None], b_eq[:, None])
            assert admm.status == STATUS_SOLVED
            assert relative_gap(admm.p[:, 0], kkt) <= 1e-5

    def test_inactive_limits_stop_after_one_iteration(self):
        problem = rest_to_rest_problem()
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        assert solution.iterations == 1
        np.testing.assert_allclose(solution.p, QUINTIC, atol=1e-9)

    def test_binding_velocity_limit_runs_admm(self):
        problem = binding_problem()
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        assert solution.iterations > 1
        assert_limits_held_at_the_active_set_minimizer(problem, solution.p)

    def test_binding_limit_with_mixed_sample_counts(self):
        # 51 and 101 samples: the first block repeats its last tick 50 times;
        # the velocity limit sits 6% below the unconstrained peak of
        # 1.27 rad/s, which is in the second segment
        problem = assemble_qp([(0.3, 0.5), (1.0, 1.0)], (0.0, 0.0, 0.0), 5, 100.0, 1.2, 100.0)
        assert problem.a_matrix.blocks.shape == (2, 202, 6)
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        assert solution.iterations > 1
        assert_limits_held_at_the_active_set_minimizer(problem, solution.p)

    def test_duplicated_equality_rows_start_from_zero_without_warnings(self):
        problem = assemble_qp([(0.3, 0.5), (0.6, 0.5)], (0.0, 0.0, 0.0), 5, 100.0, 2.0, 20.0)
        dense = problem.a_matrix.toarray()
        order = np.concatenate([np.arange(problem.n_eq), [0, 3], np.arange(problem.n_eq, len(dense))])
        lower, upper = (problem.a_matrix.spread(b)[order, None] for b in (problem.lower, problem.upper))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            duplicated = solve_batch(problem.q_matrix, dense[order], lower, upper)
        # the rank-deficient rows give no start: ADMM starts from zero and
        # iterates, and solves the problem as the unduplicated rows do
        assert duplicated.status == STATUS_SOLVED
        assert duplicated.iterations > 1
        reference = solve(problem)
        assert reference.iterations == 1
        assert np.max(np.abs(duplicated.p[:, 0] - reference.p)) <= 1e-5


class TestEarlyReturn:
    """A start that passes the stopping test is returned as it is: the
    reduced matrix is factored only when a limit binds."""

    class Factored(Exception):
        pass

    @pytest.fixture
    def no_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Factored

        monkeypatch.setattr(qpsolve, "_inverse_factor", refuse)

    @pytest.mark.parametrize(
        "durations",
        [np.full(35, 0.5), np.array([0.3, 0.04, 1.2, 0.5, 0.07, 0.9, 0.11])],
        ids=["35 x 0.5 s", "mixed sample counts"],
    )
    def test_non_binding_problem_is_not_factored(self, no_factorization, durations):
        rng = np.random.default_rng(5)
        waypoints = [(float(rng.normal(0.0, 0.5)), float(d)) for d in durations]
        problem = assemble_qp(waypoints, (0.0, 0.0, 0.0), 5, 100.0, 1e3, 1e5)
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        assert solution.iterations == 1
        kkt = solve_kkt_equality(problem.q_matrix, problem.a_matrix.head, problem.lower[: problem.n_eq])
        assert relative_gap(solution.p, kkt) <= 1e-9

    def test_binding_problem_is_factored(self, no_factorization):
        with pytest.raises(self.Factored):
            solve(binding_problem())


def test_the_kept_inverse_factor_holds_no_subnormal_entry(monkeypatch):
    # the inverse of a banded factor decays away from the diagonal: at n = 210
    # it held thousands of subnormal entries, and one product with them took
    # 134 us against 10 us once they were flushed to 0
    kept = []
    factor = qpsolve._inverse_factor
    monkeypatch.setattr(qpsolve, "_inverse_factor", lambda matrix: kept.append((matrix, factor(matrix))) or kept[-1][1])
    rng = np.random.default_rng(0)
    waypoints = [(float(q), 0.5) for q in rng.normal(0.0, 0.3, 35)]
    loose = assemble_qp(waypoints, (0.0, 0.0, 0.0), 5, 100.0, 1e3, 1e5)
    peak = np.max(np.abs((loose.a_matrix @ solve(loose).p)[loose.n_eq :: 2]))
    problem = assemble_qp(waypoints, (0.0, 0.0, 0.0), 5, 100.0, 0.9 * peak, 1e5)
    assert solve(problem, SolverSettings(max_iters=25)).iterations > 1
    (matrix, inverse), = kept
    lower_factor = np.linalg.cholesky(matrix)
    raw, tiny = np.linalg.inv(lower_factor), np.finfo(float).tiny  # the least normal float
    assert np.any((raw != 0) & (np.abs(raw) < tiny))
    assert not np.any((inverse != 0) & (np.abs(inverse) < tiny))
    np.testing.assert_allclose(inverse @ lower_factor, np.eye(len(matrix)), atol=1e-9)


def dense_start(q_matrix, a_eq, b_eq):
    """The dense null-space start on the scaled cost and unit-norm rows that
    solve_batch hands it, for one right-hand side; Q is blocks or dense."""
    blocks = cost_blocks(q_matrix)
    norms = np.max(np.abs(a_eq), axis=1)
    start = _dense_start(blocks / np.max(np.abs(blocks)), a_eq, norms, np.ones(len(a_eq), bool), b_eq[:, None])
    assert start is not None
    return start[0][:, 0]


class TestBandedStart:
    """The equality starts agree with the dense KKT oracle: the knot start
    of assemble_qp's structure, and the dense start of any other problem."""

    @settings(max_examples=40)
    @given(degree=st.integers(5, 7), n_seg=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_assembled_equality_problems(self, degree, n_seg, seed, data):
        durations = data.draw(st.lists(st.floats(0.03, 1.2), min_size=n_seg, max_size=n_seg))
        rng = np.random.default_rng(seed)
        waypoints = [(float(rng.normal(0.0, 0.5)), d) for d in durations]
        s0 = tuple(rng.normal(0.0, 0.3, 3))
        problem = assemble_qp(waypoints, s0, degree, 100.0, 1e3, 1e5)
        a_eq, b_eq = problem.a_matrix.head, problem.lower[: problem.n_eq]
        kkt = solve_kkt_equality(problem.q_matrix, a_eq, b_eq)
        # not 1e-9: the KKT matrix's condition number reaches 1e14 over this
        # range, and of 400 random draws 8 put the banded LU start this
        # replaced 1.1e-9 to 2.3e-9 from the oracle, which was within 5.4e-10
        # of a solve refined in extended precision
        knot_start = problem.start(b_eq[:, None])[0][:, 0]
        assert relative_gap(knot_start, kkt) <= 1e-8

    def test_random_equality_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            problem = random_equality_problem(rng)
            a_eq, b_eq = problem.a_matrix, problem.lower
            kkt = solve_kkt_equality(problem.q_matrix, a_eq, b_eq)
            assert relative_gap(dense_start(problem.q_matrix, a_eq, b_eq), kkt) <= 1e-9

    def test_dense_rows_fill_the_band(self):
        rng = np.random.default_rng(12)
        for n, m in ((1, 1), (8, 3), (30, 12)):
            root = rng.normal(size=(n, n))
            q_matrix = root @ root.T + np.eye(n)
            a_eq, b_eq = rng.normal(size=(m, n)), rng.normal(size=m)
            kkt = solve_kkt_equality(q_matrix, a_eq, b_eq)
            assert relative_gap(dense_start(q_matrix, a_eq, b_eq), kkt) <= 1e-9


class TestCostBlocks:
    """A dense Q is the one-block case of qpbuild.cost_blocks: the solver
    gives the same bits for the segment blocks and for their dense matrix."""

    @staticmethod
    def solve_both_ways(problem, settings=None):
        bounds = problem.lower[:, None], problem.upper[:, None]
        as_blocks = solve_batch(problem.q_matrix, problem.a_matrix, *bounds, settings)
        as_dense = solve_batch(_block_diagonal(problem.q_matrix), problem.a_matrix, *bounds, settings)
        assert as_blocks.status == as_dense.status
        assert as_blocks.iterations == as_dense.iterations
        np.testing.assert_array_equal(as_blocks.p, as_dense.p)
        return as_blocks

    @settings(max_examples=30)
    @given(
        degree=st.sampled_from([5, 7]),
        durations=st.lists(st.floats(0.03, 1.2), min_size=1, max_size=12),
        fraction=st.sampled_from([None, 0.97, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_and_their_dense_matrix_solve_alike(self, degree, durations, fraction, seed):
        rng = np.random.default_rng(seed)
        request = [[(float(rng.normal(0.0, 0.5)), d) for d in durations], tuple(rng.normal(0.0, 0.3, 3)), degree, 100.0, 1e3, 1e5]
        if fraction is not None:
            # a velocity limit just below the peak of the loose solution binds
            loose = assemble_qp(*request)
            velocities = (loose.a_matrix @ solve(loose).p)[loose.n_eq :: 2]
            request[4] = fraction * float(np.max(np.abs(velocities)))
        problem = assemble_qp(*request)
        # a binding solve may need thousands of iterations: the first 400
        # exercise the iteration as well
        self.solve_both_ways(problem, SolverSettings(max_iters=400))

    def test_binding_problem_iterates_alike(self):
        batch = self.solve_both_ways(binding_problem())
        assert batch.status == STATUS_SOLVED and batch.iterations > 1


class TestValidate:
    @pytest.mark.parametrize(
        "field, index, value",
        [("lower", -1, np.nan), ("upper", -1, np.nan), ("q_matrix", (0, 0), np.nan), ("q_matrix", (0, 0), np.inf)],
        ids=["nan lower limit", "nan upper limit", "nan in Q", "inf in Q"],
    )
    def test_non_finite_entries_are_build_errors(self, field, index, value):
        # NaN compares False either way, so an order check lets it through:
        # the solve then ran 20000 iterations to NaN coefficients
        problem = rest_to_rest_problem()
        # assemble_qp's Q is read-only: corrupt a writeable copy
        problem.q_matrix = problem.q_matrix.copy()
        getattr(problem, field)[index] = value
        with pytest.raises(QpBuildError, match="finite|NaN"):
            solve(problem)

    def test_infinite_limits_are_free_rows(self):
        problem = rest_to_rest_problem()
        problem.lower[problem.n_eq :] = -np.inf
        problem.upper[problem.n_eq :] = np.inf
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        assert solution.iterations == 1
        np.testing.assert_allclose(solution.p, QUINTIC, atol=1e-9)


class TestRowScaling:
    @pytest.mark.parametrize("make_problem", [binding_problem, rest_to_rest_problem])
    def test_row_scaling_leaves_the_solve_unchanged(self, make_problem):
        # each row's penalty is divided by its squared norm, so scaling a row
        # and its bounds changes neither the iterates nor the stopping test
        problem = make_problem()
        dense = problem.a_matrix.toarray()
        scale = 10.0 ** np.random.default_rng(7).uniform(-3.0, 3.0, len(dense))
        bounds = problem.lower[:, None], problem.upper[:, None]
        plain = solve_batch(problem.q_matrix, dense, *bounds)
        scaled = solve_batch(
            problem.q_matrix, dense * scale[:, None], *(b * scale[:, None] for b in bounds)
        )
        assert plain.status == scaled.status == STATUS_SOLVED
        assert plain.iterations == scaled.iterations
        assert relative_gap(scaled.p, plain.p) <= 1e-8


class TestSettings:
    def test_rejects_non_positive_tolerance(self):
        with pytest.raises(ValueError):
            SolverSettings(eps_abs=0.0)

    def test_default_settings_hold_a_binding_limit(self):
        # at 1e-6 tolerances the solver stopped "solved" with the velocity
        # 6.5e-6 over its limit, breaking the 1e-6 limit contract
        problem = binding_problem()
        solution = solve(problem)
        assert solution.status == STATUS_SOLVED
        values = problem.a_matrix @ solution.p
        assert np.all(values >= problem.lower - 1e-6)
        assert np.all(values <= problem.upper + 1e-6)

    def test_solve_rejects_bound_columns(self):
        wps = [(np.array([1.0, 0.5]), 1.0)]
        problem = assemble_qp(wps, np.zeros((3, 2)), 5, 100.0, np.full(2, 5.0), np.full(2, 10.0))
        with pytest.raises(ValueError, match="solve_batch"):
            solve(problem)


class TestScaleConsistency:
    def test_duration_scaling_of_jerk_cost(self):
        # dimensional analysis on the fully constrained rest-to-rest fixture:
        # scaling all durations by c scales the sampled jerk cost by c^-5.
        # the uniform inclusive sampling grid biases the sum by O(1/samples),
        # so a dense grid isolates the scaling law
        def solved_cost(duration):
            problem = assemble_qp([(1.0, duration)], (0.0, 0.0, 0.0), 5, 1000.0, 50.0, 500.0)
            solution = solve(problem)
            assert solution.status == STATUS_SOLVED
            return solution.p @ problem.q_matrix @ solution.p

        ratio = solved_cost(2.0) / solved_cost(1.0)
        assert ratio == pytest.approx(2.0**-5, rel=0.01)
