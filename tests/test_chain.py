import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtmotion import chain, planner
from rtmotion.chain import (
    ChainConfig,
    IkConvergenceError,
    Pose,
    forward_kinematics,
    inverse_kinematics,
    jacobian,
    make_transform,
    matrix_to_rpy,
    pose_error,
    rpy_to_matrix,
    fk_transform,
)
from rtmotion.runtime import load_scenario

from conftest import data_path

# FK of the 6-DOF fixture at fixed configurations, computed with an
# independent product-of-transforms implementation (explicit Rodrigues and
# sequential frame accumulation) and frozen here.
FK_ORACLE = [
    (
        [0.3, -0.5, 0.8, 1.1, -0.9, 0.4],
        [0.772114745306622, 0.14384631878744, 0.469837857801577],
        [
            [0.873940746667038, -0.075370087832381, -0.48015301850056],
            [-0.460402760844985, 0.188190259188634, -0.867533125680415],
            [0.155746168881858, 0.979236322961242, 0.129766539107621],
        ],
    ),
    (
        [-1.2, 1.4, -2.1, 0.0, 1.7, -2.5],
        [0.157866473226109, -0.406056505187896, 0.203388441374089],
        [
            [0.195782730292948, -0.929179421125658, 0.31351989709686],
            [-0.503582867307326, 0.179071434285417, 0.84518501949425],
            [-0.841470984807896, -0.323355879457217, -0.432859742811547],
        ],
    ),
    (
        [2.0, 0.1, -0.3, -2.2, 0.6, 1.3],
        [-0.294289234063651, 0.78564318590806, 0.508178959532064],
        [
            [0.105962698708644, -0.719972434356661, -0.685865584680355],
            [0.865463265074249, 0.406415418750392, -0.292916104386501],
            [0.489637869541767, -0.562553287403503, 0.666174568369366],
        ],
    ),
]


class TestForwardKinematics:
    def test_straight_planar_arm(self, planar2):
        pose = forward_kinematics(planar2, [0.0, 0.0])
        np.testing.assert_allclose(pose.translation, [2.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pose.rpy, [0.0, 0.0, 0.0], atol=1e-12)

    def test_base_rotation_planar_arm(self, planar2):
        pose = forward_kinematics(planar2, [np.pi / 2, 0.0])
        np.testing.assert_allclose(pose.translation, [0.0, 2.0, 0.0], atol=1e-12)
        assert pose.rpy[2] == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("q, expected_p, expected_r", FK_ORACLE)
    def test_matches_independent_oracle(self, arm6, q, expected_p, expected_r):
        t = fk_transform(arm6, q)
        np.testing.assert_allclose(t[:3, 3], expected_p, atol=1e-12)
        np.testing.assert_allclose(t[:3, :3], expected_r, atol=1e-12)
        # the extracted pose reproduces the same rotation
        pose = forward_kinematics(arm6, q)
        np.testing.assert_allclose(pose.rotation_matrix(), expected_r, atol=1e-12)
        assert -np.pi / 2 < pose.rpy[1] < np.pi / 2

    def test_dimension_mismatch(self, arm6):
        with pytest.raises(ValueError, match="6 joint values"):
            forward_kinematics(arm6, [0.0, 0.0])

    def test_non_finite_input(self, arm6):
        with pytest.raises(ValueError, match="finite"):
            forward_kinematics(arm6, [np.nan, 0, 0, 0, 0, 0])

    def test_deterministic(self, arm6):
        q = [0.3, -0.5, 0.8, 1.1, -0.9, 0.4]
        a = forward_kinematics(arm6, q)
        b = forward_kinematics(arm6, q)
        assert a.translation.tolist() == b.translation.tolist()
        assert a.rpy.tolist() == b.rpy.tolist()

    @pytest.mark.parametrize(
        "q, message",
        [
            ([[0.0] * 6] * 2, r"^expected 6 joint values, got shape \(2, 6\)$"),
            ([0.0] * 5, r"^expected 6 joint values, got shape \(5,\)$"),
            (0.0, r"^expected 6 joint values, got shape \(\)$"),
            ([0.0, 0.0, np.inf, 0.0, 0.0, 0.0], r"^joint vector contains non-finite entries$"),
        ],
        ids=["stacked", "short", "scalar", "non-finite"],
    )
    def test_rejects_stacked_short_and_non_finite_q(self, arm6, q, message):
        with pytest.raises(ValueError, match=message):
            forward_kinematics(arm6, q)

    def test_checks_q_once(self, arm6, monkeypatch):
        checks = []
        check = chain._check_q
        monkeypatch.setattr(chain, "_check_q", lambda *a, **k: checks.append(1) or check(*a, **k))
        forward_kinematics(arm6, arm6.mid_position())
        assert len(checks) == 1


ONE_JOINT = ChainConfig(
    axes=[[0.0, 0.6, 0.8]],
    offsets=[make_transform([0.1, -0.2, 0.3], [0.4, -0.5, 0.6])],
    joint_limits=[[-3.0, 3.0]],
    v_max=[1.0],
    a_max=[1.0],
    control_frequency=100.0,
    ee_transform=make_transform([0.0, 0.05, 0.2], [0.1, 0.2, -0.3]),
)
WALKED_CHAINS = {
    "arm6": chain.load_chain(data_path("chains", "arm6.json")),
    "planar2": chain.load_chain(data_path("chains", "planar2.json")),
    "one-joint": ONE_JOINT,
}


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(WALKED_CHAINS)), data=st.data())
def test_fk_transform_is_the_walks_end_effector_bit_for_bit(name, data):
    """fk_transform multiplies one configuration's joint transforms in
    _frames' order: it ends where the walk of that configuration ends, alone
    or as a row of a walked stack. A stack is _frames' to walk."""
    config = WALKED_CHAINS[name]
    n = data.draw(st.integers(1, 4))
    q = np.array(data.draw(st.lists(st.floats(-7.0, 7.0), min_size=n * config.dof, max_size=n * config.dof)))
    stack = q.reshape(n, config.dof)
    walked = chain._frames(config, stack)[1]
    for single, end in zip(stack, walked):
        t = fk_transform(config, single)
        assert t.shape == (4, 4)
        np.testing.assert_array_equal(t, end)
        np.testing.assert_array_equal(t, chain._frames(config, single)[1])
    with pytest.raises(ValueError, match=rf"^expected {config.dof} joint values, got shape \({n}, {config.dof}\)$"):
        fk_transform(config, stack)


# one joint about z under an end effector pitched by pi/2: every
# configuration's pose is on matrix_to_rpy's gimbal branch
GIMBAL = ChainConfig(
    axes=[[0.0, 0.0, 1.0]],
    offsets=[np.eye(4)],
    joint_limits=[[-3.0, 3.0]],
    v_max=[1.0],
    a_max=[1.0],
    control_frequency=100.0,
    ee_transform=make_transform([0.1, 0.0, 0.2], [0.0, np.pi / 2, 0.0]),
)


def rpy_by_entries(rot):
    """matrix_to_rpy reading the rotation one numpy entry at a time: the
    reference for its read of the whole rotation at once."""
    cos_pitch = math.hypot(rot[0, 0], rot[1, 0])
    pitch = math.atan2(-rot[2, 0], cos_pitch)
    if cos_pitch < 1e-12:
        return 0.0, pitch, math.atan2(-rot[0, 1], rot[1, 1])
    return math.atan2(rot[2, 1], rot[2, 2]), pitch, math.atan2(rot[1, 0], rot[0, 0])


@settings(max_examples=60)
@given(name=st.sampled_from(sorted(WALKED_CHAINS) + ["gimbal"]), data=st.data())
def test_forward_kinematics_is_the_pose_of_fk_transform(name, data):
    config = GIMBAL if name == "gimbal" else WALKED_CHAINS[name]
    q = np.array(data.draw(st.lists(st.floats(-7.0, 7.0), min_size=config.dof, max_size=config.dof)))
    t = fk_transform(config, q)
    want = Pose(t[:3, 3], np.array(rpy_by_entries(t[:3, :3])))
    got = forward_kinematics(config, q)
    for values, wanted in ((got.translation, want.translation), (got.rpy, want.rpy)):
        assert values.dtype == np.float64 and values.shape == (3,)
        np.testing.assert_array_equal(values, wanted)
    if name == "gimbal":
        assert got.rpy[0] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pose_from_vector_rejects_non_finite_components(bad):
    vec = [0.1, 0.2, 0.3, 0.0, 0.5, 0.0]
    for k in range(6):
        with pytest.raises(ValueError, match="^Pose components must be finite$"):
            Pose.from_vector(vec[:k] + [bad] + vec[k + 1 :])


class TestEulerConvention:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            angles = rng.uniform([-np.pi, -1.5, -np.pi], [np.pi, 1.5, np.pi])
            r = rpy_to_matrix(*angles)
            np.testing.assert_allclose(matrix_to_rpy(r), angles, atol=1e-12)

    def test_gimbal_branch(self):
        r = rpy_to_matrix(0.4, np.pi / 2, 0.7)
        roll, pitch, yaw = matrix_to_rpy(r)
        assert roll == 0.0
        assert pitch == pytest.approx(np.pi / 2)
        # reconstructed matrix matches even though the triple differs
        np.testing.assert_allclose(rpy_to_matrix(roll, pitch, yaw), r, atol=1e-9)


class TestJacobian:
    def test_planar_lever_arm(self, planar2):
        jac = jacobian(planar2, [0.0, 0.0])
        np.testing.assert_allclose(jac[:3, 0], [0.0, 2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(jac[:3, 1], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(jac[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_one_dof_angular_row_is_axis(self):
        chain = ChainConfig(
            axes=np.array([[0.0, 1.0, 0.0]]),
            offsets=np.eye(4)[None],
            joint_limits=np.array([[-3.0, 3.0]]),
            v_max=np.array([1.0]),
            a_max=np.array([1.0]),
            control_frequency=100.0,
            ee_transform=make_transform([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        )
        jac = jacobian(chain, [0.7])
        np.testing.assert_allclose(jac[3:, 0], [0.0, 1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, arm6, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(arm6.joint_limits[:, 0] * 0.8, arm6.joint_limits[:, 1] * 0.8)
        jac = jacobian(arm6, q)
        step = 1e-6
        for j in range(arm6.dof):
            dq = np.zeros(arm6.dof)
            dq[j] = step
            t_plus = fk_transform(arm6, q + dq)
            t_minus = fk_transform(arm6, q - dq)
            lin = (t_plus[:3, 3] - t_minus[:3, 3]) / (2 * step)
            # angular velocity from the skew part of dR R^T
            dr = (t_plus[:3, :3] - t_minus[:3, :3]) / (2 * step)
            omega_mat = dr @ fk_transform(arm6, q)[:3, :3].T
            ang = np.array([omega_mat[2, 1], omega_mat[0, 2], omega_mat[1, 0]])
            np.testing.assert_allclose(jac[:3, j], lin, atol=1e-5)
            np.testing.assert_allclose(jac[3:, j], ang, atol=1e-5)


class TestInverseKinematics:
    def test_two_link_cosine_law(self, planar2):
        # unit links, target (1, 1): elbow angle from the cosine law is
        # acos((r^2 - 2) / 2) = pi/2, shoulder = atan2(1,1) - atan2(sin, 1+cos)
        target = Pose(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, np.pi / 2]))
        q = inverse_kinematics(planar2, target, np.array([0.0, 1.0]))
        r_sq = 2.0
        elbow = np.arccos((r_sq - 2.0) / 2.0)
        shoulder = np.arctan2(1.0, 1.0) - np.arctan2(np.sin(elbow), 1.0 + np.cos(elbow))
        np.testing.assert_allclose(q, [shoulder, elbow], atol=1e-4)

    def test_fixed_point_returns_seed(self, arm6):
        seed = np.array([0.2, 0.3, -1.1, 0.5, 0.6, -0.4])
        target = forward_kinematics(arm6, seed)
        q = inverse_kinematics(arm6, target, seed)
        np.testing.assert_array_equal(q, seed)

    def test_round_trip_100_random_targets(self, arm6):
        rng = np.random.default_rng(42)
        lo, hi = arm6.joint_limits[:, 0], arm6.joint_limits[:, 1]
        for _ in range(100):
            q_true = lo + (hi - lo) * (0.1 + 0.8 * rng.random(arm6.dof))
            target = forward_kinematics(arm6, q_true)
            seed = q_true + rng.uniform(-0.1, 0.1, arm6.dof)
            q = inverse_kinematics(arm6, target, seed)
            err = pose_error(target, fk_transform(arm6, q))
            assert np.linalg.norm(err[:3]) <= 1e-4
            assert np.linalg.norm(err[3:]) <= 1e-3
            assert np.all(q >= lo) and np.all(q <= hi)

    def test_unreachable_target_raises(self, planar2):
        target = Pose(np.array([5.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))
        with pytest.raises(IkConvergenceError):
            inverse_kinematics(planar2, target, np.array([0.1, 0.1]))

    def test_seed_dimension_mismatch(self, arm6):
        target = Pose(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="joint values"):
            inverse_kinematics(arm6, target, np.zeros(3))

    def test_deterministic(self, arm6):
        target = forward_kinematics(arm6, [0.4, 0.7, -1.3, 0.2, 0.9, -0.1])
        seed = np.array([0.35, 0.75, -1.25, 0.15, 0.85, -0.15])
        a = inverse_kinematics(arm6, target, seed)
        b = inverse_kinematics(arm6, target, seed)
        assert a.tolist() == b.tolist()


def walk_per_call_inverse_kinematics(config, target, seed, pos_tol=1e-4, ori_tol=1e-3,
                                     max_iters=200, damping=1e-3):
    """The damped-least-squares loop with one FK for the error and one more
    walk down the chain for each Jacobian, as before the walks were shared."""
    q = config.clamp(np.asarray(seed, dtype=float))
    lam = damping
    err = pose_error(target, fk_transform(config, q))
    err_norm = np.linalg.norm(err)
    eye = np.eye(config.dof)
    for _ in range(max_iters):
        if np.linalg.norm(err[:3]) <= pos_tol and np.linalg.norm(err[3:]) <= ori_tol:
            return q
        jac = jacobian(config, q)
        step = np.linalg.solve(jac.T @ jac + lam * eye, jac.T @ err)
        q_new = config.clamp(q + step)
        err_new = pose_error(target, fk_transform(config, q_new))
        new_norm = np.linalg.norm(err_new)
        if new_norm < err_norm:
            q, err, err_norm = q_new, err_new, new_norm
            lam = max(lam / 10.0, 1e-10)
        else:
            lam = min(lam * 10.0, 1e8)
    return None


def seeded_ik_cases(config, count, spread):
    rng = np.random.default_rng(77)
    lo, hi = config.joint_limits[:, 0], config.joint_limits[:, 1]
    for _ in range(count):
        q_true = lo + (hi - lo) * (0.1 + 0.8 * rng.random(config.dof))
        yield forward_kinematics(config, q_true), q_true + rng.uniform(-spread, spread, config.dof)


class TestSharedChainWalks:
    def test_matches_walk_per_call_loop_bit_for_bit(self, arm6):
        for target, seed in seeded_ik_cases(arm6, 40, 0.4):
            expected = walk_per_call_inverse_kinematics(arm6, target, seed)
            if expected is None:
                with pytest.raises(IkConvergenceError):
                    inverse_kinematics(arm6, target, seed)
            else:
                assert inverse_kinematics(arm6, target, seed).tolist() == expected.tolist()

    def test_one_walk_per_iteration_plus_the_initial_pose(self, arm6, monkeypatch):
        walks, jacobians = [], []
        frames, jac = chain._frames, chain.jacobian
        monkeypatch.setattr(chain, "_frames", lambda *a: walks.append(1) or frames(*a))
        monkeypatch.setattr(chain, "jacobian", lambda *a: jacobians.append(1) or jac(*a))
        for target, seed in seeded_ik_cases(arm6, 10, 0.4):
            walks.clear()
            jacobians.clear()
            inverse_kinematics(arm6, target, seed)
            assert len(jacobians) >= 1
            assert len(walks) == len(jacobians) + 1


def sequential_inverse_kinematics(config, targets, seed):
    """The chained rule one target at a time: target i seeded from solution
    i - 1, target 0 from seed."""
    out = []
    for target in targets:
        seed = inverse_kinematics(config, target, seed)
        out.append(seed)
    return np.array(out)


def joint_path(config, n, seed):
    """n targets: the FK of a seeded walk of small joint steps from a start
    with the elbow and the wrist bent; the targets, the start and the walk."""
    rng = np.random.default_rng(seed)
    lo, hi = config.joint_limits[:, 0], config.joint_limits[:, 1]
    start = lo + (hi - lo) * (0.15 + 0.7 * rng.random(config.dof))
    start[2] = rng.uniform(-2.2, -0.6)
    start[4] = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 1.2)
    path = config.clamp(start + np.cumsum(rng.uniform(-0.04, 0.04, (n, config.dof)), axis=0))
    return [forward_kinematics(config, q) for q in path], start, path


# a wrist motion through the wrist's singular point q4 = 0 with the elbow
# nearly straight: iterated from the start alone, the later targets land on
# the mirrored elbow branch
BRANCH_START = np.array([-0.45, -0.55, -0.37, -1.2, -0.1, 1.3])
BRANCH_END = np.array([-0.45, -0.55, -0.37, 0.05, 1.4, 0.65])


class TestLockstepIk:
    @settings(max_examples=25)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_sequential_chained_solve(self, arm6, n, seed):
        targets, start, path = joint_path(arm6, n, seed)
        # near a singular configuration the tolerances leave the joints
        # free, and the two solves may stop far apart on the same branch
        assume(min(np.linalg.svd(jacobian(arm6, q), compute_uv=False)[-1] for q in [start, *path]) >= 0.05)
        expected = sequential_inverse_kinematics(arm6, targets, start)
        q = inverse_kinematics(arm6, targets, start)
        assert q.shape == (n, arm6.dof)
        for target, got, want in zip(targets, q, expected):
            err = pose_error(target, fk_transform(arm6, got))
            assert np.linalg.norm(err[:3]) <= chain.IK_POS_TOL
            assert np.linalg.norm(err[3:]) <= chain.IK_ORI_TOL
            # both stop anywhere inside the tolerances, so they differ by
            # what their two residuals explain through the Jacobian, to
            # first order, and no more: the same branch
            gap = err - pose_error(target, fk_transform(arm6, want))
            inverse_norm = np.linalg.norm(np.linalg.inv(jacobian(arm6, want)), 2)
            assert np.linalg.norm(got - want) <= 1.25 * inverse_norm * np.linalg.norm(gap) + 1e-9

    def test_packaged_requests_within_1e_3_rad_of_the_sequential_solve(self, arm6):
        for name in ("draw-line", "draw-circle", "chase", "teleop-replay"):
            script = load_scenario(data_path("scenarios", f"{name}.json"))
            for event in script.events:
                if event["action"] != "send_request":
                    continue
                targets = [Pose.from_vector(w["pose"]) for w in event["request"]["waypoints"]]
                expected = sequential_inverse_kinematics(arm6, targets, script.q0)
                got = inverse_kinematics(arm6, targets, script.q0)
                assert np.abs(got - expected).max() <= 1e-3, (name, event["request"]["id"])

    def test_branch_crossing_falls_back_to_the_sequential_branch(self, arm6, monkeypatch):
        path = BRANCH_START + np.linspace(0.0, 1.0, 9)[1:, None] * (BRANCH_END - BRANCH_START)
        targets = [forward_kinematics(arm6, q) for q in path]
        expected = sequential_inverse_kinematics(arm6, targets, BRANCH_START)
        goals = np.array([make_transform(t.translation, t.rpy) for t in targets])
        lockstep, _, converged = chain._lockstep(arm6, goals, BRANCH_START)
        assert converged.all()
        assert np.abs(lockstep - expected).max() > chain.IK_BRANCH_STEP
        calls = []
        solve = chain._lockstep
        monkeypatch.setattr(chain, "_lockstep", lambda *a: calls.append(1) or solve(*a))
        q = inverse_kinematics(arm6, targets, BRANCH_START)
        assert len(calls) > 1
        assert np.abs(q - expected).max() <= 1e-3
        assert np.abs(np.diff(q, axis=0)).max() <= chain.IK_BRANCH_STEP

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_unreachable_target_is_named(self, arm6, k):
        targets, start, _ = joint_path(arm6, 7, 5)
        targets[k] = Pose(np.array([3.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(IkConvergenceError) as excinfo:
            inverse_kinematics(arm6, targets, start)
        assert excinfo.value.index == k
        assert excinfo.value.position_error > chain.IK_POS_TOL
        request = planner.PlanRequest("sim", tuple(planner.CartesianWaypoint(t, 0.5) for t in targets), "far")
        with pytest.raises(planner.IkFailure) as failure:
            planner.plan(request, arm6, planner.RobotState.rest(start))
        assert failure.value.waypoint_index == k
        assert f"waypoint {k}" in str(failure.value) and "position error" in str(failure.value)

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
    def test_one_walk_per_lockstep_iteration_plus_the_seed(self, arm6, monkeypatch, n):
        targets, start, _ = joint_path(arm6, n, 11)
        walks, jacobians = [], []
        frames, jac = chain._frames, chain.jacobian
        monkeypatch.setattr(chain, "_frames", lambda *a: walks.append(1) or frames(*a))
        monkeypatch.setattr(chain, "jacobian", lambda *a: jacobians.append(1) or jac(*a))
        inverse_kinematics(arm6, targets, start)
        assert len(jacobians) >= 1
        assert len(walks) == len(jacobians) + 1


class TestConfigValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError, match="min < max"):
            ChainConfig(
                axes=np.array([[0.0, 0.0, 1.0]]),
                offsets=np.eye(4)[None],
                joint_limits=np.array([[1.0, -1.0]]),
                v_max=np.array([1.0]),
                a_max=np.array([1.0]),
                control_frequency=100.0,
                ee_transform=np.eye(4),
            )

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit vector"):
            ChainConfig(
                axes=np.array([[0.0, 0.0, 2.0]]),
                offsets=np.eye(4)[None],
                joint_limits=np.array([[-1.0, 1.0]]),
                v_max=np.array([1.0]),
                a_max=np.array([1.0]),
                control_frequency=100.0,
                ee_transform=np.eye(4),
            )

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(4)
        bad[0, 0] = 1.5
        with pytest.raises(ValueError, match="orthonormal"):
            ChainConfig(
                axes=np.array([[0.0, 0.0, 1.0]]),
                offsets=bad[None],
                joint_limits=np.array([[-1.0, 1.0]]),
                v_max=np.array([1.0]),
                a_max=np.array([1.0]),
                control_frequency=100.0,
                ee_transform=np.eye(4),
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("v_max", np.full(6, np.nan), "v_max must be positive and finite"),
            ("v_max", np.full(6, np.inf), "v_max must be positive and finite"),
            ("a_max", np.full(6, np.nan), "a_max must be positive and finite"),
            ("control_frequency", np.nan, "control_frequency must be positive and finite"),
            ("control_frequency", np.inf, "control_frequency must be positive and finite"),
            ("joint_limits", np.full((6, 2), np.nan), "finite with min < max"),
            ("joint_limits", np.tile([-np.inf, 1.0], (6, 1)), "finite with min < max"),
        ],
        ids=["nan v_max", "inf v_max", "nan a_max", "nan rate", "inf rate", "nan limits", "inf limit"],
    )
    def test_rejects_non_finite_limits_and_rate(self, arm6, field, value, message):
        # every comparison with NaN is False, so a sign check alone passes it
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(arm6, **{field: value})

    @pytest.mark.parametrize(
        "joint, row, col, value, message",
        [
            (2, 0, 3, np.nan, "joint 2 offset is not finite"),
            (0, 1, 1, np.inf, "joint 0 offset is not finite"),
            (None, 2, 3, -np.inf, "ee_transform is not finite"),
            (None, 0, 1, np.nan, "ee_transform is not finite"),
        ],
        ids=["nan offset xyz", "inf offset rotation", "inf ee xyz", "nan ee rotation"],
    )
    def test_rejects_non_finite_geometry(self, arm6, joint, row, col, value, message):
        # a NaN translation would otherwise load and fail only at the first FK
        offsets, ee_transform = arm6.offsets.copy(), arm6.ee_transform.copy()
        (ee_transform if joint is None else offsets[joint])[row, col] = value
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(arm6, offsets=offsets, ee_transform=ee_transform)

    def test_rejects_an_ee_transform_that_is_not_4x4(self, arm6):
        with pytest.raises(ValueError, match=r"ee_transform \(4, 4\)"):
            dataclasses.replace(arm6, ee_transform=np.eye(3))
