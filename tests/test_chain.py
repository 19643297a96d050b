import numpy as np
import pytest

from rtmotion import chain
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
