"""The closed-form rotations in rtmotion.chain against scipy's Rotation, which
serves here as the test oracle only: rtmotion itself does not import
scipy.spatial."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from rtmotion.chain import ChainConfig, Pose, fk_transform, pose_error, rotation_log, rpy_to_matrix

PROPERTY = settings(max_examples=200)
# products of a few unit-magnitude terms: within a few ulp of 1
ROTATION_ATOL = 1e-14
# angles within this of 0 or of pi are the log map's special cases
EDGE = 1e-9


@st.composite
def unit_axes(draw):
    v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(v)
    if norm < 0.1:
        v, norm = np.array([0.0, 0.0, 1.0]), 1.0
    return v / norm


angles = st.floats(-2 * math.pi, 2 * math.pi)
edge_angles = st.one_of(
    st.floats(0.0, EDGE),
    st.floats(math.pi - EDGE, math.pi),
)
rpys = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)


def axis_rotation(axis, angle):
    """The rotation the chain walk gives one joint about axis, at no offset."""
    joint = ChainConfig(
        axes=axis[None],
        offsets=np.eye(4)[None],
        joint_limits=[[-7.0, 7.0]],
        v_max=[1.0],
        a_max=[1.0],
        control_frequency=100.0,
        ee_transform=np.eye(4),
    )
    return fk_transform(joint, [angle])[:3, :3]


@PROPERTY
@given(axis=unit_axes(), angle=angles)
def test_axis_rotation_matches_from_rotvec(axis, angle):
    got = axis_rotation(axis, angle)
    want = Rotation.from_rotvec(axis * angle).as_matrix()
    np.testing.assert_allclose(got, want, rtol=0, atol=ROTATION_ATOL)


def _relative_rotation_error(rpy, rot):
    """pose_error's rotation part, and the matrix it takes the log of."""
    target = Pose(np.zeros(3), np.array(rpy))
    current = np.eye(4)
    current[:3, :3] = rot.T @ target.rotation_matrix()
    return pose_error(target, current)[3:], target.rotation_matrix() @ current[:3, :3].T


@PROPERTY
@given(rpy=rpys, axis=unit_axes(), angle=st.floats(0.0, math.pi))
def test_pose_error_rotation_matches_as_rotvec(rpy, axis, angle):
    got, rel = _relative_rotation_error(rpy, Rotation.from_rotvec(axis * angle).as_matrix())
    np.testing.assert_allclose(got, Rotation.from_matrix(rel).as_rotvec(), rtol=0, atol=1e-12)


@PROPERTY
@given(rpy=rpys, axis=unit_axes(), angle=edge_angles)
def test_pose_error_rotation_near_zero_and_pi(rpy, axis, angle):
    got, rel = _relative_rotation_error(rpy, Rotation.from_rotvec(axis * angle).as_matrix())
    want = Rotation.from_matrix(rel).as_rotvec()
    # at pi, axis * pi and -axis * pi are the same rotation
    gap = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
    assert gap <= 1e-9, (got, want)
    assert np.linalg.norm(got) <= math.pi + 1e-12


@PROPERTY
@given(axis=unit_axes(), angle=edge_angles)
def test_rotation_log_inverts_axis_rotation(axis, angle):
    got = rotation_log(axis_rotation(axis, angle))
    want = axis * angle
    gap = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
    assert gap <= 1e-9


def test_rotation_log_of_identity_and_half_turns():
    np.testing.assert_array_equal(rotation_log(np.eye(3)), np.zeros(3))
    for axis in np.eye(3):
        half_turn = 2.0 * np.outer(axis, axis) - np.eye(3)
        np.testing.assert_allclose(np.abs(rotation_log(half_turn)), math.pi * axis, atol=1e-15)
    np.testing.assert_allclose(rotation_log(rpy_to_matrix(0.0, 0.0, 0.3)), [0.0, 0.0, 0.3], atol=1e-15)


@PROPERTY
@given(st.lists(st.tuples(rpys, unit_axes(), st.floats(0.0, math.pi)), min_size=1, max_size=8))
def test_stacked_pose_error_matches_one_at_a_time(cases):
    targets = np.array([Pose(np.zeros(3), np.array(rpy)).rotation_matrix() for rpy, _, _ in cases])
    currents = np.zeros((len(cases), 4, 4))
    currents[:, :3, :3] = [Rotation.from_rotvec(axis * angle).as_matrix() for _, axis, angle in cases]
    goals = np.zeros((len(cases), 4, 4))
    goals[:, :3, :3] = targets
    stacked = pose_error(goals, currents)
    for (rpy, _, _), current, row in zip(cases, currents, stacked):
        np.testing.assert_array_equal(row, pose_error(Pose(np.zeros(3), np.array(rpy)), current))


def test_importing_rtmotion_does_not_import_scipy_spatial():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import rtmotion, rtmotion.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


RUNTIME_WITHOUT_SCIPY = """
import json, socket, sys
from rtmotion import cli, iface
from rtmotion.chain import forward_kinematics, load_chain

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

chain_path, waypoints_path, out_path = sys.argv[1:]
loaded = {"import": scipy_modules()}
assert cli.main(["plan", chain_path, waypoints_path, "--out", out_path]) == 0
loaded["plan"] = scipy_modules()
assert cli.main(["sim", "draw-line.json"]) == 0
loaded["sim"] = scipy_modules()
chain = load_chain(chain_path)
pose = forward_kinematics(chain, chain.mid_position()).to_vector().tolist()
request = {"id": "r1", "robot": "sim", "type": "rt-move-cartesian", "waypoints": [{"pose": pose, "duration": 0.5}]}
server = iface.RobotServer(chain)
server.start()
try:
    with socket.create_connection((server.host, server.port), timeout=5.0) as conn, conn.makefile("rb") as stream:
        conn.sendall((json.dumps(request) + "\\n").encode())
        while json.loads(stream.readline()).get("status") != "accepted":
            pass
finally:
    server.stop()
loaded["serve"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_the_runtime_loads_no_scipy(tmp_path):
    # scipy is a test extra, the oracle of these tests: importing the CLI,
    # planning a waypoint file, simulating a scenario and serving a request
    # must run on numpy alone
    src = Path(__file__).resolve().parents[1] / "src"
    data = src / "rtmotion" / "data"
    out = subprocess.run(
        [sys.executable, "-c", RUNTIME_WITHOUT_SCIPY, str(data / "chains" / "arm6.json"),
         str(data / "waypoints" / "line7.json"), str(tmp_path / "plan.csv")],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "plan": [], "sim": [], "serve": []}
