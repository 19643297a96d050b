"""rtmotion: streams time-parameterized Cartesian waypoints into smooth,
minimum-jerk, limit-respecting joint trajectories and executes them against a
simulated arm at a fixed control frequency.
"""

from rtmotion.chain import ChainConfig, Pose, forward_kinematics, inverse_kinematics, jacobian, load_chain
from rtmotion.planner import CartesianWaypoint, Plan, PlanRequest, RobotState, plan, reference_at

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "Pose",
    "forward_kinematics",
    "inverse_kinematics",
    "jacobian",
    "load_chain",
    "CartesianWaypoint",
    "Plan",
    "PlanRequest",
    "RobotState",
    "plan",
    "reference_at",
    "__version__",
]
