"""Planning toolkit for deterministic decentralized POMDPs."""

from .bestresponse import (
    BrDetPomdp,
    ExtState,
    build_br_detpomdp,
    build_init_detpomdp,
)
from .collecting import CollectingInstance, CollectingModel, CollectingSpec, collecting_generate
from .detpomdp import (
    SolveParams,
    SolveResult,
    belief_successors,
    exact_belief_vi,
    solve,
    upper_bound,
)
from .errors import InstanceFormatError, MissingStateError, PolicyFormatError, ResourceLimitError
from .evaluation import EvalReport, evaluate, exact_value, mc_value
from .fsc import Fsc, FscNode, JointPolicy, deserialize, serialize
from .idpp import IdppParams, InitResult, IterationRecord, RunResult, heuristic_init, run
from .mactp import MactpInstance, MactpModel, MactpSpec, mactp_generate
from .mdp import MdpPolicy, MdpValueTable, default_policy, value_iteration
from .model import (
    DetDecModel,
    SupportBelief,
    TabularModel,
    TransitionCache,
    enumerate_joint_actions,
)

__version__ = "0.1.0"

__all__ = [
    "BrDetPomdp", "ExtState", "build_br_detpomdp", "build_init_detpomdp",
    "CollectingInstance", "CollectingModel", "CollectingSpec", "collecting_generate",
    "SolveParams", "SolveResult", "belief_successors",
    "exact_belief_vi", "solve", "upper_bound",
    "InstanceFormatError", "MissingStateError", "PolicyFormatError", "ResourceLimitError",
    "EvalReport", "evaluate", "exact_value", "mc_value",
    "Fsc", "FscNode", "JointPolicy", "deserialize", "serialize",
    "IdppParams", "InitResult", "IterationRecord", "RunResult",
    "heuristic_init", "run",
    "MactpInstance", "MactpModel", "MactpSpec", "mactp_generate",
    "MdpPolicy", "MdpValueTable", "default_policy", "value_iteration",
    "DetDecModel", "SupportBelief", "TabularModel", "TransitionCache",
    "enumerate_joint_actions",
]
