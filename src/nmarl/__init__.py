"""Networked multi-agent RL with coupled softmax policies and push-sum tracking.

The package splits into graph utilities (:mod:`nmarl.netgraph`), the
factored model (:mod:`nmarl.model`), the coupled policy family
(:mod:`nmarl.policy`), the two-horizon gradient estimator
(:mod:`nmarl.estimator`), the push-sum protocol (:mod:`nmarl.pushsum`),
the training loop (:mod:`nmarl.trainer`), exact dynamic-programming
evaluators (:mod:`nmarl.oracle`), concrete environments
(:mod:`nmarl.envs`), and a config-driven CLI (:mod:`nmarl.cli`).
"""

from .estimator import (
    GradientEstimate,
    TwoHorizonRollout,
    estimate_bound,
    gradient_estimate,
    q_estimate,
    rollout_two_horizon,
    sample_geometric,
)
from .model import FactoredNmarlModel, point_starts
from .netgraph import (
    AgentGraph,
    build_graph,
    khop,
    max_neighborhood_size,
    ring_graph,
    weight_matrix,
)
from .policy import CoupledSoftmaxPolicy, MixingSpec
from .pushsum import PushSumState, consensus_error, init_state, inject_all, mix_and_estimate
from .trainer import DscpConfig, TrainRecord, evaluate_policy, learning_rate, run_dscp

__version__ = "0.1.0"

__all__ = [
    "AgentGraph",
    "CoupledSoftmaxPolicy",
    "DscpConfig",
    "FactoredNmarlModel",
    "GradientEstimate",
    "MixingSpec",
    "PushSumState",
    "TrainRecord",
    "TwoHorizonRollout",
    "build_graph",
    "consensus_error",
    "estimate_bound",
    "evaluate_policy",
    "gradient_estimate",
    "init_state",
    "inject_all",
    "khop",
    "learning_rate",
    "max_neighborhood_size",
    "mix_and_estimate",
    "point_starts",
    "q_estimate",
    "ring_graph",
    "rollout_two_horizon",
    "run_dscp",
    "sample_geometric",
    "weight_matrix",
    "__version__",
]
