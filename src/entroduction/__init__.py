"""Entropy-guided multi-step reasoning for LLMs.

The controller watches how step entropy and variance entropy move between
consecutive reasoning steps, picks deepen / expand / stop epsilon-greedily,
and votes over chain conclusions. Scripted and synthetic backends make every
formula and control path testable without a model.
"""

from .metrics import (
    StepMetrics,
    TokenRecord,
    compute_step_metrics,
    normalized_step_entropy,
    normalized_variance_entropy,
    step_entropy,
    step_softmax,
    variance_entropy,
)
from .policy import (
    Action,
    MetricMode,
    PolicyConfig,
    PolicyState,
    action_distribution,
    classify,
    sample_action,
)
from .structure import Chain, ChainStatus, ReasoningNode, ReasoningStructure, create_structure
from .engine import (
    ExecutedBehavior,
    RunConfig,
    RunResult,
    TraceEvent,
    chain_conclusions,
    majority_vote,
    run_task,
)

__version__ = "0.1.0"

__all__ = [
    "TokenRecord",
    "StepMetrics",
    "step_softmax",
    "step_entropy",
    "normalized_step_entropy",
    "variance_entropy",
    "normalized_variance_entropy",
    "compute_step_metrics",
    "Chain",
    "ChainStatus",
    "ReasoningNode",
    "ReasoningStructure",
    "create_structure",
    "Action",
    "MetricMode",
    "PolicyConfig",
    "PolicyState",
    "classify",
    "action_distribution",
    "sample_action",
    "ExecutedBehavior",
    "RunConfig",
    "RunResult",
    "TraceEvent",
    "run_task",
    "majority_vote",
    "chain_conclusions",
    "__version__",
]
