"""``repro.core`` — a from-scratch stochastic colored Petri-net engine.

This package is the reproduction's substitute for TimeNET 4.0, the
closed-source tool the paper used to build and simulate its EDSPN/SCPN
models.  It provides:

* net structure: :class:`~repro.core.net.PetriNet`,
  :class:`~repro.core.places.Place`,
  :class:`~repro.core.transitions.Transition`, arcs and colored tokens;
* timing: immediate / deterministic / exponential (and more) firing
  distributions with priorities, weights and memory policies;
* guards: the composable ``#place op n`` algebra of the paper's
  Table XI plus colour-level local guards;
* simulation: the next-event token game with time-weighted steady-state
  statistics and batch-means confidence intervals.

Quickstart::

    from repro.core import (
        PetriNet, Deterministic, Exponential, simulate, tokens_gt,
    )

    net = PetriNet("mm1")
    net.add_place("queue")
    net.add_place("source", initial_tokens=1)
    net.add_transition(
        "arrive", Exponential(1.0),
        inputs=["source"], outputs=["source", "queue"],
    )
    net.add_transition("serve", Exponential(2.0), inputs=["queue"])
    result = simulate(net, horizon=10_000.0, seed=7)
    print(result.mean_tokens("queue"))   # ≈ rho/(1-rho) = 1.0
"""

from .arcs import FiringContext, InhibitorArc, InputArc, OutputArc, ResetArc
from .distributions import (
    Deterministic,
    Empirical,
    Erlang,
    Exponential,
    FiringDistribution,
    Hyperexponential,
    Immediate,
    LogNormal,
    Triangular,
    Uniform,
    Weibull,
)
from .convergence import PrecisionResult, simulate_to_precision
from .errors import (
    AnalysisError,
    ArcError,
    CapacityError,
    DeadlockError,
    DuplicateNameError,
    GuardError,
    ImmediateLoopError,
    NetStructureError,
    NotExponentialError,
    PetriNetError,
    SimulationError,
    TokenSelectionError,
    UnboundedNetError,
    UnknownElementError,
)
from .guards import (
    FALSE,
    TRUE,
    FunctionGuard,
    Guard,
    color_eq,
    color_in,
    color_pred,
    tokens_between,
    tokens_eq,
    tokens_ge,
    tokens_gt,
    tokens_le,
    tokens_lt,
    tokens_ne,
)
from .marking import Marking, MarkingView
from .net import PetriNet
from .places import Place
from .simulator import Simulation, SimulationResult, simulate
from .statistics import (
    BatchMeans,
    ConfidenceInterval,
    PredicateStatistic,
    StatisticsCollector,
    TimeWeightedAccumulator,
    TransitionCounter,
)
from .tokens import BLACK, Token, TokenBag
from .transitions import INFINITE_SERVERS, MemoryPolicy, Transition
from .validation import ValidationIssue, ValidationReport, validate_net

__all__ = [
    # net structure
    "PetriNet",
    "Place",
    "Transition",
    "InputArc",
    "OutputArc",
    "InhibitorArc",
    "ResetArc",
    "FiringContext",
    "Token",
    "TokenBag",
    "BLACK",
    "Marking",
    "MarkingView",
    "MemoryPolicy",
    "INFINITE_SERVERS",
    # distributions
    "FiringDistribution",
    "Immediate",
    "Deterministic",
    "Exponential",
    "Uniform",
    "Erlang",
    "Weibull",
    "Triangular",
    "LogNormal",
    "Hyperexponential",
    "Empirical",
    # guards
    "Guard",
    "FunctionGuard",
    "TRUE",
    "FALSE",
    "tokens_eq",
    "tokens_ne",
    "tokens_gt",
    "tokens_ge",
    "tokens_lt",
    "tokens_le",
    "tokens_between",
    "color_eq",
    "color_in",
    "color_pred",
    # simulation
    "Simulation",
    "SimulationResult",
    "simulate",
    "simulate_to_precision",
    "PrecisionResult",
    # statistics
    "StatisticsCollector",
    "TimeWeightedAccumulator",
    "PredicateStatistic",
    "TransitionCounter",
    "BatchMeans",
    "ConfidenceInterval",
    # validation
    "validate_net",
    "ValidationReport",
    "ValidationIssue",
    # errors
    "PetriNetError",
    "NetStructureError",
    "DuplicateNameError",
    "UnknownElementError",
    "ArcError",
    "GuardError",
    "CapacityError",
    "TokenSelectionError",
    "SimulationError",
    "ImmediateLoopError",
    "DeadlockError",
    "AnalysisError",
    "UnboundedNetError",
    "NotExponentialError",
]
