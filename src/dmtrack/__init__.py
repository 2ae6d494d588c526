"""Differentially private distributed mismatch tracking, simulated and audited.

A toolkit for studying a masked dual-tracking algorithm for resource
allocation over undirected networks: agents minimize private quadratic costs
subject to a coupling equality constraint, exchange Laplace-masked dual and
tracker variables over a doubly stochastic gossip matrix, and trade
stationary accuracy against a differential privacy budget through the decay
and scale of the masks.

Subpackages by concern: topology (graphs and mixing matrices), problem
(costs, constraints, instances), local_solver (per-agent argmin updates),
noise (counter-based mask streams), engine (the round-based recursion),
oracle (centralized ground truth), theory (closed-form constants and
bounds), privacy_audit (forced-difference certification), harness + cli
(experiment orchestration).
"""

from .engine import EngineState, RunConfig, RunTrace, init_state, run
from .errors import (
    ConfigError,
    DmtrackError,
    InadmissibleDecayError,
    InfeasibleProblemError,
    SolverFailure,
)
from .harness import ExperimentConfig, PRESETS, materialize, run_experiment, sweep
from .local_solver import ArgminResult, argmin_local
from .noise import NoiseSchedule
from .oracle import OptSolution, kkt_residual, solve_dual
from .privacy_audit import (
    AdjacentPair,
    AuditReport,
    forced_difference_run,
    make_adjacent_pair,
)
from .problem import (
    AgentSpec,
    BoxSet,
    Moduli,
    ProblemInstance,
    QuadraticCost,
    moduli,
    shift_adjacent,
)
from .theory import (
    Certificate,
    MseBounds,
    QInterval,
    StepsizeBounds,
    TheoryConstants,
    certificate,
    contraction_C,
    mse_bounds,
    q_interval,
    stepsize_bounds,
    theory_constants,
)
from .topology import Graph, MixingMatrix, metropolis_weights, ring_plus_random, spectral_gap

__version__ = "0.1.0"

__all__ = [
    "AdjacentPair",
    "AgentSpec",
    "ArgminResult",
    "AuditReport",
    "BoxSet",
    "Certificate",
    "ConfigError",
    "DmtrackError",
    "EngineState",
    "ExperimentConfig",
    "Graph",
    "InadmissibleDecayError",
    "InfeasibleProblemError",
    "MixingMatrix",
    "Moduli",
    "MseBounds",
    "NoiseSchedule",
    "OptSolution",
    "PRESETS",
    "ProblemInstance",
    "QInterval",
    "QuadraticCost",
    "RunConfig",
    "RunTrace",
    "SolverFailure",
    "StepsizeBounds",
    "TheoryConstants",
    "argmin_local",
    "certificate",
    "contraction_C",
    "forced_difference_run",
    "init_state",
    "kkt_residual",
    "make_adjacent_pair",
    "materialize",
    "metropolis_weights",
    "moduli",
    "mse_bounds",
    "q_interval",
    "ring_plus_random",
    "run",
    "run_experiment",
    "shift_adjacent",
    "solve_dual",
    "spectral_gap",
    "stepsize_bounds",
    "sweep",
    "theory_constants",
]
