"""Differentially private distributed mismatch tracking, simulated and audited.

A toolkit for studying a masked dual-tracking algorithm for resource
allocation over undirected networks: agents minimize private quadratic costs
subject to a coupling equality constraint, exchange Laplace-masked dual and
tracker variables over a doubly stochastic gossip matrix, and trade
stationary accuracy against a differential privacy budget through the decay
and scale of the masks.

Modules by concern, each name imported from its module: topology (graphs
and mixing matrices), problem (costs, constraints, instances), local_solver
(per-agent argmin updates), noise (counter-based mask streams), engine (the
round-based recursion), oracle (centralized ground truth), theory
(closed-form constants and bounds), privacy_audit (forced-difference
certification), harness + cli (experiment orchestration).
"""

__version__ = "0.1.0"
