"""Centralized reference solver for the coupled allocation problem.

Solves min sum_i f_i(x_i) s.t. sum_i A_i x_i = sum_i d_i, x_i in X_i by
ascent on the concave dual

    g(mu) = sum_i min_{x in X_i} { f_i(x) - mu^T A_i x } + mu^T sum_i d_i,

whose gradient sum_i d_i - sum_i A_i x_i(mu) is Lipschitz with constant
sum_i ||A_i||^2 / phi_i, giving a safe fixed stepsize. Strong duality holds
(convex costs, polyhedral sets, feasible interior), so a vanishing dual
gradient certifies primal optimality. `kkt_residual` checks the returned
pair against the optimality conditions directly, on any instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, SolverFailure
from .local_solver import box_kkt_residual, solve_all_from_c

# kkt_residual's bound, relative to 1 + ||D||; solve_dual stops at a coupling residual of DUAL_TOL
KKT_TOL = 1e-9
DUAL_TOL = 1e-10
MAX_OUTER = 1_000_000


@dataclass(frozen=True, eq=False)
class OptSolution:
    """Primal/dual optimizer with solver diagnostics."""

    x_star: np.ndarray  # (n, p)
    mu_star: np.ndarray  # (m,)
    objective: float
    gap: float  # final dual gradient norm
    iterations: int


def _feasibility_precheck(instance):
    """Coordinatewise range check of sum_i A_i x_i over the boxes.

    Exact for m = 1 and a valid necessary condition for any m: the r-th
    coupling coordinate can reach at most the interval hull below.
    """
    n, m, p = instance.dims
    total = instance.total_demand
    lo_reach = np.zeros(m)
    hi_reach = np.zeros(m)
    for ag in instance.agents:
        lo, hi = ag.box.lower, ag.box.upper
        for r in range(m):
            row = ag.A[r]
            # support of row^T x over [lo, hi], per coordinate sign split
            hi_reach[r] += np.sum(np.where(row >= 0, row * hi, row * lo))
            lo_reach[r] += np.sum(np.where(row >= 0, row * lo, row * hi))
    tol = 1e-9 * (1.0 + np.abs(total))
    bad = (total < lo_reach - tol) | (total > hi_reach + tol)
    if np.any(bad):
        r = int(np.argmax(bad))
        raise InfeasibleProblemError(
            f"coupling coordinate {r}: demand {total[r]:.6g} outside reachable "
            f"range [{lo_reach[r]:.6g}, {hi_reach[r]:.6g}]"
        )


def solve_dual(instance):
    """Dual ascent to ||grad g|| <= DUAL_TOL; raises if infeasible or past MAX_OUTER steps."""
    n, m, p = instance.dims
    _feasibility_precheck(instance)
    L_dual = sum(ag.A_norm**2 / ag.cost.phi for ag in instance.agents)
    step = 1.0 / L_dual
    total = instance.total_demand
    A = instance.A

    mu = np.zeros(m)
    gap = np.inf
    for it in range(1, MAX_OUTER + 1):
        x = solve_all_from_c(instance, np.einsum("imp,im->ip", A, np.broadcast_to(mu, (n, m))))
        grad = total - np.einsum("imp,ip->m", A, x)
        gap = float(np.linalg.norm(grad))
        if gap <= DUAL_TOL:
            return OptSolution(
                x_star=x,
                mu_star=mu.copy(),
                objective=float(instance.objective(x)),
                gap=gap,
                iterations=it,
            )
        mu = mu + step * grad
    raise SolverFailure(
        f"dual ascent did not reach tol={DUAL_TOL:g} in {MAX_OUTER} iterations "
        f"(final gradient norm {gap:.3e})"
    )


def kkt_residual(instance, sol):
    """Largest violation of the optimality conditions at (x*, mu*), over 1 + ||D||.

    Three conditions, for any n, m, p and any box: coupling feasibility
    ||sum_i A_i x_i - D||, each agent's distance from its box, and each
    agent's projected-gradient residual at c_i = A_i^T mu*, which vanishes
    exactly when x_i is the box-constrained argmin of f_i(z) - c_i^T z.
    Convexity makes the three together sufficient for optimality.
    """
    x, mu = sol.x_star, sol.mu_star
    total = instance.total_demand
    worst = float(np.linalg.norm(np.einsum("imp,ip->m", instance.A, x) - total))
    for ag, xi in zip(instance.agents, x):
        grad = ag.cost.gradient(xi) - ag.A.T @ mu
        outside = float(np.linalg.norm(xi - ag.box.project(xi)))
        worst = max(worst, outside, box_kkt_residual(grad, xi, ag.box.lower, ag.box.upper))
    return worst / (1.0 + float(np.linalg.norm(total)))
