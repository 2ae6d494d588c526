"""Centralized reference solver for the coupled allocation problem.

Solves min sum_i f_i(x_i) s.t. sum_i A_i x_i = sum_i d_i, x_i in X_i by
ascent on the concave dual

    g(mu) = sum_i min_{x in X_i} { f_i(x) - mu^T A_i x } + mu^T sum_i d_i,

whose gradient sum_i d_i - sum_i A_i x_i(mu) is Lipschitz with constant
sum_i ||A_i||^2 / phi_i, giving a safe fixed stepsize. Strong duality holds
(convex costs, polyhedral sets, feasible interior), so a vanishing dual
gradient certifies primal optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, SolverFailure
from .local_solver import solve_all


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


def solve_dual(instance, tol=1e-10, max_outer=1_000_000):
    """Dual ascent to ||grad g|| <= tol; raises if infeasible or not converged."""
    n, m, p = instance.dims
    _feasibility_precheck(instance)
    L_dual = sum(ag.A_norm**2 / ag.cost.phi for ag in instance.agents)
    step = 1.0 / L_dual
    total = instance.total_demand

    mu = np.zeros(m)
    gap = np.inf
    for it in range(1, max_outer + 1):
        x = solve_all(instance, np.broadcast_to(mu, (n, m)))
        grad = total - np.einsum("imp,ip->m", instance.A, x)
        gap = float(np.linalg.norm(grad))
        if gap <= tol:
            return OptSolution(
                x_star=x,
                mu_star=mu.copy(),
                objective=float(instance.objective(x)),
                gap=gap,
                iterations=it,
            )
        mu = mu + step * grad
    raise SolverFailure(
        f"dual ascent did not reach tol={tol:g} in {max_outer} iterations "
        f"(final gradient norm {gap:.3e})"
    )


def verify_against_grid(instance, sol, resolution=1e-3, margin=1e-4):
    """Check sol against a brute-force search on the constraint manifold.

    Only small problems are supported: scalar coupling (m = 1), finite boxes,
    and at most 4 primal dimensions in total. One coordinate is eliminated
    through the equality constraint and the rest are scanned on a
    successively refined grid down to the requested resolution. Returns True
    when the solver's objective is within `margin` of the best grid point
    (grids cannot beat the true optimum on a convex objective, so a genuine
    optimum always passes).
    """
    n, m, p = instance.dims
    if m != 1 or n * p > 4:
        raise ValueError("unsupported instance: grid check needs m = 1 and n*p <= 4")
    for ag in instance.agents:
        if not (np.all(np.isfinite(ag.box.lower)) and np.all(np.isfinite(ag.box.upper))):
            raise ValueError("unsupported instance: grid check needs finite boxes")

    D = float(instance.total_demand[0])
    P = n * p
    coeff = instance.A[:, 0].reshape(P)
    lo = instance.lower.reshape(P)
    hi = instance.upper.reshape(P)

    # the claimed solution must itself be feasible and consistently priced
    x = np.asarray(sol.x_star, dtype=float).reshape(P)
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        return False
    if abs(float(coeff @ x) - D) > 1e-7 * (1.0 + abs(D)):
        return False
    claimed = float(instance.objective(x.reshape(n, p)))
    if abs(claimed - sol.objective) > 1e-6 * (1.0 + abs(claimed)):
        return False

    nonzero = np.flatnonzero(np.abs(coeff) > 1e-12)
    if nonzero.size == 0:
        raise ValueError("unsupported instance: constraint touches no coordinate")
    e = int(nonzero[-1])
    free = [j for j in range(P) if j != e]

    U_stack = np.stack([ag.cost.U for ag in instance.agents])  # (n, p, p)
    w_total = sum(ag.cost.w for ag in instance.agents)

    def total_cost(grid):
        # grid: (..., len(free)) values of the free coordinates
        xe = (D - grid @ coeff[free]) / coeff[e]
        ok = (xe >= lo[e] - 1e-12) & (xe <= hi[e] + 1e-12)
        X = np.empty(grid.shape[:-1] + (P,))
        X[..., free] = grid
        X[..., e] = xe
        Xr = X.reshape(grid.shape[:-1] + (n, p))
        vals = (
            0.5 * np.einsum("...ip,ipq,...iq->...", Xr, U_stack, Xr)
            + np.einsum("ip,...ip->...", instance.v, Xr)
            + w_total
        )
        return np.where(ok, vals, np.inf)

    n_free = len(free)
    if n_free == 0:
        # single coordinate, fully pinned by the constraint
        xe = D / coeff[e]
        if xe < lo[e] - 1e-12 or xe > hi[e] + 1e-12:
            return False
        best = float(instance.objective(np.full((n, p), xe)))
        return sol.objective <= best + margin

    points = 1025 if n_free == 1 else 33
    centers = (lo[free] + hi[free]) / 2.0
    spans = (hi[free] - lo[free]) / 2.0
    best = np.inf
    while True:
        axes = [
            np.clip(
                np.linspace(centers[j] - spans[j], centers[j] + spans[j], points),
                lo[free[j]],
                hi[free[j]],
            )
            for j in range(n_free)
        ]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = total_cost(grid)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[idx]))
        spacing = 2.0 * spans / (points - 1)
        if np.all(spacing <= resolution):
            break
        centers = np.array([axes[j][idx[j]] for j in range(n_free)])
        spans = np.minimum(1.5 * spacing, spans)
    if not np.isfinite(best):
        return False
    return sol.objective <= best + margin
