"""Per-agent x-update: argmin over the box of f_i(z) - mu^T A_i z.

Writing c = A_i^T mu, the subproblem is min_{z in X_i} 0.5 z^T U z + v^T z - c^T z.
Diagonal U (QuadraticCost.diag) admits an exact per-coordinate closed form;
general U uses projected gradient with stepsize 1/L_i. The returned map z(c)
is the gradient of the convex conjugate of f_i + indicator(X_i) and is
(1/phi_i)-Lipschitz in c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

MAX_INNER_DEFAULT = 100_000


@dataclass(frozen=True, eq=False)
class ArgminResult:
    x: np.ndarray
    kkt_residual: float


def inner_tolerance(c):
    """Inner solver tolerance, two orders tighter than engine-level tolerances."""
    return 1e-11 * max(1.0, float(np.linalg.norm(c)))


def box_kkt_residual(grad, x, lo, hi):
    """Norm of the optimality violation of x in a box-constrained minimization.

    Interior coordinates must have zero gradient; at the lower bound only a
    negative gradient violates, at the upper bound only a positive one.
    Pinned coordinates (lo == hi) never violate.
    """
    viol = np.abs(grad).astype(float)
    at_lo = x <= lo
    at_hi = x >= hi
    viol[at_lo] = np.maximum(-grad[at_lo], 0.0)
    viol[at_hi] = np.maximum(grad[at_hi], 0.0)
    viol[lo == hi] = 0.0
    return float(np.linalg.norm(viol))


def diagonal_argmin(c, v, diag, lower, upper, out=None):
    """The exact minimizer for diagonal U, coordinatewise and broadcasting over stacked c.

    Given `out`, the minimizer is written there and c serves as scratch.
    """
    q = np.subtract(c, v, out=None if out is None else c)
    q /= diag
    x = np.maximum(q, lower, out=out)
    return np.minimum(x, upper, out=x)


def argmin_rows(cost, box, c):
    """argmin_local for each row of c, shape (rows, p); diagonal U solves all rows at once."""
    if cost.diag is not None:
        return diagonal_argmin(c, cost.v, cost.diag, box.lower, box.upper)
    return np.array([argmin_local(cost, box, row).x for row in c])


def argmin_local(cost, box, c, max_inner=MAX_INNER_DEFAULT):
    """Global minimizer of 0.5 z^T U z + v^T z - c^T z over the box.

    Parameters
    ----------
    cost : QuadraticCost
    box : BoxSet
    c : array, shape (p,)
        Precomputed A_i^T mu_i.
    max_inner : int
        Budget for the projected-gradient path; exceeding it raises SolverFailure.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (cost.p,):
        raise ValueError(f"c has shape {c.shape}, expected ({cost.p},)")
    if box.p != cost.p:
        raise ValueError("box dimension does not match cost dimension")
    U, v = cost.U, cost.v
    lo, hi = box.lower, box.upper
    tol = inner_tolerance(c)

    diag = cost.diag
    if diag is not None:
        x = diagonal_argmin(c, v, diag, lo, hi)
        grad = diag * x + v - c
        res = box_kkt_residual(grad, x, lo, hi)
        return ArgminResult(x=x, kkt_residual=res)

    # general U: projected gradient from the projected unconstrained minimizer
    x = box.project(np.linalg.solve(U, c - v))
    step = 1.0 / cost.L
    for _ in range(max_inner):
        grad = U @ x + v - c
        res = box_kkt_residual(grad, x, lo, hi)
        if res <= tol:
            return ArgminResult(x=x, kkt_residual=res)
        x = np.clip(x - step * grad, lo, hi)
    raise SolverFailure(
        f"projected gradient did not reach tolerance {tol:.2e} within {max_inner} steps"
    )


def solve_all_from_c(instance, c, max_inner=MAX_INNER_DEFAULT):
    """Vectorized x-update for all agents given their linear terms c_i = A_i^T mu_i.

    Diagonal instances use the closed form across agents in one shot; otherwise
    agents are solved individually. c has shape (n, p), or (T, n, p) for a
    batch of T trials; a solver failure names the agent and, for a batch, the
    failing trial.
    """
    if instance.diag is not None:
        return diagonal_argmin(c, instance.v, instance.diag, instance.lower, instance.upper)
    batch = c.reshape((-1,) + c.shape[-2:])
    out = np.empty(batch.shape)
    for t, ct in enumerate(batch):
        for i, a in enumerate(instance.agents):
            try:
                out[t, i] = argmin_local(a.cost, a.box, ct[i], max_inner=max_inner).x
            except SolverFailure as exc:
                where = f"agent {i}" if c.ndim == 2 else f"trial {t}, agent {i}"
                raise SolverFailure(f"{where}: {exc}", trials=[t]) from exc
    return out.reshape(c.shape)
