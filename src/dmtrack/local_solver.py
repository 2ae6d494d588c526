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

MAX_INNER = 100_000


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


def _maximum_then_minimum(q, lower, upper, out):
    return np.minimum(np.maximum(q, lower, out=out), upper, out=out)


# clip(q, lower, upper, out) projects onto the box; numpy >= 2's clip ufunc gives
# the bytes of maximum, then minimum, in one call, and the two calls stand in elsewhere
clip = getattr(getattr(getattr(np, "_core", None), "umath", None), "clip", _maximum_then_minimum)


def diagonal_argmin(c, v, diag, lower, upper, out=None):
    """The exact minimizer for diagonal U, coordinatewise over stacked c, into out if given."""
    q = np.subtract(c, v, out)
    q /= diag
    return clip(q, lower, upper, q)


def argmin_rows(cost, box, c, out=None):
    """argmin_local for each row of c, shape (rows, p); diagonal U solves all rows at once,
    into out if given. A non-diagonal U's row whose c is not finite gets NaN, not a raise."""
    if cost.diag is not None:
        return diagonal_argmin(c, cost.v, cost.diag, box.lower, box.upper, out)
    nan = np.full(cost.p, np.nan)
    return np.array([argmin_local(cost, box, r).x if np.isfinite(r).all() else nan for r in c])


def argmin_local(cost, box, c):
    """Global minimizer of 0.5 z^T U z + v^T z - c^T z over the box.

    Parameters
    ----------
    cost : QuadraticCost
    box : BoxSet
    c : array, shape (p,)
        Precomputed A_i^T mu_i. For non-diagonal U, a non-finite c raises
        SolverFailure at once, and so do MAX_INNER steps short of the tolerance.
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
    if not np.isfinite(c).all():
        raise SolverFailure(f"linear term c = {c} is not finite")

    # general U: projected gradient from the projected unconstrained minimizer
    x = box.project(np.linalg.solve(U, c - v))
    step = 1.0 / cost.L
    for _ in range(MAX_INNER):
        grad = U @ x + v - c
        res = box_kkt_residual(grad, x, lo, hi)
        if res <= tol:
            return ArgminResult(x=x, kkt_residual=res)
        x = np.clip(x - step * grad, lo, hi)
    raise SolverFailure(
        f"projected gradient did not reach tolerance {tol:.2e} within {MAX_INNER} steps"
    )


def solve_all_from_c(instance, c):
    """Vectorized x-update for all agents given their linear terms c_i = A_i^T mu_i.

    Diagonal instances use the closed form across agents in one shot; otherwise
    agents are solved individually. c has shape (n, p), or (T, n, p) for a
    batch of T trials. Every (trial, agent) is solved; if any fails, one
    SolverFailure names every failing trial, with the message of the first
    failure, which names its agent and, for a batch, its trial.
    """
    if instance.diag is not None:
        return diagonal_argmin(c, instance.v, instance.diag, instance.lower, instance.upper)
    batch = c.reshape((-1,) + c.shape[-2:])
    out = np.empty(batch.shape)
    first, failed = None, []
    for t, ct in enumerate(batch):
        for i, a in enumerate(instance.agents):
            try:
                out[t, i] = argmin_local(a.cost, a.box, ct[i]).x
            except SolverFailure as exc:
                where = f"agent {i}" if c.ndim == 2 else f"trial {t}, agent {i}"
                first = first or (f"{where}: {exc}", exc)
                if t not in failed:
                    failed.append(t)
    if first:
        raise SolverFailure(first[0], trials=failed) from first[1]
    return out.reshape(c.shape)
