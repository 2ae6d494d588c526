"""Per-agent x-update: argmin over the box of f_i(z) - mu^T A_i z.

Writing c = A_i^T mu, the subproblem is min_{z in X_i} 0.5 z^T U z + v^T z - c^T z.
Diagonal U admits an exact per-coordinate closed form; general U uses projected
gradient with stepsize 1/L_i. The returned map z(c) is the gradient of the
convex conjugate of f_i + indicator(X_i) and is (1/phi_i)-Lipschitz in c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverFailure

MAX_INNER_DEFAULT = 100_000

# Off-diagonal entries below this fraction of the diagonal scale count as zero.
DIAG_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class ArgminResult:
    x: np.ndarray
    kkt_residual: float


def inner_tolerance(c):
    """Inner solver tolerance, two orders tighter than engine-level tolerances."""
    return 1e-11 * max(1.0, float(np.linalg.norm(c)))


def _kkt_violation(grad, x, lo, hi):
    """Componentwise optimality violation for box-constrained minimization.

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
    return viol


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

    diag = np.diag(U)
    off_mass = np.abs(U - np.diag(diag)).max() if cost.p > 1 else 0.0
    if off_mass <= DIAG_RTOL * max(1.0, np.abs(diag).max()):
        # exact closed form, coordinatewise
        x = np.clip((c - v) / diag, lo, hi)
        grad = diag * x + v - c
        res = float(np.linalg.norm(_kkt_violation(grad, x, lo, hi)))
        return ArgminResult(x=x, kkt_residual=res)

    # general U: projected gradient from the projected unconstrained minimizer
    x = box.project(np.linalg.solve(U, c - v))
    step = 1.0 / cost.L
    for _ in range(max_inner):
        grad = U @ x + v - c
        res = float(np.linalg.norm(_kkt_violation(grad, x, lo, hi)))
        if res <= tol:
            return ArgminResult(x=x, kkt_residual=res)
        x = np.clip(x - step * grad, lo, hi)
    raise SolverFailure(
        f"projected gradient did not reach tolerance {tol:.2e} within {max_inner} steps"
    )


def conjugate_smoothness_check(cost, box, mu1, mu2, A, slack=1e-9):
    """Verify ||x(mu1) - x(mu2)|| <= (1/phi_i) ||A^T (mu1 - mu2)||.

    This is the Lipschitz smoothness of the conjugate map; equality is attained
    for unconstrained quadratics, so a small slack absorbs inner-solver error.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    x1 = argmin_local(cost, box, A.T @ mu1).x
    x2 = argmin_local(cost, box, A.T @ mu2).x
    lhs = np.linalg.norm(x1 - x2)
    rhs = np.linalg.norm(A.T @ (mu1 - mu2)) / cost.phi
    return bool(lhs <= rhs + slack * max(1.0, rhs))


def solve_all(instance, mu, max_inner=MAX_INNER_DEFAULT):
    """Vectorized x-update for all agents given stacked duals mu of shape (n, m).

    Diagonal instances use the closed form across agents in one shot; otherwise
    agents are solved individually. Solver failures carry the agent index.
    """
    stk = _stacked(instance)
    mu = np.asarray(mu, dtype=float).reshape(instance.n, instance.m)
    c = np.einsum("imp,im->ip", stk["A"], mu)
    return solve_all_from_c(instance, c, stk=stk, max_inner=max_inner)


def solve_all_from_c(instance, c, stk=None, max_inner=MAX_INNER_DEFAULT):
    """Like solve_all but taking precomputed linear terms c_i = A_i^T mu_i.

    c has shape (n, p), or (T, n, p) for a batch of T trials; a solver
    failure names the agent and, for a batch, the failing trial.
    """
    if stk is None:
        stk = _stacked(instance)
    if stk["diag"] is not None:
        return np.clip((c - stk["v"]) / stk["diag"], stk["lo"], stk["hi"])
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


_STACK_CACHE = {}


def _stacked(instance):
    """Stack per-agent arrays once per instance; cached by identity."""
    key = id(instance)
    hit = _STACK_CACHE.get(key)
    if hit is not None and hit[0] is instance:
        return hit[1]
    A = np.stack([a.A for a in instance.agents])
    v = np.stack([a.cost.v for a in instance.agents])
    lo = np.stack([a.box.lower for a in instance.agents])
    hi = np.stack([a.box.upper for a in instance.agents])
    d = np.stack([a.d for a in instance.agents])
    diag = None
    if all(
        np.abs(a.cost.U - np.diag(np.diag(a.cost.U))).max()
        <= DIAG_RTOL * max(1.0, np.abs(np.diag(a.cost.U)).max())
        for a in instance.agents
    ):
        diag = np.stack([np.diag(a.cost.U) for a in instance.agents])
    stk = {"A": A, "v": v, "lo": lo, "hi": hi, "d": d, "diag": diag}
    _STACK_CACHE[key] = (instance, stk)
    if len(_STACK_CACHE) > 64:
        _STACK_CACHE.pop(next(iter(_STACK_CACHE)))
    return stk
