"""Shared fixtures and test helpers. The expensive Monte Carlo artifacts are
built once per session and reused by both the module tests and the acceptance
gate. The helpers are independent references for the tests: mask injection,
start states other than the engine's, mask logs, one stepwise round, a
written-out reference round, the fixed-point residual, box membership, the
audit grid sweep, the envelope and smoothness checks, and a brute-force grid
search that the oracle's optimum is compared against."""

import time
from unittest import mock

import numpy as np
import pytest

from dmtrack import engine
from dmtrack.engine import EngineState, RunConfig, run
from dmtrack.harness import PRESETS, ExperimentConfig, sweep
from dmtrack.local_solver import argmin_local, solve_all_from_c
from dmtrack.noise import NoiseSchedule, draw_rounds
from dmtrack.oracle import solve_dual
from dmtrack.privacy_audit import (
    audit_row,
    forced_difference_run,
    grid_schedules,
    make_adjacent_pair,
    monotone_flags,
)
from dmtrack.problem import moduli
from dmtrack.theory import stepsize_bounds
from dmtrack.topology import metropolis_weights


def build_preset(name):
    instance, graph = PRESETS[name]()
    W = metropolis_weights(graph)
    return instance, W, moduli(instance)


def mask_log(schedule, seeds, iters, m):
    """The masks of a run's rounds 0..iters-1: (eta, zeta), each (T, iters, n, m)."""
    eta, zeta = draw_rounds(schedule, range(iters), seeds, m)
    return eta.swapaxes(0, 1), zeta.swapaxes(0, 1)


def inject_masks(eta, zeta=None):
    """Patch the engine to feed the given (T, iters, n, m) masks instead of drawing them.

    Only a run whose schedule is not disabled asks for masks, so a test that
    injects must pass an enabled schedule. zeta defaults to zeros. Like
    noise.iter_masks, each round comes as one stacked (2, T, n, m) block
    [eta; zeta] with the running total of the tracker masks through it, here
    summed round by round; the injected masks stand in for any shared draws and
    are never absorbed (the engine's state argument is ignored).
    """
    eta = np.asarray(eta, dtype=float)
    zeta = np.zeros_like(eta) if zeta is None else np.asarray(zeta, dtype=float)

    def given_masks(schedule, seeds, iters, m, draws=None, state=None):
        assert eta.shape[0] == len(seeds) and eta.shape[1] >= iters, (eta.shape, seeds, iters)
        zeta_cum = np.zeros((len(seeds), m))
        for eta_k, zeta_k in zip(eta.swapaxes(0, 1)[:iters], zeta.swapaxes(0, 1)[:iters]):
            zeta_cum = zeta_cum + zeta_k.sum(axis=1)
            yield np.stack([eta_k, zeta_k]), zeta_cum

    return mock.patch.object(engine, "iter_masks", given_masks)


def kernel_round(instance, W, alpha, mu, x, y, Ax, eta=None, zeta=None):
    """(mu1, x1, y1, Ax1): one round of a (T, n, .) batch through the engine's round
    kernel, from a state row into a second row of the engine's state buffers."""
    T, n, m = mu.shape
    rows = engine._StateRows(2, T, n, m, x.shape[-1]).rows
    src, dst = rows
    src.mu[...], src.x[...], src.y[...], src.Ax[...] = mu, x, y, Ax
    masks = None if eta is None else np.stack([eta, zeta])
    engine._round_kernel(instance, W, alpha, T)(src, dst, masks)
    return dst.mu, dst.x, dst.y, dst.Ax


def step_once(state, instance, W, alpha, eta=None, zeta=None):
    """One round from `state` through the engine's round kernel, as a batch of one."""
    W = np.asarray(getattr(W, "W", W), dtype=float)
    Ax = np.einsum("imp,ip->im", instance.A, state.x)

    def batch(a):
        return None if a is None else np.asarray(a, dtype=float)[None]

    mu1, x1, y1, _ = kernel_round(
        instance, W, alpha, state.mu[None], state.x[None], state.y[None], Ax[None],
        batch(eta), batch(zeta),
    )
    return EngineState(mu=mu1[0], x=x1[0], y=y1[0], round=state.round + 1)


def start_state(instance, mu=None, x=None):
    """A round-0 state from the given duals and primal iterates (by default those of
    engine.init_state), with the tracker at the local mismatch, y(0) = A x(0) - d."""
    start = engine.init_state(instance)
    mu = start.mu if mu is None else np.asarray(mu, dtype=float).reshape(start.mu.shape)
    x = start.x if x is None else np.asarray(x, dtype=float).reshape(start.x.shape)
    y = np.einsum("imp,ip->im", instance.A, x) - instance.d
    return EngineState(mu=mu, x=x, y=y, round=0)


def starting_at(state):
    """Patch the engine to start every run from `state` instead of engine.init_state's."""
    return mock.patch.object(engine, "init_state", lambda instance: state)


def fixed_point_residual(state, instance, W):
    """(||(I - W) mu||, ||y||, ||sum_i (A_i x_i - d_i)||); all vanish at a fixed point."""
    W = np.asarray(getattr(W, "W", W), dtype=float)
    consensus_mu = float(np.linalg.norm(state.mu - W @ state.mu))
    y_norm = float(np.linalg.norm(state.y))
    mismatch = np.einsum("imp,ip->im", instance.A, state.x) - instance.d
    feasibility = float(np.linalg.norm(mismatch.sum(axis=0)))
    return consensus_mu, y_norm, feasibility


def box_contains(box, x, tol=1e-12):
    """Whether x lies in the box, up to a relative tolerance."""
    x = np.asarray(x, dtype=float)
    scale = 1.0 + np.abs(x)
    return bool(np.all(x >= box.lower - tol * scale) and np.all(x <= box.upper + tol * scale))


def reference_round(instance, W, alpha, mu, x, y, Ax, eta=None, zeta=None):
    """One round of a (T, n, .) batch written out as the recursion reads, for comparing
    the engine's kernel against: the einsum maps, then the box projection (max, then
    min, which fixes the zero returned where x ties a bound of the other sign) or
    solve_all_from_c."""
    z_mu = mu if eta is None else mu + eta
    z_y = y if zeta is None else y + zeta
    mu1 = W @ z_mu - alpha * y
    c = np.einsum("imp,tim->tip", instance.A, mu1)
    if instance.diag is not None:
        q = (c - instance.v) / instance.diag
        x1 = np.minimum(np.maximum(q, instance.lower), instance.upper)
    else:
        x1 = solve_all_from_c(instance, c)
    Ax1 = np.einsum("imp,tip->tim", instance.A, x1)
    y1 = W @ z_y + Ax1 - Ax
    return mu1, x1, y1, Ax1


def sweep_epsilon(pair, W, schedule, d_zeta_values, q_values, alpha, seed, horizon=None):
    """Audit `schedule` at every (d_zeta, q) grid point; inadmissible points are marked.

    Returns (rows, flags): rows are audit_row dicts with keys d_zeta, q,
    eps_empirical, eps_theory, eps_star, admissible, violations; flags are
    monotone_flags(rows).
    """
    schedules = grid_schedules(schedule, d_zeta_values, q_values)
    reports = forced_difference_run(pair, W, schedules, alpha, seed, horizon=horizon)
    rows = [audit_row(pair.i0, sched, report) for sched, report in zip(schedules, reports)]
    return rows, monotone_flags(rows)


def eta_bound_check(report, alpha, delta, A_norm, tau1, tau2, slack=1e-9):
    """True iff every ||Delta eta(k)||, k >= 1, sits under the root envelope
    alpha delta ||A|| (tau1^(k-1) - tau2^(k-1)) / (tau1 - tau2)."""
    norms = np.asarray(report.delta_eta_norms, dtype=float)[1:]
    k = np.arange(1, norms.shape[0] + 1, dtype=float)
    envelope = alpha * delta * A_norm * (tau1 ** (k - 1) - tau2 ** (k - 1)) / (tau1 - tau2)
    return bool(np.all(norms <= envelope + slack))


def conjugate_smoothness_check(cost, box, mu1, mu2, A, slack=1e-9):
    """True iff ||x(mu1) - x(mu2)|| <= ||A^T (mu1 - mu2)|| / phi, x(mu) the local argmin.

    Equality holds for unconstrained quadratics, so the slack absorbs the
    inner solver's error.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c1 = A.T @ np.atleast_1d(np.asarray(mu1, dtype=float))
    c2 = A.T @ np.atleast_1d(np.asarray(mu2, dtype=float))
    gap = np.sqrt(np.sum((argmin_local(cost, box, c1).x - argmin_local(cost, box, c2).x) ** 2))
    bound = np.sqrt(np.sum((c1 - c2) ** 2)) / cost.phi
    return bool(gap <= bound + slack * max(1.0, bound))


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


# iters, record_every; the two small presets converge in a few hundred rounds
NOISE_FREE_PLAN = {
    "symmetric2": (3000, 1),
    "hand_kkt": (3000, 1),
    "microgrid14": (10_000, 10),
}


@pytest.fixture(scope="session")
def noise_free_runs():
    """One noise-free trajectory per preset at alpha = 0.9 * alpha_max_t2."""
    out = {}
    for name, (iters, every) in NOISE_FREE_PLAN.items():
        instance, W, mod = build_preset(name)
        alpha = 0.9 * stepsize_bounds(mod, W.lambda_bar).alpha_max_t2
        sol = solve_dual(instance)
        cfg = RunConfig(alpha=alpha, iters=iters, record_every=every)
        t0 = time.perf_counter()
        trace = run(
            instance, W, NoiseSchedule.disabled(instance.n), cfg, 0, x_star=sol.x_star
        )
        elapsed = time.perf_counter() - t0
        out[name] = {
            "trace": trace,
            "sol": sol,
            "alpha": alpha,
            "elapsed": elapsed,
            "iters": iters,
        }
    return out


@pytest.fixture(scope="session")
def micro_sweep(tmp_path_factory):
    """d_zeta sweep on the 14-agent preset.

    The d_zeta = 1.0 entry is the reference noisy experiment: q = 0.98,
    d_eta = 1, 100 trials of 5000 rounds each.
    """
    outdir = tmp_path_factory.mktemp("micro_sweep")
    config = ExperimentConfig.from_dict(
        {
            "problem": {"preset": "microgrid14"},
            "algorithm": {"alpha": {"frac_of_t2": 0.9}, "iters": 5000, "record_every": 10},
            "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
            "trials": 100,
            "seed": 20230814,
            "output": str(outdir),
        }
    )
    t0 = time.perf_counter()
    rows, summaries = sweep(config, "d_zeta", (0.5, 1.0, 2.0, 4.0), out_dir=outdir)
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "summaries": summaries, "elapsed": elapsed, "config": config}


@pytest.fixture(scope="session")
def audit_grid():
    """Privacy certificate grid on the 2-agent preset at alpha = 0.45."""
    instance, W, _ = build_preset("symmetric2")
    pair = make_adjacent_pair(instance, 0, 1.0)
    rows, flags = sweep_epsilon(
        pair, W, NoiseSchedule.uniform(2), (0.5, 1.0, 2.0), (0.95, 0.98, 0.99), 0.45, seed=11
    )
    return {"rows": rows, "flags": flags}
