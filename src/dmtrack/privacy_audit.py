"""White-box privacy audit of the masked recursion.

The audit follows the constructive argument behind the privacy certificate:
take two instances differing only in agent i0's cost (shifted by delta_prime
with ||delta_prime|| < delta), replay one realized execution of the base
instance, and compute round by round the exact mask perturbations
(Delta eta, Delta zeta) that would force the shifted instance to broadcast
byte-identical messages. The log density ratio of the two mask sequences is
then at most

    eps_e = sum_k ( ||Delta zeta(k)||_1 / theta_zeta(k)
                  + ||Delta eta(k)||_1  / theta_eta(k) ),

summed per coordinate since the masks are products of independent univariate
Laplace draws. The run is truncated at a horizon K where the geometric tail
(from the root bound on ||Delta eta(k)||) contributes < 1e-6; the tail bound
is added to eps_e so the certificate stays conservative. Measurement also
stops once the envelope sinks below solver roundoff (the tail then covers
the remainder), so slowly decaying configurations never accumulate noise
ratios that are pure floating-point artifacts.

Perturbation recursion (Delta = shifted minus base; messages held equal):
    Delta mu(k+1)  = -alpha * Delta y(k)          Delta eta(k) = -Delta mu(k)
    Delta y(k+1)   = A_i0 (Delta x(k+1) - Delta x(k))
    Delta zeta(k)  = -Delta y(k)
with Delta x(k) re-derived by actually solving the shifted agent's local
problem at the perturbed dual variable, not from a formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunConfig, run
from .errors import ConfigError, InadmissibleDecayError
from .local_solver import argmin_local
from .problem import shift_adjacent
from .theory import admitted_epsilon, check_q

HORIZON_MIN = 10
HORIZON_CAP = 5000
TAIL_TARGET = 1e-6
CHECK_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class AdjacentPair:
    """Two instances differing only in agent i0's private cost and box."""

    base: object
    shifted: object
    i0: int
    delta_prime: np.ndarray
    delta: float


def make_adjacent_pair(base, i0, delta, delta_prime=None):
    """Build the shifted twin; delta_prime defaults to delta/2 in coordinate 0."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    p = base.p
    if delta_prime is None:
        delta_prime = np.zeros(p)
        delta_prime[0] = delta / 2.0
    delta_prime = np.asarray(delta_prime, dtype=float).reshape(p)
    if not np.linalg.norm(delta_prime) < delta:
        raise ValueError(
            f"||delta_prime|| = {np.linalg.norm(delta_prime):g} must be strictly below "
            f"delta = {delta:g}"
        )
    shifted = shift_adjacent(base, i0, delta_prime)
    return AdjacentPair(
        base=base, shifted=shifted, i0=i0, delta_prime=delta_prime, delta=float(delta)
    )


@dataclass(eq=False)
class AuditReport:
    """Outcome of one forced-difference audit.

    delta_eta_norms[k] and delta_zeta_norms[k] hold the 2-norms at round k
    (entry 0 is the all-zero round). eps_empirical includes the truncation
    tail. bound_violations counts rounds where the geometric envelope or the
    per-round conjugate bound failed.
    """

    eps_empirical: float
    eps_theoretical: float
    eps_star: float
    delta_eta_norms: np.ndarray
    delta_zeta_norms: np.ndarray
    bound_violations: int
    horizon: int
    tail: float
    i0: int


def _tail_bound(K, alpha, delta, A_norm, tau1, tau2, q, d_eta, d_zeta, m):
    """Upper bound on the eps_e mass beyond round K, from the root envelope."""
    rho = tau1 / q
    if rho >= 1.0:
        return math.inf
    root_m = math.sqrt(m)  # l1 <= sqrt(m) l2 per round
    c = 2.0 * root_m * delta * A_norm / ((tau1 - tau2) * (1.0 - rho))
    tail_eta = (c * alpha / (d_eta * q)) * rho**K
    tail_zeta = (c / d_zeta) * rho ** (K + 1)
    return tail_eta + tail_zeta


def _pick_horizon(alpha, delta, A_norm, tau1, tau2, q, d_eta, d_zeta, m):
    rho = tau1 / q
    mass0 = _tail_bound(0, alpha, delta, A_norm, tau1, tau2, q, d_eta, d_zeta, m)
    if mass0 <= TAIL_TARGET:
        return HORIZON_MIN
    K = int(math.ceil(math.log(TAIL_TARGET / mass0) / math.log(rho)))
    return min(max(K, HORIZON_MIN), HORIZON_CAP)


def forced_difference_run(pair, W, schedule, config, seed, horizon=None):
    """Audit one execution; see the module docstring for the recursion."""
    base = pair.base
    i0 = pair.i0
    n, m, p = base.dims
    ag = base.agents[i0]
    ag_shift = pair.shifted.agents[i0]
    alpha = config.alpha

    d_eta = float(schedule.d_eta[i0])
    d_zeta = float(schedule.d_zeta[i0])
    q_eta = float(schedule.q_eta[i0])
    q_zeta = float(schedule.q_zeta[i0])
    if d_eta <= 0 or d_zeta <= 0:
        raise ConfigError("audited agent needs positive mask scales on both channels")
    if abs(q_eta - q_zeta) > 1e-15:
        raise ConfigError(
            f"audited agent has q_eta = {q_eta:g} != q_zeta = {q_zeta:g}; "
            "the certificate assumes one decay"
        )
    q = q_zeta

    interval = check_q(alpha, ag.cost.phi, ag.A_norm, q)
    tau1, tau2 = interval.tau1, interval.tau2

    if horizon is None:
        K = _pick_horizon(alpha, pair.delta, ag.A_norm, tau1, tau2, q, d_eta, d_zeta, m)
    else:
        K = int(horizon)
        if K < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")

    run_cfg = RunConfig(alpha=alpha, iters=K, record_every=K, mu0=config.mu0, x0=config.x0)
    trace = run(base, W, schedule, run_cfg, seed, keep_states=True)
    states_mu, states_x = trace.states_mu, trace.states_x

    env_coef = alpha * pair.delta * ag.A_norm / (tau1 - tau2)
    eq52_coef = ag.A_norm**2 / ag.cost.phi
    diverged_at = 1e9 * max(1.0, alpha * pair.delta * ag.A_norm)
    # below this the true perturbation is buried in solver roundoff; stop
    # measuring and let the analytic tail (added below) cover the remainder
    signal_floor = 1e-12 * max(1.0, alpha * pair.delta * ag.A_norm)

    eta_norms = np.zeros(K + 1)
    zeta_norms = np.zeros(K + 1)
    eps_e = 0.0
    violations = 0
    k_measured = K
    dy_prev = np.zeros(m)
    dx_prev = np.zeros(p)
    for k in range(1, K + 1):
        envelope = env_coef * (tau1 ** (k - 1) - tau2 ** (k - 1))
        if k > 1 and envelope < signal_floor:
            k_measured = k - 1
            break

        dmu = -alpha * dy_prev
        mu2 = states_mu[k, i0] + dmu
        x2 = argmin_local(ag_shift.cost, ag_shift.box, ag.A.T @ mu2).x
        dx = x2 - states_x[k, i0]
        dy = ag.A @ (dx - dx_prev)

        d_eta_k = -dmu  # mask perturbations forcing identical messages
        d_zeta_k = -dy
        eta_norms[k] = np.linalg.norm(d_eta_k)
        zeta_norms[k] = np.linalg.norm(d_zeta_k)
        eps_e += float(np.sum(np.abs(d_zeta_k))) / (d_zeta * q**k)
        eps_e += float(np.sum(np.abs(d_eta_k))) / (d_eta * q**k)

        if eta_norms[k] > envelope + CHECK_SLACK:
            violations += 1
        lhs = np.linalg.norm(ag.A @ (dx - pair.delta_prime))
        if lhs > eq52_coef * np.linalg.norm(dmu) + CHECK_SLACK:
            violations += 1
        if eta_norms[k] > diverged_at:
            violations += 1
            break

        dy_prev, dx_prev = dy, dx

    tail = _tail_bound(k_measured, alpha, pair.delta, ag.A_norm, tau1, tau2, q, d_eta, d_zeta, m)
    eps_e += tail

    eps_theory = admitted_epsilon(alpha, d_zeta, d_eta, ag.cost.phi, ag.A_norm, q, pair.delta)
    eps_opt = admitted_epsilon(alpha, d_zeta, math.inf, ag.cost.phi, ag.A_norm, q, pair.delta)
    return AuditReport(
        eps_empirical=eps_e,
        eps_theoretical=eps_theory,
        eps_star=eps_opt,
        delta_eta_norms=eta_norms,
        delta_zeta_norms=zeta_norms,
        bound_violations=violations,
        horizon=K,
        tail=tail,
        i0=i0,
    )


def eta_bound_check(report, alpha, delta, A_norm, tau1, tau2, slack=CHECK_SLACK):
    """True iff every recorded ||Delta eta(k)|| sits under the root envelope."""
    coef = alpha * delta * A_norm / (tau1 - tau2)
    ks = np.arange(1, len(report.delta_eta_norms))
    bounds = coef * (tau1 ** (ks - 1) - tau2 ** (ks - 1))
    return bool(np.all(report.delta_eta_norms[1:] <= bounds + slack))


def sweep_epsilon(
    base,
    W,
    i0,
    d_zeta_values,
    q_values,
    config,
    seed,
    delta=1.0,
    delta_prime=None,
    d_eta=1.0,
    horizon=None,
):
    """Audit every (d_zeta, q) grid point; inadmissible points are marked.

    Returns (rows, flags): rows are dicts with keys d_zeta, q, eps_empirical,
    eps_theory, eps_star, admissible, violations; flags report whether
    eps_empirical is nonincreasing along each axis over the admissible points.
    """
    from .noise import NoiseSchedule

    pair = make_adjacent_pair(base, i0, delta, delta_prime)
    n = base.n
    rows = []
    for dz in d_zeta_values:
        for q in q_values:
            schedule = NoiseSchedule.uniform(n, d_eta=d_eta, d_zeta=dz, q=q)
            row = {"d_zeta": float(dz), "q": float(q)}
            try:
                report = forced_difference_run(pair, W, schedule, config, seed, horizon=horizon)
            except InadmissibleDecayError:
                row.update(
                    eps_empirical=math.nan,
                    eps_theory=math.nan,
                    eps_star=math.nan,
                    admissible=False,
                    violations=0,
                )
            else:
                row.update(
                    eps_empirical=report.eps_empirical,
                    eps_theory=report.eps_theoretical,
                    eps_star=report.eps_star,
                    admissible=True,
                    violations=report.bound_violations,
                )
            rows.append(row)

    def nonincreasing(keyed):
        ok = True
        for _, series in keyed.items():
            vals = [r["eps_empirical"] for r in series if r["admissible"]]
            ok &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        return ok

    by_q = {}
    by_dz = {}
    for r in rows:
        by_q.setdefault(r["q"], []).append(r)  # varies d_zeta at fixed q
        by_dz.setdefault(r["d_zeta"], []).append(r)  # varies q at fixed d_zeta
    for series in by_q.values():
        series.sort(key=lambda r: r["d_zeta"])
    for series in by_dz.values():
        series.sort(key=lambda r: r["q"])
    flags = {
        "monotone_in_d_zeta": nonincreasing(by_q),
        "monotone_in_q": nonincreasing(by_dz),
    }
    return rows, flags
