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
ratios that are pure floating-point artifacts. The envelope depends only on
the round, so that last measured round is known in advance and the base run
is simulated only up to it; its states match those of a run over the whole
horizon, since every mask is a function of (seed, round) alone. The round
loop carries only the recursion; the norms, eps_e and the bound checks are
computed from its stacked differences afterwards.

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

from .engine import RunConfig, _norms, run
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


def _envelope(coef, tau1, tau2, k):
    """Root envelope on ||Delta eta(k)||, coef * (tau1^(k-1) - tau2^(k-1)), by scalar pow."""
    return coef * (tau1 ** (k - 1) - tau2 ** (k - 1))


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
    if alpha <= 0:
        raise ConfigError(f"the audit needs a positive stepsize, got alpha = {alpha:g}")
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

    env_coef = alpha * pair.delta * ag.A_norm / (tau1 - tau2)
    eq52_coef = ag.A_norm**2 / ag.cost.phi
    diverged_at = 1e9 * max(1.0, alpha * pair.delta * ag.A_norm)
    # below this the true perturbation is buried in solver roundoff; measure
    # only the rounds before the envelope first sinks under it and let the
    # analytic tail (added below) cover the remainder
    signal_floor = 1e-12 * max(1.0, alpha * pair.delta * ag.A_norm)
    envelopes = [_envelope(env_coef, tau1, tau2, 1)]
    for k in range(2, K + 1):
        envelope = _envelope(env_coef, tau1, tau2, k)
        if envelope < signal_floor:
            break
        envelopes.append(envelope)
    k_measured = len(envelopes)

    # masks depend only on (seed, round), so these states are the first
    # k_measured rounds of a run over the whole horizon
    run_cfg = RunConfig(
        alpha=alpha, iters=k_measured, record_every=k_measured, mu0=config.mu0, x0=config.x0
    )
    trace = run(base, W, schedule, run_cfg, seed, keep_states=True)
    states_mu, states_x = trace.states_mu, trace.states_x

    # the loop carries only the recursion; every statistic is computed after it
    mu_i0, x_i0 = states_mu[:, i0], states_x[:, i0]
    A, At = ag.A, ag.A.T
    cost, box = ag_shift.cost, ag_shift.box
    # Delta mu, Delta x, Delta y of rounds 0..k_measured, filled in place: a
    # list of per-round arrays would leave the allocator a larger peak
    d_mu = np.zeros((k_measured + 1, m))
    d_x = np.zeros((k_measured + 1, p))
    d_y = np.zeros((k_measured + 1, m))
    k_end, diverged = k_measured, False
    for k in range(1, k_measured + 1):
        dmu = d_mu[k] = -alpha * d_y[k - 1]
        d_x[k] = argmin_local(cost, box, At @ (mu_i0[k] + dmu)).x - x_i0[k]
        d_y[k] = A @ (d_x[k] - d_x[k - 1])
        if math.sqrt(dmu @ dmu) > diverged_at:  # ||Delta eta(k)||, as np.linalg.norm
            k_end, diverged = k, True
            break
    rounds = slice(1, k_end + 1)
    d_mu, d_x, d_y = d_mu[rounds], d_x[rounds], d_y[rounds]

    # the mask perturbations forcing identical messages are Delta eta = -Delta mu
    # and Delta zeta = -Delta y; the sign drops out of every norm below
    eta = _norms(d_mu, 1)
    eta_norms = np.zeros(K + 1)
    zeta_norms = np.zeros(K + 1)
    eta_norms[rounds] = eta
    zeta_norms[rounds] = _norms(d_y, 1)

    # eps_e adds, round by round, the zeta term and then the eta term
    q_k = np.array([q**k for k in range(1, k_end + 1)])
    terms = np.empty((k_end, 2))
    terms[:, 0] = np.abs(d_y).sum(axis=1) / (d_zeta * q_k)
    terms[:, 1] = np.abs(d_mu).sum(axis=1) / (d_eta * q_k)
    eps_e = float(np.cumsum(terms.ravel())[-1])

    lhs = _norms((d_x - pair.delta_prime) @ At, 1)
    violations = int(np.count_nonzero(eta > np.add(envelopes[:k_end], CHECK_SLACK)))
    violations += int(np.count_nonzero(lhs > eq52_coef * eta + CHECK_SLACK))
    violations += diverged

    # a divergence voids the signal floor's stop, so the tail starts at K
    k_tail = K if diverged else k_measured
    tail = _tail_bound(k_tail, alpha, pair.delta, ag.A_norm, tau1, tau2, q, d_eta, d_zeta, m)
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
    bounds = [_envelope(coef, tau1, tau2, k) for k in range(1, len(report.delta_eta_norms))]
    return bool(np.all(report.delta_eta_norms[1:] <= np.add(bounds, slack)))


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
