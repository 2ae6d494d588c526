"""White-box privacy audit of the masked recursion.

The audit follows the constructive argument behind the privacy certificate:
take two instances differing only in agent i0's cost (shifted by delta_prime
with ||delta_prime|| < delta), replay one realized execution of the base
instance, and compute round by round the exact mask perturbations
(Delta eta, Delta zeta) that would force the shifted instance to broadcast
byte-identical messages. The log density ratio of the two mask sequences is
then at most

    eps_e = sum_k ( ||Delta zeta(k)||_1 / (d_zeta q^k)
                  + ||Delta eta(k)||_1  / (d_eta q^k) ),

summed per coordinate since the masks are products of independent univariate
Laplace draws. The run is truncated at a horizon K where the geometric tail
(from the root bound on ||Delta eta(k)||) contributes < 1e-6; the tail bound
is added to eps_e so the certificate stays conservative. Measurement also
stops once the envelope sinks below solver roundoff (the tail then covers
the remainder), so slowly decaying configurations never accumulate noise
ratios that are pure floating-point artifacts. The envelope depends only on
the round (the points of one audit share one scan of it), so that last
measured round is known in advance and the base run is simulated only up to
it; its states match those of a run over the whole horizon, since every mask
is a function of (seed, round) alone. The base runs of one audit differ only
in their mask scales, so they share the `noise.unit_draws` of the seed, drawn
once for the longest base run before the first, and each run scales copies
of them. The audit takes a list of noise schedules and the stepsize alpha:
it keeps one base run per schedule but steps every schedule's recursion in
one round loop. Afterwards one pass over the stacked differences of all
schedules gives every round's norms, |Delta| sums, eq. 52 left side and
bound checks, and each schedule reads its own rounds of them; its eps_e is
one sequential cumsum. A schedule whose measured rounds are done, or whose
recursion diverged, is retired in place: its row steps on with a zeroed
Delta mu input, and its statistics read only its own rounds. A row diverges when ||Delta eta(k)|| is NaN or exceeds 1e9 max(1,
alpha delta ||A_i0||), which needs a NaN entry or one above that over
sqrt(m): only then are the norms taken. The recursion steps in place in
round-first arrays; a 1 x 1 A_i0 is one product plus the add of a zero array
(`_matvecs`).

Perturbation recursion (Delta = shifted minus base; messages held equal):
    Delta mu(k+1)  = -alpha * Delta y(k)          Delta eta(k) = -Delta mu(k)
    Delta y(k+1)   = A_i0 (Delta x(k+1) - Delta x(k))
    Delta zeta(k)  = -Delta y(k)
with Delta x(k) re-derived by actually solving the shifted agent's local
problem at the perturbed dual variable (for a diagonal cost, the closed form
on all rows at once), not from a perturbation formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import RunConfig, _norms, run
from .errors import InadmissibleDecayError
from .local_solver import argmin_rows
from .noise import NoiseSchedule, unit_draws
from .problem import shift_adjacent
from .theory import Certificate, certificate

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
    """Build the shifted twin; delta_prime defaults to delta/2 in coordinate 0.

    A scalar delta_prime is broadcast to the p coordinates. Each ValueError
    message starts with the name of the argument it rejects.
    """
    if not 0 <= i0 < base.n:
        raise ValueError(f"i0 = {i0} is out of range for n = {base.n}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    p = base.p
    if delta_prime is None:
        delta_prime = np.zeros(p)
        delta_prime[0] = delta / 2.0
    delta_prime = np.asarray(delta_prime, dtype=float)
    if delta_prime.ndim == 0:
        delta_prime = np.full(p, float(delta_prime))
    if delta_prime.shape != (p,):
        raise ValueError(f"delta_prime must be a scalar or of length p = {p}, got {delta_prime}")
    norm = math.hypot(*delta_prime)  # no overflow where the squared norm would
    if not norm < delta:
        raise ValueError(
            f"delta_prime {delta_prime.tolist()} has norm {norm:g}, "
            f"which must be strictly below delta = {delta:g}"
        )
    shifted = shift_adjacent(base, i0, delta_prime)
    return AdjacentPair(
        base=base, shifted=shifted, i0=i0, delta_prime=delta_prime, delta=float(delta)
    )


@dataclass(eq=False)
class AuditReport:
    """Outcome of one forced-difference audit.

    delta_eta_norms[k] and delta_zeta_norms[k] hold the 2-norms at round k
    (entry 0 is the all-zero round) up to the last measured round; the
    analytic tail covers the horizon - (len - 1) rounds after it, and
    eps_empirical includes that tail. bound_violations counts rounds where
    the geometric envelope or the per-round conjugate bound failed.
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
    if mass0 == math.inf:  # no horizon brings an overflowing tail under the target
        return HORIZON_CAP
    K = int(math.ceil(math.log(TAIL_TARGET / mass0) / math.log(rho)))
    return min(max(K, HORIZON_MIN), HORIZON_CAP)


class _Point(NamedTuple):
    """The constants of one schedule's audit."""

    schedule: NoiseSchedule
    d_eta: float
    d_zeta: float
    q: float
    cert: Certificate  # the audited agent's
    K: int  # the tail horizon


def audited_certificate(pair, schedule, alpha):
    """theory.certificate of the audited agent pair.i0 at radius pair.delta."""
    ag, i0 = pair.base.agents[pair.i0], pair.i0
    numbers = (schedule.q[i0], schedule.d_eta[i0], schedule.d_zeta[i0])
    return certificate(alpha, ag.cost.phi, ag.A_norm, *map(float, numbers), pair.delta)


def _audit_point(pair, schedule, alpha, horizon):
    """The constants of auditing `schedule`; raises InadmissibleDecayError with the
    certificate's reason for a setup the certificate does not cover."""
    cert = audited_certificate(pair, schedule, alpha)
    if not math.isfinite(cert.eps_theory):
        raise InadmissibleDecayError(cert.reason)
    i0, A_norm = pair.i0, pair.base.agents[pair.i0].A_norm
    d_eta, d_zeta, q = (float(a[i0]) for a in (schedule.d_eta, schedule.d_zeta, schedule.q))
    if horizon is None:
        K = _pick_horizon(
            alpha, pair.delta, A_norm, cert.q_min, cert.tau2, q, d_eta, d_zeta, pair.base.m
        )
    else:
        K = int(horizon)
    return _Point(schedule, d_eta, d_zeta, q, cert, K)


def forced_difference_run(pair, W, schedules, alpha, seed, horizon=None):
    """Audit one execution per schedule at stepsize alpha; see the module docstring.

    Returns a list with, per schedule, its AuditReport or, where the certificate
    does not cover it, an InadmissibleDecayError carrying the certificate's
    reason; each report is bit-identical to auditing that schedule alone.
    """
    if horizon is not None and int(horizon) < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    entries = []  # per schedule, its _Point or its InadmissibleDecayError
    for schedule in schedules:
        try:
            entries.append(_audit_point(pair, schedule, alpha, horizon))
        except InadmissibleDecayError as exc:
            entries.append(exc)
    points = [e for e in entries if isinstance(e, _Point)]
    reports = iter(_audit_points(pair, W, points, alpha, seed) if points else [])
    return [next(reports) if isinstance(e, _Point) else e for e in entries]


def _matvecs(M):
    """matvecs(u, out): out[g] = M @ u[g]. A 1 x 1 M is one product by a 0-d array and
    an add of a zero array, which turns -0.0 into 0.0 as the matvec's sum does."""
    if M.shape == (1, 1):  # numpy converts a 0-d array faster than a float
        a, zero, multiply, add = M.reshape(()), np.zeros(()), np.multiply, np.add
        return lambda u, out: add(multiply(u, a, out), zero, out)

    def matvecs(u, out):
        out[...] = (M @ u[..., None])[..., 0]

    return matvecs


def _audit_points(pair, W, points, alpha, seed):
    """The AuditReport of each point, whose recursions step together as rows of (G, .) arrays."""
    base, i0 = pair.base, pair.i0
    m, p = base.m, base.p
    ag, ag_shift = base.agents[i0], pair.shifted.agents[i0]
    G = len(points)
    # the root envelope on ||Delta eta(k)||, the same at every point, by scalar pow up
    # to the largest K or to the round before it first sinks below the signal floor
    tau1, tau2 = points[0].cert.q_min, points[0].cert.tau2
    scale = alpha * pair.delta * ag.A_norm
    coef, signal_floor = scale / (tau1 - tau2), 1e-12 * max(1.0, scale)
    envelopes = []
    for k in range(1, max(pt.K for pt in points) + 1):
        envelope = coef * (tau1 ** (k - 1) - tau2 ** (k - 1))
        if k > 1 and envelope < signal_floor:
            break
        envelopes.append(envelope)
    k_measured = [min(pt.K, len(envelopes)) for pt in points]
    k_max = max(k_measured)

    # agent i0's base mu and x of rounds 0..k_max, one row per point, zero past
    # its last measured round; masks depend only on (seed, round), so these are
    # the first rounds of a run over the whole horizon. The runs differ only in
    # their mask scales and share one seed's unit draws
    base_mu = np.zeros((k_max + 1, G, m))
    base_x = np.zeros((k_max + 1, G, p))
    draws = unit_draws([seed], range(k_max), 2 * base.n * m)
    for g, pt in enumerate(points):
        k = k_measured[g]
        run_cfg = RunConfig(alpha=alpha, iters=k, record_every=k)
        trace = run(base, W, pt.schedule, run_cfg, [seed], keep_states=True, draws=draws)
        base_mu[1 : k + 1, g] = trace.states_mu[0, 1:, i0]
        base_x[1 : k + 1, g] = trace.states_x[0, 1:, i0]

    # Delta mu, Delta x, Delta y; the loop carries only the recursion, and every
    # statistic is computed after it from rounds 1..k_end. Each row does what a
    # lone point would. A row past its k_end is retired in place: its Delta mu
    # input stays zero, so it stays finite and is ignored
    d_mu, d_x, d_y = np.zeros_like(base_mu), np.zeros_like(base_x), np.zeros_like(base_mu)
    A, At = ag.A, ag.A.T
    k_end = np.array(k_measured, dtype=int)
    diverged = np.zeros(G, dtype=bool)
    diverged_at = 1e9 * max(1.0, scale)
    # a row's norm is at most sqrt(m) (1 + 1e-9) times its largest |entry|, or
    # inf from an entry above 1e154 / sqrt(m); a NaN norm is a divergence too
    suspect = min(diverged_at, 1e150) / (math.sqrt(m) * (1.0 + 1e-9))
    c, size = np.empty((G, p)), np.empty((G, m))  # m = p: every A_i is square
    # the hot calls pass out positionally, which numpy parses faster than out=
    minus_alpha = np.array(-alpha)
    multiply, add, subtract, absolute, largest = (
        np.multiply, np.add, np.subtract, np.absolute, np.maximum.reduce)
    matvecs_t, matvecs = _matvecs(At), _matvecs(A)
    next_end = 0  # the round after which the live rows change
    for k in range(1, k_max + 1):
        if k > next_end:
            live = k_end >= k
            if not live.any():
                break
            live_rows, next_end = live[:, None], k_end[live].min()
        dmu, dx, dy = d_mu[k], d_x[k], d_y[k]
        multiply(minus_alpha, d_y[k - 1], dmu, where=live_rows)
        matvecs_t(add(base_mu[k], dmu, c), c)
        subtract(argmin_rows(ag_shift.cost, ag_shift.box, c, out=dx), base_x[k], dx)
        matvecs(subtract(dx, d_x[k - 1], dy), dy)
        if not largest(absolute(dmu, size), None) <= suspect:  # NaN fails too
            gone = ~(_norms(dmu, 1) <= diverged_at)  # ||Delta eta(k)||, as np.linalg.norm
            k_end[gone] = next_end = k  # next round, the live rows change
            diverged |= gone

    # every point's statistics come from one pass over the (rounds, G) arrays, and
    # each point reads its rounds 1..k_end of them
    phi, A_norm = ag.cost.phi, ag.A_norm
    q_k = {q: np.array([q**k for k in range(1, k_max + 1)]) for q in {pt.q for pt in points}}
    # the mask perturbations forcing identical messages are Delta eta = -Delta mu
    # and Delta zeta = -Delta y; the sign drops out of every norm below
    eta, zeta = _norms(d_mu, 1), _norms(d_y, 1)
    # eps_e adds, round by round, the zeta term and then the eta term
    terms = np.stack([np.abs(d_y[1:]).sum(axis=2), np.abs(d_mu[1:]).sum(axis=2)], axis=2)
    scales = np.array([[pt.d_zeta, pt.d_eta] for pt in points])
    terms /= scales * np.array([q_k[pt.q] for pt in points]).T[..., None]
    # the envelope and eq. 52 checks failing in each round, counted up to it
    lhs = _norms((d_x[1:] - pair.delta_prime) @ At, 1)
    over_envelope = eta[1:] > np.add(envelopes[:k_max], CHECK_SLACK)[:, None]
    over_eq52 = lhs > A_norm**2 / phi * eta[1:] + CHECK_SLACK
    failures = np.cumsum(np.add(over_envelope, over_eq52, dtype=int), axis=0)

    reports = []
    for g, (_, d_eta, d_zeta, q, cert, K) in enumerate(points):
        end = int(k_end[g])
        eta_norms, zeta_norms = np.zeros((2, k_measured[g] + 1))
        eta_norms[: end + 1] = eta[: end + 1, g]
        zeta_norms[: end + 1] = zeta[: end + 1, g]
        eps_e = float(np.cumsum(terms[:end, g].ravel())[-1])
        violations = int(failures[end - 1, g]) + int(diverged[g])

        # a divergence voids the signal floor's stop, so the tail starts at K
        k_tail = K if diverged[g] else k_measured[g]
        tail = _tail_bound(k_tail, alpha, pair.delta, A_norm, tau1, tau2, q, d_eta, d_zeta, m)
        reports.append(AuditReport(
            eps_empirical=eps_e + tail, eps_theoretical=cert.eps_theory, eps_star=cert.eps_star,
            delta_eta_norms=eta_norms, delta_zeta_norms=zeta_norms,
            bound_violations=violations, horizon=K, tail=tail, i0=i0,
        ))
    return reports


def grid_schedules(schedule, d_zeta_values, q_values):
    """`schedule` at each (d_zeta, q) point, d_zeta outer: only d_zeta and q change."""
    d_eta = schedule.d_eta
    return [NoiseSchedule(d_eta, dz, q) for dz in d_zeta_values for q in q_values]


def audit_row(i0, schedule, report):
    """The audit.csv row of one schedule, from its AuditReport or its InadmissibleDecayError."""
    row = {"d_zeta": float(schedule.d_zeta[i0]), "q": float(schedule.q[i0])}
    if isinstance(report, InadmissibleDecayError):
        nan = math.nan
        row.update(eps_empirical=nan, eps_theory=nan, eps_star=nan, admissible=False, violations=0)
    else:
        row.update(
            eps_empirical=report.eps_empirical, eps_theory=report.eps_theoretical,
            eps_star=report.eps_star, admissible=True, violations=report.bound_violations,
        )
    return row


def monotone_flags(rows):
    """Whether eps_empirical is nonincreasing along each grid axis over the admissible rows."""

    def nonincreasing(varied, fixed):
        ordered = sorted((r for r in rows if r["admissible"]), key=lambda r: (r[fixed], r[varied]))
        return all(
            b["eps_empirical"] <= a["eps_empirical"] + 1e-12
            for a, b in zip(ordered, ordered[1:])
            if a[fixed] == b[fixed]
        )

    return {
        "monotone_in_d_zeta": nonincreasing("d_zeta", "q"),
        "monotone_in_q": nonincreasing("q", "d_zeta"),
    }

