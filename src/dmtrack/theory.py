"""Closed-form constants and bounds for the masked tracking recursion.

Everything here is a pure function of scalar problem moduli, so experiment
scripts and tests can sweep parameter grids without touching the simulator.

Quantities:
  contraction C(alpha)    dual-error contraction factor of the noise-free map
  alpha_max_t1            stepsize cap phi^2 / (2 ||A||^2 L)
  alpha_max_t2            supremum of stepsizes passing the second-stage test
                          (implicit in alpha, resolved by an array scan and a
                          bisection on floats through the same formula)
  N_zeta, mse_bounds      stationary error band for geometrically decaying masks
  q_interval              admissible mask-decay interval (q_min, 1)
  certificate             the audited agent's decay interval, privacy loss
                          eps_theory and its limit eps_star as the eta-mask
                          budget grows; it covers a setup iff eps_theory is finite

The epsilon denominator has two variants in circulation:
phi q^2 - alpha ||A||^2 q - alpha ||A||^2 (consistent with the root
polynomial that drives the perturbation recursion; eps_theory and eps_star)
and phi q^2 - alpha q - alpha (a simplified form that drops ||A||^2;
eps_theory_printed and eps_star_printed, informational only). They coincide
when ||A|| = 1.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleDecayError

BISECT_TOL = 1e-12
_GRID = 2048


def contraction_C(alpha, phi_under, L_bar, A_norm, lamAA_min):
    """Contraction factor at a float alpha, or elementwise at an array of alphas; < 1
    exactly when 0 < alpha < 2 phi^2 / (L ||A||^2). A float is evaluated with Python
    arithmetic and math.sqrt, in the same formula and with the same bits."""
    array = isinstance(alpha, np.ndarray)
    if array:
        alpha, any_, sqrt = np.asarray(alpha, dtype=float), np.any, np.sqrt
    else:
        alpha, any_, sqrt = float(alpha), bool, math.sqrt
    if any_(alpha < 0):
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if min(phi_under, L_bar, A_norm, lamAA_min) <= 0:
        raise ValueError("moduli must be positive")
    # an infinite alpha gives nan, quietly; alpha * alpha, not alpha**2, which a float
    # would take through pow
    with np.errstate(over="ignore", invalid="ignore") if array else nullcontext():
        square = A_norm**2 * (alpha * alpha) / phi_under**2
        radicand = 1.0 + (square - 2.0 * alpha / L_bar) * lamAA_min
    if any_(radicand < 0):
        bad = np.argmin(radicand)
        raise ValueError(
            f"contraction radicand is negative ({np.ravel(radicand)[bad]:.3e}) at alpha="
            f"{np.ravel(alpha)[bad]:g}; the stepsize is far outside the admissible range"
        )
    C = sqrt(radicand)
    return C if array and C.ndim else float(C)


class StepsizeBounds(NamedTuple):
    alpha_max_t1: float
    alpha_max_t2: float
    admissible: bool  # False when no alpha passes the second-stage test


def _second_stage_ok(alpha, mod, lambda_bar):
    """The implicit second-stage stepsize clause at a float alpha, or elementwise at an
    array of alphas (first-stage cap assumed); one formula, as in contraction_C."""
    C = contraction_C(alpha, mod.phi_under, mod.L_bar, mod.A_norm, mod.lamAA_min)
    sqrt = np.sqrt if isinstance(alpha, np.ndarray) else math.sqrt
    one_minus = 1.0 - C
    rhs = (
        mod.phi_under
        * (-one_minus + sqrt(one_minus * one_minus + 2.0 * one_minus * (1.0 - lambda_bar) ** 2))
        / (2.0 * mod.A_norm)
    )
    return alpha < rhs


def stepsize_bounds(mod, lambda_bar):
    """Largest admissible stepsizes for the two convergence regimes.

    alpha_max_t1 is the closed-form cap. alpha_max_t2 is the supremum of
    alphas below that cap passing the implicit second-stage inequality,
    located by a grid scan of an array of alphas plus a bisection on floats,
    which evaluates the scalar form of the scan's predicate (the tests verify
    the predicate is monotone across the bracket). A configuration where
    nothing passes returns alpha_max_t2 = 0 with admissible=False instead of
    raising.
    """
    if not 0.0 <= lambda_bar < 1.0:
        raise ValueError(f"lambda_bar must be in [0, 1), got {lambda_bar}")
    t1 = mod.phi_under**2 / (2.0 * mod.A_norm**2 * mod.L_bar)
    xs = np.linspace(t1 / _GRID, t1 * (1.0 - 1e-12), _GRID)
    passing = np.flatnonzero(_second_stage_ok(xs, mod, lambda_bar))
    if not passing.size:
        return StepsizeBounds(t1, 0.0, False)
    last = int(passing[-1])
    if last == len(xs) - 1:
        # admissible all the way to the open first-stage cap
        return StepsizeBounds(t1, t1, True)
    lo, hi = float(xs[last]), float(xs[last + 1])
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _second_stage_ok(mid, mod, lambda_bar):
            lo = mid
        else:
            hi = mid
    return StepsizeBounds(t1, 0.5 * (lo + hi), True)


class MseBounds(NamedTuple):
    lower: float
    upper: float
    N_zeta: float


def mse_bounds(schedule, mod, n, m):
    """Two-sided stationary bound on E||x - x*||^2 under decaying masks."""
    if schedule.n != n:
        raise ValueError(f"schedule covers {schedule.n} agents, expected {n}")
    d = np.asarray(schedule.d_zeta, dtype=float)
    q = np.asarray(schedule.q_zeta, dtype=float)
    active = d > 0
    if np.any(q[active] >= 1.0):
        raise ValueError("divergent noise: some q_zeta >= 1 with positive scale")
    with np.errstate(over="ignore"):  # a scale whose square overflows gives an infinite band
        N_zeta = float(np.sum(2.0 * m * d[active] ** 2 / (1.0 - q[active] ** 2)))
    lower = N_zeta / (n**2 * mod.A_norm**2)
    upper = mod.L_bar**2 * N_zeta / (n * mod.phi_under**2 * mod.lamAA_min**2)
    return MseBounds(lower, upper, N_zeta)


class QInterval(NamedTuple):
    q_min: float  # the interval (q_min, 1) is open on both ends
    tau1: float
    tau2: float


def q_interval(alpha, phi_i0, A_i0_norm):
    """Admissible decay interval (q_min, 1) for the audited agent.

    tau1, tau2 are the roots of phi x^2 - alpha ||A||^2 x - alpha ||A||^2,
    the characteristic polynomial of the perturbation recursion; q_min
    coincides with the larger root.
    """
    if not (alpha > 0 and phi_i0 > 0 and A_i0_norm > 0):
        raise ValueError("alpha, phi, and the coupling norm must be positive")
    try:
        disc = math.sqrt(alpha**2 * A_i0_norm**2 + 4.0 * alpha * phi_i0)
    except OverflowError:  # alpha**2 leaves the float range, and q_min with it
        disc = math.inf
    q_min = (alpha * A_i0_norm**2 + A_i0_norm * disc) / (2.0 * phi_i0)
    tau1 = q_min
    tau2 = (alpha * A_i0_norm**2 - A_i0_norm * disc) / (2.0 * phi_i0)
    if q_min >= 1.0:
        raise InadmissibleDecayError(
            f"q_min = {q_min:.6g} >= 1: no admissible decay at alpha={alpha:g}; reduce alpha"
        )
    # tau2 = -tau1/(1+tau1) for these coefficients, so -1 < tau2 < 0 < tau1 < 1
    assert -1.0 < tau2 < 0.0 < tau1 < 1.0
    return QInterval(q_min, tau1, tau2)


class Certificate(NamedTuple):
    q_min: float  # NaN where no decay interval exists
    tau1: float
    tau2: float
    eps_theory: float
    eps_theory_printed: float
    eps_star: float
    eps_star_printed: float


def certificate(alpha, phi_i0, A_i0_norm, q_eta, q_zeta, d_eta, d_zeta, delta):
    """The audited agent's decay interval and privacy loss over an infinite run.

    The certificate covers a setup iff eps_theory is a finite number: a decay
    interval (q_min, 1) exists at alpha > 0, one decay q = q_eta = q_zeta lies
    strictly inside it, both mask scales are positive (d_eta may be inf), and
    the epsilon neither overflows nor divides by an alpha * d_zeta that
    underflows to 0. An uncovered setup has NaN in all four epsilons; a
    covered one has NaN only in a printed form whose denominator is not
    positive. eps_star is the limit as d_eta grows; delta is the adjacency
    radius.
    """
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    nan = math.nan
    try:
        q_min, tau1, tau2 = q_interval(alpha, phi_i0, A_i0_norm)
    except (InadmissibleDecayError, ValueError):
        return Certificate(nan, nan, nan, nan, nan, nan, nan)
    uncovered = Certificate(q_min, tau1, tau2, nan, nan, nan, nan)
    q = q_zeta
    if not (abs(q_eta - q) <= 1e-15 and q_min < q < 1.0 and d_eta > 0 and d_zeta > 0):
        return uncovered
    try:
        numerators = [
            (1.0 / (alpha * d_zeta) + 1.0 / d) * alpha * phi_i0 * delta * A_i0_norm
            for d in (d_eta, math.inf)
        ]
    except ZeroDivisionError:  # alpha * d_zeta underflows to 0
        return uncovered
    D = phi_i0 * q**2 - alpha * A_i0_norm**2 * q - alpha * A_i0_norm**2
    eps_theory, eps_star = (num / D if D > 0 else nan for num in numerators)
    if not math.isfinite(eps_theory):
        return uncovered
    D_printed = phi_i0 * q**2 - alpha * q - alpha
    eps_theory_printed, eps_star_printed = (
        num / D_printed if D_printed > 0 else nan for num in numerators
    )
    return Certificate(
        q_min, tau1, tau2, eps_theory, eps_theory_printed, eps_star, eps_star_printed
    )


class TheoryConstants(NamedTuple):
    C: float
    lambda_bar: float
    r_lb: float
    alpha_max_t1: float
    alpha_max_t2: float
    tau1: float
    tau2: float


def theory_constants(alpha, mod, lambda_bar, bounds, schedule):
    """Bundle every scalar constant the experiment reports need.

    bounds is stepsize_bounds(mod, lambda_bar). tau1 / tau2 are the
    q_interval roots at the global moduli (phi_under, A_norm), which are the
    audited agent's when agents are homogeneous. r_lb folds in the mask
    decays of an enabled schedule. Where the stepsize admits no contraction
    factor or decay interval, C, r_lb, tau1 and tau2 are NaN; lambda_bar and
    the stepsize caps do not depend on the stepsize and keep their values.
    """
    try:
        C = contraction_C(alpha, mod.phi_under, mod.L_bar, mod.A_norm, mod.lamAA_min)
        _, tau1, tau2 = q_interval(alpha, mod.phi_under, mod.A_norm)
        r_lb = max(C, lambda_bar)
        if schedule.enabled:
            r_lb = max(r_lb, float(np.max(schedule.q_eta)), float(np.max(schedule.q_zeta)))
    except (InadmissibleDecayError, ValueError):
        C = r_lb = tau1 = tau2 = math.nan
    return TheoryConstants(
        C, lambda_bar, r_lb, bounds.alpha_max_t1, bounds.alpha_max_t2, tau1, tau2
    )
