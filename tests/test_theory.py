import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtrack import theory
from dmtrack.errors import InadmissibleDecayError
from dmtrack.noise import NoiseSchedule
from dmtrack.problem import Moduli
from dmtrack.theory import (
    certificate,
    contraction_C,
    mse_bounds,
    q_interval,
    stepsize_bounds,
    theory_constants,
)

SYM2 = Moduli(phi_under=2.0, L_bar=2.0, A_norm=1.0, lamAA_min=1.0)


def test_contraction_reference_points():
    assert contraction_C(0.5, *SYM2) == pytest.approx(0.75, abs=1e-15)
    assert contraction_C(0.45, *SYM2) == pytest.approx(0.775, abs=1e-15)
    assert contraction_C(0.0, *SYM2) == 1.0


def test_contraction_validation():
    with pytest.raises(ValueError):
        contraction_C(-0.1, *SYM2)
    with pytest.raises(ValueError):
        contraction_C(0.5, 0.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        # inconsistent moduli (lambda_min above L_bar * ||A||) push the
        # radicand negative
        contraction_C(1.0, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="at alpha=1"):
        contraction_C(np.array([0.1, 1.0]), 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        contraction_C(np.array([0.5, -0.1]), *SYM2)


def second_stage_reference(alpha, mod, lambda_bar):
    """The second-stage stepsize test at one alpha, in scalar math."""
    radicand = 1.0 + (
        mod.A_norm**2 * alpha**2 / mod.phi_under**2 - 2.0 * alpha / mod.L_bar
    ) * mod.lamAA_min
    C = math.sqrt(radicand)  # a negative radicand raises ValueError
    one_minus = 1.0 - C
    rhs = (
        mod.phi_under
        * (-one_minus + math.sqrt(one_minus**2 + 2.0 * one_minus * (1.0 - lambda_bar) ** 2))
        / (2.0 * mod.A_norm)
    )
    return alpha < rhs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    phi=st.floats(min_value=0.2, max_value=3.0),
    L_ratio=st.floats(min_value=0.5, max_value=4.0),  # below 1 the radicand can turn negative
    A=st.floats(min_value=0.2, max_value=2.0),
    lam_frac=st.floats(min_value=0.05, max_value=1.0),
    lambda_bar=st.floats(min_value=0.0, max_value=0.999),
)
def test_stepsize_scan_flags_match_the_scalar_test(phi, L_ratio, A, lam_frac, lambda_bar):
    """stepsize_bounds evaluates its grid as one array; each flag equals the scalar
    test at that alpha, and a negative radicand still raises ValueError."""
    mod = Moduli(phi_under=phi, L_bar=phi * L_ratio, A_norm=A, lamAA_min=lam_frac * A**2)
    t1 = phi**2 / (2.0 * A**2 * mod.L_bar)
    xs = np.linspace(t1 / theory._GRID, t1 * (1.0 - 1e-12), theory._GRID)
    try:
        want = [second_stage_reference(float(a), mod, lambda_bar) for a in xs]
    except ValueError:
        with pytest.raises(ValueError, match="radicand is negative"):
            theory._second_stage_ok(xs, mod, lambda_bar)
        with pytest.raises(ValueError):
            stepsize_bounds(mod, lambda_bar)
        return
    assert theory._second_stage_ok(xs, mod, lambda_bar).tolist() == want
    assert [bool(theory._second_stage_ok(a, mod, lambda_bar)) for a in xs[::97]] == want[::97]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    phi=st.floats(min_value=0.2, max_value=3.0),
    L_ratio=st.floats(min_value=0.5, max_value=4.0),
    A=st.floats(min_value=0.2, max_value=2.0),
    lam_frac=st.floats(min_value=0.05, max_value=1.0),
    lambda_bar=st.floats(min_value=0.0, max_value=0.999),
    fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16),
)
def test_the_bisection_predicate_is_the_scan_predicate(
    phi, L_ratio, A, lam_frac, lambda_bar, fracs
):
    """stepsize_bounds scans an array of alphas and bisects on floats, which take
    Python arithmetic and math.sqrt through the same formula: at random alphas
    in [0, alpha_max_t1] the float flags equal the array's, contraction_C's
    values agree bit for bit, and a negative radicand raises in both forms."""
    mod = Moduli(phi_under=phi, L_bar=phi * L_ratio, A_norm=A, lamAA_min=lam_frac * A**2)
    alphas = np.array(fracs) * (phi**2 / (2.0 * A**2 * mod.L_bar))

    def scalar(a):
        try:
            return theory._second_stage_ok(float(a), mod, lambda_bar), contraction_C(float(a), *mod)
        except ValueError as exc:
            assert "radicand is negative" in str(exc)
            return None

    scalars = [scalar(a) for a in alphas]
    try:
        want = theory._second_stage_ok(alphas, mod, lambda_bar)
    except ValueError:
        assert None in scalars
        return
    assert [flag for flag, _ in scalars] == want.tolist()
    assert np.array([C for _, C in scalars]).tobytes() == contraction_C(alphas, *mod).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    phi=st.floats(min_value=0.2, max_value=3.0),
    gap=st.floats(min_value=0.0, max_value=3.0),
    A=st.floats(min_value=0.2, max_value=2.0),
    lam_frac=st.floats(min_value=0.05, max_value=1.0),
    a_frac=st.floats(min_value=0.05, max_value=3.0),
)
def test_contraction_splits_at_four_t1(phi, gap, A, lam_frac, a_frac):
    L = phi + gap
    lam = lam_frac * A**2  # smallest eigenvalue never exceeds the norm squared
    t1 = phi**2 / (2.0 * A**2 * L)
    # strictly inside the admissible window the map contracts
    assert contraction_C(a_frac * t1, phi, L, A, lam) < 1.0
    # well past 4 t1 it expands
    assert contraction_C(5.0 * t1, phi, L, A, lam) > 1.0


def test_stepsize_bounds_symmetric2():
    sb = stepsize_bounds(SYM2, lambda_bar=0.0)
    assert sb.alpha_max_t1 == 1.0
    assert sb.alpha_max_t2 == pytest.approx(0.5, abs=1e-9)
    assert sb.admissible


def test_stepsize_bounds_microgrid_frozen():
    mod = Moduli(1.0722631691077271, 1.9745086277228379, 1.152545211122078, 0.6552997764415665)
    sb = stepsize_bounds(mod, lambda_bar=0.9073295986792632)
    assert sb.alpha_max_t1 == pytest.approx(0.2191784266313489, rel=1e-12)
    assert sb.alpha_max_t2 == pytest.approx(0.0009417903322882087, rel=1e-6)
    assert sb.admissible
    assert 0 < sb.alpha_max_t2 < sb.alpha_max_t1


def test_stepsize_bounds_without_a_second_stage():
    """A graph that barely mixes pushes the second-stage cap below the scan's first
    alpha: nothing passes, and the bounds say so instead of raising."""
    sb = stepsize_bounds(SYM2, lambda_bar=1.0 - 1e-9)
    assert sb == (1.0, 0.0, False)
    assert not theory._second_stage_ok(1.0 / theory._GRID, SYM2, 1.0 - 1e-9)


def test_stepsize_bounds_lambda_validation():
    with pytest.raises(ValueError):
        stepsize_bounds(SYM2, lambda_bar=1.0)
    with pytest.raises(ValueError):
        stepsize_bounds(SYM2, lambda_bar=-0.2)


def test_mse_bounds_symmetric2():
    sched = NoiseSchedule.uniform(2, q=0.98)
    b = mse_bounds(sched, SYM2, 2, 1)
    n_zeta = 2 * 2 * 1.0 / (1.0 - 0.98**2)
    assert b.N_zeta == pytest.approx(n_zeta, rel=1e-12)
    assert b.lower == pytest.approx(n_zeta / 4.0, rel=1e-12)
    assert b.upper == pytest.approx(n_zeta / 2.0, rel=1e-12)
    assert b.N_zeta == pytest.approx(101.01010101010081, rel=1e-12)


def test_mse_bounds_disabled_and_scaling():
    assert mse_bounds(NoiseSchedule.disabled(2), SYM2, 2, 1) == (0.0, 0.0, 0.0)
    base = mse_bounds(NoiseSchedule.uniform(2, q=0.98), SYM2, 2, 1)
    quad = mse_bounds(NoiseSchedule.uniform(2, d_zeta=2.0, q=0.98), SYM2, 2, 1)
    assert quad.N_zeta == pytest.approx(4.0 * base.N_zeta, rel=1e-12)
    # the eta channel never enters the stationary error
    eta_only = mse_bounds(NoiseSchedule.uniform(2, d_eta=9.0, q=0.98), SYM2, 2, 1)
    assert eta_only.N_zeta == pytest.approx(base.N_zeta, rel=1e-12)


def test_mse_bounds_validation():
    sched = NoiseSchedule.uniform(2, q=0.98)
    with pytest.raises(ValueError):
        mse_bounds(sched, SYM2, 3, 1)  # agent count mismatch
    fake = SimpleNamespace(
        n=2,
        d_eta=np.ones(2),
        d_zeta=np.ones(2),
        q=np.array([1.0, 0.98]),
    )
    with pytest.raises(ValueError, match="diverge"):
        mse_bounds(fake, SYM2, 2, 1)


def test_q_interval_reference_points():
    qi = q_interval(0.01, 1.0, 1.0)
    assert qi.q_min == pytest.approx(0.10512492197250393, rel=1e-14)
    assert qi.tau2 == pytest.approx(-0.09512492197250393, rel=1e-14)
    assert qi == (qi.q_min, qi.tau2)  # the interval's upper end is always 1
    qi = q_interval(0.45, 2.0, 1.0)
    assert qi.q_min == pytest.approx(0.6, abs=1e-15)
    assert qi.tau2 == pytest.approx(-0.375, abs=1e-15)


def test_q_interval_inadmissible_when_alpha_dominates():
    # q_min reaches 1 once alpha >= phi / (2 ||A||^2)
    with pytest.raises(InadmissibleDecayError):
        q_interval(3.0, 2.0, 1.0)


@pytest.mark.parametrize("args", [
    (0.0, 2.0, 1.0), (math.nan, 2.0, 1.0), (0.45, math.nan, 1.0), (0.45, 2.0, math.nan),
])
def test_q_interval_needs_positive_arguments(args):
    """q_interval raises ValueError where an argument is not positive, NaN included,
    so the certificate is the all-NaN uncovered one, and its reason is that message."""
    with pytest.raises(ValueError, match="must be positive") as raised:
        q_interval(*args)
    cert = certificate(*args, 0.9, 1.0, 1.0, 1.0)
    assert all(math.isnan(v) for v in cert[:6])
    assert cert.reason == str(raised.value)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(min_value=1e-3, max_value=0.4),
    phi=st.floats(min_value=0.5, max_value=4.0),
    A=st.floats(min_value=0.3, max_value=1.5),
)
def test_q_interval_roots_solve_characteristic_polynomial(alpha, phi, A):
    try:
        qi = q_interval(alpha, phi, A)
    except InadmissibleDecayError:
        assert alpha >= phi / (2.0 * A**2) - 1e-12
        return
    # both roots satisfy phi t^2 - alpha ||A||^2 t - alpha ||A||^2 = 0
    for t in (qi.q_min, qi.tau2):
        assert phi * t**2 - alpha * A**2 * t - alpha * A**2 == pytest.approx(0.0, abs=1e-10)
    assert qi.q_min * qi.tau2 == pytest.approx(-alpha * A**2 / phi, rel=1e-10)
    assert qi.q_min + qi.tau2 == pytest.approx(alpha * A**2 / phi, rel=1e-10)
    assert -1.0 < qi.tau2 < 0.0 < qi.q_min < 1.0


def certify(alpha, d_zeta, d_eta, phi, A_norm, q, delta):
    """The certificate at decay q, its arguments in the order of the tests below."""
    return certificate(alpha, phi, A_norm, q, d_eta, d_zeta, delta)


def epsilons(*args):
    """(eps_theory, eps_theory_printed, eps_star, eps_star_printed) of certify(*args)."""
    return certify(*args)[2:6]


def test_privacy_epsilon_reference_point():
    eps, _, star, _ = epsilons(0.01, 1.0, 1.0, 1.0, 1.0, 0.98, 1.0)
    assert eps == pytest.approx(1.073782691898788, rel=1e-12)
    assert star == pytest.approx(1.06315118009781, rel=1e-12)
    assert star < eps
    cert = certify(0.01, 1.0, 1.0, 1.0, 1.0, 0.98, 1.0)
    assert cert[:2] == q_interval(0.01, 1.0, 1.0) and cert.reason == ""


def test_privacy_epsilon_denominator_forms():
    # at ||A|| = 1.5 the proof-consistent and printed denominators split:
    # D = phi q^2 - alpha ||A||^2 (q + 1) = 1.1925, D_printed = 1.43
    eps, eps_printed, star, star_printed = epsilons(0.1, 1.0, 1.0, 2.0, 1.5, 0.9, 1.0)
    assert eps == pytest.approx(2.767295597484277, rel=1e-12)
    assert eps_printed == pytest.approx(2.307692307692308, rel=1e-12)
    assert star == pytest.approx(2.515723270440252, rel=1e-12)
    assert star_printed == pytest.approx(2.097902097902098, rel=1e-12)


def test_privacy_epsilon_validation():
    """An uncovered setup has NaN in all four epsilons; only a negative delta raises."""
    for args in [
        (0.1, 0.0, 1.0, 2.0, 1.0, 0.9, 1.0),  # a zero mask scale
        (0.45, 1.0, 1.0, 2.0, 1.0, 0.5, 1.0),  # q below q_min = 0.6
        (0.45, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0),  # q must stay below 1
    ]:
        assert all(math.isnan(eps) for eps in epsilons(*args))
    with pytest.raises(ValueError, match="delta"):
        certify(0.1, 1.0, 1.0, 2.0, 1.0, 0.9, -1.0)


@pytest.mark.parametrize(
    "args,q_min_defined",
    [
        ((0.1, 1.0, 0.0, 2.0, 1.0, 0.9, 1.0), True),  # a zero eta scale
        ((0.0, 1.0, 1.0, 2.0, 1.0, 0.9, 1.0), False),  # no interval at alpha = 0
        ((1.5, 1.0, 1.0, 2.0, 1.0, 0.9, 1.0), False),  # nor where q_min >= 1
        ((1e-200, 1e-200, 1.0, 2.0, 1.0, 0.9, 1.0), True),  # alpha * d_zeta underflows
        ((0.1, 1.0, 1e-320, 2.0, 1.0, 0.9, 1.0), True),  # 1 / d_eta overflows
        ((0.1, 1e-320, 1.0, 2.0, 1.0, 0.9, 1.0), True),  # 1 / (alpha * d_zeta) overflows
    ],
)
def test_certificate_covers_no_setup_whose_epsilon_is_not_finite(args, q_min_defined):
    """Every uncovered setup names its reason; where no interval exists, it is q_interval's."""
    cert = certify(*args)
    assert all(math.isnan(eps) for eps in cert[2:6])
    assert math.isnan(cert.q_min) != q_min_defined
    assert math.isnan(cert.tau2) != q_min_defined
    if not q_min_defined:
        assert cert.reason.startswith(("alpha = ", "q_min = "))
    else:
        zero_scale = args[1:3].count(0.0)
        assert cert.reason.startswith("mask scales " if zero_scale else "epsilon is not finite ")


def test_certificate_printed_form_is_nan_where_its_denominator_is_not_positive():
    """Just above q_min at ||A|| < 1 the printed denominator phi q^2 - alpha q - alpha
    is negative; eps_theory stays finite, so the setup is still covered."""
    alpha, phi, A_norm = 0.1, 1.0, 0.5
    q = q_interval(alpha, phi, A_norm).q_min + 1e-3
    assert phi * q**2 - alpha * q - alpha < 0
    eps, eps_printed, star, star_printed = epsilons(alpha, 1.0, 1.0, phi, A_norm, q, 1.0)
    assert math.isfinite(eps) and math.isfinite(star)
    assert math.isnan(eps_printed) and math.isnan(star_printed)


def test_epsilon_star_is_the_infinite_eta_limit():
    full = epsilons(0.2, 0.7, math.inf, 1.5, 1.2, 0.9, 0.8)
    star = epsilons(0.2, 0.7, 1.0, 1.5, 1.2, 0.9, 0.8)[2]
    assert full[0] == pytest.approx(star, rel=1e-15)


def test_zero_delta_gives_zero_epsilon():
    assert epsilons(0.1, 1.0, 1.0, 2.0, 1.0, 0.9, 0.0)[0] == 0.0


def test_theory_constants_symmetric2():
    sched = NoiseSchedule.uniform(2, q=0.98)
    tc = theory_constants(0.45, SYM2, 0.0, stepsize_bounds(SYM2, 0.0), schedule=sched)
    assert tc.C == pytest.approx(0.775, abs=1e-15)
    assert tc.lambda_bar == 0.0
    assert tc.r_lb == pytest.approx(0.98, abs=1e-15)  # the decay floor dominates
    assert tc.alpha_max_t1 == 1.0
    assert tc.alpha_max_t2 == pytest.approx(0.5, abs=1e-9)


def test_theory_constants_rate_floor_without_noise():
    tc = theory_constants(0.45, SYM2, 0.0, stepsize_bounds(SYM2, 0.0), NoiseSchedule.disabled(2))
    assert tc.r_lb == pytest.approx(max(0.775, 0.0), abs=1e-15)


@pytest.mark.parametrize(
    "alpha,C", [(0.0, 1.0), (3.0, 0.5), (1e200, math.inf), (math.inf, math.nan), (-1.0, math.nan)]
)
def test_theory_constants_take_C_from_contraction_C_alone(alpha, C):
    """No decay interval exists at these stepsizes (alpha = 0, past phi / (2 ||A||^2) = 1,
    at 1e200 alpha**2 overflows), but C is contraction_C's value wherever it has one:
    NaN only where it returns NaN (alpha = inf) or raises (a negative alpha). r_lb is
    max(C, lambda_bar, the decays), NaN with C; lambda_bar and the stepsize caps,
    which do not depend on alpha, keep their values."""
    bounds = stepsize_bounds(SYM2, 0.25)
    tc = theory_constants(alpha, SYM2, 0.25, bounds, schedule=NoiseSchedule.uniform(2, q=0.98))
    assert tc.C == pytest.approx(C, nan_ok=True)
    assert tc.r_lb == pytest.approx(max(C, 0.98), nan_ok=True)
    assert (tc.lambda_bar, tc.alpha_max_t1, tc.alpha_max_t2) == (0.25, *bounds[:2])
    assert tc._fields == ("C", "lambda_bar", "r_lb", "alpha_max_t1", "alpha_max_t2")
