import itertools
from unittest import mock

import numpy as np
import pytest

from dmtrack import cli, noise, privacy_audit, theory

from dmtrack.engine import RunConfig, run
from dmtrack.errors import ConfigError, InadmissibleDecayError, SolverFailure
from dmtrack.local_solver import ArgminResult, argmin_local, argmin_rows
from dmtrack.noise import NoiseSchedule
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost
from dmtrack.privacy_audit import (
    CHECK_SLACK,
    HORIZON_CAP,
    HORIZON_MIN,
    AuditReport,
    _pick_horizon,
    _tail_bound,
    forced_difference_run,
    make_adjacent_pair,
)
from dmtrack.theory import certificate, q_interval

from conftest import build_preset, eta_bound_check, sweep_epsilon
from test_engine import at_09_alpha_max_t1, nondiagonal3
from test_harness import write_config


@pytest.fixture(scope="module")
def sym2():
    inst, W, mod = build_preset("symmetric2")
    return inst, W.W


def audit_one(pair, W, sched, alpha, seed, horizon=None):
    """The one entry forced_difference_run returns for [sched]: a report or an error."""
    [report] = forced_difference_run(pair, W, [sched], alpha, seed, horizon=horizon)
    return report


@pytest.fixture(scope="module")
def base_report(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    sched = NoiseSchedule.uniform(2, q=0.98)
    return pair, audit_one(pair, W, sched, 0.45, seed=0), sched


def test_adjacent_pair_defaults(sym2):
    inst, _ = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    assert pair.i0 == 0
    assert pair.delta == 1.0
    np.testing.assert_allclose(pair.delta_prime, [0.5])
    assert pair.base is inst
    # only the audited agent differs
    assert pair.shifted.agents[1] is inst.agents[1]
    assert pair.shifted.agents[0] is not inst.agents[0]


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan])
def test_adjacent_pair_needs_a_positive_delta(sym2, delta):
    with pytest.raises(ValueError, match="^delta must be positive"):
        make_adjacent_pair(sym2[0], 0, delta)


def test_adjacent_pair_validation(sym2):
    inst, _ = sym2
    with pytest.raises(ValueError, match="^delta_prime"):
        make_adjacent_pair(inst, 0, 1.0, delta_prime=[1.0])  # norm must be < delta
    ok = make_adjacent_pair(inst, 0, 1.0, delta_prime=[0.9])
    np.testing.assert_allclose(ok.delta_prime, [0.9])
    for i0 in (-1, 2):
        with pytest.raises(ValueError, match="^i0 "):
            make_adjacent_pair(inst, i0, 1.0)
    with pytest.raises(ValueError, match="^delta_prime"):
        make_adjacent_pair(inst, 0, 1.0, delta_prime=[0.1, 0.2])  # p = 1
    inst3, _ = nondiagonal3()  # p = 2: a scalar is broadcast, a wrong length is not
    np.testing.assert_array_equal(make_adjacent_pair(inst3, 0, 1.0, 0.3).delta_prime, [0.3, 0.3])
    for bad in ([0.3], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError, match="^delta_prime"):
            make_adjacent_pair(inst3, 0, 1.0, delta_prime=bad)


def test_adjacent_pair_norm_does_not_overflow(sym2):
    """A shift whose norm is below delta but whose squared norm overflows passes
    the norm check; its shifted cost is not finite, so it is rejected for that,
    with no numpy warning. A norm above delta is still named."""
    inst, _ = sym2
    non_finite = r"^delta_prime \[5e\+199\] makes agent 0's shifted cost non-finite$"
    with pytest.raises(ValueError, match=non_finite):
        make_adjacent_pair(inst, 0, 1e200)  # delta_prime = 5e199 by default
    with pytest.raises(ValueError, match=r"^delta_prime \[3e\+200\] has norm 3e\+200, "):
        make_adjacent_pair(inst, 0, 1e200, delta_prime=[3e200])
    inst3, _ = nondiagonal3()
    with pytest.raises(ValueError, match="^delta_prime .* makes agent 1's shifted cost non-finite$"):
        make_adjacent_pair(inst3, 1, 1e200, delta_prime=[3e199, 4e199])  # norm 5e199
    with pytest.raises(ValueError, match=r"^delta_prime .* has norm 2e\+200, "):
        make_adjacent_pair(inst3, 1, 1e200, delta_prime=[1.2e200, 1.6e200])


def test_forced_run_frozen_regression(base_report):
    _, rep, _ = base_report
    assert rep.horizon == 32
    assert rep.i0 == 0
    assert rep.bound_violations == 0
    assert rep.eps_empirical == pytest.approx(1.3886197951492356, rel=1e-12)
    assert rep.eps_theoretical == pytest.approx(2.816080792386872, rel=1e-12)
    assert rep.eps_star == pytest.approx(1.942124684404739, rel=1e-12)
    assert rep.tail == pytest.approx(8.610664589728906e-07, rel=1e-9)
    # perturbation starts two rounds in: round 1 reuses the base dual
    assert rep.delta_eta_norms[0] == 0.0
    assert rep.delta_eta_norms[1] == 0.0
    assert rep.delta_eta_norms[2] == pytest.approx(0.225, abs=1e-12)
    assert rep.delta_eta_norms[3] == pytest.approx(0.050625, abs=1e-12)
    assert rep.delta_eta_norms[4] == pytest.approx(0.062015625, abs=1e-9)
    assert rep.eps_star < rep.eps_theoretical


def test_eps_closure_from_norm_arrays(base_report):
    # m = 1 so the l1 accumulation equals the recorded 2-norms
    _, rep, sched = base_report
    ks = np.arange(1, len(rep.delta_eta_norms))
    theta_zeta = float(sched.d_zeta[0]) * float(sched.q_zeta[0]) ** ks
    theta_eta = float(sched.d_eta[0]) * float(sched.q_eta[0]) ** ks
    recomputed = (
        float(np.sum(rep.delta_zeta_norms[1:] / theta_zeta))
        + float(np.sum(rep.delta_eta_norms[1:] / theta_eta))
        + rep.tail
    )
    assert recomputed == pytest.approx(rep.eps_empirical, rel=1e-12)
    assert rep.eps_empirical <= rep.eps_theoretical


def test_eta_bound_check_and_tampering(base_report):
    _, rep, _ = base_report
    qi = q_interval(0.45, 2.0, 1.0)
    assert eta_bound_check(rep, 0.45, 1.0, 1.0, qi.tau1, qi.tau2)
    rep.delta_eta_norms[2] *= 10.0
    assert not eta_bound_check(rep, 0.45, 1.0, 1.0, qi.tau1, qi.tau2)
    rep.delta_eta_norms[2] /= 10.0


def test_audit_is_seed_independent_off_the_boxes(sym2):
    # wide boxes never activate here, so the perturbation recursion does not
    # depend on the realized trajectory
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    sched = NoiseSchedule.uniform(2, q=0.98)
    r0 = audit_one(pair, W, sched, 0.45, seed=0)
    r1 = audit_one(pair, W, sched, 0.45, seed=12345)
    np.testing.assert_allclose(r1.delta_eta_norms, r0.delta_eta_norms, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(r1.delta_zeta_norms, r0.delta_zeta_norms, rtol=1e-9, atol=1e-12)


def test_audit_other_agent(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 1, 1.0)
    rep = audit_one(pair, W, NoiseSchedule.uniform(2, q=0.98), 0.45, seed=3)
    assert rep.i0 == 1
    assert rep.bound_violations == 0
    assert rep.eps_empirical <= rep.eps_theoretical


def test_horizon_override_and_validation(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    sched = NoiseSchedule.uniform(2, q=0.98)
    rep = audit_one(pair, W, sched, 0.45, seed=0, horizon=5)
    assert rep.horizon == 5
    assert len(rep.delta_eta_norms) == 6
    with pytest.raises(ValueError):
        forced_difference_run(pair, W, [sched], 0.45, seed=0, horizon=0)


def test_horizon_selection_extremes(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    # enormous mask scales make even round 1 negligible
    huge = NoiseSchedule.uniform(2, d_eta=1e9, d_zeta=1e9, q=0.98)
    assert audit_one(pair, W, huge, 0.45, seed=0).horizon == HORIZON_MIN
    # q barely above q_min = 0.6 pushes the tail horizon past the cap
    slow = NoiseSchedule.uniform(2, q=0.601)
    rep = audit_one(pair, W, slow, 0.45, seed=0)
    assert rep.horizon == HORIZON_CAP
    assert rep.bound_violations == 0
    assert np.isfinite(rep.eps_empirical)
    # at d_zeta = 2e-308 the certificate is finite (9.7e307) but the tail bound
    # overflows: the horizon is capped, and the infinite tail certifies nothing
    overflow = NoiseSchedule.uniform(2, d_zeta=2e-308, q=0.98)
    rep = audit_one(pair, W, overflow, 0.45, seed=0)
    assert rep.horizon == HORIZON_CAP and rep.tail == rep.eps_empirical == np.inf
    assert np.isfinite(rep.eps_theoretical)


def test_schedule_rejections(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    with pytest.raises(ConfigError):
        audit_one(pair, W, NoiseSchedule.uniform(2, d_zeta=0.0), 0.45, seed=0)
    with pytest.raises(ConfigError):
        audit_one(pair, W, NoiseSchedule.disabled(2), 0.45, seed=0)
    split = NoiseSchedule(
        d_eta=np.ones(2), d_zeta=np.ones(2), q_eta=np.full(2, 0.97), q_zeta=np.full(2, 0.98)
    )
    with pytest.raises(ConfigError, match="one decay"):
        audit_one(pair, W, split, 0.45, seed=0)


@pytest.mark.parametrize("alpha", [0.0, -0.45, np.nan])
def test_the_audit_needs_a_positive_stepsize(sym2, alpha):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    with pytest.raises(ConfigError, match="positive stepsize"):
        forced_difference_run(pair, W, [NoiseSchedule.uniform(2)], alpha, 0)


def test_inadmissible_decay(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    report = audit_one(pair, W, NoiseSchedule.uniform(2, q=0.5), 0.45, seed=0)
    assert isinstance(report, InadmissibleDecayError)


def test_decay_is_checked_once_per_audit(sym2, base_report):
    """forced_difference_run reuses the interval of its one admissibility check."""
    inst, W = sym2
    pair, expect, sched = base_report
    real = theory.q_interval
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(theory, "q_interval", counted):
        report = audit_one(pair, W, sched, 0.45, seed=0)
    assert len(calls) == 1
    ag = inst.agents[0]
    cert = certificate(0.45, ag.cost.phi, ag.A_norm, 0.98, 0.98, 1.0, 1.0, 1.0)
    assert (report.eps_theoretical, report.eps_star) == (cert.eps_theory, cert.eps_star)
    assert report.eps_empirical == expect.eps_empirical


def test_sweep_marks_inadmissible_points(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    sched = NoiseSchedule.uniform(2)
    rows, flags = sweep_epsilon(pair, W, sched, (0.5, 1.0), (0.5, 0.98), 0.45, seed=11)
    assert len(rows) == 4
    bad = [r for r in rows if r["q"] == 0.5]
    good = sorted((r for r in rows if r["q"] == 0.98), key=lambda r: r["d_zeta"])
    assert all(not r["admissible"] and np.isnan(r["eps_empirical"]) for r in bad)
    assert all(r["admissible"] and r["violations"] == 0 for r in good)
    # more zeta noise buys a smaller epsilon
    assert good[1]["eps_empirical"] <= good[0]["eps_empirical"] + 1e-12
    assert flags["monotone_in_d_zeta"]
    assert flags["monotone_in_q"]


@pytest.mark.parametrize("a", [0.25, 1.0, -2.0])
def test_a_1x1_matvec_is_one_product_with_its_zero_add(a):
    """The recursion multiplies rows by a 1 x 1 A_i0 with one product and a
    `+ 0.0`: the bytes of the stacked matvec, zeros of either sign, underflow,
    infinities and NaN included. The bare product keeps -0.0 and differs."""
    u = np.array([[0.0], [-0.0], [5e-324], [-5e-324], [1.5], [np.inf], [-np.inf], [np.nan]])
    M = np.array([[a]])
    got = np.empty_like(u)
    privacy_audit._matvecs(M)(u, got)
    want = (M @ u[..., None])[..., 0]
    assert got.tobytes() == want.tobytes()
    assert (u * a).tobytes() != want.tobytes()


def reference_forced_difference_run(
    pair, W, schedule, config, seed, horizon=None, solver=argmin_local
):
    """The audit as one per-round loop over a base run of the whole horizon K.

    An independent reference for forced_difference_run: every statistic is
    computed inside the loop, round by round, with np.linalg.norm. The norm
    arrays end at the last round the signal floor lets the audit measure.
    """
    base, i0 = pair.base, pair.i0
    m, p = base.m, base.p
    ag, ag_shift = base.agents[i0], pair.shifted.agents[i0]
    alpha = config.alpha
    d_eta, d_zeta = float(schedule.d_eta[i0]), float(schedule.d_zeta[i0])
    q = float(schedule.q_zeta[i0])
    _, tau1, tau2 = theory.q_interval(alpha, ag.cost.phi, ag.A_norm)
    assert tau1 < q < 1.0
    if horizon is None:
        K = _pick_horizon(alpha, pair.delta, ag.A_norm, tau1, tau2, q, d_eta, d_zeta, m)
    else:
        K = int(horizon)
    run_cfg = RunConfig(alpha=alpha, iters=K, record_every=K)
    trace = run(base, W, schedule, run_cfg, [seed], keep_states=True)
    states_mu, states_x = trace.states_mu[0], trace.states_x[0]

    env_coef = alpha * pair.delta * ag.A_norm / (tau1 - tau2)
    eq52_coef = ag.A_norm**2 / ag.cost.phi
    diverged_at = 1e9 * max(1.0, alpha * pair.delta * ag.A_norm)
    signal_floor = 1e-12 * max(1.0, alpha * pair.delta * ag.A_norm)

    def envelope_at(k):
        return env_coef * (tau1 ** (k - 1) - tau2 ** (k - 1))

    k_last = next((k - 1 for k in range(2, K + 1) if envelope_at(k) < signal_floor), K)

    eta_norms = np.zeros(K + 1)
    zeta_norms = np.zeros(K + 1)
    eps_e = 0.0
    violations = 0
    k_measured = K
    dy_prev = np.zeros(m)
    dx_prev = np.zeros(p)
    for k in range(1, K + 1):
        envelope = envelope_at(k)
        if k > 1 and envelope < signal_floor:
            k_measured = k - 1
            break
        dmu = -alpha * dy_prev
        mu2 = states_mu[k, i0] + dmu
        x2 = solver(ag_shift.cost, ag_shift.box, ag.A.T @ mu2).x
        dx = x2 - states_x[k, i0]
        dy = ag.A @ (dx - dx_prev)
        d_eta_k = -dmu
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
        if not eta_norms[k] <= diverged_at:  # NaN too
            violations += 1
            break
        dy_prev, dx_prev = dy, dx

    tail = _tail_bound(k_measured, alpha, pair.delta, ag.A_norm, tau1, tau2, q, d_eta, d_zeta, m)
    cert = theory.certificate(alpha, ag.cost.phi, ag.A_norm, q, q, d_eta, d_zeta, pair.delta)
    return AuditReport(
        eps_empirical=eps_e + tail,
        eps_theoretical=cert.eps_theory,
        eps_star=cert.eps_star,
        delta_eta_norms=eta_norms[: k_last + 1],
        delta_zeta_norms=zeta_norms[: k_last + 1],
        bound_violations=violations,
        horizon=K,
        tail=tail,
        i0=i0,
    )


def report_bytes(report, any_nan=False):
    """Every AuditReport field as bytes; with any_nan, every NaN as np.nan's."""
    fields = {name: np.asarray(value) for name, value in vars(report).items()}
    if any_nan:
        fields = {name: np.where(np.isnan(a), np.nan, a) for name, a in fields.items()}
    return {name: a.tobytes() for name, a in fields.items()}


def assert_matches_reference(pair, W, sched, cfg, seed, horizon=None):
    got = audit_one(pair, W, sched, cfg.alpha, seed, horizon=horizon)
    want = reference_forced_difference_run(pair, W, sched, cfg, seed, horizon=horizon)
    assert report_bytes(got) == report_bytes(want)
    return got


@pytest.mark.parametrize("horizon", [None, 50, 3000])
@pytest.mark.parametrize("alpha", [0.45, 0.9])
def test_symmetric2_grid_matches_the_per_round_reference(sym2, alpha, horizon):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=alpha, iters=1)
    for dz in (0.5, 1.0, 2.0):
        for q in (0.95, 0.98, 0.99):
            sched = NoiseSchedule.uniform(2, d_zeta=dz, q=q)
            assert_matches_reference(pair, W, sched, cfg, seed=11, horizon=horizon)


def test_nondiagonal_boxed_instance_matches_the_per_round_reference():
    """Coupled 2-d costs on [-1, 1] boxes: argmin_local's projected-gradient path."""
    inst, W = nondiagonal3()
    for i0, delta_prime in ((0, None), (1, [0.3, -0.4]), (2, [-0.2, 0.1])):
        pair = make_adjacent_pair(inst, i0, 1.0, delta_prime)
        for alpha, q in ((0.05, 0.6), (0.1, 0.9)):
            sched = NoiseSchedule.uniform(3, d_zeta=0.7, q=q)
            for seed in (3, 4):
                assert_matches_reference(pair, W.W, sched, RunConfig(alpha=alpha, iters=1), seed)


def jumping(solve, jump):
    """`solve`, except that its fifth call (round 5 of an audit) returns jump(result).
    An `out` the audit passes to argmin_rows is left alone: the audit reads the result."""
    calls = []

    def solver(cost, box, c, out=None):
        calls.append(c)
        result = solve(cost, box, c)
        return jump(result) if len(calls) == 5 else result

    return solver


def test_divergence_break_matches_the_per_round_reference(sym2):
    """A shifted solve that jumps by 1e12 at its fifth call blows ||Delta eta||
    past the divergence threshold: the loop stops there, counts the violation,
    and takes the tail at the horizon K."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.9, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.95)
    with mock.patch.object(privacy_audit, "argmin_rows", jumping(argmin_rows, lambda x: x + 1e12)):
        got = audit_one(pair, W, sched, cfg.alpha, seed=11)

    def jump(result):
        return ArgminResult(x=result.x + 1e12, kkt_residual=result.kkt_residual)

    want = reference_forced_difference_run(
        pair, W, sched, cfg, seed=11, solver=jumping(argmin_local, jump)
    )
    assert report_bytes(got) == report_bytes(want)
    assert got.bound_violations >= 1
    assert got.delta_eta_norms[6] > 1e9 and not got.delta_eta_norms[7:].any()
    ag = inst.agents[0]
    qi = q_interval(0.9, ag.cost.phi, ag.A_norm)
    assert got.tail == _tail_bound(
        got.horizon, 0.9, 1.0, ag.A_norm, qi.tau1, qi.tau2, 0.95, 1.0, 1.0, 1
    )


# m = p = 2: nondiagonal3's agent 1 audited at alpha = 0.1 and this delta, whose
# divergence threshold 1e9 alpha delta ||A_1|| is ND_THRESHOLD. The radius is huge
# and the shift small, so every solution stays O(1) and a jump J >= 2**60 added
# to round 5's shifted solution reaches Delta x(5) - Delta x(4) exactly; round
# 6's Delta eta is then -alpha A_1 J, rounded as the audit rounds it
ND_ALPHA, ND_DELTA = 0.1, 2246825723.942409
ND_THRESHOLD = 1e9 * max(1.0, ND_ALPHA * ND_DELTA * nondiagonal3()[0].agents[1].A_norm)
# found by a search over the ulps of J near A_1^-1 (1, -1): round 6's entries
# have equal magnitude, and their norm is one ulp above the threshold, while
# sqrt(2) times the largest entry, rounded, is not
ND_EQUAL = [float.fromhex("0x1.4ccccccccccc5p+60"), -float.fromhex("0x1.1867223e47e71p+61")]


def nondiagonal_pair():
    inst, W = nondiagonal3()
    return make_adjacent_pair(inst, 1, ND_DELTA, [0.3, -0.4]), W.W


def predicted_delta_eta(pair, jump):
    """Round 6's Delta eta when round 5's shifted solution jumps by `jump`."""
    dy = np.empty((1, 2))
    privacy_audit._matvecs(pair.base.agents[1].A)(np.array([jump]), dy)
    return -ND_ALPHA * dy[0]


def guarded_rows(jumps):
    """argmin_rows, except that its fifth call adds jumps[g] to row g's solution.
    A row whose c is not finite gets its box's center, where argmin_rows gives
    a NaN row, so that a row the audit does not retire turns finite again. Like
    `jumping`, it returns a new array and leaves any `out` alone."""
    calls = []

    def solve(cost, box, c, out=None):
        calls.append(c)
        x = np.array([
            argmin_local(cost, box, row).x if np.isfinite(row).all()
            else (box.lower + box.upper) / 2.0
            for row in c
        ])
        return x + np.asarray(jumps) if len(calls) == 5 else x

    return solve


def guarded_reference(pair, W, sched, jump):
    rows = guarded_rows([jump])

    def solver(cost, box, c):
        return ArgminResult(x=rows(cost, box, c[None])[0], kkt_residual=0.0)

    cfg = RunConfig(alpha=ND_ALPHA, iters=1)
    return reference_forced_difference_run(pair, W, sched, cfg, 3, horizon=10, solver=solver)


def nd_schedule(q=0.9):
    return NoiseSchedule.uniform(3, d_zeta=0.7, q=q)


def crossing_jump(pair):
    """A jump whose round-6 Delta eta has entries 0.8 and 0.75 times the threshold:
    each stays below it, their norm does not."""
    A = pair.base.agents[1].A
    return np.linalg.solve(A, [0.8, 0.75]) * (-ND_THRESHOLD / ND_ALPHA)


@pytest.mark.parametrize("case", ["sqrt_m", "ulps_above", "inf", "nan"])
def test_divergence_break_at_m_2_matches_the_per_round_reference(case):
    """The divergence test at m = 2 skips the norms only where no row can cross:
    (sqrt_m) a norm above the threshold whose entries are below it, (ulps_above)
    a norm one ulp above it from entries of equal magnitude, so that sqrt(2)
    times the largest entry, rounded, is not above it, and a jump to inf or
    NaN, whose NaN norm is a divergence too. The non-finite cases compare NaNs
    by value: the sign of a NaN the arithmetic makes differs between the two
    (np.linalg.norm against a matmul)."""
    pair, W = nondiagonal_pair()
    jump = {
        "sqrt_m": crossing_jump(pair), "ulps_above": ND_EQUAL,
        "inf": [np.inf, 0.0], "nan": [np.nan, 0.0],
    }[case]
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(privacy_audit, "argmin_rows", guarded_rows([jump])):
            got = audit_one(pair, W, nd_schedule(), ND_ALPHA, 3, horizon=10)
        want = guarded_reference(pair, W, nd_schedule(), jump)
    finite = case in ("sqrt_m", "ulps_above")
    assert report_bytes(got, any_nan=not finite) == report_bytes(want, any_nan=not finite)
    eta = got.delta_eta_norms
    assert len(eta) == 11 and np.all(eta[1:6] < 1.0)
    assert np.isnan(eta[6]) if case == "nan" else eta[6] > ND_THRESHOLD
    assert not eta[7:].any() and got.bound_violations >= 1
    dmu = predicted_delta_eta(pair, jump)
    if case == "sqrt_m":
        assert np.abs(dmu).max() < 0.81 * ND_THRESHOLD
    if case == "ulps_above":
        assert eta[6] == np.nextafter(ND_THRESHOLD, np.inf)
        assert abs(dmu[0]) == abs(dmu[1]) and eta[6] == privacy_audit._norms(dmu[None], 1)[0]
        assert not abs(dmu[0]) > ND_THRESHOLD / np.sqrt(2.0)


def test_a_nan_row_does_not_hide_a_crossing_row_at_m_2():
    """One batch round in which row 0 turns NaN, row 1 crosses the threshold by
    its norm alone, row 2 jumps to inf and row 3 does not jump: each report
    equals the per-round reference of its schedule with its own jump, and the
    first three count a divergence."""
    pair, W = nondiagonal_pair()
    schedules = [nd_schedule(q) for q in (0.8, 0.85, 0.9, 0.95)]
    jumps = [[np.nan, 0.0], crossing_jump(pair), [np.inf, 0.0], [0.0, 0.0]]
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(privacy_audit, "argmin_rows", guarded_rows(jumps)):
            batch = forced_difference_run(pair, W, schedules, ND_ALPHA, 3, horizon=10)
        wants = [guarded_reference(pair, W, s, jump) for s, jump in zip(schedules, jumps)]
    for got, want in zip(batch, wants):
        assert report_bytes(got, any_nan=True) == report_bytes(want, any_nan=True)
    assert [report.bound_violations > 0 for report in batch] == [True, True, True, False]


def test_an_overflowing_norm_still_counts_as_divergence(sym2):
    """At delta = 1e200 the threshold is about 1e209. A jump of 1e160 in round 5
    makes round 6's Delta eta about 1e160, whose square overflows: its norm is
    inf, above the threshold, although its entry is far below it."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1e200, [0.5])
    cfg = RunConfig(alpha=0.9, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.95)

    def jump(result):
        return ArgminResult(x=result.x + 1e160, kkt_residual=result.kkt_residual)

    jumping_rows = jumping(argmin_rows, lambda x: x + 1e160)
    with np.errstate(over="ignore"):
        with mock.patch.object(privacy_audit, "argmin_rows", jumping_rows):
            got = audit_one(pair, W, sched, cfg.alpha, seed=11, horizon=10)
        want = reference_forced_difference_run(
            pair, W, sched, cfg, seed=11, horizon=10, solver=jumping(argmin_local, jump)
        )
    assert report_bytes(got) == report_bytes(want)
    assert got.delta_eta_norms[6] == np.inf and not got.delta_eta_norms[7:].any()


def test_a_non_finite_shifted_solve_of_a_nondiagonal_agent_counts_as_divergence():
    """Round 5's shifted solution jumped by (inf, 0) makes round 6's Delta eta
    and the shifted agent's linear term non-finite. The real argmin_rows gives
    that row a NaN solution instead of raising, so the audit counts the
    divergence and reports, as it does for a diagonal agent."""
    pair, W = nondiagonal_pair()
    rows = jumping(argmin_rows, lambda x: x + np.array([np.inf, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(privacy_audit, "argmin_rows", rows):
            report = audit_one(pair, W, nd_schedule(), ND_ALPHA, 3, horizon=10)
    assert report.delta_eta_norms[6] == np.inf and not report.delta_eta_norms[7:].any()
    assert report.bound_violations >= 1


@pytest.mark.parametrize("agent", ["nondiagonal", "diagonal"])
def test_a_nan_forced_difference_counts_as_divergence(sym2, agent):
    """Round 5's shifted solution jumped by NaN in its first entry makes round 6's
    Delta eta NaN, on nondiagonal3's agent 1 and on symmetric2's diagonal agent 0.
    NaN passes neither the envelope nor the eq. 52 check, so the audit counts it
    as a divergence, as it counts inf, and retires the row there."""
    if agent == "nondiagonal":
        (pair, W), audit, jump = nondiagonal_pair(), (nd_schedule(), ND_ALPHA, 3), [np.nan, 0.0]
    else:
        pair, W = make_adjacent_pair(sym2[0], 0, 1.0), sym2[1]
        audit, jump = (NoiseSchedule.uniform(2, q=0.95), 0.9, 11), [np.nan]
    rows = jumping(argmin_rows, lambda x: x + np.array(jump))
    with np.errstate(invalid="ignore"), mock.patch.object(privacy_audit, "argmin_rows", rows):
        report = audit_one(pair, W, *audit, horizon=10)
    assert np.isnan(report.delta_eta_norms[6]) and not report.delta_eta_norms[7:].any()
    assert report.bound_violations >= 1


@pytest.mark.parametrize("horizon", [10, None])
def test_cli_audit_fails_on_a_nan_forced_difference(tmp_path, capsys, horizon):
    """`audit` on symmetric2's agent 0 at alpha 0.9, q 0.95 and seed 11 reports a
    violation in audit.csv and exits 1 once round 5's shifted solution turns NaN.
    Without the jump it reports none; at horizon 10 the tail alone puts
    eps_empirical above eps_theory, so only the picked horizon exits 0, and at
    horizon 10 a stderr line says that the horizon is too short for the point."""
    overrides = {"algorithm.alpha": 0.9, "noise.q": 0.95, "seed": 11}
    path = write_config(tmp_path, **overrides, **{"audit.horizon": horizon} if horizon else {})
    verdicts, notes = [], []
    for jump in (0.0, np.nan):
        rows = jumping(argmin_rows, lambda x: x + jump)
        with np.errstate(invalid="ignore"), mock.patch.object(privacy_audit, "argmin_rows", rows):
            code = cli.main(["audit", "--config", str(path)])
        csv = (tmp_path / "out" / "audit.csv").read_text().splitlines()
        verdicts.append((code, int(csv[1].split(",")[-1]) > 0))
        notes.append(capsys.readouterr().err)
    assert verdicts == [(int(horizon == 10), False), (1, True)]
    short = ("note: d_zeta=1.0 q=0.95: measured loss 6.17624 plus tail 123.295 exceeds "
             "eps_theory 76; horizon 10 is too short to certify this point\n")
    assert notes == [short if horizon == 10 else "", ""]


def counting_envelopes(pows):
    """audited_certificate, with a tau1 that appends to `pows` each power taken of it:
    one per evaluation of the envelope coef (tau1^(k-1) - tau2^(k-1))."""
    certify = privacy_audit.audited_certificate

    class Tau1(float):
        def __pow__(self, k):
            pows.append(k)
            return float(self) ** k

    def counting(*args):
        cert = certify(*args)
        return cert._replace(tau1=Tau1(cert.tau1))

    return counting


def assert_batch_matches_one_schedule_audits(pair, W, schedules, alpha, seed, horizon=None):
    """Audit the schedules as one batch; each entry equals that schedule audited
    alone. The batch evaluates the envelope of each round once, up to its
    longest-measured point's last round, and of one round more where the
    envelope sinks below the signal floor before the largest horizon."""
    pows = []
    with mock.patch.object(privacy_audit, "audited_certificate", counting_envelopes(pows)):
        batch = forced_difference_run(pair, W, schedules, alpha, seed, horizon=horizon)
    assert len(batch) == len(schedules)
    for sched, got in zip(schedules, batch):
        alone = audit_one(pair, W, sched, alpha, seed, horizon=horizon)
        if isinstance(got, InadmissibleDecayError):
            assert isinstance(alone, InadmissibleDecayError)
        else:
            assert report_bytes(got) == report_bytes(alone)
    reports = [report for report in batch if isinstance(report, AuditReport)]
    longest = max((len(report.delta_eta_norms) - 1 for report in reports), default=0)
    floor = longest < max((report.horizon for report in reports), default=0)
    assert pows == list(range(longest + floor))
    return batch


GRID = [(dz, q) for dz in (0.5, 1.0, 2.0) for q in (0.95, 0.98, 0.99)]


@pytest.mark.parametrize("alpha", [0.45, 0.9])
def test_a_batched_grid_equals_its_one_schedule_audits(sym2, alpha):
    """At each horizon, with and without an inadmissible first point, each point
    measures up to its horizon K or up to the round before the envelope sinks
    below the signal floor (round 54 at alpha = 0.45, 391 at 0.9), whichever
    comes first: at horizon 50 every K comes first, at 3000 the floor does,
    and at alpha = 0.9 the default K is above the floor's round at q = 0.95
    and below it elsewhere."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    floor = {0.45: 53, 0.9: 390}[alpha]
    for horizon, first in itertools.product([None, 50, 3000], [[], [(1.0, 0.3)]]):
        schedules = [NoiseSchedule.uniform(2, d_zeta=dz, q=q) for dz, q in first + GRID]
        batch = assert_batch_matches_one_schedule_audits(pair, W, schedules, alpha, 11, horizon)
        admissible = [isinstance(report, AuditReport) for report in batch]
        assert admissible == [False] * len(first) + [True] * 9
        reports = batch[len(first):]
        measured = [len(report.delta_eta_norms) - 1 for report in reports]
        assert measured == [min(report.horizon, floor) for report in reports]
        if (alpha, horizon) == (0.9, None):
            assert min(measured) < floor < max(report.horizon for report in reports)


def test_a_batched_nondiagonal_grid_equals_its_one_schedule_audits():
    """Coupled 2-d costs: the shifted agent is solved one row at a time."""
    inst, W = nondiagonal3()
    pair = make_adjacent_pair(inst, 1, 1.0, [0.3, -0.4])
    schedules = [NoiseSchedule.uniform(3, d_zeta=dz, q=q) for dz in (0.7, 2.0) for q in (0.9, 0.95)]
    batch = assert_batch_matches_one_schedule_audits(pair, W.W, schedules, 0.1, 3)
    assert all(isinstance(report, AuditReport) for report in batch)


def test_a_batched_grid_mixing_inadmissible_points_and_measured_rounds(sym2):
    """Rows stop at their own last measured round; inadmissible points keep their error."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    schedules = [
        NoiseSchedule.uniform(2, q=0.5),  # below q_min = 0.6
        NoiseSchedule.uniform(2, d_eta=1e9, d_zeta=1e9, q=0.98),  # K = HORIZON_MIN
        NoiseSchedule.uniform(2, q=0.95),
        NoiseSchedule.uniform(2, q=0.3),
        NoiseSchedule.uniform(2, q=0.601),  # K = HORIZON_CAP
    ]
    batch = assert_batch_matches_one_schedule_audits(pair, W, schedules, 0.45, 5)
    admissible = [isinstance(report, AuditReport) for report in batch]
    assert admissible == [False, True, True, False, True]
    reports = [report for report in batch if isinstance(report, AuditReport)]
    assert [report.horizon for report in reports] == [HORIZON_MIN, 35, HORIZON_CAP]
    # q = 0.95 measures its whole horizon; at q = 0.601 the signal floor stops it at round 53.
    # The norm arrays end at the last measured round, and the tail covers the rest
    assert [np.flatnonzero(report.delta_eta_norms)[-1] for report in reports[1:]] == [35, 53]
    assert [len(report.delta_eta_norms) for report in reports] == [11, 36, 54]
    assert [len(report.delta_zeta_norms) for report in reports] == [11, 36, 54]


def test_a_jump_in_one_rows_shifted_solve_changes_that_point_alone(sym2):
    """Row 4's solve jumps by 1e12 in round 5: that point's report equals a lone
    audit whose solve jumps there, and every other point's is unchanged."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    schedules = [NoiseSchedule.uniform(2, d_zeta=dz, q=q) for dz, q in GRID]
    plain = [audit_one(pair, W, sched, 0.9, seed=11) for sched in schedules]

    def jump_row_4(x):
        x = x.copy()
        x[4] += 1e12
        return x

    with mock.patch.object(privacy_audit, "argmin_rows", jumping(argmin_rows, jump_row_4)):
        batch = forced_difference_run(pair, W, schedules, 0.9, seed=11)
    with mock.patch.object(privacy_audit, "argmin_rows", jumping(argmin_rows, lambda x: x + 1e12)):
        alone = audit_one(pair, W, schedules[4], 0.9, seed=11)
    assert alone.bound_violations > plain[4].bound_violations
    for g, report in enumerate(batch):
        assert report_bytes(report) == report_bytes(alone if g == 4 else plain[g])


def test_base_run_diverging_after_the_measured_rounds_completes_the_audit():
    """The base run stops at the last measured round. Here agent 1's curvature
    is too small for alpha = 1, so the network overflows at round 308, while
    the audited agent 0 has tau1 = 0.105: its envelope reaches the signal
    floor within 15 rounds, and q = 0.11 puts the tail horizon K at 476. The
    audit completes on finite states; a base run over all K rounds fails."""
    free = BoxSet.interval(-np.inf, np.inf)
    stiff, soft = (
        AgentSpec(cost=QuadraticCost.scalar(u), A=np.array([[1.0]]), d=np.array([1.0]), box=free)
        for u in (50.0, 0.05)
    )
    inst = ProblemInstance(agents=(stiff, soft))
    W = build_preset("symmetric2")[1].W
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=1.0, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.11)
    report = audit_one(pair, W, sched, cfg.alpha, seed=0)
    assert report.horizon == 476
    measured = np.flatnonzero(report.delta_eta_norms)
    assert 0 < measured[-1] < 15
    assert report.bound_violations == 0
    assert report.eps_empirical <= report.eps_theoretical
    with pytest.raises(SolverFailure, match="round 308: state diverged"):
        reference_forced_difference_run(pair, W, sched, cfg, seed=0)


def test_a_grid_audit_draws_each_round_of_its_seed_once(sym2):
    """The nine base runs of a default-grid audit share one seed's unit draws:
    Philox evaluates one block (symmetric2 draws 4 doubles a round) per round
    of the longest run, not one per run."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    words, philox = [], noise.philox4x64

    def counting(counter, key):
        words.append(counter[0].size)
        return philox(counter, key)

    schedules = [NoiseSchedule.uniform(2, d_zeta=dz, q=q) for dz, q in GRID]
    with mock.patch.object(noise, "philox4x64", counting):
        reports = forced_difference_run(pair, W, schedules, 0.9, seed=41)
    rounds = [len(report.delta_eta_norms) - 1 for report in reports]
    assert len(set(rounds)) > 1
    assert sum(words) == max(rounds) < sum(rounds)


def test_runs_leave_their_shared_unit_draws_unchanged(sym2):
    """Each chunk scales its masks in place, in a copy of the shared rows: a
    microgrid14 run across a mask-chunk boundary (585 rounds) and the nine base
    runs of a default grid audit leave their unit draws byte for byte as drawn."""
    instance, W, alpha = at_09_alpha_max_t1("microgrid14")
    assert noise.chunk_rounds(1, 14, 1) < 700
    units = noise.unit_draws([3], range(700), 28)
    drawn = units.copy()
    run(instance, W, NoiseSchedule.uniform(14), RunConfig(alpha, 700), [3], draws=units)
    assert units.tobytes() == drawn.tobytes()

    inst, W = sym2
    shared = []

    def keeping(*args):
        shared.append(noise.unit_draws(*args))
        shared.append(shared[-1].copy())
        return shared[0]

    schedules = [NoiseSchedule.uniform(2, d_zeta=dz, q=q) for dz, q in GRID]
    with mock.patch.object(privacy_audit, "unit_draws", keeping):
        forced_difference_run(make_adjacent_pair(inst, 0, 1.0), W, schedules, 0.9, seed=41)
    units, drawn = shared
    assert units.shape[0] > 300 and units.tobytes() == drawn.tobytes()


def test_the_audit_runs_the_engine_once_per_admissible_point(sym2):
    """Each admissible point gets one base run through the module-level `run`,
    whose final round is the point's last measured round; bench/child.py counts
    an audit's rounds from exactly these traces."""
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    traces = []

    def recording(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    schedules = [NoiseSchedule.uniform(2, d_zeta=dz, q=q) for dz, q in GRID + [(1.0, 0.3)]]
    with mock.patch.object(privacy_audit, "run", recording):
        reports = forced_difference_run(pair, W, schedules, 0.9, seed=41)
    assert isinstance(reports[-1], InadmissibleDecayError)
    measured = [len(report.delta_eta_norms) - 1 for report in reports[:-1]]
    assert [trace.final_state.round for trace in traces] == measured
