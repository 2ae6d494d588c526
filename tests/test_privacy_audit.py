from unittest import mock

import numpy as np
import pytest

from dmtrack import theory

from dmtrack.engine import RunConfig
from dmtrack.errors import ConfigError, InadmissibleDecayError
from dmtrack.noise import NoiseSchedule
from dmtrack.privacy_audit import (
    HORIZON_CAP,
    HORIZON_MIN,
    eta_bound_check,
    forced_difference_run,
    make_adjacent_pair,
    sweep_epsilon,
)
from dmtrack.theory import epsilon_star, privacy_epsilon, q_interval

from conftest import build_preset


@pytest.fixture(scope="module")
def sym2():
    inst, W, mod = build_preset("symmetric2")
    return inst, W.W


@pytest.fixture(scope="module")
def base_report(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.98)
    return pair, forced_difference_run(pair, W, sched, cfg, seed=0), sched


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


def test_adjacent_pair_validation(sym2):
    inst, _ = sym2
    with pytest.raises(ValueError):
        make_adjacent_pair(inst, 0, 0.0)
    with pytest.raises(ValueError):
        make_adjacent_pair(inst, 0, -1.0)
    with pytest.raises(ValueError):
        make_adjacent_pair(inst, 0, 1.0, delta_prime=[1.0])  # norm must be < delta
    ok = make_adjacent_pair(inst, 0, 1.0, delta_prime=[0.9])
    np.testing.assert_allclose(ok.delta_prime, [0.9])


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
    ks = np.arange(1, rep.horizon + 1)
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
    cfg = RunConfig(alpha=0.45, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.98)
    r0 = forced_difference_run(pair, W, sched, cfg, seed=0)
    r1 = forced_difference_run(pair, W, sched, cfg, seed=12345)
    np.testing.assert_allclose(r1.delta_eta_norms, r0.delta_eta_norms, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(r1.delta_zeta_norms, r0.delta_zeta_norms, rtol=1e-9, atol=1e-12)


def test_audit_other_agent(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 1, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    rep = forced_difference_run(pair, W, NoiseSchedule.uniform(2, q=0.98), cfg, seed=3)
    assert rep.i0 == 1
    assert rep.bound_violations == 0
    assert rep.eps_empirical <= rep.eps_theoretical


def test_horizon_override_and_validation(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    sched = NoiseSchedule.uniform(2, q=0.98)
    rep = forced_difference_run(pair, W, sched, cfg, seed=0, horizon=5)
    assert rep.horizon == 5
    assert len(rep.delta_eta_norms) == 6
    with pytest.raises(ValueError):
        forced_difference_run(pair, W, sched, cfg, seed=0, horizon=0)


def test_horizon_selection_extremes(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    # enormous mask scales make even round 1 negligible
    huge = NoiseSchedule.uniform(2, d_eta=1e9, d_zeta=1e9, q=0.98)
    assert forced_difference_run(pair, W, huge, cfg, seed=0).horizon == HORIZON_MIN
    # q barely above q_min = 0.6 pushes the tail horizon past the cap
    slow = NoiseSchedule.uniform(2, q=0.601)
    rep = forced_difference_run(pair, W, slow, cfg, seed=0)
    assert rep.horizon == HORIZON_CAP
    assert rep.bound_violations == 0
    assert np.isfinite(rep.eps_empirical)


def test_schedule_rejections(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    with pytest.raises(ConfigError):
        forced_difference_run(pair, W, NoiseSchedule.uniform(2, d_zeta=0.0), cfg, seed=0)
    with pytest.raises(ConfigError):
        forced_difference_run(pair, W, NoiseSchedule.disabled(2), cfg, seed=0)
    split = NoiseSchedule.uniform(2, q_eta=0.97, q_zeta=0.98)
    with pytest.raises(ConfigError, match="one decay"):
        forced_difference_run(pair, W, split, cfg, seed=0)


def test_inadmissible_decay(sym2):
    inst, W = sym2
    pair = make_adjacent_pair(inst, 0, 1.0)
    cfg = RunConfig(alpha=0.45, iters=1)
    with pytest.raises(InadmissibleDecayError):
        forced_difference_run(pair, W, NoiseSchedule.uniform(2, q=0.5), cfg, seed=0)


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
        report = forced_difference_run(pair, W, sched, RunConfig(alpha=0.45, iters=1), seed=0)
    assert len(calls) == 1
    ag = inst.agents[0]
    assert report.eps_theoretical == privacy_epsilon(0.45, 1.0, 1.0, ag.cost.phi, ag.A_norm, 0.98, 1.0)
    assert report.eps_star == epsilon_star(0.45, 1.0, ag.cost.phi, ag.A_norm, 0.98, 1.0)
    assert report.eps_empirical == expect.eps_empirical


def test_sweep_marks_inadmissible_points(sym2):
    inst, W = sym2
    cfg = RunConfig(alpha=0.45, iters=1)
    rows, flags = sweep_epsilon(inst, W, 0, (0.5, 1.0), (0.5, 0.98), cfg, seed=11)
    assert len(rows) == 4
    bad = [r for r in rows if r["q"] == 0.5]
    good = sorted((r for r in rows if r["q"] == 0.98), key=lambda r: r["d_zeta"])
    assert all(not r["admissible"] and np.isnan(r["eps_empirical"]) for r in bad)
    assert all(r["admissible"] and r["violations"] == 0 for r in good)
    # more zeta noise buys a smaller epsilon
    assert good[1]["eps_empirical"] <= good[0]["eps_empirical"] + 1e-12
    assert flags["monotone_in_d_zeta"]
    assert flags["monotone_in_q"]
