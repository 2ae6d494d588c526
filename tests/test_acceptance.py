"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The lines print outside pytest's capture so a plain `pytest -v` shows the
verdicts inline. Expensive artifacts come from the session fixtures in
conftest; everything else is computed here.
"""

import numpy as np
import pytest

from dmtrack.engine import RunConfig, run
from dmtrack.errors import InadmissibleDecayError
from dmtrack.harness import ExperimentConfig, run_experiment
from dmtrack.local_solver import argmin_local, inner_tolerance
from dmtrack.noise import NoiseSchedule, draw_rounds
from dmtrack.oracle import KKT_TOL, kkt_residual, solve_dual
from dmtrack.privacy_audit import forced_difference_run, make_adjacent_pair
from dmtrack.theory import certificate, q_interval
from dmtrack.topology import metropolis_weights, ring_plus_random

from conftest import (
    build_preset,
    conjugate_smoothness_check,
    eta_bound_check,
    verify_against_grid,
)
from test_local_solver import random_cost_box


def _report(pytestconfig, criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    if capman is None:
        print(line)
    else:
        with capman.global_and_fixture_disabled():
            print(line)
    assert ok, line


def test_criterion_1_noise_free_accuracy(pytestconfig, noise_free_runs):
    details = []
    ok = True
    for name in ("symmetric2", "hand_kkt"):
        entry = noise_free_runs[name]
        x_final = entry["trace"].final_state.x[0]
        x_star = entry["sol"].x_star
        rel = float(np.linalg.norm(x_final - x_star) / np.linalg.norm(x_star))
        ok &= rel <= 1e-8 and entry["iters"] <= 20_000 and entry["elapsed"] < 1.0
        details.append(
            f"{name} rel_err={rel:.2e} after {entry['iters']} rounds in {entry['elapsed']:.2f}s"
        )
    _report(pytestconfig, 1, ok, "; ".join(details))


def _fit_decay(trace):
    """Least-squares slope and R^2 of log mse over the decaying segment of a one-trial trace."""
    mse = np.asarray(trace.mse[0], dtype=float)
    ks = np.asarray(trace.ks, dtype=float)
    floor = max(float(mse[-1]), 1e-28)
    sel = (mse > 100.0 * floor) & (mse < 0.5 * mse[0]) & (ks >= 1)
    k, y = ks[sel], np.log(mse[sel])
    design = np.stack([k, np.ones_like(k)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(coef[0]), r2, int(np.count_nonzero(sel))


def test_criterion_2_linear_rate(pytestconfig, noise_free_runs):
    details = []
    ok = True
    for name, entry in noise_free_runs.items():
        slope, r2, npts = _fit_decay(entry["trace"])
        ok &= slope < 0.0 and r2 >= 0.99 and npts >= 10
        details.append(f"{name} slope={slope:.3g} R2={r2:.6f} ({npts} pts)")
    _report(pytestconfig, 2, ok, "; ".join(details))


def test_criterion_3_tracking_identity(pytestconfig, noise_free_runs, micro_sweep):
    worst = 0.0
    runs = 0
    for entry in noise_free_runs.values():
        worst = max(worst, entry["trace"].max_tracking_residual())
        runs += 1
    for summary in micro_sweep["summaries"]:
        worst = max(worst, summary["max_tracking_residual"])
        runs += summary["trials"]
    instance, W, _ = build_preset("symmetric2")
    trace = run(
        instance, W, NoiseSchedule.uniform(2, q=0.98), RunConfig(alpha=0.45, iters=300), [8]
    )
    worst = max(worst, trace.max_tracking_residual())
    runs += 1
    ok = worst <= 1e-9
    _report(
        pytestconfig, 3, ok, f"max normalized residual {worst:.2e} over {runs} runs (limit 1e-9)"
    )


def test_criterion_4_stationary_band(pytestconfig, micro_sweep):
    summary = micro_sweep["summaries"][1]  # the d_zeta = 1.0 reference point
    noise = summary["config"]["noise"]
    setup_ok = (
        summary["preset"] == "microgrid14"
        and noise["d_zeta"] == 1.0
        and noise["d_eta"] == 1.0
        and noise["q"] == 0.98
        and summary["trials"] == 100
        and summary["iters"] == 5000
        and not summary["failed"]
    )
    ok = setup_ok and summary["bound_contained"] and micro_sweep["elapsed"] < 300.0
    lo, hi = summary["containment_band"]
    _report(
        pytestconfig,
        4,
        ok,
        f"empirical mse {summary['empirical_mse']:.2f} in [{lo:.2f}, {hi:.2f}] "
        f"(slack {summary['sampling_slack']:.2f}), 100 trials x 5000 rounds, "
        f"sweep wall time {micro_sweep['elapsed']:.0f}s",
    )


def test_criterion_5_privacy_certificate(pytestconfig, audit_grid):
    rows = audit_grid["rows"]
    ok = len(rows) == 9 and all(r["admissible"] for r in rows)
    violations = sum(r["violations"] for r in rows)
    ok &= violations == 0
    ok &= all(r["eps_empirical"] <= r["eps_theory"] for r in rows)
    margin = min(r["eps_theory"] - r["eps_empirical"] for r in rows)

    instance, W, _ = build_preset("symmetric2")
    pair = make_adjacent_pair(instance, 0, 1.0)
    [report] = forced_difference_run(pair, W, [NoiseSchedule.uniform(2, q=0.98)], 0.45, seed=11)
    qi = q_interval(0.45, 2.0, 1.0)
    ok &= eta_bound_check(report, 0.45, 1.0, 1.0, qi.q_min, qi.tau2)
    _report(
        pytestconfig,
        5,
        ok,
        f"eps_e <= eps_theory on all 9 grid points (min margin {margin:.3f}), "
        f"{violations} envelope violations, eta perturbation under the root bound",
    )


def test_criterion_6_accuracy_privacy_tradeoff(pytestconfig, micro_sweep):
    rows = micro_sweep["rows"]
    values = [r["value"] for r in rows]
    mses = [r["empirical_mse"] for r in rows]
    stars = [r["eps_star"] for r in rows]
    mono_mse = all(b >= a - 1e-12 for a, b in zip(mses, mses[1:]))
    mono_eps = all(b < a for a, b in zip(stars, stars[1:]))
    ok = mono_mse and mono_eps and all(r["admissible"] for r in rows)
    _report(
        pytestconfig,
        6,
        ok,
        f"d_zeta={values}: mse {[f'{m:.1f}' for m in mses]} nondecreasing, "
        f"eps* {[f'{e:.2f}' for e in stars]} strictly decreasing",
    )


def test_criterion_7_property_suites(pytestconfig, tmp_path):
    problems = []

    # mixing matrices stay doubly stochastic and symmetric
    matrices = [build_preset(name)[1].W for name in ("symmetric2", "hand_kkt", "microgrid14")]
    rng = np.random.default_rng(2718)
    for _ in range(20):
        n = int(rng.integers(3, 21))
        extra = int(rng.integers(0, n * (n - 1) // 2 - n + 1))
        graph = ring_plus_random(n, extra, seed=int(rng.integers(0, 2**31)))
        matrices.append(metropolis_weights(graph).W)
    defect = max(
        max(
            float(np.max(np.abs(W.sum(axis=0) - 1.0))),
            float(np.max(np.abs(W.sum(axis=1) - 1.0))),
            float(np.max(np.abs(W - W.T))),
        )
        for W in matrices
    )
    if defect > 1e-12:
        problems.append(f"stochasticity defect {defect:.2e}")

    # Laplace moments of the engine's masks at one million draws: round 0 of
    # 1000 consecutive seeds, 500 agents, both channels
    schedule = NoiseSchedule.uniform(500, d_eta=1.7, d_zeta=1.7, q=0.98)
    draws = np.concatenate(draw_rounds(schedule, [0], range(99991, 100991), 1), axis=None)
    m1 = float(np.mean(np.abs(draws)))
    m2 = float(np.mean(draws**2))
    if abs(m1 - 1.7) > 0.01 * 1.7:
        problems.append(f"Laplace E|x| off by {abs(m1 - 1.7) / 1.7:.2%}")
    if abs(m2 - 2 * 1.7**2) > 0.05 * 2 * 1.7**2:
        problems.append(f"Laplace E[x^2] off by {abs(m2 - 2 * 1.7**2) / (2 * 1.7**2):.2%}")

    # local solver keeps its own tolerance promise
    rng = np.random.default_rng(31415)
    kkt_fails = 0
    for trial in range(100):
        p = int(rng.integers(1, 4))
        cost, box = random_cost_box(rng, p, diagonal=bool(trial % 2))
        c = 3.0 * rng.normal(size=p)
        if argmin_local(cost, box, c).kkt_residual > inner_tolerance(c):
            kkt_fails += 1
    if kkt_fails:
        problems.append(f"{kkt_fails}/100 KKT residuals above tolerance")

    # conjugate-gradient map is nonexpansive up to the moduli
    rng = np.random.default_rng(2025)
    expansive = 0
    for trial in range(100):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        cost, box = random_cost_box(rng, p, diagonal=bool(trial % 3))
        A = rng.normal(size=(m, p))
        if not conjugate_smoothness_check(cost, box, rng.normal(size=m), rng.normal(size=m), A):
            expansive += 1
    if expansive:
        problems.append(f"{expansive}/100 conjugate pairs expansive")

    # the oracle's KKT certificate holds on every preset, and the oracle agrees
    # with brute-force grids on the small presets
    for name in ("symmetric2", "hand_kkt", "microgrid14"):
        instance, _, _ = build_preset(name)
        sol = solve_dual(instance)
        residual = kkt_residual(instance, sol)
        if not residual <= KKT_TOL:
            problems.append(f"{name} oracle KKT residual {residual:.3e} above {KKT_TOL:g}")
        if name != "microgrid14" and not verify_against_grid(instance, sol):
            problems.append(f"{name} oracle fails the grid check")

    # reruns are byte-identical, and a batch of trials equals its single-seed runs
    cfg = ExperimentConfig.from_dict(
        {
            "problem": {"preset": "symmetric2"},
            "algorithm": {"alpha": 0.45, "iters": 40, "record_every": 1},
            "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
            "trials": 3,
            "seed": 5,
            "output": str(tmp_path),
        }
    )
    blobs = []
    for name in ("a", "b"):
        run_experiment(cfg, out_dir=tmp_path / name)
        blobs.append((tmp_path / name / "trace.csv").read_bytes())
    if blobs[0] != blobs[1]:
        problems.append("rerun traces differ")
    instance, W, _ = build_preset("symmetric2")
    schedule = NoiseSchedule.uniform(2, q=0.98)
    run_cfg = RunConfig(alpha=0.45, iters=40)
    x_star = np.ones((2, 1))
    batch = run(instance, W, schedule, run_cfg, [5, 6, 7], x_star=x_star)
    for t, seed in enumerate((5, 6, 7)):
        one = run(instance, W, schedule, run_cfg, [seed], x_star=x_star)
        keys = ("mse", "consensus_mu", "tracking_residual", "feasibility")
        pairs = [(getattr(batch, k)[t], getattr(one, k)[0]) for k in keys]
        pairs.append((batch.final_state.x[t], one.final_state.x[0]))
        if any(a.tobytes() != b.tobytes() for a, b in pairs):
            problems.append(f"batched trial {t} differs from the single-seed run")

    ok = not problems
    detail = (
        "; ".join(problems)
        if problems
        else "23 mixing matrices doubly stochastic to 1e-12; Laplace moments within 1%/5% "
        "at 1e6 draws; 100/100 KKT within tolerance; 100/100 conjugate pairs nonexpansive; "
        "oracle KKT-certified on 3 presets and grid-verified on 2; byte-identical reruns; a 3-seed batch equals its 3 "
        "single-seed runs"
    )
    _report(pytestconfig, 7, ok, detail)


def test_criterion_8_epsilon_star_limit(pytestconfig):
    rng = np.random.default_rng(123)
    checked = 0
    worst = 0.0
    while checked < 100:
        alpha = float(rng.uniform(0.01, 1.0))
        phi = float(rng.uniform(0.5, 4.0))
        A_norm = float(rng.uniform(0.3, 2.0))
        delta = float(rng.uniform(0.1, 2.0))
        d_zeta = float(rng.uniform(0.2, 3.0))
        try:
            qi = q_interval(alpha, phi, A_norm)
        except InadmissibleDecayError:
            continue
        q = qi.q_min + float(rng.uniform(0.05, 0.95)) * (1.0 - qi.q_min)
        cert = certificate(alpha, phi, A_norm, q, 1e12, d_zeta, delta)
        full, star = cert.eps_theory, cert.eps_star
        worst = max(worst, abs(full - star) / star)
        checked += 1
    ok = worst <= 1e-9
    _report(
        pytestconfig,
        8,
        ok,
        f"eps(d_eta=1e12) matches eps* within {worst:.2e} relative on 100 admissible tuples",
    )
