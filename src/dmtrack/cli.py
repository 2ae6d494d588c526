"""Command-line front end.

Subcommands:
  run     Monte Carlo experiment from a JSON config; writes trace.csv + summary.json.
  sweep   repeat `run` across a parameter list; writes sweep.csv.
  audit   forced-difference privacy audit (single point or a (d_zeta, q) grid).
  bounds  print every closed-form constant and bound for the configured setup.
  oracle  print the centralized optimum and cross-check it on a grid.

Exit status is nonzero whenever a verdict fails: bound containment, tracking
identity, audit envelope or certificate violations, divergence, or an
inadmissible configured decay.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import DmtrackError, InadmissibleDecayError
from .engine import RunConfig
from .harness import (
    AUDIT_GRID_D_ZETA,
    AUDIT_GRID_Q,
    ExperimentConfig,
    materialize,
    passed,
    run_experiment,
    sweep,
)
from .oracle import solve_dual, verify_against_grid
from .privacy_audit import forced_difference_run, make_adjacent_pair, sweep_epsilon
from .theory import epsilon_star, mse_bounds, privacy_epsilon, q_interval, theory_constants


def _load_config(args):
    cfg = ExperimentConfig.from_file(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["output"] = args.out
    return cfg.replace(**updates) if updates else cfg


def _cmd_run(args):
    config = _load_config(args)
    summary = run_experiment(config)
    if summary["failed"]:
        print(f"FAILED: trial seeds {summary['failed_seeds']}: {summary['failure']}")
        return 1
    print(f"preset            {summary['preset']}")
    print(f"alpha             {summary['alpha']:.12g}")
    print(f"trials x iters    {summary['trials']} x {summary['iters']}")
    print(f"empirical mse     {summary['empirical_mse']:.12g}")
    print(f"bounds            [{summary['mse_bounds']['lower']:.12g}, {summary['mse_bounds']['upper']:.12g}]")
    print(f"bound_contained   {summary['bound_contained']}")
    print(f"tracking_ok       {summary['tracking_ok']} (max residual {summary['max_tracking_residual']:.3e})")
    print(f"output            {Path(config.raw['output']).resolve()}")
    return 0 if passed(summary) else 1


def _cmd_sweep(args):
    config = _load_config(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        print("no sweep values given", file=sys.stderr)
        return 2
    rows, summaries = sweep(config, args.param, values)
    print(f"{args.param:>12}  {'mse':>12}  {'lower':>12}  {'upper':>12}  {'eps*':>10}  ok")
    verdicts = [passed(summary) for summary in summaries]
    for r, ok in zip(rows, verdicts):
        print(
            f"{r['value']:>12.6g}  {r['empirical_mse']:>12.6g}  {r['lower']:>12.6g}  "
            f"{r['upper']:>12.6g}  {r['eps_star']:>10.5g}  {'yes' if ok else 'NO'}"
        )
    return 0 if all(verdicts) else 1


def _audit_params(config, args):
    audit = dict(config.raw.get("audit", {}))
    if args.agent is not None:
        audit["i0"] = args.agent
    if args.delta is not None:
        audit["delta"] = args.delta
    if args.delta_prime is not None:
        audit["delta_prime"] = args.delta_prime
    if args.horizon is not None:
        audit["horizon"] = args.horizon
    return audit


def _cmd_audit(args):
    config = _load_config(args)
    mat = materialize(config)
    audit = _audit_params(config, args)
    i0 = audit.get("i0", 0)
    delta = audit.get("delta", 1.0)
    delta_prime = audit.get("delta_prime")
    if isinstance(delta_prime, (int, float)):
        delta_prime = [float(delta_prime)] * mat.instance.p
    horizon = audit.get("horizon")
    run_cfg = RunConfig(alpha=mat.alpha, iters=max(horizon or 1, 1))
    outdir = Path(config.raw["output"])
    outdir.mkdir(parents=True, exist_ok=True)

    if args.grid:
        grid = audit.get("grid", {})
        dz_values = grid.get("d_zeta", list(AUDIT_GRID_D_ZETA))
        q_values = grid.get("q", list(AUDIT_GRID_Q))
        rows, flags = sweep_epsilon(
            mat.instance,
            mat.W,
            i0,
            dz_values,
            q_values,
            run_cfg,
            mat.seed,
            delta=delta,
            delta_prime=delta_prime,
            horizon=horizon,
        )
        lines = ["d_zeta,q,eps_empirical,eps_theory,eps_star,admissible,violations"]
        bad = False
        for r in rows:
            lines.append(
                f"{r['d_zeta']!r},{r['q']!r},{r['eps_empirical']!r},{r['eps_theory']!r},"
                f"{r['eps_star']!r},{int(r['admissible'])},{r['violations']}"
            )
            if r["admissible"]:
                bad |= r["violations"] > 0 or not r["eps_empirical"] <= r["eps_theory"]
        (outdir / "audit.csv").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        print(f"monotone_in_d_zeta={flags['monotone_in_d_zeta']}")
        print(f"monotone_in_q={flags['monotone_in_q']}")
        return 1 if bad else 0

    pair = make_adjacent_pair(mat.instance, i0, delta, delta_prime)
    try:
        report = forced_difference_run(pair, mat.W, mat.schedule, run_cfg, mat.seed, horizon=horizon)
    except InadmissibleDecayError as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return 1
    header = "d_zeta,q,eps_empirical,eps_theory,eps_star,admissible,violations"
    row = (
        f"{float(mat.schedule.d_zeta[i0])!r},{float(mat.schedule.q_zeta[i0])!r},"
        f"{report.eps_empirical!r},{report.eps_theoretical!r},{report.eps_star!r},1,"
        f"{report.bound_violations}"
    )
    (outdir / "audit.csv").write_text(header + "\n" + row + "\n")
    print(header)
    print(row)
    print(f"horizon={report.horizon} tail={report.tail:.3e}")
    ok = report.bound_violations == 0 and report.eps_empirical <= report.eps_theoretical
    return 0 if ok else 1


def _cmd_bounds(args):
    config = _load_config(args)
    mat = materialize(config)
    audit = config.raw.get("audit", {})
    i0 = audit.get("i0", 0)
    delta = audit.get("delta", 1.0)
    ag = mat.instance.agents[i0]

    try:
        constants = theory_constants(mat.alpha, mat.mod, mat.W.lambda_bar, schedule=mat.schedule)
    except (InadmissibleDecayError, ValueError):
        from .theory import TheoryConstants

        nan = math.nan
        constants = TheoryConstants(nan, mat.W.lambda_bar, nan, nan, nan, nan, nan)
    bnds = mse_bounds(mat.schedule, mat.mod, mat.instance.n, mat.instance.m)
    out = {
        "alpha": mat.alpha,
        "lambda_bar": mat.W.lambda_bar,
        "phi_under": mat.mod.phi_under,
        "L_bar": mat.mod.L_bar,
        "A_norm": mat.mod.A_norm,
        "lamAA_min": mat.mod.lamAA_min,
        "C": constants.C,
        "r_lb": constants.r_lb,
        "alpha_max_t1": constants.alpha_max_t1,
        "alpha_max_t2": constants.alpha_max_t2,
        "tau1": constants.tau1,
        "tau2": constants.tau2,
        "N_zeta": bnds.N_zeta,
        "mse_lower": bnds.lower,
        "mse_upper": bnds.upper,
    }
    admissible = True
    q_i0 = float(mat.schedule.q_zeta[i0])
    d_zeta_i0 = float(mat.schedule.d_zeta[i0])
    d_eta_i0 = float(mat.schedule.d_eta[i0])
    try:
        out["q_min"] = q_interval(mat.alpha, ag.cost.phi, ag.A_norm).q_min
    except InadmissibleDecayError:
        out["q_min"] = math.nan
        admissible = False
    out["q"] = q_i0
    if mat.schedule.enabled:
        try:
            out["eps_theory"] = privacy_epsilon(
                mat.alpha, d_zeta_i0, d_eta_i0, ag.cost.phi, ag.A_norm, q_i0, delta
            )
            out["eps_theory_printed"] = privacy_epsilon(
                mat.alpha, d_zeta_i0, d_eta_i0, ag.cost.phi, ag.A_norm, q_i0, delta,
                printed_form=True,
            )
            out["eps_star"] = epsilon_star(
                mat.alpha, d_zeta_i0, ag.cost.phi, ag.A_norm, q_i0, delta
            )
            out["eps_star_printed"] = epsilon_star(
                mat.alpha, d_zeta_i0, ag.cost.phi, ag.A_norm, q_i0, delta, printed_form=True
            )
        except InadmissibleDecayError:
            admissible = False
            out.update(
                eps_theory=math.nan,
                eps_theory_printed=math.nan,
                eps_star=math.nan,
                eps_star_printed=math.nan,
            )
    out["admissible"] = admissible
    for key, value in out.items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return 0 if admissible or not mat.schedule.enabled else 1


def _cmd_oracle(args):
    config = _load_config(args)
    mat = materialize(config)
    sol = solve_dual(mat.instance)
    print(f"objective={sol.objective!r}")
    print(f"mu_star={sol.mu_star.tolist()}")
    print(f"gap={sol.gap:.3e} iterations={sol.iterations}")
    for i, xi in enumerate(sol.x_star):
        print(f"x_star[{i}]={xi.tolist()}")
    try:
        verified = verify_against_grid(mat.instance, sol)
    except ValueError as exc:
        print(f"grid_verified=skipped ({exc})")
        return 0
    print(f"grid_verified={verified}")
    return 0 if verified else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dmtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the experiment across a parameter list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=("d_zeta", "d_eta", "q", "alpha"))
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_audit = sub.add_parser("audit", help="forced-difference privacy audit")
    p_audit.add_argument("--config", required=True)
    p_audit.add_argument("--agent", type=int, default=None)
    p_audit.add_argument("--delta", type=float, default=None)
    p_audit.add_argument("--delta-prime", type=float, default=None, dest="delta_prime")
    p_audit.add_argument("--horizon", type=int, default=None)
    p_audit.add_argument("--grid", action="store_true")
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_audit)

    p_bounds = sub.add_parser("bounds", help="print theory constants and bounds")
    p_bounds.add_argument("--config", required=True)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_oracle = sub.add_parser("oracle", help="print the centralized optimum")
    p_oracle.add_argument("--config", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DmtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
