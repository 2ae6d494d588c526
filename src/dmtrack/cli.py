"""Command-line front end.

Subcommands:
  run     Monte Carlo experiment from a JSON config; writes trace.csv + summary.json.
  sweep   repeat `run` across a parameter list; writes sweep.csv.
  audit   forced-difference privacy audit (single point or a (d_zeta, q) grid).
  bounds  print every closed-form constant and bound for the configured setup.
  oracle  print the centralized optimum and certify it by its KKT residual.

Exit status is nonzero whenever a verdict fails: bound containment, tracking
identity, audit envelope or certificate violations, divergence, an
inadmissible configured decay, or an oracle KKT residual above tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import ConfigError, DmtrackError, InadmissibleDecayError
from .harness import (
    SWEEPABLE,
    ExperimentConfig,
    materialize,
    passed,
    run_experiment,
    sweep,
)
from .oracle import KKT_TOL, kkt_residual, solve_dual
from .privacy_audit import audit_row, forced_difference_run, grid_schedules, monotone_flags


# the config path each override flag sets; overrides pass the config's validation
FLAG_PATHS = {"seed": "seed", "out": "output", "agent": "audit.i0", "delta": "audit.delta",
              "delta_prime": "audit.delta_prime", "horizon": "audit.horizon"}


def _load_config(args):
    cfg = ExperimentConfig.from_file(args.config)
    updates = {
        path: getattr(args, flag)
        for flag, path in FLAG_PATHS.items()
        if getattr(args, flag, None) is not None
    }
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
    print(f"output            {config.values['output']}")
    return 0 if passed(summary) else 1


def _cmd_sweep(args):
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from None
    if not values:
        raise ConfigError("no sweep values given")
    rows, summaries = sweep(config, args.param, values)
    print(f"{args.param:>12}  {'mse':>12}  {'lower':>12}  {'upper':>12}  {'eps*':>10}  ok")
    verdicts = [passed(summary) for summary in summaries]
    for r, ok in zip(rows, verdicts):
        print(
            f"{r['value']:>12.6g}  {r['empirical_mse']:>12.6g}  {r['lower']:>12.6g}  "
            f"{r['upper']:>12.6g}  {r['eps_star']:>10.5g}  {'yes' if ok else 'NO'}"
        )
    return 0 if all(verdicts) else 1


def _certified(row):
    """The audit verdict of one grid point: no envelope violation, eps within the certificate."""
    return row["violations"] == 0 and row["eps_empirical"] <= row["eps_theory"]


def _note_short_horizons(rows, reports):
    """On stderr, name each admissible point with no violation whose measured loss
    eps_empirical - tail is within eps_theory but whose tail pushes eps_empirical above it."""
    for row, report in zip(rows, reports):
        if not row["admissible"] or row["violations"]:
            continue
        measured = report.eps_empirical - report.tail
        if measured <= report.eps_theoretical < report.eps_empirical:
            print(
                f"note: d_zeta={row['d_zeta']!r} q={row['q']!r}: measured loss {measured:.6g} "
                f"plus tail {report.tail:.6g} exceeds eps_theory {report.eps_theoretical:.6g}; "
                f"horizon {report.horizon} is too short to certify this point",
                file=sys.stderr,
            )


def _write_audit(outdir, rows):
    """Write audit.csv and echo it to stdout."""
    lines = ["d_zeta,q,eps_empirical,eps_theory,eps_star,admissible,violations"] + [
        f"{r['d_zeta']!r},{r['q']!r},{r['eps_empirical']!r},{r['eps_theory']!r},"
        f"{r['eps_star']!r},{int(r['admissible'])},{r['violations']}"
        for r in rows
    ]
    (outdir / "audit.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def _cmd_audit(args):
    config = _load_config(args)
    v = config.values
    mat = materialize(config)
    outdir = Path(v["output"])
    outdir.mkdir(parents=True, exist_ok=True)

    schedules = [mat.schedule]
    if args.grid:
        schedules = grid_schedules(mat.schedule, v["audit.grid.d_zeta"], v["audit.grid.q"])
    horizon = v["audit.horizon"]
    reports = forced_difference_run(mat.pair, mat.W, schedules, mat.alpha, v["seed"], horizon)
    if not args.grid and isinstance(reports[0], InadmissibleDecayError):
        print(f"inadmissible: {reports[0]}", file=sys.stderr)
        return 1
    rows = [audit_row(mat.pair.i0, sched, report) for sched, report in zip(schedules, reports)]
    _write_audit(outdir, rows)
    _note_short_horizons(rows, reports)
    if args.grid:
        for flag, value in monotone_flags(rows).items():
            print(f"{flag}={value}")
        admissible = [r for r in rows if r["admissible"]]  # none: nothing is certified
        return 0 if admissible and all(_certified(r) for r in admissible) else 1
    print(f"horizon={reports[0].horizon} tail={reports[0].tail:.3e}")
    return 0 if _certified(rows[0]) else 1


def _cmd_bounds(args):
    config = _load_config(args)
    mat = materialize(config)
    out = {
        "alpha": mat.alpha,
        "lambda_bar": mat.constants.lambda_bar,
        **mat.mod._asdict(),
        **mat.constants._asdict(),
        # r_lb is the theorem's rate only for stepsizes below alpha_max_t2
        "alpha_above_t2": mat.alpha > mat.constants.alpha_max_t2,
        "N_zeta": mat.mse.N_zeta,
        "mse_lower": mat.mse.lower,
        "mse_upper": mat.mse.upper,
    }
    if mat.schedule.enabled:  # the audited agent's privacy certificate
        cert = mat.privacy
        out.update(
            q_min=cert.q_min, q=float(mat.schedule.q_zeta[mat.pair.i0]),
            eps_theory=cert.eps_theory, eps_theory_printed=cert.eps_theory_printed,
            eps_star=cert.eps_star, eps_star_printed=cert.eps_star_printed,
            admissible=math.isfinite(cert.eps_theory),
        )
    for key, value in out.items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return 0 if out.get("admissible", True) else 1


def _cmd_oracle(args):
    config = _load_config(args)
    mat = materialize(config)
    sol = solve_dual(mat.instance)
    print(f"objective={sol.objective!r}")
    print(f"mu_star={sol.mu_star.tolist()}")
    print(f"gap={sol.gap:.3e} iterations={sol.iterations}")
    for i, xi in enumerate(sol.x_star):
        print(f"x_star[{i}]={xi.tolist()}")
    residual = kkt_residual(mat.instance, sol)
    print(f"kkt_residual={residual:.3e}")
    return 0 if residual <= KKT_TOL else 1


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
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
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
