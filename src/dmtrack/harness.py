"""Experiment presets, config ingestion, and Monte Carlo orchestration.

Configs are single JSON documents with five sections (problem, graph,
algorithm, noise, audit) plus trials/seed/output. Validation is strict:
unknown keys anywhere are rejected before any computation starts, so a typo
cannot silently fall back to a default. All randomness flows from the one
master seed; trial t uses seed + t.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .engine import RunConfig, run
from .errors import ConfigError, InadmissibleDecayError, SolverFailure
from .noise import NoiseSchedule
from .oracle import solve_dual
from .privacy_audit import AdjacentPair, grid_schedules, make_adjacent_pair
from .problem import AgentSpec, BoxSet, Moduli, ProblemInstance, QuadraticCost, moduli
from .theory import (
    StepsizeBounds,
    TheoryConstants,
    epsilon_star,
    mse_bounds,
    privacy_epsilon,
    q_interval,
    stepsize_bounds,
    theory_constants,
)
from .topology import Graph, metropolis_weights, ring_plus_random

TERMINAL_WINDOW_DEFAULT = 0.1
AUDIT_GRID_D_ZETA = (0.5, 1.0, 2.0)
AUDIT_GRID_Q = (0.95, 0.98, 0.99)


# ---------------------------------------------------------------- presets

def preset_symmetric2():
    """Two identical quadratic agents sharing one unit-coefficient constraint."""
    box = BoxSet.interval(-10.0, 10.0)
    agents = tuple(
        AgentSpec(cost=QuadraticCost.scalar(1.0), A=np.array([[1.0]]), d=np.array([1.0]), box=box)
        for _ in range(2)
    )
    return ProblemInstance(agents=agents), Graph.from_edges(2, [(0, 1)])


def preset_hand_kkt():
    """Two-agent instance with curvatures 1 and 2; optimum checkable by hand."""
    box = BoxSet.interval(-10.0, 10.0)
    agents = tuple(
        AgentSpec(
            cost=QuadraticCost.scalar(u), A=np.array([[1.0]]), d=np.array([1.5]), box=box
        )
        for u in (1.0, 2.0)
    )
    return ProblemInstance(agents=agents), Graph.from_edges(2, [(0, 1)])


def preset_microgrid14():
    """Synthetic 14-unit dispatch problem, total demand 231.

    Generator parameters are drawn once from a fixed seed (heterogeneous
    curvatures and coupling gains, capacities [0, 40]); the instance is
    reproducible but not a transcription of any published system.
    """
    rng = np.random.default_rng(20230814)
    n = 14
    u = rng.uniform(0.5, 1.0, size=n)
    v = rng.uniform(2.0, 4.0, size=n)
    w = rng.uniform(0.0, 10.0, size=n)
    a = rng.uniform(0.8, 1.2, size=n)
    box = BoxSet.interval(0.0, 40.0)
    agents = tuple(
        AgentSpec(
            cost=QuadraticCost.scalar(u[i], v=v[i], w=w[i]),
            A=np.array([[a[i]]]),
            d=np.array([231.0 / n]),
            box=box,
        )
        for i in range(n)
    )
    return ProblemInstance(agents=agents), ring_plus_random(n, 7, seed=7)


PRESETS = {
    "symmetric2": preset_symmetric2,
    "hand_kkt": preset_hand_kkt,
    "microgrid14": preset_microgrid14,
}


# ------------------------------------------------------------ config schema

def _check_keys(section, allowed, required, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _as_int(value, where, least=1):
    """`value` if it is an integer (not a bool) of at least `least`, which is 0 or 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise ConfigError(f"{where} must be a {kind} integer, got {value!r}")
    return value


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_scalar_or_list(value, where):
    if isinstance(value, list):
        return [_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return _as_number(value, where)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description; `raw` is the canonical dict."""

    raw: dict

    @classmethod
    def from_dict(cls, d):
        _check_keys(
            d,
            allowed=("problem", "graph", "algorithm", "noise", "audit", "trials", "seed", "output"),
            required=("problem", "algorithm", "noise", "trials", "seed", "output"),
            where="config",
        )
        _check_keys(d["problem"], allowed=("preset",), required=("preset",), where="problem")
        if d["problem"]["preset"] not in PRESETS:
            raise ConfigError(
                f"problem.preset must be one of {sorted(PRESETS)}, got {d['problem']['preset']!r}"
            )
        graph = d.get("graph", {})
        _check_keys(graph, allowed=("extra_edges", "seed"), required=(), where="graph")
        for key in ("extra_edges", "seed"):
            if key in graph:
                _as_int(graph[key], f"graph.{key}", least=0)

        alg = d["algorithm"]
        _check_keys(
            alg,
            allowed=("alpha", "iters", "record_every", "terminal_window"),
            required=("alpha", "iters"),
            where="algorithm",
        )
        alpha = alg["alpha"]
        if isinstance(alpha, dict):
            _check_keys(alpha, allowed=("frac_of_t1", "frac_of_t2"), required=(), where="algorithm.alpha")
            if len(alpha) != 1:
                raise ConfigError("algorithm.alpha needs exactly one of frac_of_t1 / frac_of_t2")
            frac = _as_number(next(iter(alpha.values())), "algorithm.alpha fraction")
            if not 0 < frac:
                raise ConfigError("algorithm.alpha fraction must be positive")
        else:
            if _as_number(alpha, "algorithm.alpha") < 0:
                raise ConfigError("algorithm.alpha must be nonnegative")
        _as_int(alg["iters"], "algorithm.iters")
        if "record_every" in alg:
            _as_int(alg["record_every"], "algorithm.record_every")
        if "terminal_window" in alg:
            tw = _as_number(alg["terminal_window"], "algorithm.terminal_window")
            if not 0 < tw <= 1:
                raise ConfigError("algorithm.terminal_window must lie in (0, 1]")

        noise = d["noise"]
        _check_keys(
            noise,
            allowed=("enabled", "d_eta", "d_zeta", "q", "q_eta", "q_zeta"),
            required=(),
            where="noise",
        )
        if "enabled" in noise and not isinstance(noise["enabled"], bool):
            raise ConfigError("noise.enabled must be a boolean")
        for key in ("d_eta", "d_zeta", "q", "q_eta", "q_zeta"):
            if key in noise:
                _as_scalar_or_list(noise[key], f"noise.{key}")

        if "audit" in d:
            audit = d["audit"]
            _check_keys(
                audit,
                allowed=("i0", "delta", "delta_prime", "horizon", "grid"),
                required=(),
                where="audit",
            )
            if "i0" in audit:
                _as_int(audit["i0"], "audit.i0", least=0)
            if "delta" in audit and _as_number(audit["delta"], "audit.delta") <= 0:
                raise ConfigError("audit.delta must be positive")
            if "delta_prime" in audit:
                _as_scalar_or_list(audit["delta_prime"], "audit.delta_prime")
            if "horizon" in audit:
                _as_int(audit["horizon"], "audit.horizon")
            if "grid" in audit:
                _check_keys(audit["grid"], allowed=("d_zeta", "q"), required=(), where="audit.grid")
                for key in ("d_zeta", "q"):
                    if key in audit["grid"]:
                        vals = audit["grid"][key]
                        if not isinstance(vals, list) or not vals:
                            raise ConfigError(f"audit.grid.{key} must be a nonempty list")
                        for i, v in enumerate(vals):
                            _as_number(v, f"audit.grid.{key}[{i}]")

        _as_int(d["trials"], "trials")
        seed = d["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**63:
            raise ConfigError(f"seed must be an integer in [0, 2^63), got {seed!r}")
        if not isinstance(d["output"], str) or not d["output"]:
            raise ConfigError("output must be a nonempty path string")
        return cls(raw=copy.deepcopy(d))

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(data)

    def config_hash(self):
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def replace(self, **updates):
        """New config with dotted-path updates, e.g. replace(**{"noise.q": 0.95})."""
        d = copy.deepcopy(self.raw)
        for path, value in updates.items():
            node = d
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return ExperimentConfig.from_dict(d)


@dataclass(eq=False)
class Materialized:
    """Everything an experiment run needs, resolved from a config."""

    instance: ProblemInstance
    graph: Graph
    W: object
    schedule: NoiseSchedule
    alpha: float
    mod: Moduli
    bounds: StepsizeBounds  # stepsize_bounds(mod, W.lambda_bar)
    iters: int
    record_every: int
    terminal_window: float
    trials: int
    seed: int
    output: Path
    pair: AdjacentPair  # the audited agent audit.i0 and its shift
    horizon: Optional[int]  # audit.horizon; None picks it from the tail bound
    grid: list  # mat.schedule at each audit.grid point, d_zeta outer, q inner


def _per_agent(value, n, where):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigError(f"{where}: expected scalar or list of length {n}, got shape {arr.shape}")
    return arr


def _build_schedule(noise, n):
    if not noise.get("enabled", True):
        return NoiseSchedule.disabled(n)
    d_eta = _per_agent(noise.get("d_eta", 1.0), n, "noise.d_eta")
    d_zeta = _per_agent(noise.get("d_zeta", 1.0), n, "noise.d_zeta")
    q = noise.get("q", 0.98)
    q_eta = _per_agent(noise.get("q_eta", q), n, "noise.q_eta")
    q_zeta = _per_agent(noise.get("q_zeta", q), n, "noise.q_zeta")
    try:
        return NoiseSchedule(d_eta=d_eta, d_zeta=d_zeta, q_eta=q_eta, q_zeta=q_zeta)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def materialize(config):
    raw = config.raw
    instance, graph = PRESETS[raw["problem"]["preset"]]()
    gsec = raw.get("graph", {})
    if gsec:
        extra = gsec.get("extra_edges", 0)
        gseed = gsec.get("seed", 0)
        try:
            graph = ring_plus_random(instance.n, extra, seed=gseed)
        except ConfigError as exc:
            raise ConfigError(f"graph: {exc}") from exc
    W = metropolis_weights(graph)
    mod = moduli(instance)
    bounds = stepsize_bounds(mod, W.lambda_bar)

    alg = raw["algorithm"]
    alpha = alg["alpha"]
    if isinstance(alpha, dict):
        key, frac = next(iter(alpha.items()))
        base = bounds.alpha_max_t1 if key == "frac_of_t1" else bounds.alpha_max_t2
        if base <= 0:
            raise ConfigError(f"algorithm.alpha: {key} requested but the bound is {base}")
        alpha = float(frac) * base
    schedule = _build_schedule(raw["noise"], instance.n)
    audit = raw.get("audit", {})
    try:
        pair = make_adjacent_pair(
            instance, audit.get("i0", 0), audit.get("delta", 1.0), audit.get("delta_prime")
        )
    except ValueError as exc:  # its message starts with the argument's name
        raise ConfigError(f"audit.{exc}") from exc
    points = audit.get("grid", {})
    try:
        grid = grid_schedules(
            schedule, points.get("d_zeta", AUDIT_GRID_D_ZETA), points.get("q", AUDIT_GRID_Q)
        )
    except ValueError as exc:
        raise ConfigError(f"audit.grid: no noise schedule takes {points}: {exc}") from exc
    return Materialized(
        instance=instance,
        graph=graph,
        W=W,
        schedule=schedule,
        alpha=float(alpha),
        mod=mod,
        bounds=bounds,
        iters=alg["iters"],
        record_every=alg.get("record_every", 1),
        terminal_window=alg.get("terminal_window", TERMINAL_WINDOW_DEFAULT),
        trials=raw["trials"],
        seed=raw["seed"],
        output=Path(raw["output"]),
        pair=pair,
        horizon=audit.get("horizon"),
        grid=grid,
    )


# ------------------------------------------------------------ experiments

def constants_or_nan(mat):
    """theory_constants of a materialized config; NaN where the setup admits none."""
    try:
        return theory_constants(
            mat.alpha, mat.mod, mat.W.lambda_bar, schedule=mat.schedule, bounds=mat.bounds
        )
    except (InadmissibleDecayError, ValueError):
        nan = math.nan
        return TheoryConstants(nan, mat.W.lambda_bar, nan, nan, nan, nan, nan)


class AuditedPrivacy(NamedTuple):
    q_min: float
    eps_theory: float
    eps_star: float


def audited_privacy(mat, printed_form=False):
    """q_min and the epsilons of the audited agent mat.pair.i0 at radius mat.pair.delta.

    A figure the setup admits none of (decay outside (q_min, 1), a zero
    mask scale or stepsize) is NaN. printed_form selects the simplified
    epsilon denominator.
    """
    i0, delta = mat.pair.i0, mat.pair.delta
    ag = mat.instance.agents[i0]
    phi, A_norm = ag.cost.phi, ag.A_norm
    q = float(mat.schedule.q_zeta[i0])
    d_zeta = float(mat.schedule.d_zeta[i0])
    d_eta = float(mat.schedule.d_eta[i0])
    try:
        q_min = q_interval(mat.alpha, phi, A_norm).q_min
    except (InadmissibleDecayError, ValueError):
        q_min = math.nan
    try:
        eps = privacy_epsilon(mat.alpha, d_zeta, d_eta, phi, A_norm, q, delta, printed_form)
        star = epsilon_star(mat.alpha, d_zeta, phi, A_norm, q, delta, printed_form)
    except (InadmissibleDecayError, ValueError):
        eps = star = math.nan
    return AuditedPrivacy(q_min, eps, star)


def _write_trace_csv(path, ks, mse, consensus, tracking, feasibility):
    columns = (col.tolist() for col in (ks, mse, consensus, tracking, feasibility))
    with open(path, "w") as fh:
        fh.write("k,mse,consensus_mu,tracking_residual,feasibility\n")
        fh.writelines(f"{k},{a!r},{b!r},{c!r},{f!r}\n" for k, a, b, c, f in zip(*columns))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def run_experiment(config, out_dir=None):
    """Run `trials` seeded simulations, average traces, and verdict the bounds.

    Writes trace.csv (pointwise trial average) and summary.json into the
    output directory and returns the summary dict; summary.json holds no
    wall-clock value, so reruns write it byte for byte, and the run's
    runtime_sec goes to timings.json next to it. Any diverging trial marks
    the experiment failed and records every offending seed.
    """
    return _run_materialized(config, materialize(config), out_dir)


def passed(summary):
    """The verdict of one experiment: no divergence, bound contained, tracking held."""
    return not summary["failed"] and summary["bound_contained"] and summary["tracking_ok"]


def _run_materialized(config, mat, out_dir):
    t0 = time.perf_counter()
    outdir = Path(out_dir) if out_dir is not None else mat.output
    outdir.mkdir(parents=True, exist_ok=True)

    sol = solve_dual(mat.instance)
    constants = constants_or_nan(mat)
    bnds = mse_bounds(mat.schedule, mat.mod, mat.instance.n, mat.instance.m)
    run_cfg = RunConfig(alpha=mat.alpha, iters=mat.iters, record_every=mat.record_every)
    seeds = [mat.seed + t for t in range(mat.trials)]

    summary = {
        "preset": config.raw["problem"]["preset"],
        "config": config.raw,
        "config_hash": config.config_hash(),
        "alpha": mat.alpha,
        "iters": mat.iters,
        "trials": mat.trials,
        "seed": mat.seed,
        "noise_enabled": mat.schedule.enabled,
        "lambda_bar": mat.W.lambda_bar,
        "constants": constants._asdict(),
        "mse_bounds": bnds._asdict(),
        "oracle": {
            "objective": sol.objective,
            "mu_star": sol.mu_star,
            "gap": sol.gap,
            "iterations": sol.iterations,
        },
        "failed": False,
    }

    try:
        trace = run(mat.instance, mat.W, mat.schedule, run_cfg, seeds, x_star=sol.x_star)
    except SolverFailure as exc:
        failed = [seeds[t] for t in exc.trials]
        summary.update(
            failed=True, failure=str(exc), failed_seed=failed[0], failed_seeds=failed
        )
        (outdir / "summary.json").write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True))
        return summary

    mean_mse = np.mean(trace.mse, axis=0)
    mean_cons = np.mean(trace.consensus_mu, axis=0)
    mean_track = np.mean(trace.tracking_residual, axis=0)
    mean_feas = np.mean(trace.feasibility, axis=0)
    start = mat.iters - max(1, int(round(mat.terminal_window * mat.iters)))
    # one mean per trial row: np.mean(axis=1) would sum in another order
    terminal = np.array([np.mean(mse) for mse in trace.mse[:, trace.ks >= start]])
    empirical = float(np.mean(terminal))
    max_track = trace.max_tracking_residual()

    slack = 3.0 / math.sqrt(mat.trials)
    if bnds.N_zeta == 0.0:
        contained = empirical <= 1e-12
        band = [0.0, 1e-12]
    else:
        band = [bnds.lower * (1.0 - slack), bnds.upper * (1.0 + slack)]
        contained = band[0] <= empirical <= band[1]
    tracking_ok = max_track <= 1e-9

    summary.update(
        empirical_mse=empirical,
        terminal_std=float(np.std(terminal)),
        sampling_slack=slack,
        containment_band=band,
        bound_contained=bool(contained),
        max_tracking_residual=float(max_track),
        tracking_ok=bool(tracking_ok),
    )
    _write_trace_csv(outdir / "trace.csv", trace.ks, mean_mse, mean_cons, mean_track, mean_feas)
    (outdir / "summary.json").write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True))
    timings = {"runtime_sec": time.perf_counter() - t0}
    (outdir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True))
    return summary


SWEEPABLE = ("d_zeta", "d_eta", "q", "alpha")


def sweep(config, parameter, values, out_dir=None):
    """One run_experiment per value of a noise scale, decay, or stepsize.

    Returns (rows, summaries). Each row pairs the empirical stationary MSE
    with the theoretical band and the privacy figures of the audited agent,
    so the accuracy/privacy trade-off can be read straight off the table.
    Values whose decay is inadmissible keep their MSE data but carry NaN
    privacy columns and admissible=False. Two values that name the same
    subdirectory are rejected before any run.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {parameter!r}")
    base_out = Path(out_dir) if out_dir is not None else Path(config.raw["output"])
    key = f"algorithm.{parameter}" if parameter == "alpha" else f"noise.{parameter}"
    values = [float(value) for value in values]
    names = [f"{parameter}_{value:g}" for value in values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(f"sweep values {values} share the subdirectories {shared}")

    rows = []
    summaries = []
    for value, name in zip(values, names):
        cfg = config.replace(**{key: value})
        sub = base_out / name
        mat = materialize(cfg)
        summary = _run_materialized(cfg, mat, sub)
        summaries.append(summary)
        privacy = audited_privacy(mat)
        rows.append(
            {
                "value": float(value),
                "empirical_mse": summary.get("empirical_mse", math.nan),
                "lower": summary["mse_bounds"]["lower"],
                "upper": summary["mse_bounds"]["upper"],
                "eps_star": privacy.eps_star,
                "eps_theory": privacy.eps_theory,
                "admissible": not math.isnan(privacy.eps_theory),
                "failed": summary["failed"],
            }
        )

    lines = [f"{parameter},empirical_mse,lower,upper,eps_star,eps_theory,admissible"]
    for r in rows:
        lines.append(
            f"{r['value']!r},{r['empirical_mse']!r},{r['lower']!r},{r['upper']!r},"
            f"{r['eps_star']!r},{r['eps_theory']!r},{int(r['admissible'])}"
        )
    base_out.mkdir(parents=True, exist_ok=True)
    (base_out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows, summaries
