"""Experiment presets, config ingestion, and Monte Carlo orchestration.

Configs are single JSON documents with five sections (problem, graph,
algorithm, noise, audit) plus trials/seed/output. One table, SCHEMA, gives
each dotted key its kind (type and range) and default; the sections and
their required keys follow from it. Validation is strict: unknown keys
anywhere are rejected before any computation starts, so a typo cannot
silently fall back to a default. materialize and the runs read the resolved
values, ExperimentConfig.values, by dotted key. All randomness flows from
the one master seed; trial t uses seed + t.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .engine import RunConfig, run
from .errors import ConfigError, SolverFailure
from .noise import NoiseSchedule
from .oracle import solve_dual
from .privacy_audit import AdjacentPair, audited_certificate, make_adjacent_pair
from .problem import AgentSpec, BoxSet, Moduli, ProblemInstance, QuadraticCost, moduli
from .theory import (
    Certificate, MseBounds, TheoryConstants, mse_bounds, stepsize_bounds, theory_constants
)
from .topology import Graph, metropolis_weights, ring_plus_random


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

def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(text, test):
    """The check that a value passes `test`; each range test is written so that NaN fails it."""

    def check(value, key):
        if not test(value):
            raise ConfigError(f"{key} must be {text}, got {value!r}")

    return check


def _each(kind, nonempty_list=False):
    """`kind` on a scalar or on every entry of a list; with nonempty_list, only a nonempty list."""

    def check(value, key):
        if nonempty_list and not (isinstance(value, list) and value):
            raise ConfigError(f"{key} must be a nonempty list, got {value!r}")
        if isinstance(value, list):
            for i, entry in enumerate(value):
                kind(entry, f"{key}[{i}]")
        else:
            kind(value, key)

    return check


_positive_int = _kind("a positive integer", lambda v: _is_int(v) and v >= 1)
_count = _kind("a nonnegative integer", lambda v: _is_int(v) and v >= 0)
_scale = _kind("a finite nonnegative number", lambda v: _is_real(v) and 0 <= v < math.inf)
_decay = _kind("a number strictly in (0, 1)", lambda v: _is_real(v) and 0 < v < 1)


def _stepsize(value, key):
    """A nonnegative alpha, or {"frac_of_t1" | "frac_of_t2": f}: f times that stepsize bound."""
    if not isinstance(value, dict):
        _kind("a nonnegative number", lambda v: _is_real(v) and v >= 0)(value, key)
        return
    _check_keys(value, allowed=("frac_of_t1", "frac_of_t2"), required=(), where=key)
    if len(value) != 1:
        raise ConfigError(f"{key} needs exactly one of frac_of_t1 / frac_of_t2")
    [(name, frac)] = value.items()
    _kind("a positive number", lambda v: _is_real(v) and v > 0)(frac, f"{key}.{name}")


REQUIRED = object()  # the default of a key that every config sets


class _Same(NamedTuple):
    """A default that is the value of another key."""

    key: str


# Each dotted key's kind (its type and range) and default. The sections and
# their keys follow from the dotted keys; every section outside
# OPTIONAL_SECTIONS must be present.
SCHEMA = {
    "problem.preset": (
        _kind(f"one of {sorted(PRESETS)}", lambda v: isinstance(v, str) and v in PRESETS), REQUIRED
    ),
    "graph.extra_edges": (_count, None),  # None keeps the preset's graph; else a re-drawn ring
    "graph.seed": (_count, 0),
    "algorithm.alpha": (_stepsize, REQUIRED),
    "algorithm.iters": (_positive_int, REQUIRED),
    "algorithm.record_every": (_positive_int, 1),
    "algorithm.terminal_window": (
        _kind("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1), 0.1
    ),
    "noise.enabled": (_kind("a boolean", lambda v: isinstance(v, bool)), True),
    "noise.d_eta": (_each(_scale), 1.0),
    "noise.d_zeta": (_each(_scale), 1.0),
    "noise.q": (_each(_decay), 0.98),
    "noise.q_eta": (_each(_decay), _Same("noise.q")),
    "noise.q_zeta": (_each(_decay), _Same("noise.q")),
    "audit.i0": (_count, 0),
    "audit.delta": (
        _kind("a positive finite number", lambda v: _is_real(v) and 0 < v < math.inf), 1.0
    ),
    # None: delta/2 in coordinate 0
    "audit.delta_prime": (_each(_kind("a number", _is_real)), None),
    "audit.horizon": (_positive_int, None),  # None picks it from the tail bound
    "audit.grid.d_zeta": (_each(_scale, nonempty_list=True), (0.5, 1.0, 2.0)),
    "audit.grid.q": (_each(_decay, nonempty_list=True), (0.95, 0.98, 0.99)),
    "trials": (_positive_int, REQUIRED),
    "seed": (_kind("an integer in [0, 2^63)", lambda v: _is_int(v) and 0 <= v < 2**63), REQUIRED),
    "output": (
        _kind("a nonempty path string", lambda v: isinstance(v, str) and v != ""), REQUIRED
    ),
}
OPTIONAL_SECTIONS = ("graph", "audit", "audit.grid")


def _check_keys(section, allowed, required, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _resolve(config):
    """Check a config dict against SCHEMA; return each key's value or default by dotted key."""
    values = {}

    def walk(section, prefix):
        paths = {}  # each key or subsection under prefix, to its dotted path
        for key in SCHEMA:
            if key.startswith(prefix):
                name = key[len(prefix):].split(".")[0]
                paths[name] = prefix + name
        required = [
            name
            for name, path in paths.items()
            if (SCHEMA[path][1] is REQUIRED if path in SCHEMA else path not in OPTIONAL_SECTIONS)
        ]
        _check_keys(section, paths, required, prefix[:-1] or "config")
        for name, path in paths.items():
            if path not in SCHEMA:
                walk(section.get(name, {}), path + ".")
                continue
            kind, default = SCHEMA[path]
            if name in section:
                kind(section[name], path)
            values[path] = section.get(name, default)

    walk(config, "")
    return {key: values[v.key] if isinstance(v, _Same) else v for key, v in values.items()}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated config: `raw` is the dict as given, which summary.json embeds and
    config_hash hashes; `values` holds every SCHEMA key, defaults filled in."""

    raw: dict
    values: dict

    @classmethod
    def from_dict(cls, d):
        raw = copy.deepcopy(d)
        return cls(raw=raw, values=_resolve(raw))

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
    """What a run derives from its config, closed-form figures included; the settings
    themselves are in config.values."""

    instance: ProblemInstance
    graph: Graph
    W: object
    schedule: NoiseSchedule
    alpha: float
    mod: Moduli
    pair: AdjacentPair  # the audited agent audit.i0 and its shift
    constants: TheoryConstants  # with the caps of stepsize_bounds(mod, W.lambda_bar)
    mse: MseBounds
    privacy: Certificate  # of the audited agent, audited_certificate(pair, schedule, alpha)


def _per_agent(value, n, where):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ConfigError(f"{where}: expected scalar or list of length {n}, got shape {arr.shape}")
    return arr


def materialize(config):
    v = config.values
    instance, graph = PRESETS[v["problem.preset"]]()
    if v["graph.extra_edges"] is not None:
        try:
            graph = ring_plus_random(instance.n, v["graph.extra_edges"], seed=v["graph.seed"])
        except ConfigError as exc:
            raise ConfigError(f"graph: {exc}") from exc
    W = metropolis_weights(graph)
    mod = moduli(instance)
    bounds = stepsize_bounds(mod, W.lambda_bar)

    alpha = v["algorithm.alpha"]
    if isinstance(alpha, dict):
        [(key, frac)] = alpha.items()
        base = bounds.alpha_max_t1 if key == "frac_of_t1" else bounds.alpha_max_t2
        if base <= 0:
            raise ConfigError(f"algorithm.alpha: {key} requested but the bound is {base}")
        alpha = frac * base
    alpha = float(alpha)
    if v["noise.enabled"]:
        keys = ("noise.d_eta", "noise.d_zeta", "noise.q_eta", "noise.q_zeta")
        schedule = NoiseSchedule(*(_per_agent(v[key], instance.n, key) for key in keys))
    else:
        schedule = NoiseSchedule.disabled(instance.n)
    try:
        pair = make_adjacent_pair(instance, v["audit.i0"], v["audit.delta"], v["audit.delta_prime"])
    except ValueError as exc:  # its message starts with the argument's name
        raise ConfigError(f"audit.{exc}") from exc
    constants = theory_constants(alpha, mod, W.lambda_bar, bounds, schedule)
    mse = mse_bounds(schedule, mod, instance.n, instance.m)
    privacy = audited_certificate(pair, schedule, alpha)
    return Materialized(instance, graph, W, schedule, alpha, mod, pair, constants, mse, privacy)


# ------------------------------------------------------------ experiments

# Rows of trace.csv formatted and written together
CSV_BLOCK_ROWS = 256


def _reprs(values):
    """repr() of each float, computed once per distinct bit pattern: a converged trace
    repeats its values, and repr() is most of the cost of writing them."""
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)[index].tolist()


def _write_trace_csv(path, ks, mse, consensus, tracking, feasibility):
    """One row per record, each value as repr() writes it, a block of rows at a time."""
    with open(path, "w") as fh:
        fh.write("k,mse,consensus_mu,tracking_residual,feasibility\n")
        for i in range(0, len(ks), CSV_BLOCK_ROWS):
            block = slice(i, i + CSV_BLOCK_ROWS)
            cells = [map(str, ks[block].tolist())]
            cells += [_reprs(col[block]) for col in (mse, consensus, tracking, feasibility)]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


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
    runtime_sec goes to timings.json next to it, with rounds_stepped, the
    rounds the engine stepped (fewer than iters once a noise-free state
    repeats), unless the run failed. Any diverging trial marks the
    experiment failed and records every offending seed; a failed run writes
    no trace.csv and removes one left by an earlier run.
    """
    return _run_materialized(config, materialize(config), out_dir)


def passed(summary):
    """The verdict of one experiment: no divergence, bound contained, tracking held."""
    return not summary["failed"] and summary["bound_contained"] and summary["tracking_ok"]


def _run_materialized(config, mat, out_dir):
    t0 = time.perf_counter()
    v = config.values
    iters, trials = v["algorithm.iters"], v["trials"]
    outdir = Path(out_dir if out_dir is not None else v["output"])
    outdir.mkdir(parents=True, exist_ok=True)

    sol = solve_dual(mat.instance)
    run_cfg = RunConfig(alpha=mat.alpha, iters=iters, record_every=v["algorithm.record_every"])
    seeds = [v["seed"] + t for t in range(trials)]

    summary = {
        "preset": v["problem.preset"],
        "config": config.raw,
        "config_hash": config.config_hash(),
        "alpha": mat.alpha,
        "iters": iters,
        "trials": trials,
        "seed": v["seed"],
        "noise_enabled": mat.schedule.enabled,
        "lambda_bar": mat.W.lambda_bar,
        "constants": mat.constants._asdict(),
        "mse_bounds": mat.mse._asdict(),
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
        # a failed run has no trial average; leave no earlier run's trace beside it
        (outdir / "trace.csv").unlink(missing_ok=True)
        return _write_summary(outdir, summary, t0)

    mean_mse = np.mean(trace.mse, axis=0)
    mean_cons = np.mean(trace.consensus_mu, axis=0)
    mean_track = np.mean(trace.tracking_residual, axis=0)
    mean_feas = np.mean(trace.feasibility, axis=0)
    start = iters - max(1, int(round(v["algorithm.terminal_window"] * iters)))
    # one mean per trial row: np.mean(axis=1) would sum in another order
    terminal = np.array([np.mean(mse) for mse in trace.mse[:, trace.ks >= start]])
    empirical = float(np.mean(terminal))
    max_track = trace.max_tracking_residual()

    slack = 3.0 / math.sqrt(trials)
    if mat.mse.N_zeta == 0.0:
        contained = empirical <= 1e-12
        band = [0.0, 1e-12]
    else:
        band = [mat.mse.lower * (1.0 - slack), mat.mse.upper * (1.0 + slack)]
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
    return _write_summary(outdir, summary, t0, rounds_stepped=trace.rounds_stepped)


def _write_summary(outdir, summary, t0, rounds_stepped=None):
    """Write summary.json and the run's timings.json (runtime since t0 and, for a run
    that did not fail, its rounds_stepped); return summary."""
    (outdir / "summary.json").write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True))
    timings = {"runtime_sec": time.perf_counter() - t0}
    if rounds_stepped is not None:
        timings["rounds_stepped"] = rounds_stepped
    (outdir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True))
    return summary


# each sweep parameter, to the config key it sets
SWEEPABLE = {
    "d_zeta": "noise.d_zeta", "d_eta": "noise.d_eta", "q": "noise.q", "alpha": "algorithm.alpha"
}


def sweep(config, parameter, values, out_dir=None):
    """One run_experiment per value of a noise scale, decay, or stepsize.

    Returns (rows, summaries). Each row pairs the empirical stationary MSE
    with the theoretical band and the privacy figures of the audited agent,
    so the accuracy/privacy trade-off can be read straight off the table.
    Values the privacy certificate does not cover keep their MSE data but
    carry NaN privacy columns and admissible=False. A q value also sets
    whichever of noise.q_eta / noise.q_zeta the config sets. Every value is
    materialized before any run, so a rejected value writes nothing.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {tuple(SWEEPABLE)}, got {parameter!r}")
    base_out = Path(out_dir if out_dir is not None else config.values["output"])
    keys = [SWEEPABLE[parameter]]
    if parameter == "q":
        keys += [f"noise.{key}" for key in ("q_eta", "q_zeta") if key in config.raw["noise"]]
    values = [float(value) for value in values]
    names = [f"{parameter}_{value:g}" for value in values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(f"sweep values {values} share the subdirectories {shared}")
    configs = [config.replace(**dict.fromkeys(keys, value)) for value in values]
    mats = [materialize(cfg) for cfg in configs]

    rows = []
    summaries = []
    for value, name, cfg, mat in zip(values, names, configs, mats):
        summary = _run_materialized(cfg, mat, base_out / name)
        summaries.append(summary)
        rows.append(
            {
                "value": value,
                "empirical_mse": summary.get("empirical_mse", math.nan),
                "lower": mat.mse.lower,
                "upper": mat.mse.upper,
                "eps_star": mat.privacy.eps_star,
                "eps_theory": mat.privacy.eps_theory,
                "admissible": math.isfinite(mat.privacy.eps_theory),
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
