"""One workload in a fresh process. Started by run.py; not meant to be run by hand.

Modes:
  probe    CPU time from process start to the first engine round, then stop.
           This is one set-up sample.
  measure  one untimed reference invocation, then timed CLI invocations until
           --seconds have passed, with a calibration between each two.
           Nothing is traced.
  trace    the reference invocation, then untraced/traced invocation pairs
           until --seconds have passed; reports per-layer metrics and the
           tracing overhead.

The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from tracer import Tracer, aggregate, replace_everywhere, resolve

CHECKOUT = Path(__file__).resolve().parent.parent

FDR = "privacy_audit.forced_difference_run"


# CPU seconds of calibrate() on the quiet host this benchmark was defined on
# (2-core shared VM, Python 3.11, numpy 2.4): about the 5th percentile of 840
# calibrations over four minutes. Timings are reported in seconds at that
# host speed; see README.md, "Host-speed calibration".
CALIB_REF_S = 0.0073
CALIB_ROUNDS = 300


def calibrate():
    """CPU seconds the host currently needs for a fixed kernel that uses no dmtrack code.

    The instruction mix of a noisy engine round (a Philox generator per round,
    small dense numpy operations driven from Python, a row written into a
    log), so a busy host slows it as much as it slows the workload.
    """
    rng = np.random.default_rng(0)
    W = rng.random((14, 14)) / 14.0
    A = rng.random((14, 1, 1))
    v = rng.random((14, 1))
    x = np.zeros((14, 1))
    log = np.empty((CALIB_ROUNDS, 14, 1))
    c0 = time.process_time()
    for k in range(CALIB_ROUNDS):
        u = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, k])).random((14, 2)) - 0.5
        mu = W @ (x + u[:, :1]) - 0.1 * v
        x = np.clip(np.einsum("imp,im->ip", A, mu), -1.0, 1.0)
        log[k] = x
        float(np.linalg.norm(x))
    return time.process_time() - c0


def cpu_time():
    """CPU seconds of this process and of the child processes it has waited for.

    Counting the children keeps work that a change moves into a subprocess
    on the clock.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class FirstRound(BaseException):
    """Raised by the probe hook; BaseException so no handler in the CLI swallows it."""


def _run_attrs(trace):
    # Read defensively: a later RunTrace may drop or rename these fields.
    log = getattr(trace, "noise_log", None)
    return {
        "rounds": getattr(getattr(trace, "final_state", None), "round", 0),
        # computed from the array shapes, not measured memory
        "noise_log_bytes": sum(getattr(getattr(log, k, None), "nbytes", 0) for k in ("eta", "zeta")),
    }


def _solve_attrs(sol):
    return {"iterations": getattr(sol, "iterations", 0)}


# Public functions wrapped in a traced invocation, one per layer boundary.
TARGETS = {
    "harness.materialize": None,
    "topology.metropolis_weights": None,
    "oracle.solve_dual": _solve_attrs,
    "theory.stepsize_bounds": None,
    "theory.theory_constants": None,
    "theory.mse_bounds": None,
    "harness.run_experiment": None,
    "engine.run": _run_attrs,
    "noise.draw_round_all": None,
    "local_solver.solve_all_from_c": None,
    "local_solver.argmin_local": None,
    FDR: None,
}
SELF_TIMED = (
    "noise.draw_round_all",
    "local_solver.solve_all_from_c",
    "local_solver.argmin_local",
    "engine.run",
    FDR,
)
INCLUSIVE_TIMED = (
    "harness.materialize",
    "topology.metropolis_weights",
    "oracle.solve_dual",
    "theory.stepsize_bounds",
    "theory.theory_constants",
    "theory.mse_bounds",
)


def layer_metrics(spans, rounds_to_tol):
    """Per-layer metrics of one traced invocation."""
    stats = aggregate(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for name in SELF_TIMED:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in INCLUSIVE_TIMED:
        out[f"{name}.s"] = get(name, "s")
    out["harness.materialize.calls"] = get("harness.materialize", "calls")
    out["harness.run_experiment.self_s"] = get("harness.run_experiment", "self_s")

    def attr(span, key):
        return (span[4] or {}).get(key, 0)

    runs = [s for s in spans if s[0] == "engine.run"]
    rounds = sum(attr(s, "rounds") for s in runs)
    out["engine.us_per_round"] = 1e6 * get("engine.run", "s") / rounds if rounds else 0.0
    out["engine.noise_log_bytes"] = sum(attr(s, "noise_log_bytes") for s in runs)
    out["engine.rounds_to_tol"] = rounds_to_tol
    out["oracle.solve_dual.iterations"] = sum(
        attr(s, "iterations") for s in spans if s[0] == "oracle.solve_dual"
    )
    audits = {i for i, s in enumerate(spans) if s[0] == FDR}
    measured = sum(1 for s in spans if s[0] == "local_solver.argmin_local" and s[3] in audits)
    simulated = sum(attr(s, "rounds") for s in runs if s[3] in audits)
    out["privacy_audit.measured_over_simulated"] = measured / simulated if simulated else 0.0
    out["trace.spans"] = len(spans)
    return out


class Runner:
    """Runs CLI invocations of one workload and judges their outputs."""

    def __init__(self, cli, workload, seed, tiny, work):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None  # of the first timed invocation; later ones must match

    def invoke(self, index, tracer=None, reference=False):
        """One CLI invocation, judged; returns its timings, rounds, ops and output dir."""
        seed = wl.REF_SEED if reference else self.seed
        config, argv, out_dir = wl.prepare(self.workload, seed, index, self.tiny, self.work)

        counter = tracer
        if counter is None and self.workload == "audit_grid":
            # The audit's rounds are only known inside the program: count them
            # with a tracer on engine.run alone (a dozen spans per invocation).
            counter = Tracer()
            counter.install({"engine.run": _run_attrs})
        root = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
        buf = io.StringIO()
        crash = None
        try:
            with root, contextlib.redirect_stdout(buf):
                t0, c0 = time.perf_counter(), cpu_time()
                try:
                    code = self.cli.main(argv)
                except Exception:  # a crashing invocation fails its operations
                    code, crash = -1, traceback.format_exc(limit=-3)
                wall, cpu = time.perf_counter() - t0, cpu_time() - c0
        finally:
            if counter is not None and counter is not tracer:
                counter.uninstall()

        if self.workload == "audit_grid":
            rounds = sum((s[4] or {}).get("rounds", 0) for s in counter.spans if s[0] == "engine.run")
        else:
            rounds = config["trials"] * config["algorithm"]["iters"]

        expect = self.digest
        if seed == wl.REF_SEED and not self.tiny:
            expect = wl.reference()["digests"].get(self.workload)
        failed, digest, problems = wl.check_invocation(
            self.workload, code, buf.getvalue(), out_dir, config, expect
        )
        if not reference and self.digest is None:
            self.digest = digest
        ops = wl.ops_per_invocation(self.workload, config)
        if crash is not None:
            problems.append(crash)
        if rounds <= 0:
            failed = ops
            problems.append("no rounds were counted")
        self.attempted += ops
        self.failed += failed
        self.problems += [f"invocation {index} (seed {seed}): {p}" for p in problems]
        return {"wall": wall, "cpu": cpu, "rounds": rounds, "ops": ops, "out_dir": out_dir}


def probe(cli, args, work):
    def first_round(*_args, **_kwargs):
        raise FirstRound(cpu_time(), time.monotonic())

    original = resolve("engine.run")
    if original is None:
        raise SystemExit("engine.run not found; cannot locate the first round")
    replace_everywhere(original, first_round)
    _, argv, _ = wl.prepare(args.workload, args.seed, 0, args.tiny, work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except FirstRound as hit:
        cpu, now = hit.args
    else:
        raise SystemExit("the workload finished without reaching engine.run")
    # CPU time since the process started, in reference seconds
    cal = statistics.median(calibrate() for _ in range(7))
    return {"setup_s": cpu * CALIB_REF_S / cal, "setup_cpu_s": cpu, "setup_wall_s": now - args.spawned_at}


def measure(runner, seconds):
    """Timed invocations, each scaled by the calibrations on either side of it."""
    runner.invoke(0, reference=True)
    samples = []
    cal_before = calibrate()
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < seconds:
        inv = runner.invoke(index)
        shutil.rmtree(inv["out_dir"], ignore_errors=True)
        cal_after = calibrate()
        ref_s = inv["cpu"] * CALIB_REF_S / ((cal_before + cal_after) / 2.0)
        samples.append({k: inv[k] for k in ("wall", "cpu", "rounds", "ops")} | {"ref_s": ref_s})
        cal_before = cal_after
        index += 1
    return {"samples": samples}


def trace(runner, seconds):
    """Untraced/traced pairs on the same config; layer metrics are per traced invocation."""
    runner.invoke(0, reference=True)
    plain, traced, layers = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < seconds:
        plain.append(runner.invoke(index)["wall"])
        tracer.install(TARGETS)
        try:
            inv = runner.invoke(index, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(inv["wall"])
        trace_csv = inv["out_dir"] / "trace.csv"
        tol = wl.rounds_to_tol(trace_csv, wl.reference()["x_star_norm"]) if trace_csv.is_file() else 0
        shutil.rmtree(inv["out_dir"], ignore_errors=True)
        spans = tracer.take_spans()
        layers.append(layer_metrics(spans, tol))
        index += 1
    # median_low keeps a measured sample, so exact counts stay integers
    metrics = {key: statistics.median_low(layer[key] for layer in layers) for key in layers[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    metrics["trace.absent"] = len(tracer.absent)
    return {"layers": metrics, "absent": tracer.absent, "pairs": len(traced)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "measure", "trace"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(CHECKOUT / "src"))
    from dmtrack import cli

    if not Path(cli.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        raise SystemExit(f"dmtrack imported from {cli.__file__}, not from this checkout")
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    if args.mode == "probe":
        result = probe(cli, args, work)
    else:
        runner = Runner(cli, args.workload, args.seed, args.tiny, work)
        if args.mode == "measure":
            result = measure(runner, args.seconds)
        else:
            result = trace(runner, args.seconds)
        result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    # the largest waited-for child counts too, so memory moved out of this
    # process stays on the metric
    result["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
