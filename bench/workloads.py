"""Workload definitions: the configs each workload feeds to the CLI, and the
checks that decide whether an invocation's outputs are correct.

Every input is a pure function of the workload name, the benchmark seed and
the invocation index, so the same seed gives the same inputs. Sizes are fixed
per workload (and much smaller with ``tiny``, which only the self-test uses).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import shutil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# The seed whose trace.csv digests are recorded in reference.json. Every
# measuring child runs it once, untimed, before the timed loop.
REF_SEED = 0
REL_TOL = 1e-8

WORKLOADS = ("mc_noisy", "free_converge", "audit_grid")

# (trials, iters) per size; record_every is part of the workload, not the size.
SIZES = {
    "mc_noisy": {"full": (2, 5000), "tiny": (1, 5000)},
    "free_converge": {"full": (1, 3000), "tiny": (1, 600)},
    "audit_grid": {"full": (1, 1), "tiny": (1, 1)},
}

# Byte-identical reruns are a documented contract, so two invocations with the
# same config must write the same trace.csv, and the reference seed must match
# the digest recorded when this benchmark was defined.
DIGEST_WORKLOADS = ("mc_noisy", "free_converge")


def config_for(workload, seed, index, tiny, output):
    """The JSON config of invocation `index` of a run with benchmark seed `seed`.

    mc_noisy and free_converge repeat one config (so byte determinism can be
    checked inside a run); audit_grid audits a fresh master seed each time.
    """
    trials, iters = SIZES[workload]["tiny" if tiny else "full"]
    if workload == "mc_noisy":
        return {
            "problem": {"preset": "microgrid14"},
            "algorithm": {"alpha": {"frac_of_t2": 0.9}, "iters": iters, "record_every": 10},
            "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
            "trials": trials,
            "seed": seed,
            "output": str(output),
        }
    if workload == "free_converge":
        return {
            "problem": {"preset": "microgrid14"},
            "algorithm": {"alpha": {"frac_of_t1": 0.9}, "iters": iters, "record_every": 1},
            "noise": {"enabled": False},
            "trials": trials,
            "seed": seed,
            "output": str(output),
        }
    if workload == "audit_grid":
        return {
            "problem": {"preset": "symmetric2"},
            "algorithm": {"alpha": {"frac_of_t1": 0.9}, "iters": iters},
            "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
            "trials": trials,
            "seed": (seed * 1000 + index) % 2**63,
            "output": str(output),
        }
    raise ValueError(f"unknown workload {workload!r}")


def cli_args(workload, config_path, out_dir):
    if workload == "audit_grid":
        return ["audit", "--config", str(config_path), "--grid", "--out", str(out_dir)]
    return ["run", "--config", str(config_path), "--out", str(out_dir)]


def prepare(workload, seed, index, tiny, work):
    """Write invocation `index`'s config under `work`; returns (config, argv, out_dir)."""
    out_dir = Path(work) / f"out{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = config_for(workload, seed, index, tiny, out_dir)
    config_path = Path(work) / f"config{index}.json"
    config_path.write_text(json.dumps(config))
    return config, cli_args(workload, config_path, out_dir), out_dir


@functools.cache
def reference():
    """The recorded seed-0 outputs (reference.json), read on first use."""
    return json.loads((BENCH_DIR / "reference.json").read_text())


def ops_per_invocation(workload, config):
    """Operations one invocation attempts: trials, one trajectory, or grid points."""
    if workload == "audit_grid":
        return 9  # the CLI's default 3 x 3 (d_zeta, q) grid
    return config["trials"]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rounds_to_tol(trace_csv, x_star_norm, tol=REL_TOL):
    """First recorded round with ||x - x*|| / ||x*|| <= tol, or 0 if never reached."""
    with open(trace_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if math.sqrt(float(row["mse"])) / x_star_norm <= tol:
                return int(row["k"])
    return 0


def check_invocation(workload, exit_code, stdout, out_dir, config, expect_digest=None, check_tol=True):
    """Judge one CLI invocation; returns (failed_ops, digest, problems).

    A run-level verdict (exit code, digest, convergence count, grid flags)
    fails every operation of the invocation; audit rows are also judged one
    grid point at a time. `check_tol` compares free_converge's rounds_to_tol
    with reference.json.
    """
    ops = ops_per_invocation(workload, config)
    if workload in DIGEST_WORKLOADS:
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        trace = Path(out_dir) / "trace.csv"
        if not trace.is_file():
            return ops, None, problems + ["trace.csv missing"]
        digest = sha256(trace)
        if expect_digest is not None and digest != expect_digest:
            problems.append(f"trace.csv sha256 {digest[:12]} != expected {expect_digest[:12]}")
        want = reference()["rounds_to_tol"] if check_tol and workload == "free_converge" else None
        if want is not None and config["algorithm"]["iters"] >= want:
            got = rounds_to_tol(trace, reference()["x_star_norm"])
            if got != want:
                problems.append(f"rounds_to_tol {got} != reference {want}")
        return (ops if problems else 0), digest, problems

    audit_csv = Path(out_dir) / "audit.csv"
    if not audit_csv.is_file():
        return ops, None, [f"exit code {exit_code}", "audit.csv missing"]
    with open(audit_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad_points = 0
    for r in rows:
        eps_e, eps_t = float(r["eps_empirical"]), float(r["eps_theory"])
        if r["admissible"] != "1" or int(r["violations"]) or not eps_e <= eps_t:
            bad_points += 1
    grid_problems = []
    if exit_code != 0 and not bad_points:
        grid_problems.append(f"exit code {exit_code}")
    if len(rows) != ops:
        grid_problems.append(f"audit.csv has {len(rows)} points, expected {ops}")
    lines = stdout.splitlines()
    for flag in ("monotone_in_d_zeta", "monotone_in_q"):
        if f"{flag}=True" not in lines:
            grid_problems.append(f"{flag} is not True")
    if grid_problems:
        return ops, None, grid_problems
    return bad_points, None, [f"{bad_points} audit points failed"] if bad_points else []
