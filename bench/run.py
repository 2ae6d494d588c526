"""dmtrack benchmark: one workload, end-to-end metrics or traced per-layer metrics.

    python3 bench/run.py --workload mc_noisy --seed 1 --seconds 20 --trace 0

Run from a checkout root (the directory holding src/ and BENCHMARK.json).
Workloads, metrics and the layer predictions are described in bench/README.md.
Each part of a run is a fresh child process (bench/child.py) with the BLAS
thread count pinned:

  --trace 0   set-up probe children around one child that times CLI
              invocations for --seconds. Timings are CPU time scaled to a
              reference host speed (child.calibrate); medians are reported.
  --trace 1   one child that alternates untraced and traced invocations for
              --seconds and reports per-layer metrics and the tracing overhead.

Human-readable lines (metrics with units, fail_rate, the environment stamp)
come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 10
BLAS_THREADS = "1"  # never more than nproc; the program is single-threaded by design
DEADLINE_S = 170.0  # a run must end within 180 s
# Timings are CPU time, which leaves out time spent blocked. On the host this
# benchmark was defined on, wall/CPU per invocation stayed below 2 even when
# the host was busy; a run above this median is refused rather than reported.
MAX_WALL_OVER_CPU = 2.5


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # write no .pyc into the checkout: a fresh checkout then compiles src/ in
    # every child, so set-up costs the same in every run
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, mode, work, timeout):
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--work", str(work),
    ]
    if args.tiny:
        cmd.append("--tiny")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(args, work, deadline):
    # Half the set-up probes run before the measuring child and half after,
    # so one busy spell of the host cannot cover them all.
    probes = [run_child(args, "probe", work, deadline - time.monotonic()) for _ in range(PROBES // 2)]
    res = run_child(args, "measure", work, deadline - time.monotonic())
    probes += [run_child(args, "probe", work, deadline - time.monotonic()) for _ in range(PROBES - PROBES // 2)]
    samples = res["samples"]
    wall_over_cpu = statistics.median(s["wall"] / s["cpu"] for s in samples)
    if wall_over_cpu > MAX_WALL_OVER_CPU:
        raise RuntimeError(
            f"median wall/CPU time per invocation is {wall_over_cpu:.2f} (> {MAX_WALL_OVER_CPU}): "
            "the CPU clock misses the time spent blocked, so the timings would not be valid"
        )
    values = {
        "rounds_per_s": statistics.median(s["rounds"] / s["ref_s"] for s in samples),
        "ops_per_s": statistics.median(s["ops"] / s["ref_s"] for s in samples),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_rate": 1.0 - res["failed"] / res["attempted"],
    }
    info = [
        f"invocations       {len(samples)} timed (+1 untimed reference)",
        f"wall clock        rounds/s median {statistics.median(s['rounds'] / s['wall'] for s in samples):.6g}, "
        f"setup median {statistics.median(p['setup_wall_s'] for p in probes):.4f} s (not normalized)",
        f"cpu clock         rounds/s median {statistics.median(s['rounds'] / s['cpu'] for s in samples):.6g} "
        f"(not normalized); wall/cpu median {wall_over_cpu:.3f}",
        f"fail_rate         {res['failed'] / res['attempted']:.6g} "
        f"({res['failed']} of {res['attempted']} operations)",
    ]
    return values, res, info


def per_layer(args, work, deadline):
    res = run_child(args, "trace", work, deadline - time.monotonic())
    info = [f"traced pairs      {res['pairs']}"]
    info += [f"absent target     {name} (reported as 0)" for name in res["absent"]]
    return res["layers"], res, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    started = time.monotonic()
    if not (ROOT / "src" / "dmtrack" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/dmtrack; run from a dmtrack checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            values, res, info = per_layer(args, work, deadline)
            wanted = spec["per_layer"]
        else:
            values, res, info = end_to_end(args, work, deadline)
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if ROOT.joinpath(".bench_work").is_dir() and not any(ROOT.joinpath(".bench_work").iterdir()):
            ROOT.joinpath(".bench_work").rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    stamp = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
    }
    for problem in res["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']!r:>24} {m['unit']}")
    for line in info:
        print(line)
    print(f"env               {json.dumps(stamp, sort_keys=True)}")
    print(f"elapsed           {time.monotonic() - started:.1f} s")
    result = {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
