"""Benchmark two checkouts in alternating pairs and judge each end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K [--json PATH]

PARENT and CHANGE are checkout roots. Each pair runs the checkout's own
`bench/run.py --workload W --seed K --seconds S --trace 0` in both, the
parent first in even pairs (0, 2, ...) and the change first in odd ones, and
prints each run's metrics as it ends. Then, for each end-to-end metric of
PARENT's BENCHMARK.json, it prints each side's median and quartiles (linear
interpolation between the order statistics), the change's relative move, its
wins (pairs where it is better; ties count for neither) and whether the
claim rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's interquartile
distance. With --json it also writes these verdicts to PATH, each side's
quartiles as numbers, with the environment stamp of each side's first run
(the `env` line of `bench/run.py`, which carries `src_lines` and the git
commit), and first times the acceptance-scale probe: PROBE_RUNS runs per
side, sides alternating as in the pairs, of the acceptance `micro_sweep`
(PROBE_ARGS on PROBE_CONFIG: 100 microgrid14 trials of 5000 rounds per
value), each the CPU seconds of its child process. The probe's times are
printed and written under "probe"; no claim reads them. Exits 1 if any run,
probe runs included, fails or reports `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the acceptance micro_sweep: tests/conftest.py's config, run through the CLI
PROBE_CONFIG = {
    "problem": {"preset": "microgrid14"},
    "algorithm": {"alpha": {"frac_of_t2": 0.9}, "iters": 5000, "record_every": 10},
    "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
    "trials": 100,
    "seed": 20230814,
    "output": "out",
}
PROBE_ARGS = ("sweep", "--param", "d_zeta", "--values", "0.5,1,2,4")
PROBE_RUNS = 3  # per side


def sides(i):
    """The order in which pair or probe run i runs the two checkouts: parent first if i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_bench(checkout, workload, seed, seconds):
    """The JSON result (the last stdout line) of one `bench/run.py` run in `checkout`,
    with its environment stamp (the `env` line) under "env", or None if the run exits
    nonzero."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = [line.split(None, 1)[1] for line in lines if line.startswith("env ")]
    result["env"] = json.loads(env[-1]) if env else None
    return result


def run_probe(checkout, work):
    """The CPU seconds of one acceptance-scale sweep that `checkout`'s CLI runs in the
    fresh directory `work`, or None if it exits nonzero."""
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(PROBE_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "dmtrack.cli", *PROBE_ARGS, "--config", "config.json"],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        return None
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def probe(args):
    """({side: [CPU seconds or None per run]}, whether every run succeeded), printing
    one line per run."""
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_probe_") as root:
        for i in range(PROBE_RUNS):
            for side in sides(i):
                cpu = run_probe(getattr(args, side), Path(root) / f"{side}{i}")
                times[side].append(cpu)
                shown = "run failed" if cpu is None else f"cpu_s {cpu:.3f}"
                print(f"probe {i} {side}: {shown}", flush=True)
    return times, all(cpu is not None for runs in times.values() for cpu in runs)


def quartiles(values):
    """(first quartile, median, third quartile) of two or more values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(pairs, better):
    """Per metric of `better` ({name: "higher" or "lower"}) over a list of (parent
    result, change result) pairs: each side's (first quartile, median, third
    quartile), the change's wins and whether the claim rule holds."""
    verdicts = {}
    for name, direction in better.items():
        before = [parent["metrics"][name]["value"] for parent, _ in pairs]
        after = [change["metrics"][name]["value"] for _, change in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        parent, change = quartiles(before), quartiles(after)
        holds = 10 * wins >= 9 * len(pairs) and sign * (change[1] - parent[1]) > parent[2] - parent[0]
        verdicts[name] = {"better": direction, "parent": parent, "change": change,
                          "wins": wins, "pairs": len(pairs), "claim": holds}
    return verdicts


def summarize(pairs, better):
    """One line per metric of `better` over a list of (parent result, change result) pairs."""
    lines = []
    for name, v in judge(pairs, better).items():
        (p1, p_med, p3), (c1, c_med, c3) = v["parent"], v["change"]
        move = f"{c_med / p_med - 1:+.2%}" if p_med else "n/a"
        lines.append(
            f"{name:<13} parent {p_med:.6g} [{p1:.6g}, {p3:.6g}] -> change {c_med:.6g} "
            f"[{c1:.6g}, {c3:.6g}] {move}, wins {v['wins']}/{v['pairs']}, "
            f"claim {'holds' if v['claim'] else 'does not hold'}"
        )
    return lines


def write_json(path, args, pairs, better, probe_times):
    """The --json file: the run settings, each side's first environment stamp, `judge`'s
    verdicts, quartiles as {"q1", "median", "q3"}, and the probe's CPU seconds."""
    metrics = judge(pairs, better)
    for v in metrics.values():
        for side in ("parent", "change"):
            v[side] = dict(zip(("q1", "median", "q3"), v[side]))
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": len(pairs),
        "env": {"parent": pairs[0][0].get("env"), "change": pairs[0][1].get("env")},
        "metrics": metrics,
        "probe": {"command": " ".join(("dmtrack",) + PROBE_ARGS), "config": PROBE_CONFIG,
                  "cpu_s": probe_times},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--json", default=None, help="also write the verdicts to this file")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    probe_times, correct = probe(args) if args.json else (None, True)
    pairs = []
    for i in range(args.pairs):
        result = {}
        for side in sides(i):
            res = run_bench(getattr(args, side), args.workload, args.seed, args.seconds)
            ok = res is not None and res["correct"]
            correct = correct and ok
            values = " ".join(
                f"{name} {res['metrics'][name]['value']:.6g}" for name in better
            ) if res is not None else "run failed"
            print(f"pair {i} {side}: {values}{'' if ok else ' NOT CORRECT'}", flush=True)
            result[side] = res
        if result["parent"] is not None and result["change"] is not None:
            pairs.append((result["parent"], result["change"]))
    if len(pairs) >= 2:
        print("\n".join(summarize(pairs, better)))
        if args.json:
            write_json(args.json, args, pairs, better, probe_times)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
