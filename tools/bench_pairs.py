"""Benchmark two checkouts in alternating pairs and judge each end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K [--json PATH]

PARENT and CHANGE are checkout roots. Each side runs from a plain copy of its
checkout's `src/`, `bench/` and `BENCHMARK.json` in a temporary directory, so
what lies beside the files (`.git`, caches) and where the checkout lives
cannot move a metric such as `peak_rss_mb`; the tool reads each checkout's git
commit itself. Each pair runs the checkout's own
`bench/run.py --workload W --seed K --seconds S --trace 0` in both copies, the
parent first in even pairs (0, 2, ...) and the change first in odd ones, and
prints each run's metrics as it ends. Then, for each end-to-end metric of
PARENT's BENCHMARK.json, it prints each side's median and quartiles (linear
interpolation between the order statistics), the change's relative move, its
wins (pairs where it is better; ties count for neither) and whether the
claim rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's interquartile
distance. With --json it also writes these verdicts to PATH, each side's
quartiles as numbers, with the environment stamp of each side's first run
(the `env` line of `bench/run.py`, which carries `src_lines`; its git_commit
is the checkout's), and first times the acceptance-scale probe: PROBE_RUNS
runs per side, sides alternating as in the pairs, of each PROBES command on
PROBE_CONFIG (100 microgrid14 trials of 5000 rounds: a `run`, and the
acceptance `micro_sweep` over four values), each the CPU seconds of its
child process. The probe's times are printed and written under "probe"; no
claim reads them. Exits 1 if any run, probe runs included, fails or reports
`correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# the acceptance config of tests/conftest.py, run through the CLI
PROBE_CONFIG = {
    "problem": {"preset": "microgrid14"},
    "algorithm": {"alpha": {"frac_of_t2": 0.9}, "iters": 5000, "record_every": 10},
    "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
    "trials": 100,
    "seed": 20230814,
    "output": "out",
}
# each probe command's CLI arguments: one run, and the acceptance micro_sweep
PROBES = {"run": ("run",), "sweep": ("sweep", "--param", "d_zeta", "--values", "0.5,1,2,4")}
PROBE_RUNS = 3  # per side and command


def sides(i):
    """The order in which pair or probe run i runs the two checkouts: parent first if i is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def git_commit(checkout):
    """The commit checked out at `checkout`, or None where git cannot name one."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def plain_copy(checkout, dest):
    """Copy what `bench/run.py` builds and runs from, `checkout`'s src/, bench/ and
    BENCHMARK.json, to the new directory `dest`; return dest."""
    for name in ("src", "bench"):
        shutil.copytree(Path(checkout) / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    shutil.copy2(Path(checkout) / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


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


def run_probe(checkout, work, args):
    """The CPU seconds of the command `args` (a PROBES value) that `checkout`'s CLI runs
    on PROBE_CONFIG in the fresh directory `work`, or None if it exits nonzero."""
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(PROBE_CONFIG))
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "dmtrack.cli", *args, "--config", "config.json"],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        return None
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def probe(copies, root):
    """({command: {side: [CPU seconds or None per run]}}, whether every run succeeded)
    of the PROBES commands run in the `copies` ({side: checkout}), each in its own
    directory under `root`, printing one line per run."""
    times, ok = {name: {"parent": [], "change": []} for name in PROBES}, True
    for i in range(PROBE_RUNS):
        for side in sides(i):
            for name, args in PROBES.items():
                cpu = run_probe(copies[side], Path(root) / f"{name}-{side}{i}", args)
                times[name][side].append(cpu)
                ok = ok and cpu is not None
                shown = "run failed" if cpu is None else f"cpu_s {cpu:.3f}"
                print(f"probe {i} {side} {name}: {shown}", flush=True)
    return times, ok


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


def write_json(path, args, pairs, better, probe_times, commits):
    """The --json file: the run settings, each side's first environment stamp with the
    checkout's git commit from `commits`, `judge`'s verdicts, quartiles as {"q1",
    "median", "q3"}, and each probe command's CPU seconds."""
    metrics = judge(pairs, better)
    for v in metrics.values():
        for side in ("parent", "change"):
            v[side] = dict(zip(("q1", "median", "q3"), v[side]))
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": len(pairs),
        "env": {side: dict(pair.get("env") or {}, git_commit=commits[side])
                for side, pair in zip(("parent", "change"), pairs[0])},
        "metrics": metrics,
        "probe": {"config": PROBE_CONFIG, **{
            name: {"command": " ".join(("dmtrack",) + args), "cpu_s": probe_times[name]}
            for name, args in PROBES.items()
        }},
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

    commits = {side: git_commit(getattr(args, side)) for side in ("parent", "change")}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        copies = {side: plain_copy(getattr(args, side), Path(root) / side)
                  for side in ("parent", "change")}
        probe_times, correct = probe(copies, Path(root) / "probe") if args.json else (None, True)
        pairs = []
        for i in range(args.pairs):
            result = {}
            for side in sides(i):
                res = run_bench(copies[side], args.workload, args.seed, args.seconds)
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
            write_json(args.json, args, pairs, better, probe_times, commits)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
