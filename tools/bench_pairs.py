"""Benchmark two checkouts in alternating pairs and judge each end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

PARENT and CHANGE are checkout roots. Each pair runs the checkout's own
`bench/run.py --workload W --seed K --seconds S --trace 0` in both, the
parent first in even pairs (0, 2, ...) and the change first in odd ones, and
prints each run's metrics as it ends. Then, for each end-to-end metric of
PARENT's BENCHMARK.json, it prints each side's median and quartiles (linear
interpolation between the order statistics), the change's relative move, its
wins (pairs where it is better; ties count for neither) and whether the
claim rule holds: the change wins at least 9 of every 10 pairs, and its
median is better than the parent's by more than the parent's interquartile
distance. Exits 1 if any run fails or reports `correct` false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout, workload, seed, seconds):
    """The JSON result (the last stdout line) of one `bench/run.py` run in `checkout`,
    or None if the run exits nonzero."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of two or more values."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, better):
    """One line per metric of `better` ({name: "higher" or "lower"}) over a list of
    (parent result, change result) pairs."""
    lines = []
    for name, direction in better.items():
        before = [parent["metrics"][name]["value"] for parent, _ in pairs]
        after = [change["metrics"][name]["value"] for _, change in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        (p1, p_med, p3), (c1, c_med, c3) = quartiles(before), quartiles(after)
        holds = 10 * wins >= 9 * len(pairs) and sign * (c_med - p_med) > p3 - p1
        move = f"{c_med / p_med - 1:+.2%}" if p_med else "n/a"
        lines.append(
            f"{name:<13} parent {p_med:.6g} [{p1:.6g}, {p3:.6g}] -> change {c_med:.6g} "
            f"[{c1:.6g}, {c3:.6g}] {move}, wins {wins}/{len(pairs)}, "
            f"claim {'holds' if holds else 'does not hold'}"
        )
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}

    pairs, correct = [], True
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in sides:
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
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
