"""Fast self-test of the benchmark (under a minute).

    python3 bench/selftest.py

Runs every workload at tiny size for one second, untraced and traced, and
checks that the result line is well formed, that every metric named in
BENCHMARK.json is present, finite and in its unit, and that no operation
failed. Then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from workloads import WORKLOADS  # noqa: E402


def run(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )


def check_result(workload, trace, spec):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}; {proc.stderr.strip()[-500:]}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r} is not a finite number")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
    return errors


def check_refuses_without_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "--workload", "mc_noisy", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"without src/ the benchmark exited {proc.returncode} with output {last[0]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'FAILED' if found else 'ok'}", flush=True)
            errors += found
    found = check_refuses_without_program()
    print(f"refuses without src/: {'FAILED' if found else 'ok'}", flush=True)
    errors += found
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
