"""Compare the CLI outputs of two checkouts byte for byte.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 0 3 41] [--invocations 2]

PARENT and CHANGE are checkout roots (each holding src/dmtrack). Every case
is one benchmark workload at one bench seed and invocation index, with the
config `bench/workloads.py` of this repository writes for it: by default
bench seeds 0, 3 and 41 and invocations 0 and 1 of the three workloads, 18
cases. Each checkout runs each case as `python -m dmtrack.cli` in a fresh
process, in one fixed work directory shared by both checkouts, since
summary.json's config_hash hashes the output path. The exit code, stdout,
trace.csv, summary.json and audit.csv must match; timings.json holds wall
clock times and is left out.

Prints one line per case and exits 1 if any item differs, naming each.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in bench/
import workloads  # noqa: E402

sys.dont_write_bytecode = _write

FILES = ("trace.csv", "summary.json", "audit.csv")


def run_case(checkout, workload, seed, index, work):
    """The exit code and {item: sha256 of its bytes, or None if absent} of one CLI
    invocation from `checkout`."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _, argv, out_dir = workloads.prepare(workload, seed, index, False, work)
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "dmtrack.cli", *argv],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    items = {"exit code": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()}
    for name in FILES:
        path = Path(out_dir) / name
        items[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return items


def differing(parent, change):
    """The items whose bytes (or presence) differ between two run_case results."""
    return [item for item in parent if parent[item] != change[item]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 41])
    ap.add_argument("--invocations", type=int, default=2)
    args = ap.parse_args(argv)
    root = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    work = root / "work"
    differences = 0
    try:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                for index in range(args.invocations):
                    parent = run_case(args.parent, workload, seed, index, work)
                    change = run_case(args.change, workload, seed, index, work)
                    diff = differing(parent, change)
                    differences += len(diff)
                    verdict = "differs in " + ", ".join(diff) if diff else "identical"
                    codes = sorted({parent["exit code"], change["exit code"]})
                    print(f"{workload} seed {seed} invocation {index}: {verdict} (exit {codes})")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{differences} differing items")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
