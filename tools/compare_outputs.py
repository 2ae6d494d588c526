"""Compare the CLI outputs and source line counts of two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 0 3 41] [--invocations 2]

PARENT and CHANGE are checkout roots (each holding src/dmtrack). Every case
is one benchmark workload at one bench seed and invocation index, with the
config `bench/workloads.py` of this repository writes for it: by default
bench seeds 0, 3 and 41 and invocations 0 and 1 of the three workloads, 18
cases. Each case runs the workload's own command and then, on the same
config, `bounds`, `oracle`, a single-point `audit`, a two-value `sweep` and a
`sweep` at alpha = 1e308 (EXTRA), whose every trial diverges in round 1 on
the mc_noisy and free_converge configs: its failure message, failed seeds
and exit code 1 are compared too. Each checkout runs each command as
`python -m dmtrack.cli` in a fresh process, in one fixed work directory
shared by both checkouts, since summary.json's config_hash hashes the output
path. The exit code, stdout and every file the command writes (trace.csv,
summary.json, audit.csv, sweep.csv and each sweep value's files) must match;
timings.json holds wall clock times and is left out.

Prints one line per command of each case, then `wc -l src/dmtrack/*.py` of
both checkouts with the per-file delta, and exits 1 if any item differs,
naming each. A `run` line also shows the rounds_stepped of each checkout's
timings.json, parent first: where a noise-free run stopped stepping. It is
not compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

# the commands every workload config also runs, after the workload's own; {out}
# is the case's output directory
EXTRA = {
    "bounds": ("bounds",),
    "oracle": ("oracle",),
    "audit": ("audit", "--out", "{out}"),
    "sweep": ("sweep", "--param", "d_zeta", "--values", "0.5,2", "--out", "{out}"),
    "diverging sweep": ("sweep", "--param", "alpha", "--values", "1e308", "--out", "{out}"),
}


def commands(argv, out_dir):
    """{name: CLI argv}: the workload's own command `argv`, then each of EXTRA on its config."""
    config = ["--config", argv[argv.index("--config") + 1]]
    out = {"audit --grid" if "--grid" in argv else argv[0]: argv}
    for name, (sub, *rest) in EXTRA.items():
        out[name] = [sub, *config, *(arg.format(out=out_dir) for arg in rest)]
    return out


def run_case(checkout, workload, seed, index, name, work):
    """({item: sha256 of its bytes}, rounds_stepped) of command `name` of one case,
    run from `checkout`. The exit code, stdout and every file under the output
    directory but timings.json are items, a file named by its path there;
    rounds_stepped is that of the output directory's timings.json, or None."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _, argv, out_dir = workloads.prepare(workload, seed, index, False, work)
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update(PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "dmtrack.cli", *commands(argv, out_dir)[name]],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    items = {"exit code": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest()}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file() and path.name != "timings.json":
            item = path.relative_to(out_dir).as_posix()
            items[item] = hashlib.sha256(path.read_bytes()).hexdigest()
    timings = Path(out_dir) / "timings.json"
    stepped = json.loads(timings.read_text()).get("rounds_stepped") if timings.is_file() else None
    return items, stepped


def differing(parent, change):
    """The items whose bytes or presence differ between two run_case results."""
    return [item for item in {**parent, **change} if parent.get(item) != change.get(item)]


def line_counts(checkout):
    """{file name: line count} of src/dmtrack/*.py, as `wc -l` counts them."""
    files = sorted((Path(checkout) / "src" / "dmtrack").glob("*.py"))
    return {path.name: path.read_bytes().count(b"\n") for path in files}


def print_line_counts(parent, change):
    """Print each source file's lines in both checkouts, the delta and the totals."""
    before, after = line_counts(parent), line_counts(change)
    print("wc -l src/dmtrack/*.py: parent, change, delta")
    for name in sorted(before.keys() | after.keys()):
        a, b = before.get(name, 0), after.get(name, 0)
        print(f"  {name:<20} {a:>6} {b:>6} {b - a:>+6}")
    a, b = sum(before.values()), sum(after.values())
    print(f"  {'total':<20} {a:>6} {b:>6} {b - a:>+6}")


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
            names = commands(workloads.cli_args(workload, "config", "out"), "out")
            for seed in args.seeds:
                for index in range(args.invocations):
                    for name in names:
                        parent, before = run_case(args.parent, workload, seed, index, name, work)
                        change, after = run_case(args.change, workload, seed, index, name, work)
                        diff = differing(parent, change)
                        differences += len(diff)
                        verdict = "differs in " + ", ".join(diff) if diff else "identical"
                        codes = sorted({parent["exit code"], change["exit code"]})
                        shown = f" rounds_stepped {before} -> {after}" if name == "run" else ""
                        print(f"{workload} seed {seed} invocation {index} {name}: "
                              f"{verdict} (exit {codes}){shown}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print_line_counts(args.parent, args.change)
    print(f"{differences} differing items")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
