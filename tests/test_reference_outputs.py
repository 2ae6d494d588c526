"""The benchmark's seed-0 outputs, pinned in the fast suite.

bench/reference.json records the sha256 of the trace.csv that the seed-0
mc_noisy and free_converge configs write, and the round at which
free_converge reaches relative error 1e-8. These tests rerun both configs,
built by bench/workloads.py, through the CLI and compare; they also pin the
seed-0 audit_grid invocation's audit.csv and `dmtrack bounds` stdout on the
mc_noisy config, whose digests live here. They only read bench/.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dmtrack import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("workload", ["mc_noisy", "free_converge"])
def test_seed0_trace_matches_the_benchmark_reference(workloads, workload, tmp_path, capsys):
    wl = workloads
    ref = wl.reference()
    config, argv, out_dir = wl.prepare(workload, wl.REF_SEED, 0, False, tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().out
    trace = out_dir / "trace.csv"
    assert wl.sha256(trace) == ref["digests"][workload]
    if workload == "free_converge":
        assert ref["rounds_to_tol"] == 501
        assert wl.rounds_to_tol(trace, ref["x_star_norm"]) == ref["rounds_to_tol"]


# sha256 of the seed-0 audit_grid invocation's audit.csv and of `dmtrack
# bounds` stdout on the seed-0 mc_noisy config (microgrid14); a refactor
# must leave both byte for byte unchanged
AUDIT_GRID_CSV_SHA256 = "7811bc1d18f30e9bc80820e9dffe8eb98e9d3eb35977b1f3cc02675ec6446590"
MICROGRID14_BOUNDS_SHA256 = "714a177b85159cfb2d68f15005ee366779f0a2294eafee2aed4e202e66fb262e"


def test_seed0_audit_grid_csv_is_pinned(workloads, tmp_path, capsys):
    wl = workloads
    config, argv, out_dir = wl.prepare("audit_grid", wl.REF_SEED, 0, False, tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().out
    assert wl.sha256(out_dir / "audit.csv") == AUDIT_GRID_CSV_SHA256


def test_microgrid14_bounds_stdout_is_pinned(workloads, tmp_path, capsys):
    wl = workloads
    config, argv, out_dir = wl.prepare("mc_noisy", wl.REF_SEED, 0, False, tmp_path)
    assert cli.main(["bounds", "--config", argv[argv.index("--config") + 1]]) == 0
    out = capsys.readouterr().out
    assert "admissible=True" in out
    assert hashlib.sha256(out.encode()).hexdigest() == MICROGRID14_BOUNDS_SHA256
