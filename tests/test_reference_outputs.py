"""The benchmark's seed-0 outputs, pinned in the fast suite.

bench/reference.json records the sha256 of the trace.csv that the seed-0
mc_noisy and free_converge configs write, and the round at which
free_converge reaches relative error 1e-8. This test reruns both configs,
built by bench/workloads.py, through the CLI and compares; it only reads
bench/.
"""

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
