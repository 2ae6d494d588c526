import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    path = ROOT / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_matches_itself_on_one_seed(capsys):
    """Every command of every workload config runs and matches itself; the
    single-point audit of free_converge's noise-free config is rejected (exit 2),
    and the alpha = 1e308 sweep fails (exit 1) except on audit_grid's one-round
    config. The run lines show both checkouts' rounds_stepped: every round of
    the noisy run, and the noise-free run's stop where its state repeats."""
    tool = load_tool()
    assert tool.main([str(ROOT), str(ROOT), "--seeds", "3", "--invocations", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    own = {"mc_noisy": "run", "free_converge": "run", "audit_grid": "audit --grid"}
    stepped = {"mc_noisy": "5000 -> 5000", "free_converge": "1059 -> 1059"}
    exits = {("free_converge", "audit"): 2, ("mc_noisy", "diverging sweep"): 1,
             ("free_converge", "diverging sweep"): 1}
    assert lines[:18] == [
        f"{workload} seed 3 invocation 0 {name}: identical "
        f"(exit [{exits.get((workload, name), 0)}])"
        + (f" rounds_stepped {stepped[workload]}" if name == "run" else "")
        for workload in own
        for name in (own[workload], "bounds", "oracle", "audit", "sweep", "diverging sweep")
    ]
    assert lines[18] == "wc -l src/dmtrack/*.py: parent, change, delta"
    counts = tool.line_counts(ROOT)
    assert lines[19:-2] == [f"  {name:<20} {n:>6} {n:>6} {0:>+6}" for name, n in counts.items()]
    total = sum(counts.values())
    assert lines[-2:] == [f"  {'total':<20} {total:>6} {total:>6} {0:>+6}", "0 differing items"]


def test_every_file_a_command_writes_is_compared(tmp_path):
    """A sweep's items are its stdout, sweep.csv and each value's trace.csv and
    summary.json, but no timings.json."""
    tool = load_tool()
    items, stepped = tool.run_case(ROOT, "mc_noisy", 3, 0, "sweep", tmp_path / "work")
    assert stepped is None
    assert sorted(items) == sorted(["exit code", "stdout", "sweep.csv"] + [
        f"d_zeta_{value}/{name}" for value in ("0.5", "2") for name in ("summary.json", "trace.csv")
    ])


def test_every_differing_item_is_named():
    tool = load_tool()
    parent = {"exit code": 0, "stdout": "a", "trace.csv": "b", "summary.json": "c"}
    change = dict(parent, stdout="x", **{"audit.csv": "d", "exit code": 1})
    assert tool.differing(parent, parent) == []
    assert tool.differing(parent, change) == ["exit code", "stdout", "audit.csv"]
    del change["trace.csv"]
    assert tool.differing(parent, change) == ["exit code", "stdout", "trace.csv", "audit.csv"]
