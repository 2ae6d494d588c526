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
    tool = load_tool()
    assert tool.main([str(ROOT), str(ROOT), "--seeds", "3", "--invocations", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"{workload} seed 3 invocation 0: identical (exit [0])"
        for workload in ("mc_noisy", "free_converge", "audit_grid")
    ] + ["0 differing items"]


def test_every_differing_item_is_named():
    tool = load_tool()
    parent = {"exit code": 0, "stdout": "a", "trace.csv": "b", "summary.json": "c"}
    parent["audit.csv"] = None
    change = dict(parent, stdout="x", **{"audit.csv": "d", "exit code": 1})
    assert tool.differing(parent, parent) == []
    assert tool.differing(parent, change) == ["exit code", "stdout", "audit.csv"]
