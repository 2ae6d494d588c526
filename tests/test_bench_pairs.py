"""tools/bench_pairs.py on canned bench/run.py result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BETTER = {"ops_per_s": "higher", "setup_s": "lower", "pass_rate": "higher"}


def load_tool():
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(ops, setup, correct=True):
    """The last stdout line of a bench/run.py --trace 0 run, as it prints it."""
    metrics = {"rounds_per_s": 30 * ops, "ops_per_s": ops, "setup_s": setup,
               "peak_rss_mb": 40.0, "pass_rate": 1.0}
    return json.dumps({
        "correct": correct, "attempted": 90, "failed": 0 if correct else 9,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    })


PARENT_OPS = [250, 260, 262, 264, 265, 266, 267, 268, 270, 280]
CHANGE_OPS = [290, 259, 290, 291, 292, 293, 294, 295, 296, 297]  # loses pair 1 only
SETUPS = [0.50, 0.52, 0.51, 0.50, 0.49, 0.53, 0.50, 0.51, 0.52, 0.50]


def canned_pairs(change_ops):
    return [
        (json.loads(result_line(p, s)), json.loads(result_line(c, s)))
        for p, c, s in zip(PARENT_OPS, change_ops, SETUPS)
    ]


def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_above_the_parent_iqr():
    tool = load_tool()
    ops, setup, rate = tool.summarize(canned_pairs(CHANGE_OPS), BETTER)
    # parent quartiles by linear interpolation: 262.5, 265.5, 267.75
    assert ops == (
        "ops_per_s     parent 265.5 [262.5, 267.75] -> change 292.5 [290.25, 294.75] "
        "+10.17%, wins 9/10, claim holds"
    )
    # equal setup times are ties: no wins, no claim
    assert setup.endswith("+0.00%, wins 0/10, claim does not hold")
    assert rate.endswith("+0.00%, wins 0/10, claim does not hold")
    # a second lost pair breaks the 9-in-10 rule, whatever the medians
    eight = [249, 259] + CHANGE_OPS[2:]
    assert tool.summarize(canned_pairs(eight), BETTER)[0].endswith("wins 8/10, claim does not hold")
    # ten wins by less than the parent's interquartile distance (5.25) are no claim
    close = tool.summarize(canned_pairs([p + 5 for p in PARENT_OPS]), BETTER)[0]
    assert close.endswith("wins 10/10, claim does not hold")


def test_runs_alternate_and_one_incorrect_run_fails_the_tool(monkeypatch, capsys):
    tool = load_tool()
    parent, order = str(ROOT), []

    def canned(checkout, workload, seed, seconds):
        assert (workload, seed, seconds) == ("audit_grid", 97, 10.0)
        i = order.count(checkout)
        order.append(checkout)
        ops = (CHANGE_OPS if checkout == "C" else PARENT_OPS)[i]
        return json.loads(result_line(ops, SETUPS[i], correct=(checkout, i) != ("C", 3)))

    monkeypatch.setattr(tool, "run_bench", canned)
    argv = [parent, "C", "--workload", "audit_grid", "--pairs", "4", "--seconds", "10",
            "--seed", "97"]
    assert tool.main(argv) == 1
    assert order == [parent, "C", "C", parent] * 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "pair 0 parent: rounds_per_s 7500 ops_per_s 250 setup_s 0.5 peak_rss_mb 40 pass_rate 1")
    assert [line.endswith("NOT CORRECT") for line in out[:8]] == [False] * 6 + [True, False]
    assert out[6].startswith("pair 3 change: ")
    # the BENCHMARK.json metrics, each judged over the four pairs
    assert [line.split()[0] for line in out[8:]] == [
        "rounds_per_s", "ops_per_s", "setup_s", "peak_rss_mb", "pass_rate"]
    assert out[9].endswith("wins 3/4, claim does not hold")
