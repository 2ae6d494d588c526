"""tools/bench_pairs.py on canned bench/run.py result lines; no benchmark runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

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


def run_in_place(monkeypatch, tool):
    """Stub the plain copies: each side runs in its checkout as given, and git_commit
    names a checkout "commit of <its last path part>"."""
    monkeypatch.setattr(tool, "plain_copy", lambda checkout, dest: checkout)
    monkeypatch.setattr(tool, "git_commit", lambda checkout: f"commit of {Path(checkout).name}")


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

    run_in_place(monkeypatch, tool)
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


def test_json_holds_each_metric_verdict_and_each_side_env_stamp(monkeypatch, tmp_path):
    """run_bench reads the env stamp off bench/run.py's output, and --json writes
    each metric's quartiles, wins and claim with each side's first env stamp, whose
    git_commit is the one the tool read off the checkout."""
    tool = load_tool()
    parent, counts = str(ROOT), {}

    def canned_stdout(checkout, ops):
        stamp = {"git_commit": "C" if checkout == "C" else "P", "src_lines": 3050}
        return "\n".join([
            f"ops_per_s {ops} 1/s",
            f"env               {json.dumps(stamp, sort_keys=True)}",
            "elapsed           10.2 s",
            result_line(ops, 0.5),
        ]) + "\n"

    def fake_run(cmd, cwd, stdout, text):
        i = counts[cwd] = counts.get(cwd, -1) + 1
        ops = (CHANGE_OPS if cwd == "C" else PARENT_OPS)[i]
        return SimpleNamespace(returncode=0, stdout=canned_stdout(cwd, ops))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    monkeypatch.setattr(tool, "run_probe", lambda checkout, work, args: 2.5)
    run_in_place(monkeypatch, tool)
    assert tool.run_bench("C", "audit_grid", 97, 10.0)["env"] == {"git_commit": "C", "src_lines": 3050}
    counts.clear()
    out = tmp_path / "bench.json"
    argv = [parent, "C", "--workload", "audit_grid", "--pairs", "10", "--seconds", "10",
            "--seed", "97", "--json", str(out)]
    assert tool.main(argv) == 0
    doc = json.loads(out.read_text())
    assert (doc["workload"], doc["seed"], doc["seconds"], doc["pairs"]) == ("audit_grid", 97, 10.0, 10)
    assert doc["env"] == {"parent": {"git_commit": f"commit of {ROOT.name}", "src_lines": 3050},
                          "change": {"git_commit": "commit of C", "src_lines": 3050}}
    ops = doc["metrics"]["ops_per_s"]
    assert ops["parent"] == {"q1": 262.5, "median": 265.5, "q3": 267.75}
    assert ops["change"] == {"q1": 290.25, "median": 292.5, "q3": 294.75}
    assert (ops["better"], ops["wins"], ops["pairs"], ops["claim"]) == ("higher", 9, 10, True)
    assert doc["metrics"]["setup_s"]["claim"] is False
    assert list(doc["metrics"]) == ["rounds_per_s", "ops_per_s", "setup_s", "peak_rss_mb", "pass_rate"]


def test_the_probe_alternates_sides_and_a_failed_probe_run_fails_the_tool(
    monkeypatch, tmp_path, capsys
):
    """With --json, PROBE_RUNS runs per side of each PROBES command (a run, then the
    acceptance sweep) come before the pairs, the parent first in even runs; their CPU
    seconds are printed and written under "probe", and one that exits nonzero (None)
    fails the tool."""
    tool = load_tool()
    parent, order = str(ROOT), []

    def canned_bench(checkout, workload, seed, seconds):
        i = order.count((checkout, None))
        order.append((checkout, None))
        ops = (CHANGE_OPS if checkout == "C" else PARENT_OPS)[i]
        return json.loads(result_line(ops, SETUPS[i]))

    def canned_probe(checkout, work, args, fail=()):
        assert args == tool.PROBES[work.name.split("-")[0]]
        order.append((checkout, work.name))
        return None if work.name in fail else {parent: 3.0, "C": 2.0}[checkout] + len(order) / 10

    run_in_place(monkeypatch, tool)
    monkeypatch.setattr(tool, "run_bench", canned_bench)
    monkeypatch.setattr(tool, "run_probe", canned_probe)
    out = tmp_path / "bench.json"
    argv = [parent, "C", "--workload", "mc_noisy", "--pairs", "2", "--seconds", "1",
            "--seed", "41", "--json", str(out)]
    assert tool.main(argv) == 0
    assert order[:12] == [
        (parent, "run-parent0"), (parent, "sweep-parent0"), ("C", "run-change0"),
        ("C", "sweep-change0"), ("C", "run-change1"), ("C", "sweep-change1"),
        (parent, "run-parent1"), (parent, "sweep-parent1"), (parent, "run-parent2"),
        (parent, "sweep-parent2"), ("C", "run-change2"), ("C", "sweep-change2"),
    ]
    assert [c for c, name in order[12:]] == [parent, "C", "C", parent]  # then the pairs
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "probe 0 parent run: cpu_s 3.100", "probe 0 parent sweep: cpu_s 3.200",
        "probe 0 change run: cpu_s 2.300", "probe 0 change sweep: cpu_s 2.400",
    ]
    probe = json.loads(out.read_text())["probe"]
    assert probe["run"]["cpu_s"] == {"parent": [3.1, 3.7, 3.9], "change": [2.3, 2.5, 3.1]}
    assert probe["sweep"]["cpu_s"] == {"parent": [3.2, 3.8, 4.0], "change": [2.4, 2.6, 3.2]}
    assert probe["run"]["command"] == "dmtrack run"
    assert probe["sweep"]["command"] == "dmtrack sweep --param d_zeta --values 0.5,1,2,4"
    assert (probe["config"]["trials"], probe["config"]["algorithm"]["iters"]) == (100, 5000)

    order.clear()
    monkeypatch.setattr(
        tool, "run_probe", lambda c, w, a: canned_probe(c, w, a, fail=("run-change1",))
    )
    assert tool.main(argv) == 1
    assert "probe 1 change run: run failed" in capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text())["probe"]["run"]["cpu_s"]["change"][1] is None


def test_run_probe_times_the_sweep_in_its_own_directory(monkeypatch, tmp_path):
    """run_probe writes PROBE_CONFIG, runs a PROBES command (the sweep, and the run
    likewise) on it with the checkout's src on PYTHONPATH, and returns the child's CPU
    seconds, or None on a nonzero exit."""
    tool = load_tool()
    assert tool.PROBES == {
        "run": ("run",), "sweep": ("sweep", "--param", "d_zeta", "--values", "0.5,1,2,4")}
    for name, args in tool.PROBES.items():
        seen = []

        def fake_run(cmd, cwd, env, stdout):
            seen.append((cmd, cwd, env["PYTHONPATH"]))
            assert json.loads((cwd / "config.json").read_text()) == tool.PROBE_CONFIG
            return SimpleNamespace(returncode=len(seen) - 1)

        monkeypatch.setattr(tool.subprocess, "run", fake_run)
        cpu = tool.run_probe(ROOT, tmp_path / f"{name}a", args)
        assert isinstance(cpu, float) and cpu >= 0
        assert tool.run_probe(ROOT, tmp_path / f"{name}b", args) is None
        cmd, cwd, path = seen[0]
        assert cmd[1:] == ["-m", "dmtrack.cli", *args, "--config", "config.json"]
        assert (cwd, path) == (tmp_path / f"{name}a", str(ROOT / "src"))


def test_each_side_runs_from_a_plain_copy_and_keeps_its_commit(monkeypatch, tmp_path):
    """Each side's runs see a temporary copy of src/, bench/ (no __pycache__) and
    BENCHMARK.json alone, not the checkout with its .git and caches; the copies are
    gone afterwards, and --json records the checkout's commit, not the copy's null."""
    tool = load_tool()
    checkouts = {}
    for side in ("parent", "change"):
        root = checkouts[side] = tmp_path / f"{side}_checkout"
        for name in ("src/dmtrack/cli.py", "bench/run.py", "bench/__pycache__/run.pyc",
                     ".git/HEAD", ".pytest_cache/README.md"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(f"{side} {name}")
        (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    seen = []

    def canned(checkout, workload, seed, seconds):
        files = sorted(str(f.relative_to(checkout)) for f in checkout.rglob("*") if f.is_file())
        side = (checkout / "src/dmtrack/cli.py").read_text().split()[0]
        seen.append((checkout, side, files))
        result = json.loads(result_line(280 if side == "change" else 260, 0.5))
        result["env"] = {"git_commit": None, "src_lines": 1}
        return result

    monkeypatch.setattr(tool, "run_bench", canned)
    monkeypatch.setattr(tool, "run_probe", lambda checkout, work, args: 1.0)
    monkeypatch.setattr(tool, "git_commit", lambda checkout: {
        checkouts["parent"]: "P" * 40, checkouts["change"]: "C" * 40}[Path(checkout)])
    out = tmp_path / "bench.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workload", "mc_noisy",
            "--pairs", "2", "--seconds", "1", "--seed", "41", "--json", str(out)]
    assert tool.main(argv) == 0
    assert [side for _, side, _ in seen] == ["parent", "change", "change", "parent"]
    for copy, side, files in seen:
        assert copy.name == side and copy.parent not in (tmp_path, *checkouts.values())
        assert files == ["BENCHMARK.json", "bench/run.py", "src/dmtrack/cli.py"]
        assert not copy.exists()
    env = json.loads(out.read_text())["env"]
    assert env == {"parent": {"git_commit": "P" * 40, "src_lines": 1},
                   "change": {"git_commit": "C" * 40, "src_lines": 1}}


def test_git_commit_names_the_checked_out_commit_or_none(monkeypatch, tmp_path):
    tool = load_tool()
    calls = []

    def fake_run(cmd, capture_output, text):
        calls.append(cmd)
        return SimpleNamespace(returncode=0 if cmd[2] == "repo" else 128, stdout="abc123\n")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.git_commit("repo") == "abc123"
    assert tool.git_commit(tmp_path) is None
    assert calls[0] == ["git", "-C", "repo", "rev-parse", "HEAD"]
