import contextlib
import hashlib
import inspect
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dmtrack import cli, harness, privacy_audit, theory
from dmtrack.engine import RunConfig, run
from dmtrack.errors import ConfigError, InadmissibleDecayError
from dmtrack.harness import (
    SCHEMA,
    ExperimentConfig,
    _write_trace_csv,
    materialize,
    run_experiment,
    sweep,
)
from dmtrack.noise import NoiseSchedule
from dmtrack.oracle import solve_dual
from dmtrack.problem import moduli
from dmtrack.theory import mse_bounds, stepsize_bounds, theory_constants


def config_dict(out_path, **overrides):
    d = {
        "problem": {"preset": "symmetric2"},
        "algorithm": {"alpha": 0.45, "iters": 60, "record_every": 1},
        "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
        "trials": 3,
        "seed": 7,
        "output": str(out_path),
    }
    for path, value in overrides.items():
        node = d
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return d


REJECTIONS = [
    ("bogus_key", 1, "unknown keys"),
    ("problem.preset", "nope", "preset"),
    ("algorithm.alpha", -0.1, "nonnegative"),
    ("algorithm.alpha", {"frac_of_t1": 0.5, "frac_of_t2": 0.5}, "exactly one"),
    ("algorithm.alpha", {"frac_of_t3": 0.5}, "unknown keys"),
    ("algorithm.iters", 0, "positive integer"),
    ("algorithm.record_every", -2, "positive integer"),
    ("algorithm.terminal_window", 0.0, "terminal_window"),
    ("algorithm.terminal_window", 1.5, "terminal_window"),
    ("noise.enabled", "yes", "boolean"),
    ("noise.q", "high", "number"),
    ("graph.extra_edges", -1, "extra_edges"),
    ("graph.seed", -3, "graph.seed"),
    ("audit.delta", 0.0, "delta"),
    ("audit.grid.d_zeta", [], "nonempty list"),
    ("trials", 0, "positive integer"),
    ("seed", -1, "seed"),
    ("seed", 2**63, "seed"),
    ("output", "", "output"),
    # one or more rejected inputs for every other SCHEMA key, NaN among them
    ("graph", 3, "^graph must be an object"),
    ("algorithm.alpha", math.nan, "^algorithm.alpha must"),
    ("algorithm.alpha", {"frac_of_t1": 0}, "^algorithm.alpha.frac_of_t1 must be a positive"),
    ("noise.d_eta", -1.0, "^noise.d_eta must"),
    ("noise.d_zeta", [1, "a"], r"^noise.d_zeta\[1\] must"),
    ("noise.q_eta", 1.0, "^noise.q_eta must"),
    ("noise.q_zeta", [0.5, math.nan], r"^noise.q_zeta\[1\] must"),
    ("audit.i0", -1, "^audit.i0 must"),
    ("audit.delta", math.nan, "^audit.delta must"),
    ("audit.delta_prime", "x", "^audit.delta_prime must"),
    ("audit.horizon", 0, "^audit.horizon must"),
    ("audit.grid.q", [1.5], r"^audit.grid.q\[0\] must"),
]


@pytest.mark.parametrize("path,value,match", REJECTIONS)
def test_config_rejections(tmp_path, path, value, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(config_dict(tmp_path, **{path: value}))


def test_every_schema_key_has_a_rejection():
    assert set(SCHEMA) <= {path for path, _, _ in REJECTIONS}


def test_values_fill_every_default_and_leave_raw_as_given(tmp_path):
    d = config_dict(tmp_path, **{"noise.q": 0.95, "audit.i0": 1})
    given = json.loads(json.dumps(d))
    cfg = ExperimentConfig.from_dict(d)
    assert list(cfg.values) == list(SCHEMA)
    assert cfg.values["noise.q"] == cfg.values["noise.q_eta"] == cfg.values["noise.q_zeta"] == 0.95
    assert cfg.values["audit.i0"] == 1 and cfg.values["algorithm.alpha"] == 0.45
    for key in ("graph.extra_edges", "graph.seed", "algorithm.terminal_window", "audit.delta",
                "audit.delta_prime", "audit.horizon", "audit.grid.d_zeta", "audit.grid.q"):
        assert cfg.values[key] == SCHEMA[key][1], key
    # raw is the dict as given, so summary.json and config_hash do not see the defaults
    assert cfg.raw == given and "audit" in cfg.raw and "graph" not in cfg.raw
    canonical = json.dumps(given, sort_keys=True, separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(canonical.encode()).hexdigest()
    # each setting has one name: the CLI flags and sweep set SCHEMA keys
    assert set(cli.FLAG_PATHS.values()) <= set(SCHEMA)
    assert set(harness.SWEEPABLE.values()) <= set(SCHEMA)


def test_config_missing_sections(tmp_path):
    d = config_dict(tmp_path)
    del d["algorithm"]
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_dict(d)
    d = config_dict(tmp_path)
    del d["algorithm"]["iters"]
    with pytest.raises(ConfigError, match="missing"):
        ExperimentConfig.from_dict(d)


def test_config_hash_is_order_insensitive(tmp_path):
    d = config_dict(tmp_path)
    reordered = {k: d[k] for k in reversed(list(d))}
    assert (
        ExperimentConfig.from_dict(d).config_hash()
        == ExperimentConfig.from_dict(reordered).config_hash()
    )


def test_replace_dotted_paths(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(tmp_path))
    h0 = cfg.config_hash()
    cfg2 = cfg.replace(**{"noise.q": 0.95, "algorithm.record_every": 5})
    assert cfg2.raw["noise"]["q"] == 0.95
    assert cfg2.raw["algorithm"]["record_every"] == 5
    assert cfg2.config_hash() != h0
    assert cfg.config_hash() == h0  # original untouched
    with pytest.raises(ConfigError):
        cfg.replace(trials=0)


def test_from_file_roundtrip(tmp_path):
    d = config_dict(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.config_hash() == ExperimentConfig.from_dict(d).config_hash()

    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_file(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")


def test_materialize_resolves_alpha(tmp_path):
    config = ExperimentConfig.from_dict(config_dict(tmp_path))
    mat = materialize(config)
    assert mat.alpha == 0.45
    assert config.values["algorithm.record_every"] == 1
    assert config.values["algorithm.terminal_window"] == 0.1
    assert mat.instance.n == 2
    assert isinstance(mat.schedule, NoiseSchedule) and mat.schedule.enabled

    sb = stepsize_bounds(moduli(mat.instance), mat.W.lambda_bar)
    assert (mat.constants.alpha_max_t1, mat.constants.alpha_max_t2) == sb[:2]
    for key, base in (("frac_of_t1", sb.alpha_max_t1), ("frac_of_t2", sb.alpha_max_t2)):
        cfg = ExperimentConfig.from_dict(
            config_dict(tmp_path, **{"algorithm.alpha": {key: 0.9}})
        )
        assert materialize(cfg).alpha == 0.9 * base


def test_materialize_graph_override(tmp_path):
    cfg = ExperimentConfig.from_dict(
        config_dict(
            tmp_path,
            **{"problem.preset": "microgrid14", "graph.extra_edges": 3, "graph.seed": 1},
        )
    )
    mat = materialize(cfg)
    assert len(mat.graph.edges) == 14 + 3
    # too many chords for a two-agent ring
    bad = ExperimentConfig.from_dict(config_dict(tmp_path, **{"graph.extra_edges": 5}))
    with pytest.raises(ConfigError, match="graph"):
        materialize(bad)


def test_materialize_schedule_errors(tmp_path):
    with pytest.raises(ConfigError, match="length 2"):
        materialize(
            ExperimentConfig.from_dict(config_dict(tmp_path, **{"noise.d_eta": [1, 2, 3]}))
        )
    with pytest.raises(ConfigError, match="noise"):
        materialize(ExperimentConfig.from_dict(config_dict(tmp_path, **{"noise.q": 1.0})))


def test_run_experiment_summary_and_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict(config_dict(tmp_path / "a"))
    summary = run_experiment(cfg)
    assert not summary["failed"]
    assert summary["preset"] == "symmetric2"
    assert summary["alpha"] == 0.45
    assert summary["trials"] == 3 and summary["iters"] == 60
    assert summary["noise_enabled"] is True
    assert summary["config_hash"] == cfg.config_hash()
    assert summary["empirical_mse"] > 0
    assert len(summary["containment_band"]) == 2
    assert isinstance(summary["bound_contained"], bool)
    assert summary["max_tracking_residual"] <= 1e-9

    mat = materialize(cfg)
    expect = mse_bounds(mat.schedule, mat.mod, 2, 1)._asdict()
    assert summary["mse_bounds"] == expect

    trace = (tmp_path / "a" / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,mse,consensus_mu,tracking_residual,feasibility"
    assert len(trace) == 1 + 61  # k = 0..60 at stride 1
    assert trace[1].startswith("0,")

    stored = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert stored["config_hash"] == summary["config_hash"]
    assert stored["empirical_mse"] == summary["empirical_mse"]
    assert "runtime_sec" not in stored and "runtime_sec" not in summary
    timings = json.loads((tmp_path / "a" / "timings.json").read_text())
    assert timings["runtime_sec"] > 0


def test_stepsize_bounds_run_once_per_experiment(tmp_path, capsys):
    """materialize derives the stepsize bounds, the theory constants, the MSE band and
    the privacy certificate once, with two q_interval calls; run and bounds read them,
    and _run_materialized calls no theory function at all."""
    names = [
        name for name, f in vars(theory).items()
        if inspect.isfunction(f) and f.__module__ == theory.__name__
    ]
    counted = {name: mock.Mock(wraps=getattr(theory, name)) for name in names}

    def calls():
        return {name: c.call_count for name, c in counted.items()}

    per_setup = {
        "stepsize_bounds": 1, "theory_constants": 1, "mse_bounds": 1, "certificate": 1,
        "q_interval": 2,
    }

    def calls_per_setup(setups):
        return {name: calls()[name] / setups for name in per_setup}

    d = config_dict(tmp_path / "c", **{"algorithm.alpha": {"frac_of_t2": 0.9}})
    cfg = ExperimentConfig.from_dict(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    with contextlib.ExitStack() as stack:
        for name in names:
            for module in (harness, theory, privacy_audit):
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, counted[name]))
        summary = run_experiment(cfg)
        assert calls_per_setup(1) == per_setup
        assert cli.main(["bounds", "--config", str(path)]) == 0
        assert calls_per_setup(2) == per_setup
        mat = materialize(cfg)
        assert calls_per_setup(3) == per_setup
        before = calls()
        harness._run_materialized(cfg, mat, tmp_path / "again")  # reads mat's figures
        assert calls() == before

    bounds = stepsize_bounds(mat.mod, mat.W.lambda_bar)
    expect = theory_constants(mat.alpha, mat.mod, mat.W.lambda_bar, bounds, schedule=mat.schedule)
    assert summary["constants"] == expect._asdict()
    out = capsys.readouterr().out
    assert f"alpha_max_t2={expect.alpha_max_t2!r}" in out and f"C={expect.C!r}" in out


def test_run_experiment_batch_matches_single_seed_runs(tmp_path):
    """The batched experiment equals its trials run one seed at a time, byte for byte."""
    # 16 noisy trials with 21 records in the terminal window: enough for the
    # order of numpy's summation to show in the last bits of the means
    cfg = ExperimentConfig.from_dict(
        config_dict(
            tmp_path / "base",
            trials=16,
            **{"problem.preset": "microgrid14", "algorithm.iters": 200},
        )
    )
    outs = {}
    for name in ("r1", "r2"):
        summary = run_experiment(cfg, out_dir=tmp_path / name)
        files = [(tmp_path / name / f).read_bytes() for f in ("trace.csv", "summary.json")]
        outs[name] = (summary, *files)
    assert outs["r1"] == outs["r2"]

    mat = materialize(cfg)
    v = cfg.values
    x_star = solve_dual(mat.instance).x_star
    iters = v["algorithm.iters"]
    run_cfg = RunConfig(alpha=mat.alpha, iters=iters, record_every=v["algorithm.record_every"])
    seeds = [v["seed"] + t for t in range(v["trials"])]
    batch = run(mat.instance, mat.W, mat.schedule, run_cfg, seeds, x_star=x_star)
    singles = [run(mat.instance, mat.W, mat.schedule, run_cfg, s, x_star=x_star) for s in seeds]
    for t, one in enumerate(singles):
        for key in ("mse", "consensus_mu", "tracking_residual", "feasibility"):
            assert getattr(batch, key)[t].tobytes() == getattr(one, key).tobytes(), key
        assert batch.final_state.x[t].tobytes() == one.final_state.x.tobytes()

    # trace.csv is the pointwise average of the single-seed trials
    means = [
        np.mean([getattr(one, key) for one in singles], axis=0)
        for key in ("mse", "consensus_mu", "tracking_residual", "feasibility")
    ]
    _write_trace_csv(tmp_path / "singles.csv", singles[0].ks, *means)
    assert (tmp_path / "singles.csv").read_bytes() == outs["r1"][1]
    start = iters - max(1, int(round(v["algorithm.terminal_window"] * iters)))
    terminal = [np.mean(one.mse[one.ks >= start]) for one in singles]
    assert outs["r1"][0]["empirical_mse"] == float(np.mean(terminal))
    assert outs["r1"][0]["terminal_std"] == float(np.std(terminal))


def test_trace_csv_writes_each_value_as_its_repr(tmp_path):
    """Rows formatted a block at a time equal the repr of each value, on both sides of
    a block boundary and for zeros of either sign, infinities, NaN and subnormals."""
    rng = np.random.default_rng(3)
    rows = harness.CSV_BLOCK_ROWS + 5
    ks = np.arange(0, 7 * rows, 7)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1, 1 / 3]
    cols = [rng.choice(special + list(rng.normal(size=5)), size=rows) for _ in range(4)]
    _write_trace_csv(tmp_path / "trace.csv", ks, *cols)
    want = ["k,mse,consensus_mu,tracking_residual,feasibility"] + [
        f"{k},{a!r},{b!r},{c!r},{f!r}"
        for k, a, b, c, f in zip(ks.tolist(), *(col.tolist() for col in cols))
    ]
    assert (tmp_path / "trace.csv").read_text() == "\n".join(want) + "\n"


def test_run_experiment_noise_free_verdicts(tmp_path):
    cfg = ExperimentConfig.from_dict(
        config_dict(
            tmp_path / "nf",
            **{"noise.enabled": False, "algorithm.iters": 400, "trials": 2},
        )
    )
    summary = run_experiment(cfg)
    assert summary["noise_enabled"] is False
    assert summary["mse_bounds"]["N_zeta"] == 0.0
    assert summary["containment_band"] == [0.0, 1e-12]
    assert summary["bound_contained"] is True
    assert summary["tracking_ok"] is True
    assert summary["empirical_mse"] <= 1e-12


def test_run_experiment_failure_path(tmp_path):
    cfg = ExperimentConfig.from_dict(
        config_dict(tmp_path / "fail", **{"algorithm.alpha": float("inf"), "trials": 2})
    )
    summary = run_experiment(cfg)
    assert summary["failed"] is True
    assert summary["failed_seed"] == 7
    assert summary["failed_seeds"] == [7, 8]
    assert "failure" in summary and "empirical_mse" not in summary
    assert (tmp_path / "fail" / "summary.json").exists()
    assert not (tmp_path / "fail" / "trace.csv").exists()
    assert "runtime_sec" in json.loads((tmp_path / "fail" / "timings.json").read_text())


def test_failed_run_leaves_no_output_of_an_earlier_run(tmp_path):
    """A failing run into a used directory, and a failing sweep value into its used
    subdirectory, remove the earlier trace.csv and write their own timings.json."""

    def run_and_sweep(alpha):
        cfg = ExperimentConfig.from_dict(
            config_dict(tmp_path / "run", trials=1, **{"algorithm.alpha": alpha})
        )
        run_experiment(cfg)
        sweep(cfg, "d_zeta", [1.0], out_dir=tmp_path / "sweep")

    run_and_sweep(0.45)
    dirs = [tmp_path / "run", tmp_path / "sweep" / "d_zeta_1"]
    for d in dirs:
        assert (d / "trace.csv").exists()
        (d / "timings.json").write_text("{}")
    run_and_sweep(float("inf"))
    for d in dirs:
        assert json.loads((d / "summary.json").read_text())["failed"]
        assert not (d / "trace.csv").exists()
        assert "runtime_sec" in json.loads((d / "timings.json").read_text())


def test_sweep_rows_and_csv(tmp_path):
    cfg = ExperimentConfig.from_dict(
        config_dict(tmp_path / "sw", trials=2, **{"algorithm.iters": 50})
    )
    rows, summaries = sweep(cfg, "d_zeta", [0.5, 1.0], out_dir=tmp_path / "sw")
    assert [r["value"] for r in rows] == [0.5, 1.0]
    assert len(summaries) == 2
    for r in rows:
        assert r["admissible"] and not r["failed"]
        assert np.isfinite(r["empirical_mse"])
        assert r["lower"] < r["upper"]
    # privacy loss shrinks as the mask scale grows
    assert rows[1]["eps_star"] < rows[0]["eps_star"]
    assert (tmp_path / "sw" / "d_zeta_0.5" / "trace.csv").exists()
    assert (tmp_path / "sw" / "d_zeta_1" / "summary.json").exists()
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "d_zeta,empirical_mse,lower,upper,eps_star,eps_theory,admissible"
    assert len(lines) == 3

    with pytest.raises(ConfigError, match="sweep parameter"):
        sweep(cfg, "seed", [1.0], out_dir=tmp_path / "sw2")


@pytest.mark.parametrize(
    "keys", [("q_eta",), ("q_zeta",), ("q_eta", "q_zeta")], ids=["q_eta", "q_zeta", "both"]
)
def test_sweep_q_replaces_each_per_mask_decay_the_config_sets(tmp_path, keys):
    """A per-mask decay overrides noise.q, so a q sweep sets it too: each value runs
    with both decays at that value, and no per-mask key is added to the config."""
    set_keys = {f"noise.{key}": 0.97 for key in keys}
    cfg = ExperimentConfig.from_dict(config_dict(tmp_path, trials=1, **set_keys))
    rows, summaries = sweep(cfg, "q", [0.95, 0.99], out_dir=tmp_path / "sw")
    assert rows[0]["eps_star"] != rows[1]["eps_star"]
    for value, summary in zip((0.95, 0.99), summaries):
        noise = summary["config"]["noise"]
        assert noise == {**config_dict(tmp_path)["noise"], "q": value, **dict.fromkeys(keys, value)}
        schedule = materialize(ExperimentConfig.from_dict(summary["config"])).schedule
        assert set(schedule.q_eta) == set(schedule.q_zeta) == {value}
        alone = run_experiment(
            ExperimentConfig.from_dict(summary["config"]), out_dir=tmp_path / "alone"
        )
        assert alone["empirical_mse"] == summary["empirical_mse"]


def write_config(tmp_path, name="cfg.json", **overrides):
    d = config_dict(tmp_path / "out", **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


def test_cli_run_noise_free(tmp_path, capsys):
    path = write_config(
        tmp_path, **{"noise.enabled": False, "algorithm.iters": 300, "trials": 2}
    )
    code = cli.main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "bound_contained   True" in out
    assert "tracking_ok       True" in out


def test_cli_sweep_exits_on_the_run_verdict(tmp_path, capsys):
    path = write_config(tmp_path, **{"noise.enabled": False, "algorithm.iters": 300})
    argv = ["sweep", "--config", str(path), "--param", "alpha", "--values", "0.3,0.45"]
    assert cli.main(argv) == 0
    assert "NO" not in capsys.readouterr().out

    # 5 noise-free rounds leave the mse far above the 1e-12 band: nothing
    # diverges, but the bound is not contained, so the sweep fails
    short = write_config(
        tmp_path, name="short.json", **{"noise.enabled": False, "algorithm.iters": 5}
    )
    assert cli.main(["sweep", "--config", str(short), "--param", "alpha", "--values", "0.45"]) == 1
    assert "NO" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "alpha_0.45" / "summary.json").read_text())
    assert not summary["failed"] and not summary["bound_contained"]


@pytest.mark.parametrize("values", ["0.5,abc", ",", "0.98,0.9800001", "0.95,1.5"])
def test_cli_sweep_rejects_bad_values(tmp_path, capsys, values):
    """Unparsable, empty, colliding and out-of-range value lists exit 2 with one error
    line, before any run: a later value the config rejects writes no earlier value."""
    path = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(path), "--param", "q", "--values", values]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not captured.out and not (tmp_path / "out").exists()


def test_cli_bounds_and_admissibility(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["bounds", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "alpha_max_t1=1.0" in out
    assert "eps_theory=" in out and "eps_star=" in out
    assert "admissible=True" in out

    bad = write_config(tmp_path, name="bad.json", **{"noise.q": 0.5})
    assert cli.main(["bounds", "--config", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "q_min=nan" in out or "eps_theory=nan" in out
    assert "admissible=False" in out


@pytest.mark.parametrize(
    "override,q_min_defined",
    [({"noise.d_zeta": [0.0, 1.0]}, True), ({"algorithm.alpha": 0.0}, False)],
)
def test_cli_bounds_without_a_certificate(tmp_path, capsys, override, q_min_defined):
    """A zero mask scale or stepsize admits no epsilon: bounds and sweep both say NaN."""
    path = write_config(tmp_path, **override)
    assert cli.main(["bounds", "--config", str(path)]) == 1
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    for key in ("eps_theory", "eps_theory_printed", "eps_star", "eps_star_printed"):
        assert out[key] == "nan"
    assert (out["q_min"] != "nan") == q_min_defined
    assert out["admissible"] == "False"

    rows, _ = sweep(ExperimentConfig.from_file(path), "q", [0.98], out_dir=tmp_path / "sw")
    assert math.isnan(rows[0]["eps_theory"]) and math.isnan(rows[0]["eps_star"])
    assert not rows[0]["admissible"]
    csv_row = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1]
    assert csv_row.endswith(",nan,nan,0")


def test_cli_oracle(tmp_path, capsys):
    # every preset is certified, the paper's 14-agent one included
    for preset in ("symmetric2", "microgrid14"):
        path = write_config(tmp_path, **{"problem.preset": preset})
        assert cli.main(["oracle", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kkt_residual=" in out and "grid_verified" not in out
        assert "mu_star=" in out

    # a residual above the tolerance fails the command
    with mock.patch.object(cli, "kkt_residual", return_value=1e-3):
        assert cli.main(["oracle", "--config", str(path)]) == 1
    assert "kkt_residual=1.000e-03" in capsys.readouterr().out


def test_cli_audit_single(tmp_path, capsys):
    path = write_config(tmp_path, **{"audit.horizon": 12})
    assert cli.main(["audit", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("d_zeta,q,eps_empirical")
    assert "horizon=12" in out
    assert (tmp_path / "out" / "audit.csv").exists()

    bad = write_config(tmp_path, name="bad.json", **{"noise.q": 0.5})
    assert cli.main(["audit", "--config", str(bad)]) == 1
    assert "inadmissible" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [False, True])
def test_cli_audit_rejects_a_zero_stepsize(tmp_path, capsys, grid):
    """alpha = 0 admits no decay interval: both audit paths name it and exit 2."""
    path = write_config(tmp_path, **{"algorithm.alpha": 0.0})
    assert cli.main(["audit", "--config", str(path)] + ["--grid"] * grid) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha = 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,overrides,flags,match",
    [
        ("audit", {}, ["--horizon", "0"], "audit.horizon"),
        ("audit", {}, ["--delta", "0"], "audit.delta"),
        ("audit", {}, ["--delta-prime", "5"], "audit.delta_prime"),
        ("audit", {}, ["--agent", "5"], "audit.i0"),
        ("audit", {}, ["--agent", "5", "--grid"], "audit.i0"),
        ("audit", {"audit.i0": 5}, [], "audit.i0"),
        ("bounds", {"audit.i0": 5}, [], "audit.i0"),
        ("audit", {"audit.delta_prime": [0.1, 0.2, 0.3]}, [], "audit.delta_prime"),
        ("audit", {"audit.grid.q": [1.5]}, ["--grid"], "audit.grid"),
        ("audit", {"audit.grid.d_zeta": [-1]}, ["--grid"], "audit.grid"),
        ("audit", {"audit.i0": True}, [], "audit.i0"),
        ("audit", {"noise.enabled": False}, ["--grid"], "positive mask scales"),
        ("bounds", {"problem.preset": "microgrid14", "graph.extra_edges": True}, [],
         "graph.extra_edges"),
    ],
)
def test_cli_rejects_an_audit_setting_the_preset_cannot_take(
    tmp_path, capsys, command, overrides, flags, match
):
    """Audit flags and config values outside the 2-agent, p = 1 preset exit 2 with an error."""
    path = write_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


@pytest.mark.parametrize("command", ["run", "bounds", "audit"])
@pytest.mark.parametrize("key", ["algorithm.alpha", "audit.delta"])
def test_cli_rejects_a_nan_setting_by_its_own_key(tmp_path, capsys, command, key):
    """json reads NaN; the schema's ranges reject it and name the key, before any run."""
    path = write_config(tmp_path, **{key: math.nan})
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} must ") and not captured.out


@pytest.mark.parametrize("command", ["run", "bounds", "audit"])
def test_cli_reads_a_stepsize_whose_square_overflows_as_a_huge_one(tmp_path, capsys, command):
    """At alpha = 1e200, alpha**2 overflows a float in q_interval. Each command
    answers as at alpha = 1e100: no admissible decay, exit 1, no traceback."""
    seen = []
    for alpha in (1e100, 1e200):
        path = write_config(tmp_path, **{"algorithm.alpha": alpha})
        code = cli.main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        lines = [line for line in out.splitlines() if not line.startswith("alpha")]
        seen.append((code, lines, err.split(" = ")[0]))
    assert seen[1] == seen[0]
    code, lines, err = seen[1]
    assert code == 1
    if command == "audit":
        assert err == "inadmissible: q_min"
    else:
        assert {"run": "bound_contained   False", "bounds": "admissible=False"}[command] in lines


@pytest.mark.parametrize("command,code", [("run", 1), ("bounds", 0), ("audit", 0)])
def test_a_mask_scale_whose_square_overflows_leaves_no_warning(tmp_path, capsys, command, code):
    """d_zeta = 1e200 squares past the float range in mse_bounds, which materialize
    evaluates for every command: the band is infinite, and no numpy warning leaks."""
    path = write_config(tmp_path, **{"noise.d_zeta": 1e200})
    assert cli.main([command, "--config", str(path)]) == code
    if command == "bounds":
        assert "mse_upper=inf" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["run", "bounds"])
def test_an_epsilon_whose_scale_product_underflows_is_nan(tmp_path, capsys, command):
    """At alpha = d_zeta = 1e-200, alpha * d_zeta underflows to 0 in the epsilon formula:
    the epsilons are NaN (bounds exits 1), and run, which does not print them, still
    writes its summary."""
    path = write_config(tmp_path, **{"algorithm.alpha": 1e-200, "noise.d_zeta": 1e-200})
    assert cli.main([command, "--config", str(path)]) == 1
    if command == "bounds":
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert out["eps_theory"] == out["eps_star"] == "nan" and out["q_min"] != "nan"
    else:
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not summary["failed"]


# overrides of the symmetric2 test config, and whether the privacy certificate covers them
CERTIFICATE_SETUPS = {
    "default": ({}, True),
    "q_below_q_min": ({"noise.q": 0.5}, False),
    # agent 1 of microgrid14 (||A_1|| = 0.81) just above q_min = 0.401: the printed
    # denominator is negative, which leaves only the printed epsilons NaN
    "printed_denominator_negative": (
        {"problem.preset": "microgrid14", "audit.i0": 1,
         "algorithm.alpha": {"frac_of_t1": 0.9}, "noise.q": 0.402796},
        True,
    ),
    "two_decays": ({"noise.q_eta": 0.97, "noise.q_zeta": 0.98}, False),
    "scale_product_underflows": ({"algorithm.alpha": 1e-200, "noise.d_zeta": 1e-200}, False),
    "eta_term_overflows": ({"noise.d_eta": 1e-320}, False),
    "zeta_term_overflows": ({"noise.d_zeta": 1e-320}, False),
}


@pytest.mark.parametrize("setup", list(CERTIFICATE_SETUPS))
def test_bounds_sweep_and_audit_share_one_certificate(tmp_path, capsys, setup):
    """bounds, sweep.csv and the audit take one verdict, a finite eps_theory, and print
    the same epsilons where it holds; no command ends in a traceback. The sweep runs
    d_zeta at its configured value, so the configured decays stay."""
    overrides, covered = CERTIFICATE_SETUPS[setup]
    path = write_config(tmp_path, **{"algorithm.iters": 20, "trials": 1, **overrides})

    def dmtrack(*argv):
        code = cli.main([argv[0], "--config", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        return code, out, err

    def csv_row(name):
        header, row = (tmp_path / "out" / name).read_text().splitlines()[:2]
        return dict(zip(header.split(","), row.split(",")))

    code, out, _ = dmtrack("bounds")
    printed = dict(line.split("=", 1) for line in out.splitlines())
    assert (printed["admissible"], code) == (str(covered), 0 if covered else 1)
    epsilons = {"bounds": (printed["eps_theory"], printed["eps_star"])}

    d_zeta = overrides.get("noise.d_zeta", 1.0)
    dmtrack("sweep", "--param", "d_zeta", "--values", repr(d_zeta))
    row = csv_row("sweep.csv")
    assert row["admissible"] == str(int(covered))
    epsilons["sweep"] = (row["eps_theory"], row["eps_star"])

    code, _, err = dmtrack("audit")
    if covered:
        row = csv_row("audit.csv")
        assert (row["admissible"], code) == ("1", 0)
        epsilons["audit"] = (row["eps_theory"], row["eps_star"])
        assert len(set(epsilons.values())) == 1 and "nan" not in epsilons["audit"]
    else:
        # an inadmissible point, or the refusal of a setup the audit cannot take
        assert err.startswith("inadmissible: " if code == 1 else "error: ") and code in (1, 2)
        assert set(epsilons.values()) == {("nan", "nan")}


def test_bounds_prints_no_certificate_with_noise_off(tmp_path, capsys):
    """With noise off the certificate covers nothing, and bounds prints none of its
    keys, q included: a noise-free schedule's decay is a placeholder, not noise.q."""
    path = write_config(tmp_path, **{"noise.enabled": False, "noise.q": 0.98})
    assert cli.main(["bounds", "--config", str(path)]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert "mse_upper" in printed and "tau1" in printed
    certificate_keys = {"q_min", "q", "eps_theory", "eps_star", "admissible"}
    assert not certificate_keys & set(printed)


@pytest.mark.parametrize(
    "eps_empirical,violations,admissible,code",
    [(0.9, 0, True, 0), (1.1, 0, True, 1), (0.9, 2, True, 1), (1.1, 2, False, 1)],
)
def test_cli_audit_grid_and_single_point_share_one_verdict(
    tmp_path, capsys, eps_empirical, violations, admissible, code
):
    """Both paths write the same audit.csv row and exit on the same rule; a grid
    whose only point is inadmissible certifies nothing and exits 1."""
    report = mock.Mock(
        eps_empirical=eps_empirical, eps_theoretical=1.0, eps_star=0.5,
        bound_violations=violations, horizon=12, tail=0.0,
    )
    row = f"1.0,0.98,{eps_empirical!r},1.0,0.5,1,{violations}"
    if not admissible:
        report, row = InadmissibleDecayError("q below q_min"), "1.0,0.98,nan,nan,nan,0,0"
    # a one-point grid at the configured d_zeta = 1 and q = 0.98
    path = write_config(tmp_path, **{"audit.grid": {"d_zeta": [1.0], "q": [0.98]}})
    with mock.patch.object(cli, "forced_difference_run", return_value=[report]):
        assert cli.main(["audit", "--config", str(path), "--grid"]) == code
    grid_csv = (tmp_path / "out" / "audit.csv").read_text()
    assert grid_csv.splitlines()[1:] == [row]
    capsys.readouterr()
    if not admissible:
        return  # the single-point path reports an inadmissible decay on stderr
    with mock.patch.object(cli, "forced_difference_run", return_value=[report]):
        assert cli.main(["audit", "--config", str(path)]) == code
    assert (tmp_path / "out" / "audit.csv").read_text() == grid_csv
    assert capsys.readouterr().out.startswith(grid_csv)


def test_cli_audit_grid_with_no_admissible_point_exits_1(tmp_path, capsys):
    """At alpha = 1e100 no decay is admissible at any of the nine default grid points."""
    path = write_config(tmp_path, **{"algorithm.alpha": 1e100})
    assert cli.main(["audit", "--config", str(path), "--grid"]) == 1
    capsys.readouterr()
    header, *rows = (tmp_path / "out" / "audit.csv").read_text().splitlines()
    assert len(rows) == 9
    column = header.split(",").index("admissible")
    assert [row.split(",")[column] for row in rows] == ["0"] * 9


def test_stepsize_caps_survive_an_inadmissible_stepsize(tmp_path, capsys):
    """At alpha = 1e200 no decay interval exists, so tau1, tau2, C and r_lb are NaN,
    but lambda_bar and the stepsize caps, which do not depend on alpha, stay finite
    in `bounds` stdout and in summary.json."""
    path = write_config(tmp_path, **{"algorithm.alpha": 1e200})
    mat = materialize(ExperimentConfig.from_file(path))
    bounds = stepsize_bounds(mat.mod, mat.W.lambda_bar)
    want = {
        "lambda_bar": mat.W.lambda_bar,
        "alpha_max_t1": bounds.alpha_max_t1,
        "alpha_max_t2": bounds.alpha_max_t2,
    }
    assert all(math.isfinite(value) for value in want.values())

    assert cli.main(["bounds", "--config", str(path)]) == 1
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    for key, value in want.items():
        assert out[key] == repr(value), key
    for key in ("tau1", "tau2"):
        assert out[key] == "nan"

    assert cli.main(["run", "--config", str(path)]) == 1
    capsys.readouterr()
    constants = json.loads((tmp_path / "out" / "summary.json").read_text())["constants"]
    for key, value in want.items():
        assert constants[key] == value, key
    for key in ("C", "r_lb", "tau1", "tau2"):
        assert math.isnan(constants[key]), key


def test_cli_grid_rows_equal_single_point_audits_of_the_configured_noise(tmp_path, capsys):
    """Each grid point is the configured schedule (here d_eta = 4) with only d_zeta and q replaced."""
    grid = {"d_zeta": [0.5, 2.0], "q": [0.95, 0.98]}
    path = write_config(tmp_path, **{"noise.d_eta": 4.0, "audit.grid": grid})
    assert cli.main(["audit", "--config", str(path), "--grid"]) == 0
    header, *rows = (tmp_path / "out" / "audit.csv").read_text().splitlines()
    points = [(dz, q) for dz in grid["d_zeta"] for q in grid["q"]]
    assert len(rows) == len(points)
    for (dz, q), row in zip(points, rows):
        point = write_config(
            tmp_path, name="point.json", **{"noise.d_eta": 4.0, "noise.d_zeta": dz, "noise.q": q}
        )
        assert cli.main(["audit", "--config", str(point)]) == 0
        assert (tmp_path / "out" / "audit.csv").read_text().splitlines() == [header, row]


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_readme_config_table_names_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip() for line in readme.splitlines() if line.startswith("| `")}
    assert {f"`{key}`" for key in SCHEMA} <= rows
