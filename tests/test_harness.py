import json
import math

import numpy as np
import pytest

from dmtrack import cli
from dmtrack.engine import RunConfig, run
from dmtrack.errors import ConfigError
from dmtrack.harness import ExperimentConfig, _write_trace_csv, materialize, run_experiment, sweep
from dmtrack.noise import NoiseSchedule
from dmtrack.oracle import solve_dual
from dmtrack.problem import moduli
from dmtrack.theory import mse_bounds, stepsize_bounds


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


@pytest.mark.parametrize(
    "path,value,match",
    [
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
    ],
)
def test_config_rejections(tmp_path, path, value, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(config_dict(tmp_path, **{path: value}))


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
    mat = materialize(ExperimentConfig.from_dict(config_dict(tmp_path)))
    assert mat.alpha == 0.45
    assert mat.record_every == 1
    assert mat.terminal_window == 0.1
    assert mat.instance.n == 2
    assert isinstance(mat.schedule, NoiseSchedule) and mat.schedule.enabled

    sb = stepsize_bounds(moduli(mat.instance), mat.W.lambda_bar)
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
        summary.pop("runtime_sec")
        outs[name] = (summary, (tmp_path / name / "trace.csv").read_bytes())
    assert outs["r1"] == outs["r2"]

    mat = materialize(cfg)
    x_star = solve_dual(mat.instance).x_star
    run_cfg = RunConfig(alpha=mat.alpha, iters=mat.iters, record_every=mat.record_every)
    seeds = [mat.seed + t for t in range(mat.trials)]
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
    start = mat.iters - max(1, int(round(mat.terminal_window * mat.iters)))
    terminal = [np.mean(one.mse[one.ks >= start]) for one in singles]
    assert outs["r1"][0]["empirical_mse"] == float(np.mean(terminal))
    assert outs["r1"][0]["terminal_std"] == float(np.std(terminal))


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


def test_cli_oracle(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["oracle", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "grid_verified=True" in out
    assert "mu_star=" in out


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


def test_cli_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
