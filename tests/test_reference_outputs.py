"""The benchmark's seed-0 outputs, pinned in the fast suite.

bench/reference.json records the sha256 of the trace.csv that the seed-0
mc_noisy and free_converge configs write, and the round at which
free_converge reaches relative error 1e-8. These tests rerun both configs,
built by bench/workloads.py, through the CLI and compare; they also pin the
seed-0 audit_grid invocation's audit.csv and `dmtrack bounds` stdout on the
mc_noisy and audit_grid configs, and the stdout and audit.csv of single-point `dmtrack
audit` runs, of a grid audit of hand_kkt's second agent and of `bounds`,
`sweep` and `audit` on hand_kkt under a non-default audit section, and of
`dmtrack oracle` on every preset, whose digests live here, and the per-round
arrays of the default grid audit on symmetric2 and hand_kkt. They also check
that `bounds` prints the closed-form figures that summary.json and sweep.csv
carry. They only read bench/.
"""

import hashlib
import json
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dmtrack import cli
from dmtrack.harness import ExperimentConfig, materialize
from dmtrack.privacy_audit import forced_difference_run, grid_schedules

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
# bounds` stdout on the seed-0 mc_noisy (microgrid14) and audit_grid
# (symmetric2) configs; a refactor must leave them byte for byte unchanged
AUDIT_GRID_CSV_SHA256 = "7811bc1d18f30e9bc80820e9dffe8eb98e9d3eb35977b1f3cc02675ec6446590"
BOUNDS_SHA256 = {
    "mc_noisy": "58587eb8d66ee644a9e99a13e9604289a9ae2af5a6af1c0d6112f2d9c6025581",
    "audit_grid": "7645ccb1ad5ddcf1b4520e9e2ccf4efe568b0e92d8b893fa3688d817aa5d8593",
}


def test_seed0_audit_grid_csv_is_pinned(workloads, tmp_path, capsys):
    wl = workloads
    config, argv, out_dir = wl.prepare("audit_grid", wl.REF_SEED, 0, False, tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().out
    assert wl.sha256(out_dir / "audit.csv") == AUDIT_GRID_CSV_SHA256


def test_microgrid14_bounds_stdout_is_pinned(workloads, tmp_path, capsys):
    """`bounds` on the mc_noisy config, and on symmetric2 through the audit_grid config;
    alpha_max_t2 comes from the bisection's scalar evaluations."""
    wl = workloads
    digests = {}
    for workload in BOUNDS_SHA256:
        config, argv, out_dir = wl.prepare(workload, wl.REF_SEED, 0, False, tmp_path)
        assert cli.main(["bounds", "--config", argv[argv.index("--config") + 1]]) == 0
        out = capsys.readouterr().out
        assert "admissible=True" in out
        digests[workload] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == BOUNDS_SHA256


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# sha256 over the nine reports of the default 3 x 3 grid audit (seed 0, alpha
# 0.9 alpha_max_t1, q = 0.98), in grid order, of each report's
# delta_eta_norms, delta_zeta_norms and eps_empirical bytes: audit.csv rounds
# the per-round arrays away, so a change to the audit recursion is pinned here
AUDIT_ROUND_ARRAYS_SHA256 = {
    "symmetric2": "f022011a62c7aa30e4951a6a6814b4202292924a4189f58fc301df46d4de59fe",
    "hand_kkt": "89134d73ff1ac6e3488c4b5dd6c3a688ab9cf82a5548d875ae26bd15825548c3",
}


@pytest.mark.parametrize("preset", list(AUDIT_ROUND_ARRAYS_SHA256))
def test_grid_audit_round_arrays_are_pinned(preset):
    config = ExperimentConfig.from_dict({
        "problem": {"preset": preset},
        "algorithm": {"alpha": {"frac_of_t1": 0.9}, "iters": 1},
        "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.98},
        "trials": 1, "seed": 0, "output": "unused",
    })
    mat, v = materialize(config), config.values
    schedules = grid_schedules(mat.schedule, v["audit.grid.d_zeta"], v["audit.grid.q"])
    reports = forced_difference_run(mat.pair, mat.W, schedules, mat.alpha, v["seed"])
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.delta_eta_norms.tobytes())
        digest.update(report.delta_zeta_norms.tobytes())
        digest.update(np.float64(report.eps_empirical).tobytes())
    assert digest.hexdigest() == AUDIT_ROUND_ARRAYS_SHA256[preset]


@pytest.mark.parametrize("setup", ["mc_noisy", "symmetric2_alpha_1e200"])
def test_bounds_prints_the_figures_that_summary_json_carries(workloads, tmp_path, capsys, setup):
    """One path for the closed-form figures: each `bounds` key that summary.json also
    carries prints the repr of the summary's value. The figures are finite on the
    seed-0 mc_noisy config; on symmetric2 at alpha = 1e200, where no decay interval
    exists, C, r_lb, tau1 and tau2 are NaN in both."""
    config, argv, out_dir = workloads.prepare("mc_noisy", workloads.REF_SEED, 0, False, tmp_path)
    path = Path(argv[argv.index("--config") + 1])
    if setup == "symmetric2_alpha_1e200":
        config.update(problem={"preset": "symmetric2"}, algorithm={"alpha": 1e200, "iters": 60})
        path.write_text(json.dumps(config))
        argv = ["run", "--config", str(path)]
    finite = setup == "mc_noisy"
    assert cli.main(argv) == (0 if finite else 1)
    summary = json.loads((out_dir / "summary.json").read_text())
    band = summary["mse_bounds"]
    carried = {
        "alpha": summary["alpha"],
        "lambda_bar": summary["lambda_bar"],
        **summary["constants"],
        "N_zeta": band["N_zeta"],
        "mse_lower": band["lower"],
        "mse_upper": band["upper"],
    }
    capsys.readouterr()
    assert cli.main(["bounds", "--config", str(path)]) == (0 if finite else 1)
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert {key: printed[key] for key in carried} == {k: repr(v) for k, v in carried.items()}
    nan = [key for key, value in summary["constants"].items() if math.isnan(value)]
    assert nan == ([] if finite else ["C", "r_lb", "tau1", "tau2"])


def test_sweep_csv_privacy_columns_are_the_bounds_figures(tmp_path, capsys):
    """sweep.csv's eps_theory and eps_star equal what `bounds` prints at the same q,
    NaN included: on microgrid14, q = 0.3 is below q_min = 0.41, and agent 0's
    ||A|| != 1 sets the two denominator forms apart."""
    values = ("0.3", "0.9", "0.95")
    argv = ["sweep", "--param", "q", "--values", ",".join(values)]
    _cli(tmp_path, capsys, "microgrid14", argv)
    header, *rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    columns = header.split(",")
    swept = [dict(zip(columns, row.split(","))) for row in rows]
    assert swept[0]["eps_star"] == "nan" and swept[1]["eps_star"] != "nan"
    for q, row in zip(values, swept):
        noise = {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": float(q)}
        _, stdout = _cli(tmp_path, capsys, "microgrid14", ["bounds"], noise=noise)
        printed = dict(line.split("=", 1) for line in stdout.splitlines())
        assert (row["eps_theory"], row["eps_star"]) == (printed["eps_theory"], printed["eps_star"])


def _cli(tmp_path, capsys, preset, argv, **sections):
    """(exit code, stdout) of `dmtrack ARGV --config C` on a q = 0.95 config of `preset`."""
    config = {
        "problem": {"preset": preset},
        "algorithm": {"alpha": {"frac_of_t1": 0.9}, "iters": 1},
        "noise": {"enabled": True, "d_eta": 1.0, "d_zeta": 1.0, "q": 0.95},
        "trials": 1,
        "seed": 20230814,
        "output": str(tmp_path / "out"),
        **sections,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    code = cli.main([argv[0], "--config", str(path), *argv[1:]])
    return code, capsys.readouterr().out


def _audit(tmp_path, capsys, preset, extra_args, **sections):
    """(exit code, sha256 of stdout, sha256 of audit.csv) of `dmtrack audit` with q = 0.95."""
    code, stdout = _cli(tmp_path, capsys, preset, ["audit", *extra_args], **sections)
    csv_digest = _sha256((tmp_path / "out" / "audit.csv").read_bytes())
    return code, _sha256(stdout.encode()), csv_digest


# (exit code, stdout sha256, audit.csv sha256) of single-point audits: the
# default horizon, a horizon below the round where measurement stops (its
# tail exceeds the certificate, so it exits 1), one above it, and the other
# agent of an asymmetric instance
SINGLE_POINT_AUDIT_SHA256 = {
    ("symmetric2", ()): (
        0,
        "693b484afd255c4b3045bf3602de55486cf6cdb3cb1bf18e3e33ac2216795c57",
        "8b910b7fd7eabe8601e7e485a08ad45d9baa135b0e2403bae65562013576c658",
    ),
    ("symmetric2", ("--horizon", "50")): (
        1,
        "a3dc0fd25a9c574472c80e636705da208ffa8b32b5ef7727bb6b138d4a4dc79d",
        "eb73d2c7e391a8f9eb157ce91064b6815ab6b6a997fa16e9f979358f063f67f4",
    ),
    ("symmetric2", ("--horizon", "3000")): (
        0,
        "8b84fae6940f651d4757af5eb452cc44ad6f6129e7578e43347ac16f572a565f",
        "8b910b7fd7eabe8601e7e485a08ad45d9baa135b0e2403bae65562013576c658",
    ),
    ("hand_kkt", ("--agent", "1")): (
        0,
        "ab7bbdcf42572ee94846fae8967e552b1825567a951bd972e6ba0105de709520",
        "a79c8ecb5147bb41cddf846136ab94fbbbde046a62ea40fb638df3174cc3c0c1",
    ),
}


@pytest.mark.parametrize("preset,extra_args", list(SINGLE_POINT_AUDIT_SHA256))
def test_single_point_audit_outputs_are_pinned(tmp_path, capsys, preset, extra_args):
    digests = _audit(tmp_path, capsys, preset, extra_args)
    assert digests == SINGLE_POINT_AUDIT_SHA256[preset, extra_args]


# (exit code, stdout sha256, audit.csv sha256) of the default grid audit of
# hand_kkt's second agent: unequal curvatures, and an agent other than 0
HAND_KKT_AGENT1_GRID_SHA256 = (
    0,
    "919831596dae0ad061492f31d089d3fea6ee6db22998a12def5e796b3a447980",
    "24241c9e03aaeb5c67744f7841df1792b9be7b77d1422b1cd829ec86e5608689",
)


def test_hand_kkt_agent1_grid_audit_outputs_are_pinned(tmp_path, capsys):
    digests = _audit(tmp_path, capsys, "hand_kkt", ("--grid", "--agent", "1"))
    assert digests == HAND_KKT_AGENT1_GRID_SHA256


# A non-default audit section on hand_kkt: the paths that read it are
# `bounds` (the audited agent's q and epsilons), the privacy columns of
# `sweep.csv` and a single-point audit
HAND_KKT_AUDIT = {"i0": 1, "delta": 0.5, "delta_prime": 0.2}
HAND_KKT_AUDIT_SHA256 = {
    "bounds": (0, "46aaca7dcb8b20a860e524d1a0a18ebc4f3d5b9536619ef2e31e55469328d9e5"),
    "sweep": (
        0,
        "df8959f0aab8b68e97c9de4cd034f2c415addd62de9ae2020bb4904c3a8b5f88",
        "a3bdff5d30a8bd034121141eee0d2c7417323e5951b6c8434d99549e64912d4a",
    ),
    "audit": (
        0,
        "441936d6b462cc82aff2ed77aa91606df7c0c27cbadedcfb7151ac530846ddd1",
        "36ba14960aabdd56d350d79a86665bd74d4bb55be522716f0d149f6b8d39af57",
    ),
}


def test_hand_kkt_bounds_under_an_audit_section_are_pinned(tmp_path, capsys):
    code, stdout = _cli(tmp_path, capsys, "hand_kkt", ["bounds"], audit=HAND_KKT_AUDIT)
    assert (code, _sha256(stdout.encode())) == HAND_KKT_AUDIT_SHA256["bounds"]


def test_hand_kkt_sweep_under_an_audit_section_is_pinned(tmp_path, capsys):
    code, stdout = _cli(
        tmp_path, capsys, "hand_kkt", ["sweep", "--param", "q", "--values", "0.95,0.98"],
        algorithm={"alpha": {"frac_of_t1": 0.9}, "iters": 300}, trials=2, audit=HAND_KKT_AUDIT,
    )
    sweep_csv = (tmp_path / "out" / "sweep.csv").read_bytes()
    digests = code, _sha256(stdout.encode()), _sha256(sweep_csv)
    assert digests == HAND_KKT_AUDIT_SHA256["sweep"]


def test_hand_kkt_single_point_audit_under_an_audit_section_is_pinned(tmp_path, capsys):
    digests = _audit(tmp_path, capsys, "hand_kkt", (), audit=HAND_KKT_AUDIT)
    assert digests == HAND_KKT_AUDIT_SHA256["audit"]


# (exit code, stdout sha256) of `dmtrack oracle` on each preset: the optimum
# and its KKT residual
ORACLE_STDOUT_SHA256 = {
    "symmetric2": (0, "f84bf61da2c4ae51687b1474d2119ee91b8b14d6a624d179e89090444786359a"),
    "hand_kkt": (0, "87bea986bc3c016628c84c1bf52b3fcec77243bb028400eb5a89d2023f117d3c"),
    "microgrid14": (0, "269a30d7225bf762e37d5181c99ac7740e6eb4c718006f6f2d32abbd4e57d925"),
}


@pytest.mark.parametrize("preset", list(ORACLE_STDOUT_SHA256))
def test_oracle_stdout_is_pinned(tmp_path, capsys, preset):
    code, stdout = _cli(tmp_path, capsys, preset, ["oracle"])
    assert (code, _sha256(stdout.encode())) == ORACLE_STDOUT_SHA256[preset]
