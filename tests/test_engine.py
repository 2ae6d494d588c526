import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmtrack import engine, noise
from dmtrack.engine import EngineState, RunConfig, fixed_point_residual, init_state, run
from dmtrack.errors import SolverFailure
from dmtrack.harness import PRESETS
from dmtrack.local_solver import argmin_local, solve_all_from_c
from dmtrack.noise import NoiseSchedule, chunk_rounds
from dmtrack.oracle import solve_dual
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost
from dmtrack.topology import metropolis_weights, ring_plus_random

from conftest import inject_masks, kernel_round, mask_log, reference_round, step_once


def single_agent_instance(d=0.0, lo=-10.0, hi=10.0):
    return ProblemInstance(
        agents=(
            AgentSpec(
                cost=QuadraticCost.scalar(1.0),
                A=np.array([[1.0]]),
                d=np.array([d]),
                box=BoxSet.interval(lo, hi),
            ),
        )
    )


def symmetric2():
    inst, graph = PRESETS["symmetric2"]()
    return inst, metropolis_weights(graph)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(alpha=-0.1, iters=10)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.1, iters=0)
    with pytest.raises(ValueError):
        RunConfig(alpha=0.1, iters=10, record_every=0)


def test_init_state_projects_default_x0():
    inst = ProblemInstance(
        agents=(
            AgentSpec(
                cost=QuadraticCost.scalar(1.0),
                A=np.array([[2.0]]),
                d=np.array([1.0]),
                box=BoxSet.interval(3.0, 5.0),
            ),
        )
    )
    st = init_state(inst, RunConfig(alpha=0.1, iters=1))
    assert st.x[0, 0] == 3.0  # projection of zero onto [3, 5]
    assert st.y[0, 0] == 2.0 * 3.0 - 1.0
    assert not st.mu.any()
    assert st.round == 0


def test_hand_executed_single_step():
    """One round on the 1-agent chain: f = x^2, A = 1, d = 0, alpha = 0.1,
    x(0) = 1 gives mu(1) = -0.1, x(1) = -0.05, y(1) = -0.05."""
    inst = single_agent_instance()
    W = np.array([[1.0]])
    cfg = RunConfig(alpha=0.1, iters=1, x0=np.array([[1.0]]))
    st = init_state(inst, cfg)
    assert st.y[0, 0] == 1.0
    nxt = step_once(st, inst, W, cfg.alpha)
    assert nxt.mu[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert nxt.x[0, 0] == pytest.approx(-0.05, abs=1e-15)
    assert nxt.y[0, 0] == pytest.approx(-0.05, abs=1e-15)
    assert nxt.round == 1


def test_optimal_state_is_a_fixed_point():
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=1)
    state = EngineState(
        mu=np.full((2, 1), 2.0), x=np.ones((2, 1)), y=np.zeros((2, 1)), round=0
    )
    nxt = step_once(state, inst, W, cfg.alpha)
    assert np.allclose(nxt.mu, state.mu, atol=1e-14)
    assert np.allclose(nxt.x, state.x, atol=1e-14)
    assert np.allclose(nxt.y, state.y, atol=1e-14)
    assert fixed_point_residual(state, inst, W) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)


def test_perturbed_state_has_positive_residuals():
    inst, W = symmetric2()
    state = EngineState(
        mu=np.array([[2.0], [2.1]]), x=np.array([[1.05], [1.0]]), y=np.array([[0.02], [0.0]])
    )
    cons, y_norm, feas = fixed_point_residual(state, inst, W)
    assert cons > 0 and y_norm > 0 and feas > 0


def test_zero_stepsize_freezes_dual_at_mixing():
    inst, W = symmetric2()
    mu0 = np.array([[3.0], [1.0]])
    cfg = RunConfig(alpha=0.0, iters=1, mu0=mu0)
    st = init_state(inst, cfg)
    nxt = step_once(st, inst, W, cfg.alpha)
    assert np.allclose(nxt.mu, W.W @ mu0, atol=1e-15)
    c = np.einsum("imp,im->ip", inst.A, nxt.mu)
    assert np.allclose(nxt.x, solve_all_from_c(inst, c), atol=1e-15)


# Box bounds of the kernel test, zeros of both signs included.
BOUNDS = (-np.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 2.0, np.inf)


@settings(
    max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    m=st.sampled_from([1, 2]),
    diagonal=st.booleans(),
    trials=st.sampled_from([1, 3]),
    masked=st.booleans(),
    exact=st.booleans(),
)
def test_round_kernel_matches_written_out_round(data, m, diagonal, trials, masked, exact):
    """One round of the engine's kernel equals the written-out round bit for bit:
    the broadcast maps for m = 1, with or without their `+ 0.0` steps, the in-place
    box projection and updates into preallocated rows change no bit, zeros of
    either sign and non-finite entries included. `exact` draws instances where
    the m = 1 kernel skips the `+ 0.0` steps (every A_i > 0 and v_i != 0, no
    -0.0 bound); otherwise agent 0 alone has a -0.0 bound, a negative A_0 or
    v_0 = 0, and the kernel keeps them."""
    assume(diagonal or m > 1)  # a 1 x 1 U is always diagonal
    n = data.draw(st.integers(1, 4), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    culprit = None if exact else data.draw(st.sampled_from(["bound", "sign", "v"]), label="culprit")
    agents = []
    for i in range(n):
        bounds = [b for b in BOUNDS if not (b == 0.0 and np.signbit(b))]
        B = rng.normal(size=(m, m))
        U = np.diag(rng.uniform(0.5, 3.0, size=m)) if diagonal else B @ B.T + 2.0 * np.eye(m)
        lo = data.draw(st.lists(st.sampled_from(bounds), min_size=m, max_size=m), label="lo")
        hi = [max(a, data.draw(st.sampled_from(bounds), label="hi")) for a in lo]
        if i == 0 and culprit == "bound":
            ends = [(-0.0, max(hi[0], 0.0)), (min(lo[0], -0.0), -0.0)]
            lo[0], hi[0] = data.draw(st.sampled_from(ends), label="signed zero bound")
        if not diagonal:  # projected gradient needs a bounded box to stop quickly
            lo, hi = np.clip(lo, -2.0, 0.0), np.clip(hi, 0.0, 2.0)
        v = np.zeros(m) if i == 0 and culprit == "v" else rng.normal(size=m)
        sign = -1.0 if i == 0 and culprit == "sign" else 1.0
        agents.append(
            AgentSpec(
                cost=QuadraticCost(U=U, v=v), A=sign * (B + 3.0 * np.eye(m)),
                d=rng.normal(size=m), box=BoxSet(lower=np.array(lo), upper=np.array(hi)),
            )
        )
    inst = ProblemInstance(agents=tuple(agents))
    W = rng.uniform(0.0, 1.0, size=(n, n))
    alpha = data.draw(st.sampled_from([0.0, 0.05, 0.45]), label="alpha")

    values = st.floats(-1e3, 1e3)
    if diagonal:  # the closed form takes any value; projected gradient needs finite ones
        values = st.one_of(values, st.sampled_from([np.inf, -np.inf, np.nan, 5e-324, -5e-324]))

    def state(label):
        return data.draw(arrays(float, (trials, n, m), elements=values), label=label)

    mu, x, y, Ax = (state(label) for label in ("mu", "x", "y", "Ax"))
    eta, zeta = (state("eta"), state("zeta")) if masked else (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernel_round(inst, W, alpha, mu, x, y, Ax, eta, zeta)
        want = reference_round(inst, W, alpha, mu, x, y, Ax, eta, zeta)
    for name, a, b in zip(("mu", "x", "y", "Ax"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    if m == 1:
        consts = (inst.A[:, :, 0], inst.v, inst.diag, inst.lower, inst.upper)
        assert engine._zero_adds_are_noops(*consts) == exact


@pytest.mark.parametrize(
    "A,U,v,lo,hi,mu",
    [
        (1.0, 1.0, 0.5, -0.0, 1.0, 0.1),  # x = max(-0.4, -0.0) = -0.0
        (1.0, 1.0, 0.5, -1.0, -0.0, 1.0),  # x = min(0.5, -0.0) = -0.0
        (-1.0, 1.0, 0.5, 0.0, 1.0, 0.1),  # x = 0.0, and A x = -0.0
        (1.0, 1.0, 0.0, -1.0, 1.0, -0.0),  # c = A mu = -0.0, so x = -0.0
        (1.0, 4.0, 1e-323, -1.0, 1.0, 5e-324),  # x = -5e-324 / 4 rounds to -0.0
        (1e-310, 1.0, 1e-100, -1.0, 1.0, 0.99e210),  # A x = 1e-310 * -1e-102 rounds to -0.0
        (1.0, 1e300, 2.0**-400, -1.0, 1.0, 2.0**-401),  # x = -2**-401 / 1e300 rounds to -0.0
    ],
    ids=["lo", "hi", "A<0", "v=0", "tiny v", "tiny A", "huge d"],
)
def test_round_kernel_keeps_its_zero_adds_where_skipping_them_changes_a_bit(A, U, v, lo, hi, mu):
    """Instances where the m = 1 maps without their `+ 0.0` steps give other bytes
    than the einsum's: a -0.0 bound, A < 0, v = 0, and, with A > 0 and v != 0, a
    product rounding to -0.0 because v is tiny, d huge or A tiny. The kernel keeps
    its `+ 0.0` steps on each and matches the written-out round."""
    agent = AgentSpec(
        cost=QuadraticCost(U=np.array([[U]]), v=np.array([v])), A=np.array([[A]]),
        d=np.zeros(1), box=BoxSet(lower=np.array([lo]), upper=np.array([hi])),
    )
    inst = ProblemInstance(agents=(agent,))
    consts = (inst.A[:, :, 0], inst.v, inst.diag, inst.lower, inst.upper)
    assert not engine._zero_adds_are_noops(*consts)
    state = [np.full((1, 1, 1), value) for value in (mu, 0.0, 0.0, 0.0)]  # mu, x, y, Ax
    W = np.ones((1, 1))
    want = reference_round(inst, W, 0.0, *state)
    bare_x = np.minimum(np.maximum((A * mu - v) / U, lo), hi)  # mu(1) = mu at W = 1, alpha = 0
    bare = np.array([bare_x, A * bare_x])
    assert bare.tobytes() != np.array([want[1], want[3]]).ravel().tobytes()
    got = kernel_round(inst, W, 0.0, *state)
    for name, a, b in zip(("mu", "x", "y", "Ax"), got, want):
        assert a.tobytes() == b.tobytes(), name


def test_trace_recording_strides():
    inst, W = symmetric2()
    sched = NoiseSchedule.disabled(2)
    tr = run(inst, W, sched, RunConfig(alpha=0.45, iters=10, record_every=4), 0)
    assert list(tr.ks) == [0, 4, 8, 10]
    tr = run(inst, W, sched, RunConfig(alpha=0.45, iters=10, record_every=3), 0)
    assert list(tr.ks) == [0, 3, 6, 9, 10]
    assert np.isnan(tr.mse).all()  # no reference optimum supplied


def test_run_is_deterministic_and_seed_sensitive():
    inst, W = symmetric2()
    sched = NoiseSchedule.uniform(2, q=0.9)
    cfg = RunConfig(alpha=0.45, iters=50)
    a = run(inst, W, sched, cfg, seed=3)
    b = run(inst, W, sched, cfg, seed=3)
    c = run(inst, W, sched, cfg, seed=4)
    assert np.array_equal(a.final_state.x, b.final_state.x)
    assert a.final_state.y.tobytes() == b.final_state.y.tobytes()
    assert a.tracking_residual.tobytes() == b.tracking_residual.tobytes()
    assert not np.array_equal(a.final_state.x, c.final_state.x)


def test_replay_reproduces_and_zero_log_equals_disabled():
    """A run's mask log, fed back to a run under another seed, reproduces it;
    zero masks reproduce the noise-free run."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=40)
    sched = NoiseSchedule.uniform(2, q=0.9)
    noisy = run(inst, W, sched, cfg, seed=5)
    eta, zeta = mask_log(sched, [5], 40, 1)
    assert eta.shape == zeta.shape == (1, 40, 2, 1)
    with inject_masks(eta, zeta):
        again = run(inst, W, sched, cfg, seed=99)
    assert np.array_equal(noisy.final_state.x, again.final_state.x)
    assert np.array_equal(noisy.tracking_residual, again.tracking_residual)

    with inject_masks(np.zeros((1, 40, 2, 1))):
        replayed = run(inst, W, sched, cfg, seed=5)
    clean = run(inst, W, NoiseSchedule.disabled(2), cfg, seed=5)
    assert np.array_equal(replayed.final_state.x, clean.final_state.x)


def test_regenerated_noise_log_replays_its_batch():
    """The masks draw_rounds rebuilds for a batch reproduce every trial when injected."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=60, record_every=7)
    sched = NoiseSchedule.uniform(2, q=0.95)
    x_star = np.ones((2, 1))
    batch = run(inst, W, sched, cfg, [3, 4, 5], x_star=x_star)
    eta, zeta = mask_log(sched, [3, 4, 5], 60, 1)
    assert eta.shape == (3, 60, 2, 1)
    with inject_masks(eta, zeta):  # other seeds: only the injected masks reproduce the batch
        again = run(inst, W, sched, cfg, [13, 14, 15], x_star=x_star)
    for key in ("mse", "consensus_mu", "tracking_residual", "feasibility"):
        assert getattr(again, key).tobytes() == getattr(batch, key).tobytes()
    assert again.final_state.y.tobytes() == batch.final_state.y.tobytes()
    assert mask_log(sched, [4], 60, 1)[1][0].tobytes() == zeta[1].tobytes()


def nondiagonal3():
    """Three agents with coupled 2-d costs, so every x-update runs argmin_local."""
    rng = np.random.default_rng(42)
    agents = []
    for _ in range(3):
        B = rng.normal(size=(2, 2))
        agents.append(
            AgentSpec(
                cost=QuadraticCost(U=B @ B.T + 2.0 * np.eye(2), v=rng.normal(size=2), w=0.0),
                A=rng.normal(size=(2, 2)),
                d=rng.normal(size=2),
                box=BoxSet(lower=-np.ones(2), upper=np.ones(2)),
            )
        )
    W = metropolis_weights(ring_plus_random(3, 0, seed=0))
    return ProblemInstance(agents=tuple(agents)), W


def trace_arrays(tr, t=None):
    """Every per-trial output of a trace; trial t of a batched one."""
    def pick(a):
        return a if t is None else a[t]

    keys = ("mse", "consensus_mu", "tracking_residual", "feasibility")
    out = {key: pick(getattr(tr, key)) for key in keys}
    out.update(mu=pick(tr.final_state.mu), x=pick(tr.final_state.x), y=pick(tr.final_state.y))
    if tr.states_mu is not None:
        out.update(states_mu=pick(tr.states_mu), states_x=pick(tr.states_x))
    return out


@settings(
    max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
    iters=st.integers(1, 50),
    record_every=st.integers(1, 8),
    nondiagonal=st.booleans(),
    keep_states=st.booleans(),
)
def test_batched_run_matches_single_seed_runs(seeds, iters, record_every, nondiagonal, keep_states):
    if nondiagonal:
        (inst, W), alpha, x_star = nondiagonal3(), 0.05, np.zeros((3, 2))
    else:
        (inst, W), alpha, x_star = symmetric2(), 0.45, np.ones((2, 1))
    sched = NoiseSchedule.uniform(inst.n, q=0.95)
    cfg = RunConfig(alpha=alpha, iters=iters, record_every=record_every)
    with mock.patch.object(noise, "MAX_CHUNK_BLOCKS", 24):  # chunks of 2 to 24 rounds
        assume(iters % chunk_rounds(len(seeds), inst.n, inst.m) != 0)
        batch = run(inst, W, sched, cfg, seeds, x_star=x_star, keep_states=keep_states)
        singles = [
            run(inst, W, sched, cfg, s, x_star=x_star, keep_states=keep_states) for s in seeds
        ]
    with inject_masks(*mask_log(sched, seeds, iters, inst.m)):  # under other seeds
        replayed = run(
            inst, W, sched, cfg, [s + 1 for s in seeds], x_star=x_star, keep_states=keep_states
        )
    assert np.array_equal(batch.ks, singles[0].ks)
    for t, one in enumerate(singles):
        # the last record against the unbatched numpy formulas
        final = one.final_state
        cons, _, feas = fixed_point_residual(final, inst, W)
        assert one.consensus_mu[-1] == cons and one.feasibility[-1] == feas
        assert one.mse[-1] == float(np.sum((final.x - x_star) ** 2))
        want = trace_arrays(one)
        for label, tr in (("batch", batch), ("replay", replayed)):
            got = trace_arrays(tr, t)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), (label, key)


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("nondiagonal", [False, True])
def test_every_record_matches_stepwise_evaluation(trials, nondiagonal):
    """Every recorded round, not only the last, equals the metrics evaluated
    on the state that single rounds of the round kernel reach with the run's masks."""
    if nondiagonal:
        (inst, W), alpha, x_star = nondiagonal3(), 0.05, np.zeros((3, 2))
    else:
        (inst, W), alpha, x_star = symmetric2(), 0.45, np.ones((2, 1))
    sched = NoiseSchedule.uniform(inst.n, q=0.95)
    cfg = RunConfig(alpha=alpha, iters=50, record_every=3)  # 18 records, the last at 50
    seeds = [5, 6, 7][:trials]
    # blocks of 8 records for one trial (8, 8, 2) and of 2 records for three
    with mock.patch.object(engine, "MAX_METRIC_ROWS", 8):
        tr = run(inst, W, sched, cfg, seeds[0] if trials == 1 else seeds, x_star=x_star)
    assert list(tr.ks) == list(range(0, 49, 3)) + [50]

    A = np.stack([a.A for a in inst.agents])
    d = np.stack([a.d for a in inst.agents])
    norm = np.linalg.norm
    for t, seed in enumerate(seeds):
        def pick(a):
            return a if trials == 1 else a[t]

        eta, zeta = (a[0] for a in mask_log(sched, [seed], cfg.iters, inst.m))
        state = init_state(inst, cfg)
        zeta_cum = np.zeros(inst.m)  # summed round by round, as the recursion adds it
        want = {key: [] for key in ("mse", "consensus_mu", "tracking_residual", "feasibility")}
        for k in range(cfg.iters + 1):
            if k in tr.ks:
                cons, _, feas = fixed_point_residual(state, inst, W)
                mismatch = (np.einsum("imp,ip->im", A, state.x) - d).sum(axis=0)
                assert np.allclose(zeta_cum, zeta[:k].sum(axis=(0, 1)), rtol=1e-12, atol=1e-14)
                defect = state.y.sum(axis=0) - mismatch - zeta_cum
                magnitude = norm(state.y) + norm(mismatch) + norm(zeta_cum)
                want["mse"].append(float(np.sum((state.x - x_star) ** 2)))
                want["consensus_mu"].append(cons)
                want["tracking_residual"].append(norm(defect) / (1.0 + magnitude))
                want["feasibility"].append(feas)
            if k < cfg.iters:
                state = step_once(state, inst, W, cfg.alpha, eta[k], zeta[k])
                zeta_cum = zeta_cum + zeta[k].sum(axis=0)
        assert state.x.tobytes() == pick(tr.final_state.x).tobytes()
        for key, values in want.items():
            assert np.array(values).tobytes() == pick(getattr(tr, key)).tobytes(), (t, key)


def test_divergence_inside_a_partly_filled_metric_block():
    """Pending records leave no numpy warning: a trial diverging mid-block is
    reported with its round and seed, and metrics that overflow on huge but
    finite states are measured quietly."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=300)
    per_block = engine.MAX_METRIC_ROWS // 2
    k_bad = 2 * per_block + per_block // 3  # records 0..k_bad fill two blocks and part of a third
    eta = np.zeros((2, 300, 2, 1))
    eta[1, k_bad, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure, match=rf"round {k_bad + 1}: .*seeds 21\)") as caught:
            with inject_masks(eta):
                run(inst, W, NoiseSchedule.uniform(2), cfg, [20, 21], x_star=np.ones((2, 1)))
        assert caught.value.trials == [1]

        # the unbounded instance of test_divergence_is_reported diverges at
        # round 224; at round 200 its squared error already overflows
        one = single_agent_instance(lo=-np.inf, hi=np.inf)
        two = ProblemInstance(agents=(one.agents[0], one.agents[0]))
        cfg = RunConfig(alpha=50.0, iters=200, x0=np.ones((2, 1)))
        tr = run(two, W, NoiseSchedule.disabled(2), cfg, 0, x_star=np.zeros((2, 1)))
    assert np.isinf(tr.mse[-1]) and np.isfinite(tr.final_state.x).all()


@pytest.mark.parametrize("max_rows", [128, 2])
def test_divergence_in_an_unrecorded_round_is_reported(max_rows):
    """A trial diverging in a round between records, whose state sits in a spare
    row, is reported with that round and its seed, whether the metric block holds
    64 records or the fewest, two."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=40, record_every=7)
    eta = np.zeros((2, 40, 2, 1))
    eta[1, 15, 0, 0] = np.inf  # round 16 is not recorded (records at 14 and 21)
    with mock.patch.object(engine, "MAX_METRIC_ROWS", max_rows):
        with pytest.raises(SolverFailure, match=r"^round 16: .*\(trial seeds 21\)$") as caught:
            with inject_masks(eta):
                run(inst, W, NoiseSchedule.uniform(2), cfg, [20, 21])
    assert caught.value.trials == [1]


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("max_rows", [1, 9, 15])
def test_metric_block_size_changes_no_output(max_rows, record_every):
    """Blocks of two records (the fewest), three and five records of three trials
    give the same bytes as the default block of 42."""
    inst, W = symmetric2()
    sched = NoiseSchedule.uniform(2, q=0.95)
    cfg = RunConfig(alpha=0.45, iters=30, record_every=record_every)
    seeds, x_star = [3, 4, 5], np.ones((2, 1))
    want = run(inst, W, sched, cfg, seeds, x_star=x_star, keep_states=True)
    with mock.patch.object(engine, "MAX_METRIC_ROWS", max_rows):
        got = run(inst, W, sched, cfg, seeds, x_star=x_star, keep_states=True)
    for key, value in trace_arrays(want).items():
        assert trace_arrays(got)[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("seeds", [5, [5, 6]])
def test_trace_shares_no_memory_with_the_state_rows(seeds):
    """The engine steps in preallocated rows; the trace it returns holds copies."""
    made = []

    class Recorded(engine._StateRows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=20, record_every=3)
    with mock.patch.object(engine, "_StateRows", Recorded):
        tr = run(inst, W, NoiseSchedule.uniform(2), cfg, seeds, keep_states=True)
    assert made
    final = tr.final_state
    arrays = [final.mu, final.x, final.y, tr.states_mu, tr.states_x, tr.mse, tr.tracking_residual]
    for buf in made:
        for held in (buf.s, buf.x, buf.Ax, buf.zeta_cum):
            for a in arrays:
                assert not np.shares_memory(a, held)


def test_tracking_identity_under_noise():
    """Recorded residual is the normalized defect of
    sum_i y_i(k) - sum_i (A_i x_i(k) - d_i) - sum_{t<k} sum_i zeta_i(t)."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=300)
    sched = NoiseSchedule.uniform(2, q=0.98)
    tr = run(inst, W, sched, cfg, seed=8, keep_states=True)
    assert tr.max_tracking_residual() <= 1e-12

    # independent recomputation at the final round from the raw log
    A = np.stack([a.A for a in inst.agents])
    d = np.stack([a.d for a in inst.agents])
    mismatch = (np.einsum("imp,ip->im", A, tr.final_state.x) - d).sum(axis=0)
    lhs = tr.final_state.y.sum(axis=0)
    rhs = mismatch + mask_log(sched, [8], 300, 1)[1].sum(axis=(0, 1, 2))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_keep_states_shapes_and_first_entries():
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=7)
    tr = run(inst, W, NoiseSchedule.disabled(2), cfg, seed=0, keep_states=True)
    assert tr.states_mu.shape == (8, 2, 1)
    assert tr.states_x.shape == (8, 2, 1)
    assert not tr.states_mu[0].any()
    assert np.array_equal(tr.states_x[-1], tr.final_state.x)
    plain = run(inst, W, NoiseSchedule.disabled(2), cfg, seed=0)
    assert plain.states_mu is None


def test_noise_free_run_reaches_first_order_optimality():
    inst, W = symmetric2()
    sol = solve_dual(inst)
    cfg = RunConfig(alpha=0.45, iters=2000, record_every=100)
    tr = run(inst, W, NoiseSchedule.disabled(2), cfg, 0, x_star=sol.x_star)
    state = tr.final_state
    cons, y_norm, feas = fixed_point_residual(state, inst, W)
    assert cons <= 1e-10 and y_norm <= 1e-10 and feas <= 1e-7
    # each x_i is the exact local argmin at the terminal dual
    for i, ag in enumerate(inst.agents):
        best = argmin_local(ag.cost, ag.box, ag.A.T @ state.mu[i]).x
        assert np.allclose(state.x[i], best, atol=1e-7)
    assert tr.mse[-1] <= 1e-16


def test_divergence_is_reported():
    inst = single_agent_instance(lo=-np.inf, hi=np.inf)
    two = ProblemInstance(agents=(inst.agents[0], inst.agents[0]))
    W = metropolis_weights(PRESETS["symmetric2"]()[1])
    cfg = RunConfig(alpha=50.0, iters=400, x0=np.ones((2, 1)))
    with pytest.raises(SolverFailure, match="diverged") as caught:
        run(two, W, NoiseSchedule.disabled(2), cfg, seed=0)
    assert caught.value.trials == [0]


def test_every_diverged_trial_is_reported():
    """Trials keep running after one diverges, so later divergences are named too."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=30)
    eta = np.zeros((4, 30, 2, 1))
    eta[1, 5, 0, 0] = np.inf
    eta[3, 20, 1, 0] = np.inf
    with pytest.raises(SolverFailure, match=r"round 6: .*seeds 11, 13") as caught:
        with inject_masks(eta):
            run(inst, W, NoiseSchedule.uniform(2), cfg, [10, 11, 12, 13])
    assert caught.value.trials == [1, 3]


def test_infinite_dual_at_a_zero_tracker_is_reported():
    """The round's finiteness test is one dot of mu and y; an infinite dual at an
    agent whose tracker is exactly 0 makes it inf * 0 = nan, and is reported."""
    agent = AgentSpec(
        cost=QuadraticCost.scalar(1.0), A=np.array([[1.0]]), d=np.array([1.0]),
        box=BoxSet.interval(1.0, 1.0),  # x stays at 1, so y = A x - d stays 0
    )
    inst = ProblemInstance(agents=(agent, agent))
    W = symmetric2()[1]
    cfg = RunConfig(alpha=0.45, iters=10)
    eta = np.zeros((2, 10, 2, 1))
    eta[1, 4, 0, 0] = np.inf
    state = step_once(init_state(inst, cfg), inst, W, cfg.alpha, eta[1, 4], np.zeros((2, 1)))
    assert np.isinf(state.mu).all() and not state.y.any()
    with pytest.raises(SolverFailure, match=r"^round 5: .*\(trial seeds 31\)$") as caught:
        with inject_masks(eta):
            run(inst, W, NoiseSchedule.uniform(2), cfg, [30, 31])
    assert caught.value.trials == [1]


def test_nan_in_the_tracker_alone_is_reported():
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=10)
    zeta = np.zeros((2, 10, 2, 1))
    zeta[1, 0, 1, 0] = np.nan
    state = step_once(init_state(inst, cfg), inst, W, cfg.alpha, np.zeros((2, 1)), zeta[1, 0])
    assert np.isfinite(state.mu).all() and np.isnan(state.y).all()
    with pytest.raises(SolverFailure, match=r"^round 1: .*\(trial seeds 21\)$") as caught:
        with inject_masks(np.zeros_like(zeta), zeta):
            run(inst, W, NoiseSchedule.uniform(2), cfg, [20, 21])
    assert caught.value.trials == [1]


def test_overflowing_dot_of_finite_states_is_not_a_divergence():
    """Finite states near 1e200 overflow the dot of mu and y every round. That is
    not a divergence: no warning, and a later divergence keeps its own round."""
    agent = AgentSpec(
        cost=QuadraticCost.scalar(0.25), A=np.array([[1.0]]), d=np.array([0.0]),
        box=BoxSet.interval(-np.inf, np.inf),
    )
    inst = ProblemInstance(agents=(agent, agent))
    W = symmetric2()[1]
    cfg = RunConfig(alpha=0.1, iters=8, mu0=np.full((2, 1), 1e200))
    sched = NoiseSchedule.uniform(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with inject_masks(np.zeros((1, 8, 2, 1))):
            tr = run(inst, W, sched, cfg, 50)
        final = tr.final_state
        assert np.isfinite(final.mu).all() and np.isfinite(final.y).all()
        with np.errstate(over="ignore"):
            assert np.isinf(np.vdot(final.mu, final.y))
        eta = np.zeros((2, 8, 2, 1))
        eta[1, 5, 0, 0] = np.inf
        with pytest.raises(SolverFailure, match=r"^round 6: .*\(trial seeds 51\)$"):
            with inject_masks(eta):
                run(inst, W, sched, cfg, [50, 51])


@pytest.mark.parametrize("nondiagonal", [False, True])
@pytest.mark.parametrize("seeds", [5, [5, 6]])
def test_shorter_run_is_a_prefix_of_a_longer_one(seeds, nondiagonal):
    """Masks are a pure function of (seed, round), so the states of run(iters=k)
    are the first k rounds of run(iters=K), on either side of a mask-chunk
    boundary and with the longer run's masks injected."""
    inst, W = nondiagonal3() if nondiagonal else symmetric2()
    alpha = 0.05 if nondiagonal else 0.45
    sched = NoiseSchedule.uniform(inst.n, q=0.95)
    trials = 1 if isinstance(seeds, int) else len(seeds)
    with mock.patch.object(noise, "MAX_CHUNK_BLOCKS", 24):
        chunk = chunk_rounds(trials, inst.n, inst.m)
        K = 3 * chunk + 2
        full = run(inst, W, sched, RunConfig(alpha=alpha, iters=K), seeds, keep_states=True)
        for k in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):  # chunk is 4 to 24 rounds
            cfg = RunConfig(alpha=alpha, iters=k, record_every=k)
            short = run(inst, W, sched, cfg, seeds, keep_states=True)
            log = mask_log(sched, [seeds] if trials == 1 else seeds, K, inst.m)
            with inject_masks(*log):  # under other seeds
                replayed = run(inst, W, sched, cfg, 7 if trials == 1 else [7, 8], keep_states=True)
            for tr in (short, replayed):
                assert tr.states_mu.tobytes() == full.states_mu[..., : k + 1, :, :].tobytes()
                assert tr.states_x.tobytes() == full.states_x[..., : k + 1, :, :].tobytes()


def test_overflowing_x_is_reported_with_its_round_and_seeds():
    """On an unbounded box a huge dual overflows x before mu or y: x = 2 A^T mu
    exceeds the largest double while mu does not. The round and the trial seeds
    reported are those of the round where x first overflows."""
    agent = AgentSpec(
        cost=QuadraticCost.scalar(0.25), A=np.array([[1.0]]), d=np.array([0.0]),
        box=BoxSet.interval(-np.inf, np.inf),
    )
    inst = ProblemInstance(agents=(agent, agent))
    W = symmetric2()[1]
    cfg = RunConfig(alpha=0.1, iters=12, mu0=np.full((2, 1), 1e307))
    eta = np.zeros((4, 12, 2, 1))
    eta[1, 0, 0, 0] = 1.6e308  # mu(1) = 0.9e308, so x(1) = 1.8e308 overflows
    eta[3, 6, 1, 0] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        first = step_once(init_state(inst, cfg), inst, W, cfg.alpha, eta[1, 0], np.zeros((2, 1)))
    assert np.isfinite(first.mu).all() and not np.isfinite(first.x).all()
    sched = NoiseSchedule.uniform(2)
    with pytest.raises(SolverFailure, match=r"^round 1: .*\(trial seeds 41, 43\)$") as caught:
        with inject_masks(eta):
            run(inst, W, sched, cfg, [40, 41, 42, 43])
    assert caught.value.trials == [1, 3]
    with pytest.raises(SolverFailure, match=r"^round 7: .*\(trial seeds 43\)$"):
        with inject_masks(eta[3:]):
            run(inst, W, sched, cfg, 43)


def test_noisy_stationary_point_is_the_shifted_optimum():
    """With decaying masks the iterates settle at the optimum of a problem
    whose demand absorbed the accumulated zeta mass: for quadratics
    x_i(inf) = x_i* - a_i S / (2 u_i H) with H = sum_j a_j^2 / (2 u_j)."""
    inst, W = symmetric2()
    sol = solve_dual(inst)
    cfg = RunConfig(alpha=0.45, iters=2500, record_every=2500)
    sched = NoiseSchedule.uniform(2, q=0.98)
    tr = run(inst, W, sched, cfg, seed=77, x_star=sol.x_star)
    s_total = float(mask_log(sched, [77], 2500, 1)[1].sum())
    # symmetric2: a_i = 1, 2 u_i = 2, so H = 1 and each agent moves by -S/2
    predicted = sol.x_star - s_total / 2.0
    assert np.allclose(tr.final_state.x, predicted, atol=1e-9)
    assert np.linalg.norm(tr.final_state.y) <= 1e-9
    mu_pred = sol.mu_star - s_total  # mu* shifts by -S/H
    assert np.allclose(tr.final_state.mu, mu_pred, atol=1e-8)
    assert tr.mse[-1] == pytest.approx(s_total**2 / 2.0, rel=1e-9)
