import contextlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmtrack import engine, local_solver, noise
from dmtrack.engine import EngineState, RunConfig, init_state, run
from dmtrack.errors import SolverFailure
from dmtrack.harness import PRESETS
from dmtrack.local_solver import argmin_local, solve_all_from_c
from dmtrack.noise import NoiseSchedule, chunk_rounds
from dmtrack.oracle import solve_dual
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost
from dmtrack.theory import stepsize_bounds
from dmtrack.topology import metropolis_weights, ring_plus_random

from conftest import (
    build_preset, fixed_point_residual, inject_masks, kernel_round, mask_log, reference_round,
    start_state, starting_at, step_once,
)


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


@pytest.mark.parametrize("alpha", [-0.1, -np.inf, np.nan])
def test_config_rejects_a_stepsize_that_is_not_nonnegative(alpha):
    with pytest.raises(ValueError, match="^alpha must be nonnegative"):
        RunConfig(alpha=alpha, iters=10)


def test_config_validation():
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
    st = init_state(inst)
    assert st.x[0, 0] == 3.0  # projection of zero onto [3, 5]
    assert st.y[0, 0] == 2.0 * 3.0 - 1.0
    assert not st.mu.any()
    assert st.round == 0


def test_hand_executed_single_step():
    """One round on the 1-agent chain: f = x^2, A = 1, d = 0, alpha = 0.1,
    x(0) = 1 gives mu(1) = -0.1, x(1) = -0.05, y(1) = -0.05."""
    inst = single_agent_instance()
    W = np.array([[1.0]])
    st = start_state(inst, x=np.array([[1.0]]))
    assert st.y[0, 0] == 1.0
    nxt = step_once(st, inst, W, 0.1)
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
    st = start_state(inst, mu=mu0)
    nxt = step_once(st, inst, W, 0.0)
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
    the products of m = 1, with or without the `+ 0.0` on A x, the in-place
    box projection and updates into preallocated rows change no bit, zeros of
    either sign and non-finite entries included. `exact` draws instances where
    the m = 1 kernel skips that `+ 0.0` (every A_i > 0 and v_i != 0, no -0.0
    bound); otherwise agent 0 alone has a -0.0 bound, a negative A_0 or
    v_0 = 0, and the kernel keeps it."""
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
    """Instances where the m = 1 maps without a `+ 0.0` give other bytes than the
    einsum's: a -0.0 bound, A < 0, v = 0, and, with A > 0 and v != 0, a product
    rounding to -0.0 because v is tiny, d huge or A tiny. The kernel keeps its
    `+ 0.0` on A x for each and matches the written-out round."""
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


def scalar_instance(n, rng, v=None, lower=0.0):
    """n agents with 1 x 1 A_i > 0, U_i > 0 and v_i (random unless given) on [lower, 2].

    A_0 = 0.25 turns a dual of -5e-324 into c_0 = -0.0, which a `+ 0.0` turns into 0.0."""
    return ProblemInstance(agents=tuple(
        AgentSpec(
            cost=QuadraticCost(
                U=np.array([[rng.uniform(0.5, 3.0)]]),
                v=np.array([rng.normal() if v is None else v]),
            ),
            A=np.array([[0.25 if i == 0 else rng.choice([0.5, 1.0, 1.7])]]), d=rng.normal(size=1),
            box=BoxSet(lower=np.array([lower]), upper=np.array([2.0])),
        )
        for i in range(n)
    ))


@pytest.mark.parametrize("trials", [1, 2, 9])
@pytest.mark.parametrize("kind", ["v != 0", "v = 0", "v = 0, lower = 0", "lower = -0.0"])
def test_flat_m1_kernel_matches_the_einsum_round_bit_for_bit(kind, trials):
    """The m = 1 kernel, one inline sequence of products, `+ 0.0` steps where
    `_zero_adds_are_noops` keeps them, and one clip into the box, gives the bytes
    of the written-out round (einsum maps, then maximum and minimum): on states
    holding zeros of either sign and values at the box ends, with and without
    masks. The last trial of a batch holds NaN, as a diverged trial does until
    it is retired, and the one before it is a retired trial's zeroed row. W = I
    passes trial 0's dual of -5e-324 at agent 0 on to the product with A_0."""
    rng = np.random.default_rng(17)
    n = 3
    v, lower = {
        "v != 0": (None, 0.0), "v = 0": (0.0, -2.0), "v = 0, lower = 0": (0.0, 0.0),
        "lower = -0.0": (None, -0.0),
    }[kind]
    inst = scalar_instance(n, rng, v=v, lower=lower)
    consts = (inst.A[:, :, 0], inst.v, inst.diag, inst.lower, inst.upper)
    assert engine._zero_adds_are_noops(*consts) == (kind == "v != 0")
    values = np.array([0.0, -0.0, 2.0, -2.0, 0.7, -1.3, 5e-324, -5e-324])
    mu, x, y, Ax, eta, zeta = rng.choice(values, size=(6, trials, n, 1))
    mu[0, 0], y[0, 0], eta[0, 0] = -5e-324, 0.0, 0.0
    if trials > 1:
        mu[-1, 0], y[-1, 1], x[-1, 2] = np.nan, np.nan, np.nan
    if trials > 2:
        mu[-2], x[-2], y[-2], Ax[-2] = 0.0, 0.0, 0.0, 0.0
    for W in (rng.uniform(0.0, 1.0, size=(n, n)), np.eye(n)):
        for masks in ((None, None), (eta, zeta)):
            for alpha in (0.0, 0.45):
                got = kernel_round(inst, W, alpha, mu, x, y, Ax, *masks)
                want = reference_round(inst, W, alpha, mu, x, y, Ax, *masks)
                for name, a, b in zip(("mu", "x", "y", "Ax"), got, want):
                    assert a.tobytes() == b.tobytes(), (name, alpha, masks[0] is None)


def test_one_add_of_minus_v_equals_the_zero_add_then_minus_v():
    """The m = 1 kernel computes the einsum's (0.0 + a mu) - v as (0.0 - v) + a mu,
    one add fewer: the same bytes for zeros of either sign, underflow, infinities
    and NaN, as a product a mu can be, against finite v of either sign."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, np.inf, -np.inf, np.nan]
    x, v = (a.ravel() for a in np.meshgrid(specials, specials[:7]))
    assert ((0.0 - v) + x).tobytes() == ((0.0 + x) - v).tobytes()
    assert ((-v) + x).tobytes() != ((0.0 + x) - v).tobytes()


@pytest.mark.parametrize("length", [1, 2, 14, 28, 33])
def test_clip_ufunc_equals_maximum_then_minimum(length):
    """The kernel and local_solver.diagonal_argmin project with local_solver.clip,
    numpy's clip ufunc where numpy has it (>= 2) and maximum, then minimum,
    elsewhere; on zeros of either sign, NaN, infinities and boxes with lower ==
    upper both return the bytes of maximum, then minimum, at lengths that include
    the SIMD tails."""
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert isinstance(local_solver.clip, np.ufunc)
    rng = np.random.default_rng(length)
    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5, 5e-324, -5e-324])
    ends = np.array([-0.0, 0.0, -1.0, 1.0, 0.5, -np.inf, np.inf])
    for _ in range(300):
        x = rng.choice(values, size=length)
        lo, hi = np.sort(rng.choice(ends, size=(2, length)), axis=0)
        if rng.random() < 0.3:
            hi = lo.copy()
        want = np.minimum(np.maximum(x, lo), hi)
        for clip in (local_solver.clip, local_solver._maximum_then_minimum):
            got = np.empty(length)
            clip(x, lo, hi, got)
            assert got.tobytes() == want.tobytes(), (clip, x, lo, hi)


def test_trace_recording_strides():
    inst, W = symmetric2()
    sched = NoiseSchedule.disabled(2)
    tr = run(inst, W, sched, RunConfig(alpha=0.45, iters=10, record_every=4), [0])
    assert list(tr.ks) == [0, 4, 8, 10]
    tr = run(inst, W, sched, RunConfig(alpha=0.45, iters=10, record_every=3), [0])
    assert list(tr.ks) == [0, 3, 6, 9, 10]
    assert np.isnan(tr.mse).all()  # no reference optimum supplied


def test_run_is_deterministic_and_seed_sensitive():
    inst, W = symmetric2()
    sched = NoiseSchedule.uniform(2, q=0.9)
    cfg = RunConfig(alpha=0.45, iters=50)
    a = run(inst, W, sched, cfg, [3])
    b = run(inst, W, sched, cfg, [3])
    c = run(inst, W, sched, cfg, [4])
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
    noisy = run(inst, W, sched, cfg, [5])
    eta, zeta = mask_log(sched, [5], 40, 1)
    assert eta.shape == zeta.shape == (1, 40, 2, 1)
    with inject_masks(eta, zeta):
        again = run(inst, W, sched, cfg, [99])
    assert np.array_equal(noisy.final_state.x, again.final_state.x)
    assert np.array_equal(noisy.tracking_residual, again.tracking_residual)

    with inject_masks(np.zeros((1, 40, 2, 1))):
        replayed = run(inst, W, sched, cfg, [5])
    clean = run(inst, W, NoiseSchedule.disabled(2), cfg, [5])
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


def trial_state(tr, t=0):
    """Trial t of a trace's final state, as an (n, .) state."""
    final = tr.final_state
    return EngineState(mu=final.mu[t], x=final.x[t], y=final.y[t], round=final.round)


def trace_arrays(tr, t=None):
    """Every per-trial output of a trace, or of its trial t alone."""
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
            run(inst, W, sched, cfg, [s], x_star=x_star, keep_states=keep_states) for s in seeds
        ]
    with inject_masks(*mask_log(sched, seeds, iters, inst.m)):  # under other seeds
        replayed = run(
            inst, W, sched, cfg, [s + 1 for s in seeds], x_star=x_star, keep_states=keep_states
        )
    assert np.array_equal(batch.ks, singles[0].ks)
    for t, one in enumerate(singles):
        # the last record against the unbatched numpy formulas
        final = trial_state(one)
        cons, _, feas = fixed_point_residual(final, inst, W)
        assert one.consensus_mu[0, -1] == cons and one.feasibility[0, -1] == feas
        assert one.mse[0, -1] == float(np.sum((final.x - x_star) ** 2))
        want = trace_arrays(one, 0)
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
        tr = run(inst, W, sched, cfg, seeds, x_star=x_star)
    assert list(tr.ks) == list(range(0, 49, 3)) + [50]

    A = np.stack([a.A for a in inst.agents])
    d = np.stack([a.d for a in inst.agents])
    norm = np.linalg.norm
    for t, seed in enumerate(seeds):
        eta, zeta = (a[0] for a in mask_log(sched, [seed], cfg.iters, inst.m))
        state = init_state(inst)
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
        assert state.x.tobytes() == tr.final_state.x[t].tobytes()
        for key, values in want.items():
            assert np.array(values).tobytes() == getattr(tr, key)[t].tobytes(), (t, key)


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
        cfg = RunConfig(alpha=50.0, iters=200)
        with starting_at(start_state(two, x=np.ones((2, 1)))):
            tr = run(two, W, NoiseSchedule.disabled(2), cfg, [0], x_star=np.zeros((2, 1)))
    assert np.isinf(tr.mse[0, -1]) and np.isfinite(tr.final_state.x).all()


@pytest.mark.parametrize(
    "max_rows, kept_rows", [(128, None), (2, None), (128, 3)], ids=["128", "2", "kept3"]
)
def test_divergence_in_an_unrecorded_round_is_reported(max_rows, kept_rows):
    """A trial diverging in a round between records, whose state sits in a spare
    row, is reported with that round and its seed, whether the metric block holds
    64 records or the fewest, two. With keep_states and blocks of two rounds, the
    failed run goes on filling and measuring blocks after the divergence, quietly."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=40, record_every=7)
    eta = np.zeros((2, 40, 2, 1))
    eta[1, 15, 0, 0] = np.inf  # round 16 is not recorded (records at 14 and 21)
    with mock.patch.object(engine, "MAX_METRIC_ROWS", max_rows):
        with mock.patch.object(engine, "KEPT_BLOCK_ROWS", kept_rows or engine.KEPT_BLOCK_ROWS):
            with pytest.raises(SolverFailure, match=r"^round 16: .*\(trial seeds 21\)$") as caught:
                with inject_masks(eta):
                    run(inst, W, NoiseSchedule.uniform(2), cfg, [20, 21], keep_states=bool(kept_rows))
    assert caught.value.trials == [1]


def assert_block_size_changes_no_output(name, rows, record_every, keep_states):
    """A noisy run of three trials gives the same bytes with engine.<name> = rows."""
    inst, W = symmetric2()
    sched = NoiseSchedule.uniform(2, q=0.95)
    cfg = RunConfig(alpha=0.45, iters=30, record_every=record_every)
    seeds, x_star = [3, 4, 5], np.ones((2, 1))
    want = run(inst, W, sched, cfg, seeds, x_star=x_star, keep_states=keep_states)
    with mock.patch.object(engine, name, rows):
        got = run(inst, W, sched, cfg, seeds, x_star=x_star, keep_states=keep_states)
    assert trace_arrays(got).keys() == trace_arrays(want).keys()
    for key, value in trace_arrays(want).items():
        assert trace_arrays(got)[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("max_rows", [1, 9, 15])
def test_metric_block_size_changes_no_output(max_rows, record_every):
    """Metric blocks of two records (the fewest), three and five records of three
    trials give the same bytes as one block of every record (at most 42)."""
    assert_block_size_changes_no_output("MAX_METRIC_ROWS", max_rows, record_every, False)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("rounds", [2, 3, 5])
def test_kept_block_size_changes_no_output(rounds, record_every):
    """keep_states blocks of two rounds (the fewest), three and five rounds of three
    trials give the same bytes as the default blocks of ten."""
    assert_block_size_changes_no_output("KEPT_BLOCK_ROWS", 3 * rounds, record_every, True)


@pytest.mark.parametrize("seeds", [pytest.param([5], id="5"), [5, 6]])
def test_trace_shares_no_memory_with_the_state_rows(seeds):
    """The engine steps in preallocated rows; the trace it returns holds copies,
    sharing no memory with the rows or the recorder's tracker-mask totals."""
    made = []

    class Recorder(engine._Recorder):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=20, record_every=3)
    with mock.patch.object(engine, "_Recorder", Recorder):
        tr = run(inst, W, NoiseSchedule.uniform(2), cfg, seeds, keep_states=True)
    [rec] = made
    arrays = [tr.ks, *trace_arrays(tr).values()]
    assert len(arrays) == 10
    for held in (rec.buf.s, rec.buf.x, rec.buf.Ax, rec.zeta_cum):
        for a in arrays:
            assert not np.shares_memory(a, held)


def test_tracking_identity_under_noise():
    """Recorded residual is the normalized defect of
    sum_i y_i(k) - sum_i (A_i x_i(k) - d_i) - sum_{t<k} sum_i zeta_i(t)."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=300)
    sched = NoiseSchedule.uniform(2, q=0.98)
    tr = run(inst, W, sched, cfg, [8], keep_states=True)
    assert tr.max_tracking_residual() <= 1e-12

    # independent recomputation at the final round from the raw log
    A = np.stack([a.A for a in inst.agents])
    d = np.stack([a.d for a in inst.agents])
    mismatch = (np.einsum("imp,ip->im", A, tr.final_state.x[0]) - d).sum(axis=0)
    lhs = tr.final_state.y[0].sum(axis=0)
    rhs = mismatch + mask_log(sched, [8], 300, 1)[1].sum(axis=(0, 1, 2))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_keep_states_shapes_and_first_entries():
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=7)
    tr = run(inst, W, NoiseSchedule.disabled(2), cfg, [0], keep_states=True)
    assert tr.states_mu.shape == (1, 8, 2, 1)
    assert tr.states_x.shape == (1, 8, 2, 1)
    assert not tr.states_mu[0, 0].any()
    assert np.array_equal(tr.states_x[0, -1], tr.final_state.x[0])
    plain = run(inst, W, NoiseSchedule.disabled(2), cfg, [0])
    assert plain.states_mu is None


def test_noise_free_run_reaches_first_order_optimality():
    inst, W = symmetric2()
    sol = solve_dual(inst)
    cfg = RunConfig(alpha=0.45, iters=2000, record_every=100)
    tr = run(inst, W, NoiseSchedule.disabled(2), cfg, [0], x_star=sol.x_star)
    state = trial_state(tr)
    cons, y_norm, feas = fixed_point_residual(state, inst, W)
    assert cons <= 1e-10 and y_norm <= 1e-10 and feas <= 1e-7
    # each x_i is the exact local argmin at the terminal dual
    for i, ag in enumerate(inst.agents):
        best = argmin_local(ag.cost, ag.box, ag.A.T @ state.mu[i]).x
        assert np.allclose(state.x[i], best, atol=1e-7)
    assert tr.mse[0, -1] <= 1e-16


def test_divergence_is_reported():
    inst = single_agent_instance(lo=-np.inf, hi=np.inf)
    two = ProblemInstance(agents=(inst.agents[0], inst.agents[0]))
    W = metropolis_weights(PRESETS["symmetric2"]()[1])
    cfg = RunConfig(alpha=50.0, iters=400)
    with starting_at(start_state(two, x=np.ones((2, 1)))):
        with pytest.raises(SolverFailure, match="diverged") as caught:
            run(two, W, NoiseSchedule.disabled(2), cfg, [0])
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


def test_a_diverged_trial_is_retired_in_place():
    """A trial that diverges is zeroed in its row and the batch keeps its shape:
    one round kernel and one set of state rows serve the whole run, and the
    other trials step on, so a later divergence is still named."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=30)
    eta = np.zeros((4, 30, 2, 1))
    eta[1, 5, 0, 0] = np.inf
    eta[1, 9, 0, 0] = np.nan  # the retired trial's later masks change nothing
    eta[3, 20, 1, 0] = np.inf
    kernels = mock.patch.object(engine, "_round_kernel", wraps=engine._round_kernel)
    rows = mock.patch.object(engine, "_StateRows", wraps=engine._StateRows)
    with kernels as kernel, rows as state_rows, inject_masks(eta):
        with pytest.raises(SolverFailure, match=r"^round 6: .*\(trial seeds 11, 13\)$") as caught:
            run(inst, W, NoiseSchedule.uniform(2), cfg, [10, 11, 12, 13])
    assert caught.value.trials == [1, 3]
    assert kernel.call_count == 1 and state_rows.call_count == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    trial=st.integers(0, 3), k=st.integers(0, 11), agent=st.integers(0, 1),
    channel=st.integers(0, 1), value=st.sampled_from([np.inf, -np.inf, np.nan]),
)
def test_one_non_finite_mask_fails_with_its_round_and_seed(trial, k, agent, channel, value):
    """One inf, -inf or NaN mask entry of round k makes its trial's state non-finite
    in round k + 1, and only that trial's: the run fails naming that round and seed,
    with one round kernel and one set of state rows. The run steps its 12 rounds
    unchecked, then replays them checked."""
    inst, W = symmetric2()
    masks = np.zeros((2, 4, 12, 2, 1))
    masks[channel, trial, k, agent, 0] = value
    kernel, counts = count_kernel_rounds()
    rows = mock.patch.object(engine, "_StateRows", wraps=engine._StateRows)
    pattern = rf"^round {k + 1}: state diverged to non-finite values \(trial seeds {20 + trial}\)$"
    with kernel, rows as state_rows, inject_masks(*masks):
        with pytest.raises(SolverFailure, match=pattern) as caught:
            run(inst, W, NoiseSchedule.uniform(2), RunConfig(0.45, 12), [20, 21, 22, 23])
    assert caught.value.trials == [trial]
    assert counts == [24] and state_rows.call_count == 1


@pytest.mark.parametrize("W", [
    [[0.0, 1.0], [1.0, 0.0]],  # a zero diagonal
    [[1.5, -0.5], [-0.5, 1.5]],  # doubly stochastic, with negative entries
    [[0.5, np.nan], [0.5, 0.5]],
    [[np.nan, 0.5], [0.5, 0.5]],
], ids=["zero_diagonal", "negative", "nan", "nan_diagonal"])
def test_a_w_with_a_negative_nan_or_zero_diagonal_entry_is_refused(W):
    """`run` takes only a W with nonnegative entries and a positive diagonal, under
    which a non-finite state stays non-finite; any other W raises before a round."""
    inst, _ = symmetric2()
    kernel, counts = count_kernel_rounds()
    with kernel, pytest.raises(ValueError, match="^W must have nonnegative entries"):
        run(inst, np.array(W), NoiseSchedule.uniform(2), RunConfig(0.45, 12), [0, 1])
    assert sum(counts) == 0


def test_only_checked_passes_call_the_per_round_check():
    """Finite runs never call `_check`: a masked one (mc_noisy's configuration for
    300 rounds) and a noise-free one (free_converge's, which stops where its state
    repeats). A failing run calls it once per round of its checked replay."""
    instance, W, sched, cfg = mc_noisy_run()
    with mock.patch.object(engine, "_check", wraps=engine._check) as check:
        run(instance, W, sched, RunConfig(cfg.alpha, 300, record_every=10), [41, 42])
        instance, W, alpha = at_09_alpha_max_t1("microgrid14")
        tr = run(instance, W, NoiseSchedule.disabled(14), RunConfig(alpha, 3000), [0])
        assert check.call_count == 0 and tr.rounds_stepped < 3000
        inst, W = symmetric2()
        eta = np.zeros((2, 30, 2, 1))
        eta[1, 5, 0, 0] = np.inf
        kernel, counts = count_kernel_rounds()
        with kernel, inject_masks(eta), pytest.raises(SolverFailure, match="^round 6: "):
            run(inst, W, NoiseSchedule.uniform(2), RunConfig(0.45, 30), [0, 1])
    assert counts == [60] and check.call_count == 30


def test_a_failed_local_solve_names_every_failing_seed():
    """Projected gradient with one step fails where a coordinate binds at round 0:
    in the trials whose masks push the duals to 10, not in the one left at 0."""
    U = np.array([[2.0, 0.9], [0.9, 1.0]])
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    agent = AgentSpec(cost=QuadraticCost(U=U, v=np.zeros(2)), A=np.eye(2), d=np.zeros(2), box=box)
    inst = ProblemInstance(agents=(agent, agent))
    eta = np.zeros((3, 4, 2, 2))
    eta[[0, 2], 0] = 10.0
    with mock.patch.object(local_solver, "MAX_INNER", 1), inject_masks(eta):
        with pytest.raises(SolverFailure, match=r"^round 0: trial 0, agent 0: ") as caught:
            run(inst, symmetric2()[1], NoiseSchedule.uniform(2), RunConfig(0.1, 4), [5, 6, 7])
    assert caught.value.trials == [0, 2]


def test_a_failed_local_solve_also_names_the_trials_that_diverged_before():
    """Seed 6's tracker turns NaN in round 1 and the trial is retired; in round 3
    seed 5's one-step projected gradient fails. The failure names both seeds."""
    U = np.array([[2.0, 0.9], [0.9, 1.0]])
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    agent = AgentSpec(cost=QuadraticCost(U=U, v=np.zeros(2)), A=np.eye(2), d=np.zeros(2), box=box)
    inst = ProblemInstance(agents=(agent, agent))
    eta, zeta = np.zeros((2, 5, 2, 2)), np.zeros((2, 5, 2, 2))
    zeta[1, 0, 0, 0] = np.nan
    eta[0, 3] = 10.0
    with mock.patch.object(local_solver, "MAX_INNER", 1), inject_masks(eta, zeta):
        pattern = r"^round 3: trial 0, agent 0: .*\(trial seeds 5, 6\)$"
        with pytest.raises(SolverFailure, match=pattern) as caught:
            run(inst, symmetric2()[1], NoiseSchedule.uniform(2), RunConfig(0.1, 5), [5, 6])
    assert caught.value.trials == [0, 1]


@pytest.mark.parametrize("trials", [1, 5, 200])
def test_a_two_record_run_allocates_at_most_four_state_rows(trials):
    """A run recording only its first and last rounds, as the audit's base runs
    do, holds its two records and the two spare rows, whatever the batch size."""
    inst, W = symmetric2()
    rows = mock.patch.object(engine, "_StateRows", wraps=engine._StateRows)
    with rows as state_rows:
        cfg = RunConfig(0.45, 9, record_every=9)
        run(inst, W, NoiseSchedule.disabled(2), cfg, list(range(trials)))
    [(count, *_), _] = state_rows.call_args
    assert count <= 4


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
    state = step_once(init_state(inst), inst, W, cfg.alpha, eta[1, 4], np.zeros((2, 1)))
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
    state = step_once(init_state(inst), inst, W, cfg.alpha, np.zeros((2, 1)), zeta[1, 0])
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
    cfg = RunConfig(alpha=0.1, iters=8)
    sched = NoiseSchedule.uniform(2)
    with starting_at(start_state(inst, mu=np.full((2, 1), 1e200))), warnings.catch_warnings():
        warnings.simplefilter("error")
        with inject_masks(np.zeros((1, 8, 2, 1))):
            tr = run(inst, W, sched, cfg, [50])
        final = trial_state(tr)
        assert np.isfinite(final.mu).all() and np.isfinite(final.y).all()
        with np.errstate(over="ignore"):
            assert np.isinf(np.vdot(final.mu, final.y))
        eta = np.zeros((2, 8, 2, 1))
        eta[1, 5, 0, 0] = np.inf
        with pytest.raises(SolverFailure, match=r"^round 6: .*\(trial seeds 51\)$"):
            with inject_masks(eta):
                run(inst, W, sched, cfg, [50, 51])


@pytest.mark.parametrize("nondiagonal", [False, True])
@pytest.mark.parametrize("seeds", [pytest.param([5], id="5"), [5, 6]])
def test_shorter_run_is_a_prefix_of_a_longer_one(seeds, nondiagonal):
    """Masks are a pure function of (seed, round), so the states of run(iters=k)
    are the first k rounds of run(iters=K), on either side of a mask-chunk
    boundary and with the longer run's masks injected."""
    inst, W = nondiagonal3() if nondiagonal else symmetric2()
    alpha = 0.05 if nondiagonal else 0.45
    sched = NoiseSchedule.uniform(inst.n, q=0.95)
    trials = len(seeds)
    with mock.patch.object(noise, "MAX_CHUNK_BLOCKS", 24):
        chunk = chunk_rounds(trials, inst.n, inst.m)
        K = 3 * chunk + 2
        full = run(inst, W, sched, RunConfig(alpha=alpha, iters=K), seeds, keep_states=True)
        for k in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):  # chunk is 4 to 24 rounds
            cfg = RunConfig(alpha=alpha, iters=k, record_every=k)
            short = run(inst, W, sched, cfg, seeds, keep_states=True)
            log = mask_log(sched, seeds, K, inst.m)
            with inject_masks(*log):  # under other seeds
                replayed = run(inst, W, sched, cfg, [7, 8][:trials], keep_states=True)
            for tr in (short, replayed):
                assert tr.states_mu.tobytes() == full.states_mu[:, : k + 1].tobytes()
                assert tr.states_x.tobytes() == full.states_x[:, : k + 1].tobytes()


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
    cfg = RunConfig(alpha=0.1, iters=12)
    start = start_state(inst, mu=np.full((2, 1), 1e307))
    eta = np.zeros((4, 12, 2, 1))
    eta[1, 0, 0, 0] = 1.6e308  # mu(1) = 0.9e308, so x(1) = 1.8e308 overflows
    eta[3, 6, 1, 0] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        first = step_once(start, inst, W, cfg.alpha, eta[1, 0], np.zeros((2, 1)))
    assert np.isfinite(first.mu).all() and not np.isfinite(first.x).all()
    sched = NoiseSchedule.uniform(2)
    with pytest.raises(SolverFailure, match=r"^round 1: .*\(trial seeds 41, 43\)$") as caught:
        with starting_at(start), inject_masks(eta):
            run(inst, W, sched, cfg, [40, 41, 42, 43])
    assert caught.value.trials == [1, 3]
    with pytest.raises(SolverFailure, match=r"^round 7: .*\(trial seeds 43\)$"):
        with starting_at(start), inject_masks(eta[3:]):
            run(inst, W, sched, cfg, [43])


def test_noisy_stationary_point_is_the_shifted_optimum():
    """With decaying masks the iterates settle at the optimum of a problem
    whose demand absorbed the accumulated zeta mass: for quadratics
    x_i(inf) = x_i* - a_i S / (2 u_i H) with H = sum_j a_j^2 / (2 u_j)."""
    inst, W = symmetric2()
    sol = solve_dual(inst)
    cfg = RunConfig(alpha=0.45, iters=2500, record_every=2500)
    sched = NoiseSchedule.uniform(2, q=0.98)
    tr = run(inst, W, sched, cfg, [77], x_star=sol.x_star)
    s_total = float(mask_log(sched, [77], 2500, 1)[1].sum())
    # symmetric2: a_i = 1, 2 u_i = 2, so H = 1 and each agent moves by -S/2
    predicted = sol.x_star - s_total / 2.0
    assert np.allclose(tr.final_state.x[0], predicted, atol=1e-9)
    assert np.linalg.norm(tr.final_state.y[0]) <= 1e-9
    mu_pred = sol.mu_star - s_total  # mu* shifts by -S/H
    assert np.allclose(tr.final_state.mu[0], mu_pred, atol=1e-8)
    assert tr.mse[0, -1] == pytest.approx(s_total**2 / 2.0, rel=1e-9)


def at_09_alpha_max_t1(name):
    """A preset, its weight matrix and 0.9 * alpha_max_t1, where a noise-free run
    ends in a periodic orbit."""
    instance, W, mod = build_preset(name)
    return instance, W.W, 0.9 * stepsize_bounds(mod, W.lambda_bar).alpha_max_t1


def stepped_reference(instance, W, cfg, trials):
    """Every state of a noise-free (trials, n, .) batch, each round from the last
    through the round kernel from engine.init_state, without any fast-forward:
    rows 0..cfg.iters of engine state buffers."""
    n, m, p = instance.dims
    start = engine.init_state(instance)
    buf = engine._StateRows(cfg.iters + 1, trials, n, m, p)
    first = buf.rows[0]
    first.mu[...], first.x[...], first.y[...] = start.mu, start.x, start.y
    first.Ax[...] = np.einsum("imp,tip->tim", instance.A, first.x)
    advance = engine._round_kernel(instance, W, cfg.alpha, trials)
    for k in range(cfg.iters):
        advance(buf.rows[k], buf.rows[k + 1], None)
    return buf


def count_kernel_rounds():
    """Patch the engine's round kernel to count the rounds it steps; returns (patch, counts)."""
    counts, kernel = [], engine._round_kernel

    def counting_kernel(*args):
        advance = kernel(*args)
        counts.append(0)

        def counted(src, dst, masks):
            counts[-1] += 1
            advance(src, dst, masks)

        return counted

    return mock.patch.object(engine, "_round_kernel", counting_kernel), counts


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("name", ["symmetric2", "hand_kkt", "microgrid14"])
def test_orbit_fill_matches_stepping_every_round(name, trials):
    """A noise-free run that stops stepping in a period-1 or -2 orbit gives the
    bytes of stepping every round: each record, kept state and final state, on
    both sides of where the orbit starts and of where the run stops stepping."""
    instance, W, alpha = at_09_alpha_max_t1(name)
    n, m, p = instance.dims
    x_star = solve_dual(instance).x_star
    ref = stepped_reference(instance, W, RunConfig(alpha=alpha, iters=3000), trials)
    mu, y = ref.s[:, 0], ref.s[:, 1]
    # the first round whose state equals the state two rounds later
    start = next(k for k in range(2999) if all(
        a[k].tobytes() == a[k + 2].tobytes() for a in (ref.s, ref.x, ref.Ax)
    ))
    N = 3001 * trials
    metrics = {
        star is None: engine._metrics(
            mu.reshape(N, n, m), ref.x.reshape(N, n, p), y.reshape(N, n, m),
            ref.Ax.reshape(N, n, m), np.zeros((N, m)), W, instance.d, star,
        ).reshape(4, 3001, trials)
        for star in (x_star, None)
    }
    seeds = [3, 4, 5][:trials]
    sched = NoiseSchedule.disabled(instance.n)
    stop = run(instance, W, sched, RunConfig(alpha=alpha, iters=3000), seeds).rounds_stepped
    assert start < stop < 3000  # the fast-forward fires
    for iters in sorted({start - 1, start, start + 1, start + 2, stop - 1, stop, stop + 1,
                         stop + 2, 3000}):
        for record_every in sorted({1, 7, iters}):
            for keep_states, star in [(k, s) for k in (False, True) for s in (x_star, None)]:
                cfg = RunConfig(alpha=alpha, iters=iters, record_every=record_every)
                tr = run(instance, W, sched, cfg, seeds, x_star=star, keep_states=keep_states)

                def same(got, want):
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (
                        iters, record_every, keep_states, star is None
                    )

                ks = list(range(0, iters + 1, record_every))
                assert tr.ks.tolist() == ks + [iters] * (ks[-1] != iters)
                keys = ("mse", "consensus_mu", "tracking_residual", "feasibility")
                for i, key in enumerate(keys):
                    same(getattr(tr, key), metrics[star is None][i, tr.ks].T)
                final = tr.final_state
                assert final.round == iters
                same(final.mu, mu[iters])
                same(final.x, ref.x[iters])
                same(final.y, y[iters])
                if keep_states:
                    same(tr.states_mu, mu[: iters + 1].swapaxes(0, 1))
                    same(tr.states_x, ref.x[: iters + 1].swapaxes(0, 1))
                assert tr.rounds_stepped == min(iters, stop)


def test_free_converge_steps_only_until_its_state_repeats():
    """The benchmark's noise-free workload (microgrid14 at 0.9 alpha_max_t1, 3000
    rounds) repeats its state with period 2 from round 1057 on, and stops stepping there."""
    instance, W, alpha = at_09_alpha_max_t1("microgrid14")
    kernel, counts = count_kernel_rounds()
    with kernel:
        tr = run(instance, W, NoiseSchedule.disabled(14), RunConfig(alpha, 3000), [0])
    assert counts == [tr.rounds_stepped] and tr.rounds_stepped < 1100


@pytest.mark.parametrize("d", [1.0, 1e-300])
def test_a_noisy_run_steps_every_round(d):
    """Masks make a round depend on more than the state, so a noisy run steps to
    the end, even where masks below an ulp leave each state as without them and
    the state repeats."""
    instance, W, alpha = at_09_alpha_max_t1("microgrid14")
    sched = NoiseSchedule.uniform(14, d_eta=d, d_zeta=d)
    kernel, counts = count_kernel_rounds()
    with kernel:
        tr = run(instance, W, sched, RunConfig(alpha, 3000), [0, 1], keep_states=True)
    assert counts == [3000] and tr.rounds_stepped == 3000
    if d < 1.0:
        free = run(instance, W, NoiseSchedule.disabled(14), RunConfig(alpha, 3000), [0, 1],
                   keep_states=True)
        assert tr.states_mu.tobytes() == free.states_mu.tobytes()
        assert tr.states_mu[:, -1].tobytes() == tr.states_mu[:, -3].tobytes()


def test_a_diverging_noise_free_run_steps_to_its_failure():
    """A noise-free batch that diverges at round 224 steps unchecked to round 227,
    where the probe of round 225 finds its non-finite state repeating (before the
    end of its metric block at round 255), then replays the 224 rounds checked; the
    failure names every seed of the batch."""
    inst = single_agent_instance(lo=-np.inf, hi=np.inf)
    two = ProblemInstance(agents=(inst.agents[0], inst.agents[0]))
    W = metropolis_weights(PRESETS["symmetric2"]()[1])
    cfg = RunConfig(alpha=50.0, iters=400)
    kernel, counts = count_kernel_rounds()
    pattern = r"^round 224: .*\(trial seeds 7, 8\)$"
    start = starting_at(start_state(two, x=np.ones((2, 1))))
    with start, kernel, pytest.raises(SolverFailure, match=pattern) as caught:
        run(two, W, NoiseSchedule.disabled(2), cfg, [7, 8])
    assert caught.value.trials == [0, 1] and counts == [227 + 224]


def test_a_diverging_masked_run_replays_from_the_end_of_its_metric_block():
    """The batch above under masks, for 5000 rounds: the unchecked pass ends at
    the first metric block holding a non-finite state (64 rounds of two trials a
    block, so rounds 192..255), not at round 5000, and the checked replay fails at
    round 224 naming both seeds."""
    inst = single_agent_instance(lo=-np.inf, hi=np.inf)
    two = ProblemInstance(agents=(inst.agents[0], inst.agents[0]))
    W = metropolis_weights(PRESETS["symmetric2"]()[1])
    per_block = engine.MAX_METRIC_ROWS // 2
    block_end = (224 // per_block + 1) * per_block - 1  # 255, the last round of 224's block
    kernel, counts = count_kernel_rounds()
    pattern = r"^round 224: .*\(trial seeds 7, 8\)$"
    start = starting_at(start_state(two, x=np.ones((2, 1))))
    with start, kernel, pytest.raises(SolverFailure, match=pattern) as caught:
        run(two, W, NoiseSchedule.uniform(2), RunConfig(alpha=50.0, iters=5000), [7, 8])
    assert caught.value.trials == [0, 1] and counts == [block_end + 224]


@pytest.mark.parametrize("record_every, unchecked_stop", [(1, 63), (300, 67)])
def test_a_repeating_non_finite_trial_fails_beside_a_trial_in_its_orbit(record_every,
                                                                        unchecked_stop):
    """Of two noise-free symmetric2 trials, seed 6 starts with an overflowing dual
    and repeats a non-finite state from round 1 on, byte for byte, while seed 5
    reaches its period-2 orbit at round 61. The unchecked pass ends at its first
    metric block (rounds 0..63) or, recording only the end, where the probe of
    round 65 matches round 67; either way the checked replay retires seed 6 at
    round 1, steps seed 5 to the end and fails as stepping every round says."""
    inst, W, alpha = at_09_alpha_max_t1("symmetric2")
    healthy, wild = init_state(inst), start_state(inst, mu=[1.7e308] * 2, x=[-1.7e308] * 2)
    batch = EngineState(mu=np.stack([healthy.mu, wild.mu]), x=np.stack([healthy.x, wild.x]),
                        y=np.stack([healthy.y, wild.y]))
    cfg = RunConfig(alpha, 300, record_every=record_every)
    with starting_at(batch), np.errstate(over="ignore", invalid="ignore"):
        ref = stepped_reference(inst, W, cfg, 2)
    with starting_at(batch):
        kernel, counts = count_kernel_rounds()
        with kernel, pytest.raises(SolverFailure) as caught:
            run(inst, W, NoiseSchedule.disabled(2), cfg, [5, 6])
    finite = np.isfinite(ref.s).all(axis=(1, 3, 4)) & np.isfinite(ref.x).all(axis=(2, 3))
    bad = int(np.argmin(finite[:, 1]))
    assert finite[:, 0].all() and bad == 1 and not finite[bad:, 1].any()
    repeats = [[ref.s[k, :, t].tobytes() == ref.s[k + 2, :, t].tobytes() for k in range(298)]
               for t in (0, 1)]
    assert repeats[1][bad:] == [True] * (298 - bad) and repeats[0].index(True) == 61
    assert str(caught.value) == f"round {bad}: state diverged to non-finite values (trial seeds 6)"
    assert caught.value.trials == [1] and counts == [unchecked_stop + 300]


def test_a_repeating_dot_alone_does_not_stop_the_stepping():
    """At alpha = 0 the duals stay at 0 while the trackers of a start off consensus
    still mix toward their average: a state repeating in mu alone does not stop the
    stepping, and the run gives the bytes of stepping every round."""
    instance, W, _ = at_09_alpha_max_t1("microgrid14")
    cfg = RunConfig(0.0, 60)
    with starting_at(start_state(instance, x=np.linspace(0.0, 40.0, 14))):
        ref = stepped_reference(instance, W, cfg, 1)
        tr = run(instance, W, NoiseSchedule.disabled(14), cfg, [0], keep_states=True)
    assert not ref.s[:, 0].any() and ref.s[-1, 1].tobytes() != ref.s[-3, 1].tobytes()
    assert tr.rounds_stepped == 60
    assert tr.final_state.y.tobytes() == ref.s[-1, 1, 0].tobytes()
    assert tr.states_x.tobytes() == ref.x[:, 0].tobytes()


def copied_trajectory(instance, W, schedule, cfg, seeds):
    """mu and x of rounds 0..cfg.iters of a (T, n, .) batch, trial first: stepped
    through the round kernel between two rows, with each round copied out."""
    n, m, p = instance.dims
    T = len(seeds)
    start = init_state(instance)
    src, dst = engine._StateRows(2, T, n, m, p).rows
    src.mu[...], src.x[...], src.y[...] = start.mu, start.x, start.y
    src.Ax[...] = np.einsum("imp,tip->tim", instance.A, src.x)
    advance = engine._round_kernel(instance, W, cfg.alpha, T)
    eta, zeta = mask_log(schedule, seeds, cfg.iters, m)
    mu, x = np.empty((cfg.iters + 1, T, n, m)), np.empty((cfg.iters + 1, T, n, p))
    mu[0], x[0] = src.mu, src.x
    for k in range(cfg.iters):
        advance(src, dst, np.stack([eta[:, k], zeta[:, k]]) if schedule.enabled else None)
        src, dst = dst, src
        mu[k + 1], x[k + 1] = src.mu, src.x
    return mu.swapaxes(0, 1), x.swapaxes(0, 1)


@pytest.mark.parametrize("block", [3, engine.KEPT_BLOCK_ROWS])
@pytest.mark.parametrize("noisy", [True, False])
@pytest.mark.parametrize("seeds", [pytest.param([4], id="4"), [4, 5, 6]])
def test_kept_states_equal_a_loop_that_copies_every_round(monkeypatch, block, noisy, seeds):
    """A keep_states run holds a block of rounds in its rows and copies the block
    into its trajectory at once: its kept states, of a noisy run and of a
    noise-free run that stops stepping in its orbit, are the bytes of copying
    every round, and its metrics those of a run keeping nothing."""
    instance, W, alpha = at_09_alpha_max_t1("symmetric2")
    sched = NoiseSchedule.uniform(2, q=0.95) if noisy else NoiseSchedule.disabled(2)
    cfg = RunConfig(alpha=alpha, iters=200, record_every=7)
    monkeypatch.setattr(engine, "KEPT_BLOCK_ROWS", block)
    tr = run(instance, W, sched, cfg, seeds, keep_states=True)
    assert tr.rounds_stepped == 200 if noisy else tr.rounds_stepped < 200
    mu, x = copied_trajectory(instance, W, sched, cfg, seeds)
    assert tr.states_mu.tobytes() == np.ascontiguousarray(mu).tobytes()
    assert tr.states_x.tobytes() == np.ascontiguousarray(x).tobytes()
    plain = trace_arrays(run(instance, W, sched, cfg, seeds))
    for key, value in trace_arrays(tr).items():
        if key in plain:
            assert value.tobytes() == plain[key].tobytes(), key


def test_a_kept_batch_with_a_retired_trial_names_every_seed():
    """With keep_states too, a diverged trial is retired in place while the others
    step on correctly: here seed 11 is retired at round 6, and seeds 10 and 12,
    whose masks are zero, still diverge at round 224 as the noise-free run does."""
    inst = single_agent_instance(lo=-np.inf, hi=np.inf)
    two = ProblemInstance(agents=(inst.agents[0], inst.agents[0]))
    W = metropolis_weights(PRESETS["symmetric2"]()[1])
    cfg = RunConfig(alpha=50.0, iters=400)
    eta = np.zeros((3, 400, 2, 1))
    eta[1, 5, 0, 0] = np.inf
    with pytest.raises(SolverFailure, match=r"^round 6: .*\(trial seeds 10, 11, 12\)$") as caught:
        with starting_at(start_state(two, x=np.ones((2, 1)))), inject_masks(eta):
            run(two, W, NoiseSchedule.uniform(2), cfg, [10, 11, 12], keep_states=True)
    assert caught.value.trials == [0, 1, 2]


def grid_of(n):
    """The default audit grid's nine schedules: d_zeta 0.5, 1, 2 by q 0.95, 0.98, 0.99."""
    return [NoiseSchedule.uniform(n, d_zeta=dz, q=q) for dz in (0.5, 1.0, 2.0)
            for q in (0.95, 0.98, 0.99)]


def assert_shared_draws_match_plain_runs(instance, W, alpha, schedules, iters, seeds):
    """Runs given one array of unit draws, in the order given, equal runs drawing
    their own masks."""
    draws = noise.unit_draws(seeds, range(max(iters)), 2 * instance.n)
    for sched, k in zip(schedules, iters):
        cfg = RunConfig(alpha, k, record_every=7)
        shared = run(instance, W, sched, cfg, seeds, keep_states=True, draws=draws)
        plain = run(instance, W, sched, cfg, seeds, keep_states=True)
        for key, value in trace_arrays(plain).items():
            assert trace_arrays(shared)[key].tobytes() == value.tobytes(), (k, key)


@pytest.mark.parametrize("order", [1, -1])  # the shortest run first, the longest first
def test_shared_draws_on_the_default_grid_give_the_bytes_of_plain_runs(order):
    instance, W, alpha = at_09_alpha_max_t1("symmetric2")
    iters = [290 + 12 * g for g in range(9)][::order]
    assert_shared_draws_match_plain_runs(instance, W, alpha, grid_of(2), iters, [41])


@pytest.mark.parametrize(
    "seeds, iters", [pytest.param([3], (300, 700), id="3-iters0"), ([3, 4, 5], (450, 150))]
)
def test_shared_draws_across_mask_chunks_give_the_bytes_of_plain_runs(seeds, iters):
    """microgrid14 draws 585 rounds a chunk for one trial and 195 for three."""
    instance, W, alpha = at_09_alpha_max_t1("microgrid14")
    trials = len(seeds)
    assert min(iters) < chunk_rounds(trials, 14, 1) < max(iters)
    schedules = [NoiseSchedule.uniform(14, q=0.98), NoiseSchedule.uniform(14, 0.5, 2.0, q=0.95)]
    assert_shared_draws_match_plain_runs(instance, W, alpha, schedules, iters, seeds)


def test_unit_draws_of_too_few_rounds_other_trials_or_width_are_refused():
    inst, W = symmetric2()
    for seeds, rounds, width in (([1], 4, 4), ([1, 2], 5, 4), ([1], 5, 8)):
        draws = noise.unit_draws(seeds, range(rounds), width)
        with pytest.raises(ValueError, match="do not fit a run of 5 rounds, 1 trials and width 4"):
            run(inst, W, NoiseSchedule.uniform(2), RunConfig(0.45, 5), [1], draws=draws)
    draws = noise.unit_draws([1], range(6), 4)  # more rounds than the run reads
    run(inst, W, NoiseSchedule.uniform(2), RunConfig(0.45, 5), [1], draws=draws)


def test_a_run_without_shared_draws_keeps_none():
    """Without shared draws, a run draws each chunk of rounds and keeps nothing
    once it returns: a second run draws them again."""
    instance, W, alpha = at_09_alpha_max_t1("microgrid14")
    sched, cfg = NoiseSchedule.uniform(14), RunConfig(alpha, 3000, record_every=3000)
    run(instance, W, sched, cfg, [3])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(instance, W, sched, cfg, [3])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 3000 * 28 * 8 // 20  # 3000 rounds of unit draws would hold 672 kB
    with mock.patch.object(noise, "philox4x64", wraps=noise.philox4x64) as philox:
        run(instance, W, sched, cfg, [3])
        run(instance, W, sched, cfg, [3])
    assert philox.call_count == 2 * -(-3000 // chunk_rounds(1, 14, 1))


@contextlib.contextmanager
def absorbing(rule, absorbed):
    """Patch the engine's iter_masks to absorb masks (rule true) or never (no state
    reaches it), appending each round the engine stepped without masks to `absorbed`:
    an absorbed item's round and those the engine stepped after it, up to the
    stretch[0] it leaves, so not a round of a window it rewound. Rounds count from
    the latest iter_masks call: a run's checked replay is a new pass, which drops
    the rounds the pass before it appended."""
    iter_masks, first = engine.iter_masks, len(absorbed)

    def logged(*args, state=None, **kwargs):
        del absorbed[first:]
        k = 0
        for mask, zeta_sum, stretch in iter_masks(*args, state=state if rule else None, **kwargs):
            yield mask, zeta_sum, stretch
            # resumed once the engine has stepped the round, or the stretch
            stop = k + 1 if stretch is None else stretch[0]
            if mask is None:
                absorbed.extend(range(k, stop))
            k = stop

    with mock.patch.object(engine, "iter_masks", logged):
        yield


def assert_absorption_changes_no_output(*args, **kwargs):
    """Runs with absorption on and off give the same bytes; returns the absorbed rounds."""
    absorbed, none = [], []
    with absorbing(True, absorbed):
        on = run(*args, **kwargs)
    with absorbing(False, none):
        off = run(*args, **kwargs)
    assert not none and on.rounds_stepped == off.rounds_stepped
    assert on.rounds_absorbed == len(absorbed) and off.rounds_absorbed == 0
    assert on.ks.tobytes() == off.ks.tobytes()
    assert trace_arrays(on).keys() == trace_arrays(off).keys()
    for key, value in trace_arrays(off).items():
        assert trace_arrays(on)[key].tobytes() == value.tobytes(), key
    return absorbed


def mc_noisy_run(d_zeta=1.0):
    """microgrid14 at 0.9 alpha_max_t2 with masks of scale 1 (tracker: d_zeta) and
    q = 0.98 for 5000 rounds, recorded every 10, as the benchmark's noisy workload."""
    instance, W, mod = build_preset("microgrid14")
    alpha = 0.9 * stepsize_bounds(mod, W.lambda_bar).alpha_max_t2
    sched = NoiseSchedule.uniform(14, d_zeta=d_zeta, q=0.98)
    return instance, W.W, sched, RunConfig(alpha, 5000, record_every=10)


@pytest.mark.parametrize(
    "trials, d_zeta, keep_states",
    [(t, dz, keep) for t in (1, 2) for dz in (0.5, 1.0, 4.0) for keep in (False, True)]
    + [(100, dz, False) for dz in (0.5, 1.0, 4.0)] + [(100, 1.0, True)],
)
def test_absorbed_masks_change_no_output_on_microgrid14(trials, d_zeta, keep_states):
    """Over 5000 rounds at q = 0.98, absorption starts at a chunk start between
    rounds 2336 and 2628 (chunks of 585, 292 and 5 rounds for 1, 2 and 100 trials);
    the runs give every byte of runs that draw every round. (One kept case at 100
    trials: each kept trajectory of it holds 56 MB.)"""
    x_star = solve_dual(build_preset("microgrid14")[0]).x_star
    seeds = list(range(41, 41 + trials))
    absorbed = assert_absorption_changes_no_output(
        *mc_noisy_run(d_zeta), seeds, x_star=x_star, keep_states=keep_states
    )
    assert len(absorbed) > 2000


@pytest.mark.parametrize("keep_states", [False, True])
@pytest.mark.parametrize("seeds", [pytest.param([5], id="5"), [5, 6]])
@pytest.mark.parametrize("name", ["symmetric2", "hand_kkt"])
def test_absorbed_masks_change_no_output_across_chunk_starts(name, seeds, keep_states):
    """With chunks of 13 rounds, absorption starts and is tested again inside the
    absorbed stretch of a q = 0.9 run: every byte stays."""
    instance, W, alpha = at_09_alpha_max_t1(name)
    trials = len(seeds)
    cfg = RunConfig(alpha, 1500, record_every=7)
    with mock.patch.object(noise, "MAX_CHUNK_BLOCKS", 13 * trials):
        absorbed = assert_absorption_changes_no_output(
            instance, W, NoiseSchedule.uniform(2, q=0.9), cfg, seeds,
            x_star=np.ones((2, 1)), keep_states=keep_states,
        )
    assert len(absorbed) > 500 and absorbed[0] % 13 == 0


@pytest.mark.parametrize("name, d_zeta", [("symmetric2", 4.0), ("hand_kkt", 0.5)])
def test_natural_absorbed_stretches_change_no_output(name, d_zeta):
    """At q = 0.95 and 0.9 alpha_max_t1, four trials (seeds 0-3, chunks of 1024
    rounds) absorb every round from 2048 to 5000, in windows of the ten rounds
    between records: the 2952 rounds of the per-round state test, and the bytes of
    a run drawing every round."""
    instance, W, alpha = at_09_alpha_max_t1(name)
    sched = NoiseSchedule.uniform(2, d_zeta=d_zeta, q=0.95)
    cfg = RunConfig(alpha, 5000, record_every=10)
    absorbed = assert_absorption_changes_no_output(
        instance, W, sched, cfg, [0, 1, 2, 3], x_star=solve_dual(instance).x_star
    )
    assert absorbed == list(range(2048, 5000))


def test_a_noisy_run_tests_its_states_once_a_window():
    """On the benchmark's noisy config the state test runs once per chunk start
    and once per window of the ten rounds between records: at most 300 calls for
    its 2664 absorbed rounds, where a test of each round made 2664."""
    calls = mock.Mock(wraps=noise.absorbs)
    with mock.patch.object(noise, "absorbs", calls), mock.patch.object(engine, "absorbs", calls):
        tr = run(*mc_noisy_run(), [41, 42])
    assert tr.rounds_absorbed == 2664 and calls.call_count <= 300


@contextlib.contextmanager
def nudged_at(k, nudge):
    """Patch the round kernel to apply nudge(dst) to the state it steps in its k-th
    call from the latest iter_masks call (a checked replay is a new pass): round k,
    as long as no window of the pass was rewound before."""
    kernel, iter_masks, rounds = engine._round_kernel, engine.iter_masks, [0]

    def new_pass(*args, **kwargs):
        rounds[0] = 0
        return iter_masks(*args, **kwargs)

    def nudging_kernel(*args):
        advance = kernel(*args)

        def nudged(src, dst, masks):
            advance(src, dst, masks)
            if rounds[0] == k:
                nudge(dst)
            rounds[0] += 1

        return nudged

    with mock.patch.object(engine, "_round_kernel", nudging_kernel):
        with mock.patch.object(engine, "iter_masks", new_pass):
            yield


@pytest.mark.parametrize("nudged", [
    pytest.param(3001, id="inside-a-window"),
    pytest.param(3010, id="first-source-of-a-window"),  # the record row after round 3009
    pytest.param(3009, id="last-source-before-a-record"),
    pytest.param(3211, id="last-round-of-a-chunk"),  # chunk 10 holds rounds 2920..3211
])
def test_a_state_entry_near_zero_has_its_masks_drawn(nudged):
    """A dual set to 1e-300 in the state round `nudged` is stepped from, inside the
    absorbed stretch from round 2336 on, fails the state test, inside or at an edge
    of its window (the ten rounds between two records, tested together): the rounds
    before it stay absorbed, it and the rest of its chunk of 292 rounds draw their
    masks, as a test of each round would have it, and the next chunk absorbs again.
    The bytes are those of a run drawing every round, and the kernel steps at most
    one window of rounds more than the run's."""
    def near_zero(dst):
        dst.mu[1, 5, 0] = 1e-300

    with nudged_at(nudged - 1, near_zero):
        kernel, counts = count_kernel_rounds()
        with kernel:
            absorbed = assert_absorption_changes_no_output(*mc_noisy_run(), [41, 42])
    chunk = chunk_rounds(2, 14, 1)
    next_chunk = chunk * (nudged // chunk + 1)
    assert absorbed == list(range(8 * chunk, nudged)) + list(range(next_chunk, 5000))
    assert counts[1] == 5000 <= counts[0] <= 5000 + 10


def test_a_retired_trial_stops_absorption():
    """A trial that diverges inside the absorbed stretch is zeroed in place, and a
    zero entry never passes the state test: no later round is absorbed, and the run
    fails with the message and trials of a run drawing every round."""
    def diverge(dst):
        dst.y[1, 3, 0] = np.inf

    failures, absorbed = [], []
    for rule in (True, False):
        with nudged_at(3000, diverge), absorbing(rule, absorbed):
            with pytest.raises(SolverFailure) as caught:
                run(*mc_noisy_run(), [41, 42], keep_states=True)
        failures.append((str(caught.value), caught.value.trials))
    assert failures[0] == failures[1]
    assert failures[0] == ("round 3001: state diverged to non-finite values (trial seeds 42)", [1])
    assert max(absorbed) == 3000
