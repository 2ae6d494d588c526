from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dmtrack import noise
from dmtrack.engine import EngineState, RunConfig, fixed_point_residual, init_state, run, step
from dmtrack.errors import SolverFailure
from dmtrack.harness import PRESETS
from dmtrack.local_solver import argmin_local, solve_all
from dmtrack.noise import NoiseLog, NoiseSchedule, chunk_rounds
from dmtrack.oracle import solve_dual
from dmtrack.problem import AgentSpec, BoxSet, ProblemInstance, QuadraticCost
from dmtrack.topology import metropolis_weights, ring_plus_random


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
    nxt = step(st, inst, W, NoiseSchedule.disabled(1), cfg, seed=0)
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
    nxt = step(state, inst, W, NoiseSchedule.disabled(2), cfg, seed=0)
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
    nxt = step(st, inst, W, NoiseSchedule.disabled(2), cfg, seed=0)
    assert np.allclose(nxt.mu, W.W @ mu0, atol=1e-15)
    assert np.allclose(nxt.x, solve_all(inst, nxt.mu), atol=1e-15)


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
    assert np.array_equal(a.noise_log.zeta, b.noise_log.zeta)
    assert not np.array_equal(a.final_state.x, c.final_state.x)


def test_replay_reproduces_and_zero_log_equals_disabled():
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=40)
    noisy = run(inst, W, NoiseSchedule.uniform(2, q=0.9), cfg, seed=5)
    assert noisy.noise_log is noisy.noise_log  # built on first access, then kept
    assert noisy.noise_log.eta.shape == (40, 2, 1)
    again = run(inst, W, NoiseSchedule.disabled(2), cfg, seed=99, replay=noisy.noise_log)
    assert np.array_equal(noisy.final_state.x, again.final_state.x)
    assert np.array_equal(noisy.tracking_residual, again.tracking_residual)
    assert again.noise_log.eta.tobytes() == noisy.noise_log.eta.tobytes()

    zero_log = NoiseLog(eta=np.zeros((40, 2, 1)), zeta=np.zeros((40, 2, 1)))
    replayed = run(inst, W, NoiseSchedule.uniform(2, q=0.9), cfg, seed=5, replay=zero_log)
    clean = run(inst, W, NoiseSchedule.disabled(2), cfg, seed=5)
    assert np.array_equal(replayed.final_state.x, clean.final_state.x)

    short = NoiseLog(eta=np.zeros((10, 2, 1)), zeta=np.zeros((10, 2, 1)))
    with pytest.raises(ValueError):
        run(inst, W, NoiseSchedule.disabled(2), cfg, seed=0, replay=short)
    with pytest.raises(ValueError, match="trials"):
        run(inst, W, NoiseSchedule.disabled(2), cfg, seed=[0, 1], replay=noisy.noise_log)


def test_regenerated_noise_log_replays_its_batch():
    """The on-demand log of a batched run reproduces every trial when replayed."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=60, record_every=7)
    sched = NoiseSchedule.uniform(2, q=0.95)
    x_star = np.ones((2, 1))
    batch = run(inst, W, sched, cfg, [3, 4, 5], x_star=x_star)
    log = batch.noise_log
    assert log.eta.shape == (3, 60, 2, 1) and log.rounds == 60
    assert log.zeta_sum_before(60).shape == (3, 1)
    again = run(inst, W, NoiseSchedule.disabled(2), cfg, [3, 4, 5], replay=log, x_star=x_star)
    for key in ("mse", "consensus_mu", "tracking_residual", "feasibility"):
        assert getattr(again, key).tobytes() == getattr(batch, key).tobytes()
    assert again.final_state.y.tobytes() == batch.final_state.y.tobytes()
    single = run(inst, W, sched, cfg, 4)
    assert single.noise_log.zeta.tobytes() == log.zeta[1].tobytes()


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
    out.update(eta=pick(tr.noise_log.eta), zeta=pick(tr.noise_log.zeta))
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
    replayed = run(
        inst, W, NoiseSchedule.disabled(inst.n), cfg, seeds, x_star=x_star,
        keep_states=keep_states, replay=batch.noise_log,
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


def test_tracking_identity_under_noise():
    """Recorded residual is the normalized defect of
    sum_i y_i(k) - sum_i (A_i x_i(k) - d_i) - sum_{t<k} sum_i zeta_i(t)."""
    inst, W = symmetric2()
    cfg = RunConfig(alpha=0.45, iters=300)
    tr = run(inst, W, NoiseSchedule.uniform(2, q=0.98), cfg, seed=8, keep_states=True)
    assert tr.max_tracking_residual() <= 1e-12

    # independent recomputation at the final round from the raw log
    A = np.stack([a.A for a in inst.agents])
    d = np.stack([a.d for a in inst.agents])
    mismatch = (np.einsum("imp,ip->im", A, tr.final_state.x) - d).sum(axis=0)
    lhs = tr.final_state.y.sum(axis=0)
    rhs = mismatch + tr.noise_log.zeta_sum_before(300)
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
    log = NoiseLog(eta=eta, zeta=np.zeros_like(eta))
    with pytest.raises(SolverFailure, match=r"round 6: .*seeds 11, 13") as caught:
        run(inst, W, NoiseSchedule.disabled(2), cfg, [10, 11, 12, 13], replay=log)
    assert caught.value.trials == [1, 3]


def test_noisy_stationary_point_is_the_shifted_optimum():
    """With decaying masks the iterates settle at the optimum of a problem
    whose demand absorbed the accumulated zeta mass: for quadratics
    x_i(inf) = x_i* - a_i S / (2 u_i H) with H = sum_j a_j^2 / (2 u_j)."""
    inst, W = symmetric2()
    sol = solve_dual(inst)
    cfg = RunConfig(alpha=0.45, iters=2500, record_every=2500)
    tr = run(inst, W, NoiseSchedule.uniform(2, q=0.98), cfg, seed=77, x_star=sol.x_star)
    s_total = float(tr.noise_log.zeta.sum())
    # symmetric2: a_i = 1, 2 u_i = 2, so H = 1 and each agent moves by -S/2
    predicted = sol.x_star - s_total / 2.0
    assert np.allclose(tr.final_state.x, predicted, atol=1e-9)
    assert np.linalg.norm(tr.final_state.y) <= 1e-9
    mu_pred = sol.mu_star - s_total  # mu* shifts by -S/H
    assert np.allclose(tr.final_state.mu, mu_pred, atol=1e-8)
    assert tr.mse[-1] == pytest.approx(s_total**2 / 2.0, rel=1e-9)
