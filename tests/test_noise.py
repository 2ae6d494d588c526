import math
import operator
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmtrack import noise
from dmtrack.noise import NoiseSchedule, chunk_rounds, draw_rounds, iter_masks, unit_draws


def numpy_round_uniforms(seed, k, size):
    """Reference stream of round k: numpy's own Philox4x64-10 generator."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k])).random(size)


def laplace_from_uniform(u, theta):
    """Inverse CDF of Laplace(theta) at u in [-1/2, 1/2), -theta sign(u) log(1 - 2|u|),
    written out in the order of its first implementation: (sign(u) (-theta)) log(..)."""
    t = np.log(np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny))
    return (np.sign(u) * -theta) * t


def per_round(spans):
    """(masks, zeta_sum) of each round of iter_masks' spans, as the views it hands out;
    masks is None in an absorbed span."""
    for _, masks, sums, _ in spans:
        yield from zip(repeat(None) if masks is None else masks, sums)


def draw_one(schedule, k, seed, m):
    """The masks of every agent at round k of one seed: (eta, zeta), each (n, m)."""
    eta, zeta = draw_rounds(schedule, [k], [seed], m)
    return eta[0, 0], zeta[0, 0]


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule.uniform(2, d_eta=-1.0)
    with pytest.raises(ValueError):
        NoiseSchedule.uniform(2, q=1.0)  # decay must be strictly below 1
    with pytest.raises(ValueError):
        NoiseSchedule.uniform(2, q=0.0)
    with pytest.raises(ValueError):
        NoiseSchedule.uniform(2, q=float("nan"))


def test_uniform_broadcast_and_theta():
    s = NoiseSchedule(d_eta=np.full(3, 2.0), d_zeta=np.full(3, 0.5), q=np.full(3, 0.9))
    assert s.n == 3
    assert s.theta(2).shape == (3, 2)
    assert np.allclose(s.theta(2), [[2.0 * 0.9**2, 0.5 * 0.9**2]] * 3)
    uniform = NoiseSchedule.uniform(3, d_eta=2.0, d_zeta=0.5, q=0.9)
    assert uniform.theta(2).tobytes() == s.theta(2).tobytes()
    per_agent = NoiseSchedule(
        d_eta=np.array([1.0, 2.0]),
        d_zeta=np.array([0.0, 1.0]),
        q=np.array([0.9, 0.95]),
    )
    assert np.allclose(per_agent.theta(1), [[0.9, 0.0], [1.9, 0.95]])


def test_enabled_flag():
    assert NoiseSchedule.uniform(2).enabled is True
    assert NoiseSchedule.disabled(2).enabled is False
    assert NoiseSchedule.uniform(2, d_eta=0.0, d_zeta=0.0).enabled is False


def test_disabled_draws_are_exact_zeros():
    eta, zeta = draw_one(NoiseSchedule.disabled(3), 5, seed=1, m=2)
    assert eta.shape == (3, 2) and zeta.shape == (3, 2)
    assert not eta.any() and not zeta.any()


def test_a_schedule_with_every_scale_zero_draws_nothing():
    """`enabled` alone decides whether masks are drawn: with every scale 0 no
    uniform is generated, and the masks are exact zeros."""
    schedule = NoiseSchedule.uniform(3, d_eta=0.0, d_zeta=0.0, q=0.9)
    with mock.patch.object(noise, "_uniforms", side_effect=AssertionError("drew uniforms")):
        eta, zeta = draw_rounds(schedule, range(4), [1, 2], 2)
    assert eta.tobytes() == zeta.tobytes() == np.zeros((4, 2, 3, 2)).tobytes()


def test_laplace_moments_at_one_million_samples():
    """The engine's masks: round 0 of 1000 consecutive seeds, 500 agents, both channels."""
    theta = 1.7
    schedule = NoiseSchedule.uniform(500, d_eta=theta, d_zeta=theta, q=0.98)
    eta, zeta = draw_rounds(schedule, [0], range(2024, 3024), 1)
    x = np.concatenate([eta.ravel(), zeta.ravel()])
    assert x.shape == (1_000_000,)
    assert abs(np.mean(np.abs(x)) - theta) <= 0.01 * theta
    assert abs(np.mean(x**2) - 2 * theta**2) <= 0.05 * 2 * theta**2


def test_draws_are_deterministic_functions_of_coordinates():
    s = NoiseSchedule.uniform(4, q=0.95)
    a = draw_one(s, 3, seed=9, m=2)
    b = draw_one(s, 3, seed=9, m=2)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = draw_one(s, 4, seed=9, m=2)
    d = draw_one(s, 3, seed=10, m=2)
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0], d[0])


def test_single_agent_view_matches_block():
    """Agent i's masks are row i of the round's block, whatever the number of agents."""
    eta, zeta = draw_one(NoiseSchedule.uniform(5, q=0.9), 2, seed=3, m=1)
    for n in (1, 2, 3):
        ei, zi = draw_one(NoiseSchedule.uniform(n, q=0.9), 2, seed=3, m=1)
        assert ei.tobytes() == eta[:n].tobytes()
        assert zi.tobytes() == zeta[:n].tobytes()
    with pytest.raises(ValueError):
        draw_one(NoiseSchedule.uniform(5, q=0.9), -1, seed=3, m=1)


def test_scales_are_linear_in_d_and_stream_aligned():
    """Changing one scale must not move any other agent's draws."""
    base = NoiseSchedule.uniform(3, d_eta=1.0, d_zeta=1.0, q=0.9)
    doubled = NoiseSchedule.uniform(3, d_eta=1.0, d_zeta=2.0, q=0.9)
    e1, z1 = draw_one(base, 4, seed=6, m=2)
    e2, z2 = draw_one(doubled, 4, seed=6, m=2)
    assert np.array_equal(e1, e2)  # eta channel untouched
    assert np.allclose(z2, 2.0 * z1, rtol=1e-15)


def test_decay_rescales_draws_geometrically():
    s1 = NoiseSchedule.uniform(2, q=0.9)
    s2 = NoiseSchedule.uniform(2, q=0.8)
    k = 3
    _, z1 = draw_one(s1, k, seed=0, m=1)
    _, z2 = draw_one(s2, k, seed=0, m=1)
    assert np.allclose(z2, z1 * (0.8 / 0.9) ** k, rtol=1e-14)


def test_accumulated_variance_matches_series():
    # per-agent injected variance: sum_k 2 d^2 q^(2k) = 2 d^2 / (1 - q^2);
    # agent slots double as Monte Carlo samples since in-round draws are iid
    trials = 1000
    s = NoiseSchedule.uniform(trials, q=0.98)
    # theta(900) ~ 1e-8, the remaining mass is negligible
    _, zeta = draw_rounds(s, range(900), [2468], 1)
    totals = zeta[:, 0, :, 0].sum(axis=0)
    expect = 2.0 / (1.0 - 0.98**2)
    sigma = np.std(totals**2) / np.sqrt(trials)
    assert abs(np.mean(totals**2) - expect) <= 4.0 * sigma


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_vectorized_philox_matches_numpy(seed):
    seeds = [seed, seed + 3]  # the trial offset crosses 2**63 for the last seed
    rounds = [0, 1, 2, 5, 4095, 4096, 2**40]
    for width in (1, 4, 6, 28):  # partial and whole blocks
        u = noise._uniforms(noise._seed_keys(seeds), rounds, width)
        assert u.shape == (len(rounds), 2, width)
        for r, k in enumerate(rounds):
            for t, s in enumerate(seeds):
                assert u[r, t].tobytes() == numpy_round_uniforms(s, k, width).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_chunked_masks_match_numpy_reference(monkeypatch, seed):
    """Masks built a chunk at a time, each round's [eta; zeta] stacked in one block, equal
    the per-round numpy construction, and the running tracker-mask total equals adding
    each round's agent sum in turn. Every chunk writes into the same two buffers, so
    each round's block and total are copied as they come."""
    n, m = 3, 2  # 12 doubles per round: 3 blocks
    monkeypatch.setattr(noise, "MAX_CHUNK_BLOCKS", 24)
    seeds = [seed, seed + 1]
    assert chunk_rounds(len(seeds), n, m) == 4
    schedule = NoiseSchedule(
        d_eta=np.array([1.0, 0.5, 2.0]),
        d_zeta=np.array([1.5, 1.0, 0.0]),
        q=np.array([0.9, 0.97, 0.98]),
    )
    masks, views = [], []
    for stacked, zeta_sum in per_round(iter_masks(schedule, seeds, 10, m)):  # chunks end at 3, 7
        masks.append((stacked.copy(), zeta_sum.copy()))
        views.append((stacked, zeta_sum))
    assert len(masks) == 10
    assert all(np.shares_memory(a, b) for a, b in zip(views[0], views[4]))
    zeta_cum = np.zeros((len(seeds), m))
    for k, (stacked, zeta_sum) in enumerate(masks):
        assert stacked.shape == (2, len(seeds), n, m)
        eta, zeta = stacked
        zeta_cum = zeta_cum + zeta.sum(axis=1)
        assert zeta_sum.tobytes() == zeta_cum.tobytes()
        for t, s in enumerate(seeds):
            u = numpy_round_uniforms(s, k, (n, 2 * m)) - 0.5
            expect_eta = laplace_from_uniform(
                u[:, :m], (schedule.d_eta * schedule.q**k)[:, None]
            )
            expect_zeta = laplace_from_uniform(
                u[:, m:], (schedule.d_zeta * schedule.q**k)[:, None]
            )
            assert eta[t].tobytes() == expect_eta.tobytes()
            assert zeta[t].tobytes() == expect_zeta.tobytes()
            single_eta, single_zeta = draw_one(schedule, k, s, m)
            assert single_eta.tobytes() == eta[t].tobytes()
            assert single_zeta.tobytes() == zeta[t].tobytes()


@pytest.mark.parametrize("shared", [False, True])
def test_unit_draws_scale_to_the_written_out_masks(monkeypatch, shared):
    """(-theta) L of the theta-free unit draw L has the bytes of the written-out
    (sign(u) (-theta)) log(..), signed zeros included: at exact-zero uniforms, at
    theta 0, subnormal and huge, drawn a chunk at a time or scaled from copies of
    shared `unit_draws` of more rounds, which a shorter run with chunks of
    another size read first."""
    n, m, iters = 3, 1, 11
    original = noise._uniforms

    def with_zeros(keys, rounds, width):
        u = original(keys, rounds, width)
        u[u < 0.2] = 0.5  # elementwise, so a pure function of (seed, round, coordinate)
        return u

    monkeypatch.setattr(noise, "_uniforms", with_zeros)
    schedule = NoiseSchedule(
        d_eta=np.array([0.0, 5e-324, 1e300]),
        d_zeta=np.array([1e300, 1.0, 5e-324]),
        q=np.array([0.99, 0.6, 0.9]),
    )
    seeds = [4, 5]
    draws = None
    if shared:
        draws = unit_draws(seeds, range(iters + 2), 2 * n * m)
        monkeypatch.setattr(noise, "MAX_CHUNK_BLOCKS", 12)  # 3 rounds of 2 seeds x 2 blocks
        list(iter_masks(NoiseSchedule.uniform(n), seeds, 4, m, draws))
    monkeypatch.setattr(noise, "MAX_CHUNK_BLOCKS", 16)  # 4 rounds a chunk
    spans = iter_masks(schedule, seeds, iters, m, draws)
    blocks = np.stack([stacked.copy() for stacked, _ in per_round(spans)])
    zero_uniforms = 0
    for k, stacked in enumerate(blocks):
        for t, s in enumerate(seeds):
            u = numpy_round_uniforms(s, k, (n, 2 * m))
            zero_uniforms += np.count_nonzero(u < 0.2)
            u[u < 0.2] = 0.5
            u -= 0.5
            expect = laplace_from_uniform(u.reshape(n, 2, m), schedule.theta(k)[:, :, None])
            assert stacked[:, t].tobytes() == expect.transpose(1, 0, 2).tobytes(), (k, s)
    assert zero_uniforms > 10
    zeros = np.signbit(blocks[blocks == 0.0])
    assert zeros.any() and not zeros.all()  # -0.0 and 0.0 masks both occur


def test_vector_rounds_scale_like_scalar_rounds():
    """theta(k) of a vector of rounds has the bytes of theta at each round, and each
    column the bytes of its scale times its own q**k."""
    rng = np.random.default_rng(5)
    q = rng.uniform(0.5, 1.0, size=4000)
    d_eta, d_zeta = rng.uniform(0.0, 3.0, size=(2, 4000))
    s = NoiseSchedule(d_eta=d_eta, d_zeta=d_zeta, q=q)
    ks = np.arange(12)
    table = s.theta(ks)
    assert table.shape == (12, 4000, 2)
    for k in ks:
        assert table[k].tobytes() == s.theta(int(k)).tobytes()
        assert table[k, :, 0].tobytes() == (d_eta * q ** int(k)).tobytes()
        assert table[k, :, 1].tobytes() == (d_zeta * q ** int(k)).tobytes()


def test_seeds_out_of_range_are_rejected():
    with pytest.raises(ValueError):
        unit_draws([-1], [0], 4)


def entries_near(edge):
    """Entries of either sign around and above `edge`: exact powers of two from
    below edge up, the next double above edge, and edge times floats in [1, 2**60]."""
    top = math.frexp(edge)[1]
    return st.builds(
        operator.mul,
        st.sampled_from([1.0, -1.0]),
        st.one_of(
            st.integers(top - 2, min(top + 60, 1023)).map(lambda e: 2.0**e),
            st.just(np.nextafter(edge, np.inf)),
            st.floats(1.0, 2.0**60).map(lambda f: f * edge),
        ),
    )


def with_one_special(data, a, edge):
    """a, or half the time a with one entry replaced by a signed zero, a subnormal,
    the least normal double, +-edge or any float."""
    if data.draw(st.booleans()):
        special = st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1060), edge, -edge]),
            st.floats(-1e300, 1e300),
        )
        a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(special)
    return a


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_absorbed_rounds_change_no_bit(data):
    """Whenever iter_masks absorbs a round, its masks, the written-out masks of
    draw_rounds and masks at +-B (B = 709 max theta at the round) change no bit of
    the state or of the running tracker-mask total, and a round it draws is drawn
    as without a state. Chunks are one round long, so round 1 starts a chunk; round
    0's draws put a chosen total in place (zero included) and round 1's are real
    unit draws or the largest a draw can be, |log(tiny)|."""
    n, m, S = (data.draw(st.integers(1, k)) for k in (3, 2, 2))
    seeds = [3, 4][:S]
    decays = st.sampled_from([1e-300, 2.0**-900, 1e-20, 0.5, 0.98])
    sched = NoiseSchedule(
        d_eta=data.draw(arrays(float, n, elements=st.sampled_from([0.0, 5e-324, 2.0**-40, 1.0]))),
        d_zeta=np.ones(n),
        q=data.draw(arrays(float, n, elements=decays)),
    )
    bound = 709.0 * sched.theta(1).max()
    edges = bound * 2.0**55, n * bound * 1.001 * 2.0**55  # of the state and of the total
    s, carry = (
        with_one_special(data, data.draw(arrays(float, shape, elements=entries_near(edge))), edge)
        for shape, edge in zip([(2, S, n, m), (S, m)], edges)
    )
    draws = unit_draws(seeds, range(2), 2 * n * m)
    draws[0] = 0.0
    draws[0].reshape(S, n, 2, m)[:, 0, 1] = -carry  # agent 0's round-0 tracker masks are carry
    if data.draw(st.booleans()):
        draws[1] = np.copysign(np.log(np.finfo(float).tiny), draws[1])
    with mock.patch.object(noise, "MAX_CHUNK_BLOCKS", S * -(-2 * n * m // 4)):
        off = [(a.copy(), z.copy()) for a, z in per_round(iter_masks(sched, seeds, 2, m, draws))]
        spans = iter_masks(sched, seeds, 2, m, draws, state=lambda: s)
        on = [(a, z.copy()) for a, z in per_round(spans)]
    total, (masks, after) = off[0][1], off[1]
    assert on[0][0] is not None  # chunk 0 is never absorbed
    if on[1][0] is not None:
        assert on[1][0].tobytes() == masks.tobytes() and on[1][1].tobytes() == after.tobytes()
        return
    event("absorbed")
    assert on[1][1].tobytes() == after.tobytes() == total.tobytes()
    written_out = np.stack(draw_rounds(sched, [1], seeds, m))[:, 0]
    for e in (masks, written_out, np.full_like(s, bound), np.full_like(s, -bound)):
        assert (s + e).tobytes() == s.tobytes()
        assert (total + e[1].sum(axis=1)).tobytes() == total.tobytes()
