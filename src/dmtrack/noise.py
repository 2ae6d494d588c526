"""Decaying Laplace masks from counter-based streams.

Each agent i adds masks eta_i(k) to its dual and zeta_i(k) to its tracker
before broadcasting. Coordinates are independent Laplace draws with scales
theta_eta(i, k) = d_eta_i * q_eta_i**k and theta_zeta(i, k) = d_zeta_i * q_zeta_i**k.

Randomness is counter-based. Round k of the trial with seed s reads the
stream of np.random.Philox(key=s, counter=[0, 0, 0, k]): block b of that
stream is Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) applied to

    key     = [s mod 2**64, s >> 64]
    counter = [b + 1, 0, 0, k]      (numpy increments word 0 before a block)

and each 64-bit output word u gives the double (u >> 11) * 2**-53. The round
uses the first 2 n m doubles as an (n, 2m) row-major block: row i belongs to
agent i, eta coordinates first, then zeta. A draw is therefore a pure
function of (seed, agent, round, mask kind, coordinate), independent of
evaluation order and of how many trials run together.

`philox4x64` evaluates the generator with numpy over a whole
(round, seed, block) grid at once, so the engine builds the masks of every
trial of a batch for a chunk of rounds in one call (`iter_masks`). A chunk
holds at most MAX_CHUNK_BLOCKS blocks, which keeps its buffers independent
of the number of trials times the number of rounds. No mask is stored:
`draw_rounds` regenerates the masks of any rounds of any run. `iter_masks`
yields each round's masks as one contiguous (2, S, n, m) block [eta; zeta],
the layout of the engine's stacked [mu; y], with the running total of the
tracker masks, which it accumulates once per chunk. `NoiseSchedule.enabled`
(some scale is positive) is the one rule for whether a run has masks: the
engine and `draw_rounds` draw none for a schedule whose every scale is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor for 1 - 2|u| so the inverse CDF never evaluates log(0).
_CDF_FLOOR = np.finfo(float).tiny

# Largest number of Philox blocks (4 doubles each) generated in one chunk.
MAX_CHUNK_BLOCKS = 1 << 12

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # key schedule increments
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _as_per_agent(value, n, name):
    arr = np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value}")
    return arr


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-agent scales and decay coefficients; `disabled` sets every scale to 0."""

    d_eta: np.ndarray
    d_zeta: np.ndarray
    q_eta: np.ndarray
    q_zeta: np.ndarray

    def __post_init__(self):
        n = np.atleast_1d(np.asarray(self.d_eta, dtype=float)).shape[0]
        d_eta = _as_per_agent(self.d_eta, n, "d_eta")
        d_zeta = _as_per_agent(self.d_zeta, n, "d_zeta")
        q_eta = _as_per_agent(self.q_eta, n, "q_eta")
        q_zeta = _as_per_agent(self.q_zeta, n, "q_zeta")
        if np.any(d_eta < 0) or np.any(d_zeta < 0):
            raise ValueError("noise scales must be nonnegative")
        for name, q in (("q_eta", q_eta), ("q_zeta", q_zeta)):
            if np.any(q <= 0.0) or np.any(q >= 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1)")
        object.__setattr__(self, "d_eta", d_eta)
        object.__setattr__(self, "d_zeta", d_zeta)
        object.__setattr__(self, "q_eta", q_eta)
        object.__setattr__(self, "q_zeta", q_zeta)

    @classmethod
    def uniform(cls, n, d_eta=1.0, d_zeta=1.0, q=0.98, q_eta=None, q_zeta=None):
        """Same scales for every agent; per-mask decay defaults to the shared q."""
        q_eta = q if q_eta is None else q_eta
        q_zeta = q if q_zeta is None else q_zeta
        return cls(
            d_eta=np.full(n, float(d_eta)),
            d_zeta=np.full(n, float(d_zeta)),
            q_eta=np.full(n, float(q_eta)),
            q_zeta=np.full(n, float(q_zeta)),
        )

    @classmethod
    def disabled(cls, n):
        return cls(
            d_eta=np.zeros(n),
            d_zeta=np.zeros(n),
            q_eta=np.full(n, 0.5),
            q_zeta=np.full(n, 0.5),
        )

    @property
    def n(self):
        return self.d_eta.shape[0]

    @property
    def enabled(self):
        """Whether any mask has a positive scale; a run draws masks iff this holds."""
        return bool(np.any(self.d_eta > 0) or np.any(self.d_zeta > 0))

    def theta_eta(self, k):
        """Scales of the dual masks at round k, shape (n,); rounds of shape S give S + (n,)."""
        return self.d_eta * self.q_eta ** _exponent(k)

    def theta_zeta(self, k):
        return self.d_zeta * self.q_zeta ** _exponent(k)


def _exponent(k):
    # A float array exponent makes scalar and vector rounds take the same pow()
    # path; a Python int exponent of 2 would take numpy's squaring shortcut.
    return np.asarray(k, dtype=float)[..., None]


def _laplace_from_uniform(u, theta):
    """Inverse CDF of Laplace(theta) applied to u in [-1/2, 1/2): -theta sign(u) log(1 - 2|u|).

    Evaluated in place on two temporaries: at 100 trials that makes mask
    generation about 9 % faster than allocating one array per operation.
    """
    t = np.abs(u)
    t *= 2.0
    np.subtract(1.0, t, out=t)
    np.maximum(t, _CDF_FLOOR, out=t)  # the floor keeps log(0) away
    np.log(t, out=t)
    out = np.sign(u)
    out *= -theta
    out *= t
    return out


def _mulhilo(a, mult):
    """(high, low) 64-bit words of the 128-bit products a * mult, elementwise."""
    m_lo, m_hi = np.uint64(mult & 0xFFFFFFFF), np.uint64(mult >> 32)
    a_lo = a & _LO32
    hi = a >> _S32
    mid = hi * m_lo
    t = a_lo * m_lo
    t >>= _S32
    mid += t
    a_lo *= m_hi  # the cross term a_lo * m_hi
    np.bitwise_and(mid, _LO32, out=t)
    a_lo += t
    hi *= m_hi
    mid >>= _S32
    hi += mid
    a_lo >>= _S32
    hi += a_lo
    return hi, a * np.uint64(mult)


def philox4x64(counter, key):
    """Philox4x64-10 of uint64 counter words (4) and key words (2), all of one shape."""
    c0, c1, c2, c3 = counter
    k0, k1 = (k.copy() for k in key)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return c0, c1, c2, c3


def _seed_keys(seeds):
    """Philox key words (k0, k1) of each seed, as uint64 arrays of shape (S,)."""
    seeds = [int(s) for s in seeds]
    if any(s < 0 or s >= 1 << 128 for s in seeds):
        raise ValueError(f"seeds must lie in [0, 2^128), got {seeds}")
    k0 = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    k1 = np.array([s >> 64 for s in seeds], dtype=np.uint64)
    return k0, k1


def _uniforms(keys, rounds, width):
    # Every word array is flat and contiguous in (round, seed, block) order:
    # numpy then runs each operation as one loop, with no broadcasting.
    k0, k1 = keys
    rounds = np.asarray(rounds, dtype=np.uint64)
    blocks = -(-width // 4)
    R, S = rounds.shape[0], k0.shape[0]
    counter = (
        np.tile(np.arange(1, blocks + 1, dtype=np.uint64), R * S),
        np.zeros(R * S * blocks, dtype=np.uint64),
        np.zeros(R * S * blocks, dtype=np.uint64),
        np.repeat(rounds, S * blocks),
    )
    key = (np.tile(np.repeat(k0, blocks), R), np.tile(np.repeat(k1, blocks), R))
    u = np.stack(philox4x64(counter, key), axis=-1).reshape(R, S, 4 * blocks)[..., :width]
    return (u >> np.uint64(11)) * 2.0**-53


def uniforms(seeds, rounds, width):
    """First `width` doubles in [0, 1) of every (round, seed) stream; shape (R, S, width)."""
    return _uniforms(_seed_keys(seeds), rounds, width)


def _masks(schedule, rounds, keys, m):
    """Masks of every agent for each round and seed, shape (R, S, n, 2, m): eta, then zeta."""
    R, n = len(rounds), schedule.n
    u = _uniforms(keys, rounds, 2 * n * m).reshape(R, -1, n, 2, m)
    u -= 0.5
    theta = np.stack([schedule.theta_eta(rounds), schedule.theta_zeta(rounds)], axis=-1)
    return _laplace_from_uniform(u, theta[:, None, :, :, None])


def draw_rounds(schedule, rounds, seeds, m):
    """Masks of every agent for each round and seed: (eta, zeta), each (R, S, n, m).

    Scaling by theta keeps stream alignment: a mask of scale 0 still consumes
    its uniforms, so enabling it does not shift any other draw. A schedule with
    every scale 0 (not `enabled`) draws nothing and returns exact zeros.
    """
    rounds = np.asarray(rounds, dtype=np.int64)
    if rounds.size and rounds.min() < 0:
        raise ValueError(f"round index must be nonnegative, got {rounds.min()}")
    if not schedule.enabled:
        shape = (rounds.shape[0], len(seeds), schedule.n, m)
        return np.zeros(shape), np.zeros(shape)
    masks = _masks(schedule, rounds, _seed_keys(seeds), m)
    return masks[..., 0, :], masks[..., 1, :]


def chunk_rounds(trials, n, m):
    """Rounds per mask chunk for a batch of `trials` seeds."""
    blocks = -(-2 * n * m // 4)
    return max(1, MAX_CHUNK_BLOCKS // (trials * blocks))


def iter_masks(schedule, seeds, iters, m):
    """(masks, zeta_sum) of rounds k = 0..iters-1, generated a chunk of rounds at a time.

    masks is the (2, S, n, m) block [eta; zeta] of round k, a view into the
    chunk's buffer, and zeta_sum (S, m) is sum_{t<=k} sum_i zeta_i(t).
    """
    step = chunk_rounds(len(seeds), schedule.n, m)
    keys = _seed_keys(seeds)
    carry = np.zeros((len(seeds), m))
    for k0 in range(0, iters, step):
        masks = _masks(schedule, range(k0, min(k0 + step, iters)), keys, m)
        sums = masks[..., 1, :].sum(axis=2)
        sums[0] += carry  # carry + s_0, then + s_1, ...: the order of per-round updates
        carry = np.add.accumulate(sums, axis=0, out=sums)[-1]
        stacked = np.ascontiguousarray(masks.transpose(0, 3, 1, 2, 4))  # (R, 2, S, n, m)
        yield from zip(stacked, sums)
