"""Decaying Laplace masks and their audit log.

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
of the number of trials times the number of rounds.
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
    """Per-agent scales and decay coefficients, or the all-zero schedule."""

    d_eta: np.ndarray
    d_zeta: np.ndarray
    q_eta: np.ndarray
    q_zeta: np.ndarray
    zero_noise: bool = False

    def __post_init__(self):
        n = np.atleast_1d(np.asarray(self.d_eta, dtype=float)).shape[0]
        d_eta = _as_per_agent(self.d_eta, n, "d_eta")
        d_zeta = _as_per_agent(self.d_zeta, n, "d_zeta")
        q_eta = _as_per_agent(self.q_eta, n, "q_eta")
        q_zeta = _as_per_agent(self.q_zeta, n, "q_zeta")
        if np.any(d_eta < 0) or np.any(d_zeta < 0):
            raise ValueError("noise scales must be nonnegative")
        if not self.zero_noise:
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
            zero_noise=True,
        )

    @property
    def n(self):
        return self.d_eta.shape[0]

    @property
    def enabled(self):
        return bool(not self.zero_noise and (np.any(self.d_eta > 0) or np.any(self.d_zeta > 0)))

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
    """Inverse CDF of Laplace(theta) applied to u in [-1/2, 1/2)."""
    t = np.maximum(1.0 - 2.0 * np.abs(u), _CDF_FLOOR)
    return -theta * np.sign(u) * np.log(t)


def sample_laplace(theta, stream, size=None):
    """Exact Laplace(theta) draw(s) via the inverse CDF; one uniform per draw.

    E|x| = theta and E[x^2] = 2 theta^2. Returns a scalar when size is None.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    u = stream.random(size) - 0.5
    x = _laplace_from_uniform(u, theta)
    return float(x) if size is None else x


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


def draw_rounds(schedule, rounds, seeds, m, keys=None):
    """Masks of every agent for each round and seed: (eta, zeta), each (R, S, n, m).

    `keys` may pass the seeds' precomputed Philox keys (`_seed_keys`).
    """
    rounds = np.asarray(rounds, dtype=np.int64)
    if rounds.size and rounds.min() < 0:
        raise ValueError(f"round index must be nonnegative, got {rounds.min()}")
    n = schedule.n
    shape = (rounds.shape[0], len(seeds), n, m)
    if schedule.zero_noise:
        return np.zeros(shape), np.zeros(shape)
    keys = _seed_keys(seeds) if keys is None else keys
    u = _uniforms(keys, rounds, 2 * n * m).reshape(shape[:3] + (2 * m,))
    u -= 0.5
    eta = _laplace_from_uniform(u[..., :m], schedule.theta_eta(rounds)[:, None, :, None])
    zeta = _laplace_from_uniform(u[..., m:], schedule.theta_zeta(rounds)[:, None, :, None])
    return eta, zeta


def chunk_rounds(trials, n, m):
    """Rounds per mask chunk for a batch of `trials` seeds."""
    blocks = -(-2 * n * m // 4)
    return max(1, MAX_CHUNK_BLOCKS // (trials * blocks))


def _mask_chunks(schedule, seeds, iters, m):
    """(eta, zeta) of rounds 0..iters-1, each (R, S, n, m), a chunk of R rounds at a time."""
    step = chunk_rounds(len(seeds), schedule.n, m)
    keys = _seed_keys(seeds)
    for k0 in range(0, iters, step):
        yield draw_rounds(schedule, range(k0, min(k0 + step, iters)), seeds, m, keys=keys)


def iter_masks(schedule, seeds, iters, m):
    """(eta, zeta) of rounds 0..iters-1, each (S, n, m), generated a chunk at a time."""
    for eta, zeta in _mask_chunks(schedule, seeds, iters, m):
        yield from zip(eta, zeta)


def draw_round_all(schedule, k, seed, m):
    """Masks for every agent at round k: returns (eta, zeta), each (n, m).

    Scaling by theta keeps stream alignment: a disabled mask (scale 0) still
    consumes its uniforms, so enabling it does not shift any other draw.
    """
    eta, zeta = draw_rounds(schedule, [k], [seed], m)
    return eta[0, 0], zeta[0, 0]


def draw_round(schedule, k, seed, agent, m):
    """Masks (eta_i, zeta_i) for one agent; identical to its draw_round_all slice."""
    if not 0 <= agent < schedule.n:
        raise ValueError(f"agent index {agent} out of range")
    eta, zeta = draw_round_all(schedule, k, seed, m)
    return eta[agent].copy(), zeta[agent].copy()


def noise_log(schedule, seeds, iters, m):
    """The masks of rounds 0..iters-1 as a NoiseLog of shape (S, iters, n, m)."""
    chunks = list(_mask_chunks(schedule, seeds, iters, m))
    eta = np.concatenate([eta for eta, _ in chunks]).swapaxes(0, 1)
    zeta = np.concatenate([zeta for _, zeta in chunks]).swapaxes(0, 1)
    return NoiseLog(eta=np.ascontiguousarray(eta), zeta=np.ascontiguousarray(zeta))


@dataclass(eq=False)
class NoiseLog:
    """Recorded masks: eta and zeta with shape (rounds, n, m), or (trials, rounds, n, m)."""

    eta: np.ndarray
    zeta: np.ndarray

    @property
    def rounds(self):
        return self.eta.shape[-3]

    def zeta_sum_before(self, k):
        """sum over t < k and over agents of zeta_i(t), shape (m,) or (trials, m)."""
        return self.zeta[..., :k, :, :].sum(axis=(-3, -2))
