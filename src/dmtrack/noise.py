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
holds `chunk_rounds` rounds: at most MAX_CHUNK_BLOCKS blocks, or one round
where a round has more (above 585 trials on microgrid14), so its buffers do
not grow with the number of rounds. A mask of scale theta is (-theta) L of a
theta-free unit draw L = sign(u) log(max(1 - 2|u|, tiny)). Runs of one seed
that differ only in their scales can share one array of `unit_draws`, which
each chunk copies and scales; a run without one draws a chunk at a time and
keeps nothing. `draw_rounds` regenerates the masks of any rounds of any run.
`iter_masks` yields a chunk's masks as one (R, 2, S, n, m) block, each round's
[eta; zeta] in the layout of the engine's stacked [mu; y], with the running
totals of the tracker masks, in two buffers it allocates once per run.
`NoiseSchedule.enabled` (some scale is positive) is the one rule for whether
a run has masks: the engine and `draw_rounds` draw none for a schedule whose
every scale is 0, and `iter_masks` draws none for a round its masks are
absorbed in.

Absorption. A unit draw has |L| <= -log(tiny) < 708.4 and theta falls with k,
so B = 709 max_i max(theta_eta_i(k0), theta_zeta_i(k0)) bounds every mask of
round k0 and later; the factor above 708.4 covers the rounding of theta and
of (-theta) L. If |e| <= B < 2**-55 |s| for a double s, e is below a quarter
of the spacing of the doubles next to s, so s + e rounds to s. The n tracker
masks of a round sum, in any order, to less than 1.001 n B, so a running total
c with 1.001 n B < 2**-55 min |c| absorbs them too. `iter_masks` tests the
total and then the state [mu; y] (`absorbs`) at each chunk start after chunk
0 (whose total starts at 0); a chunk passing both yields no masks, which
changes no output byte. The total then holds through the chunk, as nothing
is added to it and B falls, and the engine tests the states of its later
rounds after stepping a segment of them without masks. That is exact: each
state depends only on the rounds before it, so a passing one is the state
its round is stepped from, and at the first that fails the engine rewinds to
it and draws from there, as a test of each round would. A zero entry (a
retired trial's) never passes, nor a subnormal one while B > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


_FIELDS = ("d_eta", "d_zeta", "q_eta", "q_zeta")


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-agent scales and decay coefficients; `disabled` sets every scale to 0.

    The four per-agent arrays are the rows of one (4, n) array, validated in
    one pass, which also sets `enabled`: whether any mask has a positive scale.
    A run draws masks iff it holds.
    """

    d_eta: np.ndarray
    d_zeta: np.ndarray
    q_eta: np.ndarray
    q_zeta: np.ndarray
    enabled: bool = field(init=False)

    def __post_init__(self):
        values = [getattr(self, name) for name in _FIELDS]
        arrays = [np.asarray(value, dtype=float) for value in values]
        n = arrays[0].shape[0] if arrays[0].ndim else 1
        rows = np.empty((4, n))
        for name, row, arr in zip(_FIELDS, rows, arrays):
            if arr.shape not in ((), (1,), (n,)):
                raise ValueError(f"{name} of shape {arr.shape} does not broadcast to ({n},)")
            row[...] = arr
        # each row's least and greatest entry: NaN where the row holds a NaN, and
        # +inf and -inf, which pass every check below, for an empty row
        lo = rows.min(axis=1, initial=np.inf).tolist()
        hi = rows.max(axis=1, initial=-np.inf).tolist()
        for name, value, least, greatest in zip(_FIELDS, values, lo, hi):
            if not (least > -math.inf and greatest < math.inf):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(lo[:2]) < 0:
            raise ValueError("noise scales must be nonnegative")
        for name, least, greatest in zip(_FIELDS[2:], lo[2:], hi[2:]):
            if least <= 0.0 or greatest >= 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1)")
        for name, row in zip(_FIELDS, rows):
            object.__setattr__(self, name, row)
        object.__setattr__(self, "enabled", max(hi[:2]) > 0.0)

    @classmethod
    def uniform(cls, n, d_eta=1.0, d_zeta=1.0, q=0.98):
        """Same scales for every agent and one decay q for both masks."""
        return cls(
            d_eta=np.full(n, float(d_eta)),
            d_zeta=np.full(n, float(d_zeta)),
            q_eta=np.full(n, float(q)),
            q_zeta=np.full(n, float(q)),
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

    def theta_eta(self, k):
        """Scales of the dual masks at round k, shape (n,); rounds of shape S give S + (n,)."""
        return self.d_eta * self.q_eta ** _exponent(k)

    def theta_zeta(self, k):
        return self.d_zeta * self.q_zeta ** _exponent(k)


def _exponent(k):
    # A float array exponent makes scalar and vector rounds take the same pow()
    # path; a Python int exponent of 2 would take numpy's squaring shortcut.
    return np.asarray(k, dtype=float)[..., None]


def _unit_draws(keys, rounds, width):
    """Unit draws L = sign(u) log(max(1 - 2|u|, tiny)) of u = uniform - 1/2, shape (R, S, width).

    A mask of scale theta is (-theta) L, the inverse CDF -theta sign(u) log(1 - 2|u|)
    of Laplace(theta). The sign is 1, 0 or -1, so the products with it are
    exact and the mask has the bytes of (sign(u) (-theta)) log(..), signed zeros
    included. Evaluated in place on two temporaries (numpy's sign into its own
    input is several times slower than into a new array).
    """
    u = _uniforms(keys, rounds, width)
    u -= 0.5
    t = np.abs(u)
    t *= 2.0
    np.subtract(1.0, t, out=t)
    np.maximum(t, _CDF_FLOOR, out=t)  # the floor keeps log(0) away
    np.log(t, out=t)
    out = np.sign(u)
    out *= t
    return out


def unit_draws(seeds, rounds, width):
    """Unit draws L of the first `width` doubles of every (round, seed) stream, (R, S, width)."""
    return _unit_draws(_seed_keys(seeds), rounds, width)


def _scaled(schedule, rounds, units):
    """Masks (R, S, n, 2, m) [eta, zeta] of the unit draws (R, S, 2 n m) of `rounds`, in place."""
    R, S = units.shape[:2]
    theta = np.stack([schedule.theta_eta(rounds), schedule.theta_zeta(rounds)], axis=-1)
    units = units.reshape(R, S, schedule.n, 2, -1)
    return np.multiply(units, -theta[:, None, :, :, None], out=units)


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
    masks = _scaled(schedule, rounds, unit_draws(seeds, rounds, 2 * schedule.n * m))
    return masks[..., 0, :], masks[..., 1, :]


def chunk_rounds(trials, n, m):
    """Rounds per mask chunk for a batch of `trials` seeds."""
    blocks = -(-2 * n * m // 4)
    return max(1, MAX_CHUNK_BLOCKS // (trials * blocks))


def absorbs(floor, *states):
    """Whether masks below 2**-55 floor leave each state as it is: every entry's
    magnitude exceeds floor (module docstring). A NaN fails, an empty state passes."""
    return all(np.minimum.reduce(np.abs(s), None, initial=np.inf) > floor for s in states)


def iter_masks(schedule, seeds, iters, m, draws=None, state=None):
    """Spans [stop, masks, zeta_sums, floor] of rounds k..stop-1, k = 0 to iters, a chunk at a time.

    masks[j] is the (2, S, n, m) block [eta; zeta] of round k + j and zeta_sums[j]
    (S, m) is sum_{t<=k+j} sum_i zeta_i(t); both are views into buffers that the
    next span overwrites, so a caller copies what it keeps. With `draws`, the
    `unit_draws` of these seeds for rounds 0..iters-1 or more and width 2 n m,
    each chunk scales a copy of its rounds' rows and leaves `draws` unchanged;
    without, it draws them and keeps nothing. floor is None but as follows.

    `state()`, if given, returns the (2, S, n, m) state [mu; y] the masks of the
    next round are added to. A chunk whose running total absorbs its masks and
    whose first round's state does too comes as [stop, None, zeta_sums, floor]:
    its rounds are absorbed while `absorbs(floor, s)` holds for the state s each
    is stepped from, which the caller tests from the second on; one that finds
    round j's failing sets the span's stop to j, and the next span holds the
    masks of rounds j to the chunk's end.
    """
    step = chunk_rounds(len(seeds), schedule.n, m)
    keys = _seed_keys(seeds)
    stacked = np.empty((min(step, iters), 2, len(seeds), schedule.n, m))
    sums = np.empty((len(stacked), len(seeds), m))
    carry = np.zeros((len(seeds), m))
    for k0 in range(0, iters, step):
        k, stop = k0, min(k0 + step, iters)
        # the total is tested first: it is 0 through chunk 0 and costs least
        low = np.abs(carry).min() if state is not None and k0 else 0.0
        if low > 0.0:  # floor = 2**55 B, B = 709 max theta(k0) (module docstring)
            floor = 709.0 * max(schedule.theta_eta(k0).max(), schedule.theta_zeta(k0).max())
            floor *= 2.0**55
            if schedule.n * 1.001 * floor < low and absorbs(floor, state()):
                span = [stop, None, np.broadcast_to(carry, (stop - k,) + carry.shape), floor]
                yield span
                k = span[0]
                if k == stop:
                    continue
        rounds = np.arange(k, stop)
        if draws is None:
            units = _unit_draws(keys, rounds, 2 * schedule.n * m)
        else:
            units = draws[k:stop].copy()
        masks = _scaled(schedule, rounds, units)
        block, chunk = stacked[: len(rounds)], sums[: len(rounds)]
        np.sum(masks[..., 1, :], axis=2, out=chunk)
        chunk[0] += carry  # carry + s_0, then + s_1, ...: the order of per-round updates
        carry = np.add.accumulate(chunk, axis=0, out=chunk)[-1].copy()
        np.copyto(block, masks.transpose(0, 3, 1, 2, 4))  # (R, 2, S, n, m)
        yield [stop, block, chunk, None]
