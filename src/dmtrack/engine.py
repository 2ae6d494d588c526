"""Synchronous round-based simulation of the masked mismatch tracking recursion.

Round k, executed with snapshot semantics (every agent reads only round-k
state of its neighbors):

    z_mu_j(k) = mu_j(k) + eta_j(k),  z_y_j(k) = y_j(k) + zeta_j(k)   (broadcast)
    mu_i(k+1) = sum_j w_ij z_mu_j(k) - alpha y_i(k)                  (local y, unmasked)
    x_i(k+1)  = argmin_{z in X_i} { f_i(z) - mu_i(k+1)^T A_i z }
    y_i(k+1)  = sum_j w_ij z_y_j(k) + A_i x_i(k+1) - A_i x_i(k)

with y_i(0) = A_i x_i(0) - d_i. Summing the tracker update over agents shows
the invariant sum_i y_i(k) = sum_i (A_i x_i(k) - d_i) + sum_{t<k} sum_i zeta_i(t),
which reduces to exact mismatch tracking when the noise is disabled.

`run` steps T independent trials, one per seed, as one (T, n, .) state through
a single round loop, and every trace array keeps that trial axis. Every
per-trial operation (stacked matmuls, elementwise updates, norms as one dot
product per trial) is the one a lone trial would execute, so a trial's outputs
do not depend on the batch it ran in. `_Recorder` owns the rows a run steps
in and computes the recorded metrics after stepping, a block of recorded
rounds at a time, by `_metrics`, which treats each (round, trial) row as one
more trial: the values are bit-identical to evaluating them at every recorded
round. Masks come only from `noise.iter_masks`, asked for iff
`schedule.enabled`, and are not kept: a run's masks are
`noise.draw_rounds(schedule, range(iters), seeds, m)`. The rest of a chunk
whose first round absorbs its masks comes as a stretch (`noise` docstring):
`run` steps a window of its rounds without masks into `_Recorder`'s ring
rows, then tests their sources and the next round's with one `noise.absorbs`
and rewinds to the first that fails, whose round draws its masks. A window
ends before a round that claims a record or kept row (no record or metric
block is ever undone), before the ring would wrap onto a row it has yet to
test, and at the stretch's end; in a checked pass or with keep_states it is
empty, so each round's source is tested alone.

A round's state is one row of preallocated buffers (`_StateRows`): duals and
trackers stacked as s = [mu; y], shape (2, T, n, m), then x and A x. A round
adds the stacked masks [eta; zeta], which `noise.iter_masks` yields in that
layout, and applies one W @ to s; numpy runs it as one product per (n, m)
slice, the products of mu and y apart (trials or channels laid out as matrix
columns would switch BLAS kernels and change bits). `_round_kernel` builds the
round once per run and writes each result with out= into another row. For
m = 1 (1 x 1 A_i and U_i) a round is one flat sequence of ufunc calls: masks,
W @, mu -= alpha y, c = (0.0 - v) + a mu, c /= diag, one clip into the box
(`local_solver.clip`, bytes of maximum then minimum), A x = a x, y += A x - previous A x.
The einsum maps of m > 1 start their sums at 0.0, which turns -0.0 into 0.0;
0.0 - v gives c the same bytes, and A x gets the add of a zero array unless it
can never be -0.0 (`_zero_adds_are_noops`).

`run` takes only a W with nonnegative entries and a positive diagonal (every
Metropolis W has w_ii >= 1/(1 + deg_i)) and steps a run unchecked, testing
only the final mu, y and x: a non-finite mu_i or y_i enters (W z)_i with
weight w_ii > 0 each round, so stays non-finite, and a non-finite x makes y
non-finite in the same round (A_i is square and invertible), so a finite end
proves every round finite. For the same reason an unchecked pass ends at the
first metric or kept block whose last [mu; y] is not finite
(`_Recorder.measure`). A pass that ends non-finite or fails is replayed from
round 0 by the same kernel, rows and `_Recorder`, with `_check` after each
round, which retires a trial whose state turns non-finite.

Without masks a round is a deterministic map of the bytes it reads (s and A x
of its source row; it overwrites all its scratch), so once the batch state
equals the state two rounds earlier, every later state repeats the last two
with period 1 or 2. `run` watches for this while `schedule.enabled` is off and
no trial has diverged: every 16th round of a pass it keeps the bytes of s, x
and A x, and two rounds later compares the state with them, so it stops at
most 17 rounds after the first state that recurs two rounds later. On a match
it stops stepping; `_Recorder.fill` and `run` fill the remaining records, kept
states and final state from the two states of the orbit by the parity of the
round: the same bytes stepping would have written. A non-finite state can
repeat too; the end test sends such a pass to the checked replay. An orbit of
a longer period is stepped to the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import SolverFailure
from .local_solver import clip, solve_all_from_c
from .noise import absorbs, iter_masks

# (round, trial) rows of a metric block and of a keep_states block (see _Recorder)
MAX_METRIC_ROWS = 128
KEPT_BLOCK_ROWS = 32
MAX_RING_ROWS = 16  # spare rows that absorbed rounds step through (see _Recorder)


@dataclass(eq=False)
class EngineState:
    """Stacked per-agent iterates at one round; a trace's final_state has a trial axis."""

    mu: np.ndarray  # (n, m) or (T, n, m)
    x: np.ndarray  # (n, p) or (T, n, p)
    y: np.ndarray  # (n, m) or (T, n, m)
    round: int = 0


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Stepsize, horizon, and recording stride for one run; every run starts
    from `init_state`. alpha = 0 is allowed for the degenerate fixed-dual
    diagnostic even though productive runs need alpha > 0.
    """

    alpha: float
    iters: int
    record_every: int = 1

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.iters < 1:
            raise ValueError(f"iters must be at least 1, got {self.iters}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


@dataclass(eq=False)
class RunTrace:
    """Per-round metrics plus the final state of a run of T seeds.

    Every array but ks has a leading trial axis of length T: the metrics are
    (T, records), final_state's arrays (T, n, .) and the kept states
    (T, iters + 1, n, .).

    tracking_residual is the tracking-identity defect scaled by
    1 / (1 + magnitude of the states entering it), so a healthy run stays
    below 1e-9 regardless of problem scale. mse is NaN when no reference
    optimum was supplied.
    """

    ks: np.ndarray
    mse: np.ndarray
    consensus_mu: np.ndarray
    tracking_residual: np.ndarray
    feasibility: np.ndarray
    final_state: EngineState
    rounds_stepped: int  # iters, or the round where a noise-free run found its state repeating
    rounds_absorbed: int  # rounds of rounds_stepped whose masks were absorbed, so not drawn
    states_mu: Optional[np.ndarray] = None
    states_x: Optional[np.ndarray] = None

    def max_tracking_residual(self):
        return float(np.max(self.tracking_residual))


def init_state(instance):
    """The start of every run: zero duals, x(0) the box projection of zero and
    the tracker at the local mismatch, y(0) = A x(0) - d."""
    n, m, p = instance.dims
    x0 = np.clip(np.zeros((n, p)), instance.lower, instance.upper)
    y0 = np.einsum("imp,ip->im", instance.A, x0) - instance.d
    return EngineState(mu=np.zeros((n, m)), x=x0, y=y0, round=0)


class _Row(NamedTuple):
    """Views of one state row of a (T, n, .) batch; s = [mu; y] is one (2, T, n, m) block."""

    s: np.ndarray
    mu: np.ndarray
    y: np.ndarray
    x: np.ndarray
    Ax: np.ndarray


class _StateRows:
    """`count` preallocated state rows of a (T, n, .) batch, with each row's views built once."""

    def __init__(self, count, T, n, m, p):
        self.s = np.empty((count, 2, T, n, m))
        self.x = np.empty((count, T, n, p))
        self.Ax = np.empty((count, T, n, m))
        self.rows = [_Row(s, s[0], s[1], x, Ax) for s, x, Ax in zip(self.s, self.x, self.Ax)]


def _zero_adds_are_noops(a, v, diag, lower, upper):
    """True when the m = 1 map A x, unlike the einsum's 0.0 + A x, can never give -0.0.

    With A_i > 0 and no bound whose product with A_i is -0.0, x_i would have to
    be -0.0 or a product would have to underflow. Neither happens when |v_i| >=
    2**-500, U_i <= 2**200 and A_i >= 2**-200: c - v_i is 0.0 if c == v_i and at
    least |v_i| 2**-54 in magnitude otherwise, so x_i is 0.0 or at least 2**-755.
    """
    ends = a * np.stack([lower, upper])
    return bool(
        np.all(a >= 2.0**-200)
        and np.all(np.abs(v) >= 2.0**-500)
        and np.all(diag <= 2.0**200)
        and not np.any((ends == 0.0) & np.signbit(ends))
    )


def _check(row):
    """A row's trials whose mu, x or y is not finite, or None if none is."""
    ok = np.isfinite(row.s).all(axis=(0, 2, 3)) & np.isfinite(row.x).all(axis=(1, 2))
    return None if ok.all() else ~ok


def _snapshot(row):
    """The bytes of a state row's s, x and A x: all a noise-free round reads, and x."""
    return row.s.tobytes() + row.x.tobytes() + row.Ax.tobytes()


def _round_kernel(instance, W, alpha, trials):
    """advance(src, dst, masks): one round of a (trials, n, .) batch from row src into row dst.

    src and dst are distinct `_Row`s; dst is overwritten and src is only read.
    masks is the stacked (2, trials, n, m) block [eta; zeta], or None for no
    masks (adding zeros would change nothing).
    """
    n, m, p = instance.dims
    alpha = np.array(float(alpha))  # numpy converts a 0-d array faster than a float
    z = np.empty((2, trials, n, m))  # [mu + eta; y + zeta]
    alpha_y = np.empty((trials, n, m))
    c = np.empty((trials, n, p))

    if m == 1:  # 1 x 1 A_i and U_i: both maps are products and the solve is closed form
        consts = (instance.A[:, :, 0], instance.v, instance.diag, instance.lower, instance.upper)
        a, v, diag, lower, upper = np.broadcast_to(np.array(consts)[:, None], (5,) + c.shape).copy()
        # a zero array, which numpy adds faster than the float 0.0, or None
        zero = None if _zero_adds_are_noops(a, v, diag, lower, upper) else np.zeros(())
        minus_v = 0.0 - v  # 0.0, not -0.0, at v = 0: minus_v + a mu is (0.0 + a mu) - v
    # the hot calls pass out positionally, which numpy parses faster than out=
    add, matmul, multiply = np.add, np.matmul, np.multiply

    def advance(src, dst, masks):
        s, mu, y, x, Ax = dst
        matmul(W, src.s if masks is None else add(src.s, masks, z), s)
        mu -= multiply(alpha, src.y, alpha_y)
        if m > 1:  # the einsum maps and the local solve of every agent
            x[...] = solve_all_from_c(instance, np.einsum("imp,tim->tip", instance.A, mu, out=c))
            np.einsum("imp,tip->tim", instance.A, x, out=Ax)
        else:
            q = add(minus_v, multiply(a, mu, c), c)
            q /= diag
            clip(q, lower, upper, x)  # the bytes of maximum, then minimum
            multiply(a, x, Ax)
            if zero is not None:
                add(Ax, zero, Ax)  # as the einsum's sum does, turn -0.0 into 0.0
        y += Ax
        y -= src.Ax

    return advance


def _norms(a, axes):
    """2-norms over the trailing `axes` axes, computed like np.linalg.norm (one dot each)."""
    flat = a.reshape(a.shape[: a.ndim - axes] + (-1,))
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def _metrics(mu, x, y, Ax, zeta_cum, W, d, x_star):
    """(mse, consensus_mu, tracking_residual, feasibility) of N stacked states, (4, N).

    mu, x, y, Ax are (N, n, .) and zeta_cum is (N, m); each row is reduced
    on its own, exactly as a lone trial would be. mse is NaN without x_star.
    """
    N = mu.shape[0]
    out = np.full((4, N), np.nan)
    if x_star is not None:
        out[0] = ((x - x_star) ** 2).reshape(N, -1).sum(axis=1)
    out[1] = _norms(mu - W @ mu, 2)
    mismatch = (Ax - d).sum(axis=1)
    defect = y.sum(axis=1) - mismatch - zeta_cum
    small = _norms(np.stack([mismatch, zeta_cum, defect], axis=1), 1)
    magnitude = _norms(y, 2) + small[:, 0] + small[:, 1]
    out[2] = small[:, 2] / (1.0 + magnitude)
    out[3] = small[:, 0]
    return out


class _Recorder:
    """The state rows of one run and all it records from them: its metrics and kept states.

    `row(k, zeta_sum)` gives the row round k + 1 is stepped into and claims
    it, keeping a record's running tracker-mask total in `zeta_cum`.
    Records fill the rows of one metric block, which `measure` reads in place
    once full: MAX_METRIC_ROWS // T records, or all of a run's if fewer, so the
    rows held do not grow with the run, but never fewer than two, so a round
    never writes into the row it reads. The rounds in between claim the rows
    of a ring in turn, from its first after each block row (`pos`, the last
    claimed, is -1 then), so a `window` steps into contiguous rows: max(2,
    min(MAX_RING_ROWS, record_every, MAX_METRIC_ROWS // T)) rows in a masked
    run without keep_states, two in any other. With keep_states every round
    fills a block of KEPT_BLOCK_ROWS // T rows instead, which `measure` copies
    into the kept trajectory at once: building a row's views costs more than
    copying a round.
    `start` begins a pass; in an unchecked one, `measure` raises SolverFailure
    on a block whose last [mu; y] is not finite, which ends the pass early. A
    run with a diverged trial raises and returns nothing, so its later rows
    are claimed and measured like any others and never read. A trace holds
    copies, never views of the rows.
    """

    def __init__(self, instance, W, config, T, keep_states, x_star, masked):
        n, m, p = instance.dims
        iters = config.iters
        self.ks = ks = np.append(np.arange(0, iters, config.record_every), iters)
        self.keep, self.consts = keep_states, (W, instance.d, x_star)
        self.recorded = np.full((4, T, len(ks)), np.nan)  # mse, consensus, tracking, feasibility
        self.zeta_cum = np.zeros((len(ks), T, m))
        if keep_states:  # round first while stepping, trial first in the trace
            self.states_mu = np.empty((iters + 1, T, n, m))
            self.states_x = np.empty((iters + 1, T, n, p))
            per_block = max(2, min(KEPT_BLOCK_ROWS // T, iters + 1))
        else:
            per_block = max(2, min(MAX_METRIC_ROWS // T, len(ks)))
        ring = 2
        if masked and not keep_states:  # where windows of absorbed rounds step
            ring = max(2, min(MAX_RING_ROWS, config.record_every, MAX_METRIC_ROWS // T))
        self.buf = _StateRows(per_block + ring, T, n, m, p)
        self.rows, self.ring = self.buf.rows[:per_block], self.buf.rows[per_block:]
        self.ring_s = self.buf.s[per_block:]
        # next_record[r]: the round of record r + 1, or iters + 1 past the last
        self.next_record = ks.tolist()[1:] + [iters + 1]

    def start(self, instance, checked):
        """Row 0, set to `init_state`'s round 0, with every record and kept state to come."""
        self.checked = checked
        src, state = self.rows[0], init_state(instance)
        src.mu[...], src.x[...], src.y[...] = state.mu, state.x, state.y
        src.Ax[...] = np.einsum("imp,tip->tim", instance.A, src.x)
        # row 0 holds round 0, record 0; the block holds the records measured..r
        self.held, self.measured, self.r, self.next_k, self.pos = 1, 0, 0, self.next_record[0], -1
        return src

    def row(self, k, zeta_sum):
        """The row round k + 1 is stepped into, claimed for that round."""
        record = k + 1 == self.next_k
        if not (record or self.keep):
            self.pos = pos = (self.pos + 1) % len(self.ring)
            return self.ring[pos]
        self.pos = -1
        if self.held == len(self.rows):
            self.measure(k)
        dst = self.rows[self.held]
        self.held += 1
        if record:
            self.r += 1
            self.next_k = self.next_record[self.r]
            if zeta_sum is not None:
                self.zeta_cum[self.r] = zeta_sum
        return dst

    def window(self, k, top):
        """How many rounds from round k, before round top, step untested into the ring
        rows after `pos`: up to a record or kept row or the ring's end (module docstring)."""
        if self.keep or self.checked:
            return 0
        return min(len(self.ring) - 1 - self.pos, self.next_k - 1 - k, top - k)

    def measure(self, top):
        """Metrics of the block's records, its last row holding round top; empties the block.

        With keep_states the rows hold every round top+1-held..top: they are
        copied into the trajectory, and the rows of the records gathered."""
        buf, count, lo, hi = self.buf, self.held, self.measured, self.r + 1
        if not (self.checked or np.isfinite(buf.s[count - 1]).all()):
            raise SolverFailure("non-finite state in an unchecked pass")
        self.held, self.measured = 0, hi
        at = slice(count)
        if self.keep:
            first = top + 1 - count
            self.states_mu[first : top + 1] = buf.s[:count, 0]
            self.states_x[first : top + 1] = buf.x[:count]
            at = self.ks[lo:hi] - first
        if hi == lo:
            return
        block = (buf.s[at, 0], buf.s[at, 1], buf.x[at], buf.Ax[at])  # (records, T, n, .) each
        mu, y, x, Ax = (a.reshape((-1,) + a.shape[2:]) for a in block)  # row i * T + t
        vals = _metrics(mu, x, y, Ax, self.zeta_cum[lo:hi].reshape(mu.shape[0], -1), *self.consts)
        self.recorded[:, :, lo:hi] = vals.reshape(4, hi - lo, -1).transpose(0, 2, 1)

    def fill(self, cycle, src, prev):
        """The records and kept states after round cycle, whose state repeats with
        period 1 or 2: round cycle + i holds the state of src for even i and of prev for odd i."""
        mu, y, x, Ax = (np.concatenate(pair) for pair in zip(src[1:], prev[1:]))
        vals = _metrics(mu, x, y, Ax, np.zeros((mu.shape[0], mu.shape[2])), *self.consts)
        odd = (self.ks[self.r + 1 :] - cycle) % 2
        self.recorded[:, :, self.r + 1 :] = vals.reshape(4, 2, -1)[:, odd].transpose(0, 2, 1)
        if self.keep:
            self.states_mu[cycle + 1 :: 2], self.states_x[cycle + 1 :: 2] = prev.mu, prev.x
            self.states_mu[cycle + 2 :: 2], self.states_x[cycle + 2 :: 2] = src.mu, src.x


def run(instance, W, schedule, config, seeds, x_star=None, keep_states=False, draws=None):
    """Run `config.iters` rounds from `init_state` and record metrics every `config.record_every`.

    seeds : sequence of int
        One trial per seed, run together as one (T, n, .) batch; each trial's
        outputs are bit-identical to a run given that seed alone.
    keep_states : bool
        Additionally record the full mu and x trajectories (used by the
        privacy auditor).
    draws : ndarray or None
        `noise.unit_draws(seeds, range(R), 2 n m)` for some R >= iters, shared
        by runs that differ only in their mask scales (the privacy auditor's
        runs of one seed) and never written to; None draws each chunk of
        rounds and keeps nothing. Either gives the same bytes.

    A noise-free batch whose state repeats with period 1 or 2 stops stepping
    there and fills the rest of its trace from the two repeating states, byte
    for byte; `rounds_stepped` of the trace counts the rounds it stepped.

    Raises SolverFailure if a local solve fails, naming every trial whose
    solve failed in that round, or if a trial's state turns non-finite. A
    diverged trial is retired in place, its row zeroed, and the others step
    on in the same rows with the same kernel, so `exc.trials` lists the batch
    positions of every trial that diverged; all come from the checked replay
    (module docstring). Raises ValueError, before stepping, for a W with a
    negative or NaN entry or a diagonal entry that is not positive.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    W = np.asarray(getattr(W, "W", W), dtype=float)
    if not ((W >= 0.0).all() and (W.diagonal() > 0.0).all()):
        raise ValueError("W must have nonnegative entries and a positive diagonal")
    n, m, p = instance.dims
    T = len(seeds)
    iters = config.iters
    if draws is not None and (draws.shape[0] < iters or draws.shape[1:] != (T, 2 * n * m)):
        raise ValueError(
            f"draws of shape {draws.shape} do not fit a run of {iters} rounds, "
            f"{T} trials and width {2 * n * m}"
        )
    x_star = None if x_star is None else np.asarray(x_star, dtype=float)
    rec = _Recorder(instance, W, config, T, keep_states, x_star, schedule.enabled)
    advance = _round_kernel(instance, W, config.alpha, T)

    def failure(message, trials):
        trials = sorted(set(trials) | set(np.flatnonzero(failed).tolist()))
        names = ", ".join(str(seeds[t]) for t in trials)
        return SolverFailure(f"{message} (trial seeds {names})", trials=trials)

    failed = np.zeros(T, dtype=bool)  # whether each trial of the batch has diverged
    failed_at = None  # the first round with a diverged trial
    # rounds and metrics of huge or non-finite states overflow without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for checked in (False, True):  # a failing unchecked pass is replayed checked
            src = rec.start(instance, checked)
            masks = (iter_masks(schedule, seeds, iters, m, draws=draws, state=lambda: src.s)
                     if schedule.enabled else repeat((None, None, None), iters))
            watch = not schedule.enabled  # for a repeating state, until a trial diverges
            cycle = None  # the round whose state equals the one two rounds before
            k = absorbed = 0  # the rounds stepped, and of them those without masks drawn
            try:
                for mask, zeta_sum, stretch in masks:
                    dst = rec.row(k, zeta_sum)
                    advance(src, dst, mask)
                    prev, src = src, dst
                    k += 1
                    bad = _check(src) if checked else None
                    if bad is not None:
                        failed |= bad
                        failed_at, watch = failed_at or k, False
                        if failed.all():
                            break
                        # retire the trials in place: zeroed rows keep later rounds
                        # and the local solves free of NaN, and the others step on
                        src.s[:, bad], src.x[bad], src.Ax[bad] = 0.0, 0.0, 0.0
                    if watch and k % 16 in (1, 3):  # probe every 16th round, compare 2 later
                        if k % 16 == 1:
                            probe = _snapshot(src)
                        elif _snapshot(src) == probe:
                            cycle = k
                            break
                    if stretch is None:
                        continue
                    # rounds k..top-1 absorb while their sources pass: step a window of
                    # them untested, then test the sources of rounds k..k+w, but not the
                    # state at top, which iter_masks tests as the next chunk's first
                    _, top, floor = stretch
                    first, pos = src, rec.pos
                    rows = rec.ring[pos + 1 : pos + 1 + rec.window(k, top)]
                    for dst in rows:
                        advance(src, dst, None)
                        prev, src = src, dst
                    w = len(rows)
                    tested = rec.ring_s[pos + 1 : pos + w + (k + w < top)]
                    if k < top and not absorbs(floor, first.s, tested):
                        rows.insert(0, first)  # rewind to the first source that fails
                        w = next(j for j, row in enumerate(rows) if not absorbs(floor, row.s))
                        src, stretch[1] = rows[w], k + w
                    rec.pos, k, stretch[0] = pos + w, k + w, k + w
                    absorbed += 1 + w
                rec.measure(k)
                if checked or (np.isfinite(src.s).all() and np.isfinite(src.x).all()):
                    break
            except SolverFailure as exc:
                if checked:
                    raise failure(f"round {k}: {exc}", exc.trials) from exc
        if cycle is not None:
            rec.fill(cycle, src, prev)
            if (iters - cycle) % 2:
                src = prev
    if failed_at is not None:
        raise failure(f"round {failed_at}: state diverged to non-finite values", [])
    mse, consensus_mu, tracking_residual, feasibility = rec.recorded
    return RunTrace(
        ks=rec.ks,
        mse=mse,
        consensus_mu=consensus_mu,
        tracking_residual=tracking_residual,
        feasibility=feasibility,
        # copies: the trace shares no memory with the state rows
        final_state=EngineState(mu=src.mu.copy(), x=src.x.copy(), y=src.y.copy(), round=iters),
        rounds_stepped=iters if cycle is None else cycle,
        rounds_absorbed=absorbed,
        states_mu=np.ascontiguousarray(rec.states_mu.swapaxes(0, 1)) if keep_states else None,
        states_x=np.ascontiguousarray(rec.states_x.swapaxes(0, 1)) if keep_states else None,
    )
