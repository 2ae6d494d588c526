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

`run` steps T independent trials as one (T, n, .) state through a single
round loop; one int seed is a batch of one. Every per-trial operation
(stacked matmuls, elementwise updates, norms as one dot product per trial)
is the one a lone trial would execute, so a trial's outputs do not depend on
the batch it ran in. The batch keeps its shape to the last round: a trial whose
state turns non-finite is retired in place, its row zeroed while the others
step on, and the run then fails naming every diverged trial. The recorded
metrics are computed after stepping, a block of recorded rounds at a time, by
`_metrics`, which treats each (round, trial) row as one more trial: the values
are bit-identical to evaluating them at every recorded round. Masks come only from `noise.iter_masks`, drawn iff
`schedule.enabled`, and are not kept: a run's masks are
`noise.draw_rounds(schedule, range(iters), seeds, m)`.

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
0.0 - v gives c the same bytes, and A x gets a `+ 0.0` unless it can never be
-0.0 (`_zero_adds_are_noops`). Recorded rounds fill the rows of one metric
block, which `_metrics` reads in place; a block holds MAX_METRIC_ROWS // T
records, or all of a run's if fewer, and the rounds in between alternate
between two spare rows. One dot of mu and y tests a round for
finiteness, and `iter_masks` supplies the running tracker-mask total the
tracking residual needs. A trace holds copies, never views of the rows.

Without masks a round is a deterministic map of the bytes it reads (s and A x
of its source row; it overwrites all its scratch), so once the batch state
equals the state two rounds earlier, every later state repeats the last two
with period 1 or 2. `run` watches for this while `schedule.enabled` is off and
no trial has diverged: when a round's finiteness dot equals the dot of two
rounds earlier (equal states give equal dots), it keeps the bytes of s, x and
A x, and two rounds later compares the state with them. On a match it stops
stepping and fills the remaining records, kept states and final state from the
two states of the orbit by the parity of the round: the same bytes stepping
would have written. An orbit of a longer period is stepped to the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import SolverFailure
from .local_solver import clip, solve_all_from_c
from .noise import iter_masks

# Recorded (round, trial) rows whose states are held until their metrics are
# computed together, though never fewer than two records: a round then never
# writes its record into the row it reads. Bounds the pending memory
# independently of the number of records.
MAX_METRIC_ROWS = 128


@dataclass(eq=False)
class EngineState:
    """Stacked per-agent iterates at one round."""

    mu: np.ndarray  # (n, m)
    x: np.ndarray  # (n, p)
    y: np.ndarray  # (n, m)
    round: int = 0


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Stepsize, horizon, and recording stride for one run.

    mu0 and x0 override the default initial iterates (zeros and the box
    projection of zero). alpha = 0 is allowed for the degenerate fixed-dual
    diagnostic even though productive runs need alpha > 0.
    """

    alpha: float
    iters: int
    record_every: int = 1
    mu0: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.iters < 1:
            raise ValueError(f"iters must be at least 1, got {self.iters}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


@dataclass(eq=False)
class RunTrace:
    """Per-round metrics plus the final state.

    For a run given one int seed the metrics have shape (records,) and the
    states drop the trial axis; for a sequence of T seeds every array gains a
    leading trial axis of length T.

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
    rounds_stepped: int  # kernel rounds executed; fewer than iters once the state repeats
    states_mu: Optional[np.ndarray] = None
    states_x: Optional[np.ndarray] = None

    def max_tracking_residual(self):
        return float(np.max(self.tracking_residual))


def init_state(instance, config):
    """Initial iterates; the tracker must start at the local mismatch."""
    n, m, p = instance.dims
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float).reshape(n, p).copy()
    else:
        x0 = np.clip(np.zeros((n, p)), instance.lower, instance.upper)
    if config.mu0 is not None:
        mu0 = np.asarray(config.mu0, dtype=float).reshape(n, m).copy()
    else:
        mu0 = np.zeros((n, m))
    y0 = np.einsum("imp,ip->im", instance.A, x0) - instance.d
    return EngineState(mu=mu0, x=x0, y=y0, round=0)


class _Row(NamedTuple):
    """Views of one state row of a (T, n, .) batch; s = [mu; y] is one (2, T, n, m) block."""

    s: np.ndarray
    mu: np.ndarray
    y: np.ndarray
    x: np.ndarray
    Ax: np.ndarray


class _StateRows:
    """`count` preallocated state rows of a (T, n, .) batch, with each row's views built once.

    zeta_cum holds the running tracker-mask total of the state in the same row.
    """

    def __init__(self, count, T, n, m, p):
        self.s = np.empty((count, 2, T, n, m))
        self.x = np.empty((count, T, n, p))
        self.Ax = np.empty((count, T, n, m))
        self.zeta_cum = np.zeros((count, T, m))
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
        a, v, diag, lower, upper = (np.broadcast_to(k, c.shape).copy() for k in consts)
        zero_add = not _zero_adds_are_noops(a, v, diag, lower, upper)
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
            if zero_add:
                Ax += 0.0  # as the einsum's sum does, turn -0.0 into 0.0
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


def _as_seeds(seed):
    """(seeds, single): an int seed is a batch of one whose outputs drop the trial axis."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed)], True
    seeds = [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds, False


def run(instance, W, schedule, config, seed, x_star=None, keep_states=False):
    """Run `config.iters` rounds and record metrics every `config.record_every`.

    seed : int or sequence of int
        One trial per seed. A sequence runs the trials together as one
        (T, n, .) batch; each trial's outputs are bit-identical to a run
        given that seed alone.
    keep_states : bool
        Additionally record the full mu and x trajectories (used by the
        privacy auditor).

    A noise-free batch whose state repeats with period 1 or 2 stops stepping
    there and fills the rest of its trace from the two repeating states, byte
    for byte; `rounds_stepped` of the trace counts the rounds it stepped.

    Raises SolverFailure if a local solve fails, naming every trial whose
    solve failed in that round, or if a trial's state turns non-finite. A
    diverged trial is retired in place, its row zeroed, and the others step
    on in the same rows with the same kernel, recording nothing, so
    `exc.trials` lists the batch positions of every trial that diverged.
    """
    seeds, single = _as_seeds(seed)
    W = np.asarray(getattr(W, "W", W), dtype=float)
    n, m, p = instance.dims
    start = init_state(instance, config)
    T = len(seeds)
    iters = config.iters
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)

    ks = np.arange(0, iters + 1, config.record_every)
    if ks[-1] != iters:
        ks = np.append(ks, iters)
    next_record = ks.tolist()[1:] + [None]  # next_record[r]: the round of record r + 1
    recorded = np.full((4, T, ks.shape[0]), np.nan)  # mse, consensus, tracking, feasibility
    if keep_states:  # round first while stepping, trial first in the trace
        states_mu = np.empty((iters + 1, T, n, m))
        states_x = np.empty((iters + 1, T, n, p))
        states_mu[0], states_x[0] = start.mu, start.x

    # Rows 0..per_block-1 hold recorded rounds until their metrics are computed
    # together; the two spare rows hold the rounds in between. Every round
    # writes into a row other than the one it reads.
    per_block = max(2, min(MAX_METRIC_ROWS // T, ks.shape[0]))
    buf = _StateRows(per_block + 2, T, n, m, p)
    rows, spare = buf.rows[:per_block], buf.rows[per_block:]
    src = rows[0]
    src.mu[...], src.x[...], src.y[...] = start.mu, start.x, start.y
    src.Ax[...] = np.einsum("imp,tip->tim", instance.A, src.x)
    advance = _round_kernel(instance, W, config.alpha, T)
    masks = repeat((None, None), iters)
    if schedule.enabled:
        masks = iter_masks(schedule, seeds, iters, m)

    def measure(R, r):
        """Metrics of the records in rows 0..R-1, which end at record r."""
        N = R * T
        s = buf.s[:R]  # mu and y interleave, so reshaping them gathers row i * T + t
        vals = _metrics(
            s[:, 0].reshape(N, n, m), buf.x[:R].reshape(N, n, p), s[:, 1].reshape(N, n, m),
            buf.Ax[:R].reshape(N, n, m), buf.zeta_cum[:R].reshape(N, m),
            W, instance.d, x_star,
        ).reshape(4, R, T)
        recorded[:, :, r + 1 - R : r + 1] = vals.transpose(0, 2, 1)

    def failure(message, trials):
        trials = sorted(set(trials) | set(np.flatnonzero(failed).tolist()))
        names = ", ".join(str(seeds[t]) for t in trials)
        return SolverFailure(f"{message} (trial seeds {names})", trials=trials)

    failed = np.zeros(T, dtype=bool)  # whether each trial of the batch has diverged
    failed_at = None  # the first round with a diverged trial; nothing is recorded after it
    pending, r, next_k = 1, 0, next_record[0]  # records pending in rows 0..pending-1
    watch = not schedule.enabled  # for a repeating state: a round is then a map of the state
    dots = [math.nan, math.nan]  # finiteness dots of the last two states, by round parity
    probe, probe_at = None, None  # _snapshot of the state at round probe_at
    cycle = None  # the round whose state equals the one two rounds before
    # metrics of huge but finite states may overflow, so they are computed
    # under the same errstate as the rounds
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (mask, zeta_sum) in enumerate(masks):
            record = k + 1 == next_k
            if record:
                if pending == per_block:
                    measure(pending, r)
                    pending = 0
                dst = rows[pending]
            else:
                dst = spare[src is spare[0]]
            try:
                advance(src, dst, mask)
            except SolverFailure as exc:
                raise failure(f"round {k}: {exc}", exc.trials) from exc
            prev, src = src, dst
            # every A_i is square and invertible, so a non-finite x makes y
            # non-finite in the same round. A finite dot proves mu and y finite
            # (inf * 0 is nan); finite states can overflow it, hence the recheck
            dot = np.vdot(src.mu, src.y)
            if not math.isfinite(dot):
                ok = np.isfinite(src.mu).all(axis=(1, 2)) & np.isfinite(src.x).all(axis=(1, 2))
                ok &= np.isfinite(src.y).all(axis=(1, 2))
                if not ok.all():
                    failed |= ~ok
                    failed_at, next_k = failed_at or k + 1, None
                    if failed.all():
                        break
                    # retire the trials in place: zeroed rows keep later rounds
                    # and the local solves free of NaN, and the others step on
                    src.s[:, ~ok], src.x[~ok], src.Ax[~ok] = 0.0, 0.0, 0.0
            if failed_at is not None:
                continue  # the run fails; only look for further divergent trials
            if keep_states:
                states_mu[k + 1], states_x[k + 1] = src.mu, src.x
            if record:
                if zeta_sum is not None:
                    buf.zeta_cum[pending] = zeta_sum
                pending += 1
                r += 1
                next_k = next_record[r]
            if watch:
                if probe_at == k - 1:
                    if _snapshot(src) == probe:
                        cycle = k + 1
                        break
                    probe_at = None
                if probe_at is None and dot == dots[k & 1]:
                    probe, probe_at = _snapshot(src), k + 1
                dots[k & 1] = dot
        if pending and failed_at is None:
            measure(pending, r)
        if cycle is not None:
            # round cycle + i holds the state of src for even i and of prev for odd i
            mu, y, x, Ax = (np.concatenate(pair) for pair in zip(src[1:], prev[1:]))
            vals = _metrics(mu, x, y, Ax, np.zeros((2 * T, m)), W, instance.d, x_star)
            odd = (ks[r + 1 :] - cycle) % 2
            recorded[:, :, r + 1 :] = vals.reshape(4, 2, T)[:, odd].transpose(0, 2, 1)
            if keep_states:
                states_mu[cycle + 1 :: 2], states_x[cycle + 1 :: 2] = prev.mu, prev.x
                states_mu[cycle + 2 :: 2], states_x[cycle + 2 :: 2] = src.mu, src.x
            if (iters - cycle) % 2:
                src = prev
    if failed_at is not None:
        raise failure(f"round {failed_at}: state diverged to non-finite values", [])

    def out(a):
        return a[0] if single else a

    return RunTrace(
        ks=ks,
        mse=out(recorded[0]),
        consensus_mu=out(recorded[1]),
        tracking_residual=out(recorded[2]),
        feasibility=out(recorded[3]),
        # copies: the trace shares no memory with the state rows
        final_state=EngineState(
            mu=out(src.mu).copy(), x=out(src.x).copy(), y=out(src.y).copy(), round=iters
        ),
        rounds_stepped=iters if cycle is None else cycle,
        states_mu=out(np.ascontiguousarray(states_mu.swapaxes(0, 1))) if keep_states else None,
        states_x=out(np.ascontiguousarray(states_x.swapaxes(0, 1))) if keep_states else None,
    )
