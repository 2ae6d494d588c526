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
the batch it ran in. The recorded metrics are computed after stepping, a block
of recorded rounds at a time, by `_metrics`, which treats each (round, trial)
row as one more trial: the values are bit-identical to evaluating them at
every recorded round. Masks come only from `noise.iter_masks` and are not kept:
a run's masks are `noise.draw_rounds(schedule, range(iters), seeds, m)`.

`_round_kernel` builds the round once per run: for m = 1 both maps are one
product with A, a diagonal cost calls the closed form directly, and per-agent
constants are stacked to the batch shape. Only arrays that W @ z made in the
same round are updated in place, so states held for the metrics never change.
One dot of mu and y tests a round for finiteness, and `iter_masks` supplies
the running tracker-mask total the tracking residual needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import SolverFailure
from .local_solver import diagonal_argmin, solve_all_from_c
from .noise import iter_masks

# Recorded (round, trial) rows whose states are held until their metrics are
# computed together. Bounds the pending memory independently of the number of
# trials times the number of records.
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
    x_star: Optional[np.ndarray] = None
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


def _round_kernel(instance, W, alpha, trials):
    """advance(mu, x, y, Ax, eta, zeta) -> (mu1, x1, y1, Ax1), one round of a (trials, n, .)
    batch; eta and zeta of None mean no masks (adding zeros would change nothing)."""

    def stacked(a):
        return np.ascontiguousarray(np.broadcast_to(a, (trials,) + a.shape))

    if instance.m == 1:
        a = stacked(instance.A[:, :, 0])  # every A_i is 1 x 1, so both maps multiply by it

        def times_A(u):
            return a * u + 0.0  # adding 0.0, as the einsum's sum does, turns -0.0 into 0.0

        times_At = times_A
    else:
        times_At = partial(np.einsum, "imp,tim->tip", instance.A)
        times_A = partial(np.einsum, "imp,tip->tim", instance.A)
    if instance.diag is not None:
        consts = {k: stacked(getattr(instance, k)) for k in ("v", "diag", "lower", "upper")}
        solve = partial(diagonal_argmin, **consts)
    else:
        solve = partial(solve_all_from_c, instance)

    def advance(mu, x, y, Ax, eta, zeta):
        mu1 = W @ (mu if eta is None else mu + eta)
        mu1 -= alpha * y
        x1 = solve(times_At(mu1))
        Ax1 = times_A(x1)
        y1 = W @ (y if zeta is None else y + zeta)
        y1 += Ax1
        y1 -= Ax
        return mu1, x1, y1, Ax1

    return advance


def fixed_point_residual(state, instance, W):
    """(||(I - W) mu||, ||y||, ||sum_i (A_i x_i - d_i)||); all vanish at a fixed point."""
    W = np.asarray(getattr(W, "W", W), dtype=float)
    consensus_mu = float(np.linalg.norm(state.mu - W @ state.mu))
    y_norm = float(np.linalg.norm(state.y))
    mismatch = np.einsum("imp,ip->im", instance.A, state.x) - instance.d
    feasibility = float(np.linalg.norm(mismatch.sum(axis=0)))
    return consensus_mu, y_norm, feasibility


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

    Raises SolverFailure if a local solve fails or a trial's state turns
    non-finite; the remaining trials are still stepped, so `exc.trials`
    lists the batch positions of every trial that diverged.
    """
    seeds, single = _as_seeds(seed)
    W = np.asarray(getattr(W, "W", W), dtype=float)
    n, m, p = instance.dims
    start = init_state(instance, config)
    T = len(seeds)
    mu = np.broadcast_to(start.mu, (T, n, m)).copy()
    x = np.broadcast_to(start.x, (T, n, p)).copy()
    y = np.broadcast_to(start.y, (T, n, m)).copy()
    Ax = np.einsum("imp,tip->tim", instance.A, x)
    iters = config.iters
    advance = _round_kernel(instance, W, config.alpha, T)
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)

    zeta_cum = np.zeros((T, m))
    no_masks = repeat((None, None, zeta_cum), iters)
    masks = no_masks if schedule.zero_noise else iter_masks(schedule, seeds, iters, m)

    ks = np.arange(0, iters + 1, config.record_every)
    if ks[-1] != iters:
        ks = np.append(ks, iters)
    recorded = np.full((4, T, ks.shape[0]), np.nan)  # mse, consensus, tracking, feasibility
    if keep_states:
        states_mu = np.empty((T, iters + 1, n, m))
        states_x = np.empty((T, iters + 1, n, p))
        states_mu[:, 0], states_x[:, 0] = mu, x

    # (mu, x, y, Ax, zeta_cum) of recorded rounds whose metrics are not yet
    # computed; advance returns fresh arrays and iter_masks a fresh running
    # total, so holding references copies nothing
    pending = [(mu, x, y, Ax, zeta_cum)]
    per_block = max(1, MAX_METRIC_ROWS // T)

    def measure():
        """Metrics of the pending records, which end at record r."""
        R = len(pending)
        rows = [np.concatenate(parts) for parts in zip(*pending)]  # row i * T + t
        vals = _metrics(*rows, W, instance.d, x_star).reshape(4, R, T)
        recorded[:, :, r + 1 - R : r + 1] = vals.transpose(0, 2, 1)
        pending.clear()

    alive = np.arange(T)  # batch positions of the trials still finite
    diverged, diverged_at = [], None
    r = 0
    # metrics of huge but finite states may overflow, so they are computed
    # under the same errstate as the rounds
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (eta, zeta, zeta_sum) in enumerate(masks):
            if diverged and eta is not None:
                eta, zeta = eta[alive], zeta[alive]
            try:
                mu, x, y, Ax = advance(mu, x, y, Ax, eta, zeta)
            except SolverFailure as exc:
                raise SolverFailure(
                    f"round {k}: {exc}", trials=[int(alive[t]) for t in exc.trials]
                ) from exc
            # every A_i is square and invertible, so a non-finite x makes y
            # non-finite in the same round. A finite dot proves mu and y finite
            # (inf * 0 is nan); finite states can overflow it, hence the recheck
            if not math.isfinite(np.vdot(mu, y)):
                ok = np.isfinite(mu).all(axis=(1, 2)) & np.isfinite(x).all(axis=(1, 2))
                ok &= np.isfinite(y).all(axis=(1, 2))
                if not ok.all():
                    diverged += [int(t) for t in alive[~ok]]
                    diverged_at = diverged_at or k + 1
                    alive = alive[ok]
                    mu, x, y, Ax = mu[ok], x[ok], y[ok], Ax[ok]
                    if not alive.size:
                        break
                    advance = _round_kernel(instance, W, config.alpha, alive.size)
            if diverged:
                continue  # the run fails; only look for further divergent trials
            zeta_cum = zeta_sum
            if keep_states:
                states_mu[:, k + 1], states_x[:, k + 1] = mu, x
            if k + 1 == ks[r + 1]:
                r += 1
                pending.append((mu, x, y, Ax, zeta_cum))
                if len(pending) == per_block:
                    measure()
        if pending and not diverged:
            measure()
    if diverged:
        names = ", ".join(str(seeds[t]) for t in sorted(diverged))
        raise SolverFailure(
            f"round {diverged_at}: state diverged to non-finite values (trial seeds {names})",
            trials=sorted(diverged),
        )

    def out(a):
        return a[0] if single else a

    return RunTrace(
        ks=ks,
        mse=out(recorded[0]),
        consensus_mu=out(recorded[1]),
        tracking_residual=out(recorded[2]),
        feasibility=out(recorded[3]),
        final_state=EngineState(mu=out(mu), x=out(x), y=out(y), round=iters),
        x_star=x_star,
        states_mu=out(states_mu) if keep_states else None,
        states_x=out(states_x) if keep_states else None,
    )
