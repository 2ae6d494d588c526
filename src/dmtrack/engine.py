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
the batch it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import SolverFailure
from .local_solver import solve_all_from_c, _stacked
from .noise import NoiseLog, draw_round_all, iter_masks, noise_log


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
    """Per-round metrics plus the final state; the noise log is built on first access.

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
    # a NoiseLog, or the (schedule, seeds, iters, m, single) that regenerate it
    _noise: object = field(default=None, repr=False)

    @property
    def noise_log(self):
        """The masks every round used: (iters, n, m), or (T, iters, n, m) for a batch."""
        if not isinstance(self._noise, NoiseLog):
            schedule, seeds, iters, m, single = self._noise
            log = noise_log(schedule, seeds, iters, m)
            self._noise = NoiseLog(eta=log.eta[0], zeta=log.zeta[0]) if single else log
        return self._noise

    def max_tracking_residual(self):
        return float(np.max(self.tracking_residual))


def init_state(instance, config):
    """Initial iterates; the tracker must start at the local mismatch."""
    n, m, p = instance.dims
    stk = _stacked(instance)
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float).reshape(n, p).copy()
    else:
        x0 = np.clip(np.zeros((n, p)), stk["lo"], stk["hi"])
    if config.mu0 is not None:
        mu0 = np.asarray(config.mu0, dtype=float).reshape(n, m).copy()
    else:
        mu0 = np.zeros((n, m))
    y0 = np.einsum("imp,ip->im", stk["A"], x0) - stk["d"]
    return EngineState(mu=mu0, x=x0, y=y0, round=0)


def _advance(instance, stk, W, alpha, mu, x, y, Ax, eta, zeta):
    """One synchronous round of a (T, n, .) batch; returns (mu1, x1, y1, Ax1).

    eta and zeta of None mean no masks (adding zeros would change nothing).
    """
    z_mu = mu if eta is None else mu + eta
    z_y = y if zeta is None else y + zeta
    mu1 = W @ z_mu - alpha * y
    c = np.einsum("imp,tim->tip", stk["A"], mu1)
    x1 = solve_all_from_c(instance, c, stk=stk)
    Ax1 = np.einsum("imp,tip->tim", stk["A"], x1)
    y1 = W @ z_y + Ax1 - Ax
    return mu1, x1, y1, Ax1


def step(state, instance, W, schedule, config, seed, noise=None):
    """Advance one round. `noise` overrides sampling with given (eta, zeta) arrays."""
    W = np.asarray(getattr(W, "W", W), dtype=float)
    stk = _stacked(instance)
    if noise is None:
        eta, zeta = draw_round_all(schedule, state.round, seed, instance.m)
    else:
        eta, zeta = noise
    Ax = np.einsum("imp,ip->im", stk["A"], state.x)
    try:
        mu1, x1, y1, _ = _advance(
            instance, stk, W, config.alpha, state.mu[None], state.x[None], state.y[None],
            Ax[None], np.asarray(eta)[None], np.asarray(zeta)[None],
        )
    except SolverFailure as exc:
        raise SolverFailure(f"round {state.round}: {exc}") from exc
    return EngineState(mu=mu1[0], x=x1[0], y=y1[0], round=state.round + 1)


def fixed_point_residual(state, instance, W):
    """(||(I - W) mu||, ||y||, ||sum_i (A_i x_i - d_i)||); all vanish at a fixed point."""
    W = np.asarray(getattr(W, "W", W), dtype=float)
    stk = _stacked(instance)
    consensus_mu = float(np.linalg.norm(state.mu - W @ state.mu))
    y_norm = float(np.linalg.norm(state.y))
    mismatch = np.einsum("imp,ip->im", stk["A"], state.x) - stk["d"]
    feasibility = float(np.linalg.norm(mismatch.sum(axis=0)))
    return consensus_mu, y_norm, feasibility


def _norms(a, axes):
    """2-norms over the trailing `axes` axes, computed like np.linalg.norm (one dot each)."""
    flat = a.reshape(a.shape[: a.ndim - axes] + (-1,))
    return np.sqrt((flat[..., None, :] @ flat[..., :, None])[..., 0, 0])


def _as_seeds(seed):
    """(seeds, single): an int seed is a batch of one whose outputs drop the trial axis."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed)], True
    seeds = [int(s) for s in seed]
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds, False


def _replay_masks(replay, trials, single, iters, shape):
    """Per-round (eta, zeta) views of a given NoiseLog, each (trials, n, m)."""
    eta = replay.eta[None] if single else replay.eta
    zeta = replay.zeta[None] if single else replay.zeta
    if replay.rounds < iters:
        raise ValueError(f"replay log has {replay.rounds} rounds, need {iters}")
    if eta.shape[0] != trials or eta.shape[2:] != shape or zeta.shape != eta.shape:
        raise ValueError(f"replay log of shape {replay.eta.shape} does not fit {trials} trials")
    return ((eta[:, k], zeta[:, k]) for k in range(iters))


def run(instance, W, schedule, config, seed, x_star=None, replay=None, keep_states=False):
    """Run `config.iters` rounds and record metrics every `config.record_every`.

    seed : int or sequence of int
        One trial per seed. A sequence runs the trials together as one
        (T, n, .) batch; each trial's outputs are bit-identical to a run
        given that seed alone.
    replay : NoiseLog, optional
        Re-feeds previously recorded masks instead of sampling, reproducing
        the original trajectory bit for bit. Shaped like the noise_log of a
        run with the same seed argument.
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
    stk = _stacked(instance)
    start = init_state(instance, config)
    T = len(seeds)
    mu = np.broadcast_to(start.mu, (T, n, m)).copy()
    x = np.broadcast_to(start.x, (T, n, p)).copy()
    y = np.broadcast_to(start.y, (T, n, m)).copy()
    Ax = np.einsum("imp,tip->tim", stk["A"], x)
    iters = config.iters
    alpha = config.alpha
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=float)

    if replay is not None:
        masks = _replay_masks(replay, T, single, iters, (n, m))
        noise = NoiseLog(eta=replay.eta[..., :iters, :, :], zeta=replay.zeta[..., :iters, :, :])
    else:
        masks = (
            repeat((None, None), iters)
            if schedule.zero_noise
            else iter_masks(schedule, seeds, iters, m)
        )
        noise = (schedule, seeds, iters, m, single)

    ks = np.arange(0, iters + 1, config.record_every)
    if ks[-1] != iters:
        ks = np.append(ks, iters)
    recorded = np.full((4, T, ks.shape[0]), np.nan)  # mse, consensus, tracking, feasibility
    zeta_cum = np.zeros((T, m))
    if keep_states:
        states_mu = np.empty((T, iters + 1, n, m))
        states_x = np.empty((T, iters + 1, n, p))
        states_mu[:, 0], states_x[:, 0] = mu, x

    def record(r):
        if x_star is not None:
            recorded[0, :, r] = ((x - x_star) ** 2).reshape(T, -1).sum(axis=1)
        recorded[1, :, r] = _norms(mu - W @ mu, 2)
        mismatch = (Ax - stk["d"]).sum(axis=1)
        defect = y.sum(axis=1) - mismatch - zeta_cum
        small = _norms(np.stack([mismatch, zeta_cum, defect], axis=1), 1)
        magnitude = _norms(y, 2) + small[:, 0] + small[:, 1]
        recorded[2, :, r] = small[:, 2] / (1.0 + magnitude)
        recorded[3, :, r] = small[:, 0]

    alive = np.arange(T)  # batch positions of the trials still finite
    diverged, diverged_at = [], None
    r = 0
    record(r)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (eta, zeta) in enumerate(masks):
            if diverged and eta is not None:
                eta, zeta = eta[alive], zeta[alive]
            try:
                mu, x, y, Ax = _advance(instance, stk, W, alpha, mu, x, y, Ax, eta, zeta)
            except SolverFailure as exc:
                raise SolverFailure(
                    f"round {k}: {exc}", trials=[int(alive[t]) for t in exc.trials]
                ) from exc
            if not (np.isfinite(mu).all() and np.isfinite(x).all() and np.isfinite(y).all()):
                ok = np.isfinite(mu).all(axis=(1, 2)) & np.isfinite(x).all(axis=(1, 2))
                ok &= np.isfinite(y).all(axis=(1, 2))
                diverged += [int(t) for t in alive[~ok]]
                diverged_at = diverged_at or k + 1
                alive = alive[ok]
                mu, x, y, Ax = mu[ok], x[ok], y[ok], Ax[ok]
                if not alive.size:
                    break
            if diverged:
                continue  # the run fails; only look for further divergent trials
            if zeta is not None:
                zeta_cum += zeta.sum(axis=1)
            if keep_states:
                states_mu[:, k + 1], states_x[:, k + 1] = mu, x
            if k + 1 == ks[r + 1]:
                r += 1
                record(r)
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
        _noise=noise,
    )
