"""Communication graphs and doubly stochastic mixing matrices.

Agents communicate over an undirected connected graph. Consensus steps use a
symmetric doubly stochastic weight matrix W built from Metropolis-Hastings
weights; its contraction is measured by the spectral gap
lambda_bar = ||W - (1/n) 1 1^T||_2 < 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Tolerance for the doubly stochastic invariant on row/column sums.
STOCHASTIC_TOL = 1e-12

# Stopping rule of `spectral_gap`'s power iteration: relative change, iterations.
GAP_REL_TOL, GAP_MAX_ITER = 1e-10, 10_000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on agents 0..n-1.

    Parameters
    ----------
    n : int
        Number of agents, at least 2.
    edges : frozenset of (int, int)
        Unordered pairs (i, j) with i < j; no self-loops.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"need at least 2 agents, got n={self.n}")
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < self.n):
                raise ConfigError(f"edge {e} is not a valid pair with i < j within 0..{self.n - 1}")

    @classmethod
    def from_edges(cls, n, pairs):
        """Build a Graph from an iterable of (i, j) pairs, normalizing order."""
        seen = set()
        for i, j in pairs:
            i, j = int(i), int(j)
            if i == j:
                raise ConfigError(f"self-loop ({i},{i}) is not allowed")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ConfigError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n=n, edges=frozenset(seen))

    def degrees(self):
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def is_connected(self):
        """Breadth-first check that all agents are in one component."""
        adj = self.adjacency()
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Doubly stochastic weight matrix W and its spectral gap.

    Invariants: W is nonnegative and symmetric, every row and column sums to 1
    within 1e-12, and lambda_bar = ||W - (1/n) 1 1^T||_2 < 1 for connected graphs.
    """

    W: np.ndarray
    lambda_bar: float

    @property
    def n(self):
        return self.W.shape[0]


def ring_plus_random(n, extra_edges, seed):
    """Ring 0-1-...-(n-1)-0 plus `extra_edges` distinct random chords.

    Parameters
    ----------
    n : int
        Agent count, at least 2.
    extra_edges : int
        Number of chords to add on top of the ring; must not exceed the
        number of pairs not already on the ring.
    seed : int
        Chord selection is deterministic given this seed.

    Returns
    -------
    Graph
        Connected by construction.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 agents, got n={n}")
    ring = {(i, (i + 1) % n) for i in range(n)}
    ring = {(min(i, j), max(i, j)) for i, j in ring}
    chords = sorted(
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in ring
    )
    if extra_edges < 0 or extra_edges > len(chords):
        raise ConfigError(
            f"extra_edges={extra_edges} exceeds the {len(chords)} available chords for n={n}"
        )
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(chords), size=extra_edges, replace=False) if extra_edges else []
    edges = set(ring) | {chords[k] for k in np.sort(np.asarray(picked, dtype=int))}
    g = Graph(n=n, edges=frozenset(edges))
    assert g.is_connected()
    return g


def metropolis_weights(g):
    """Metropolis-Hastings mixing matrix for a connected graph.

    w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal takes the slack.
    The result is symmetric and doubly stochastic.
    """
    if not g.is_connected():
        raise ConfigError("graph is disconnected; consensus would not mix")
    n = g.n
    deg = g.degrees()
    W = np.zeros((n, n))
    for i, j in g.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = w
        W[j, i] = w
    W[np.diag_indices(n)] = 1.0 - W.sum(axis=1)
    lam = spectral_gap(W)
    mix = MixingMatrix(W=W, lambda_bar=lam)
    _check_mixing(mix)
    return mix


def _check_mixing(mix):
    W = mix.W
    n = W.shape[0]
    if W.min() < 0:
        raise ConfigError("mixing matrix has a negative entry")
    if np.abs(W - W.T).max() > STOCHASTIC_TOL:
        raise ConfigError("mixing matrix is not symmetric")
    row_err = np.abs(W.sum(axis=1) - 1.0).max()
    col_err = np.abs(W.sum(axis=0) - 1.0).max()
    if row_err > STOCHASTIC_TOL or col_err > STOCHASTIC_TOL:
        raise ConfigError(
            f"mixing matrix is not doubly stochastic: row err {row_err:.2e}, col err {col_err:.2e}"
        )
    if not mix.lambda_bar < 1.0 - 1e-9:
        raise ConfigError(f"spectral gap {mix.lambda_bar} is not below 1; graph may be disconnected")


def spectral_gap(W):
    """Spectral norm of W - (1/n) 1 1^T by power iteration on its Gram matrix.

    Deterministic start vectors: the all-ones direction is annihilated by the
    centered matrix, so starts are tilted by a ramp; a second alternating-sign
    start guards against a start orthogonal to the top eigenvector, and the
    larger of the two converged estimates is returned. The product B v of the
    Rayleigh quotient v^T B v is the next iteration's w.
    """
    W = np.asarray(getattr(W, "W", W), dtype=float)
    n = W.shape[0]
    Wt = W - 1.0 / n
    if np.abs(Wt).max() < 1e-15:
        return 0.0
    B = Wt.T @ Wt
    starts = [
        np.ones(n) + np.linspace(0.0, 1.0, n),
        np.where(np.arange(n) % 2 == 0, 1.0, -1.0) + 0.3 * np.linspace(0.0, 1.0, n),
    ]
    best = 0.0
    for v in starts:
        v = v / np.linalg.norm(v)
        w = B @ v
        sigma = 0.0
        for _ in range(GAP_MAX_ITER):
            nw = np.linalg.norm(w)
            if nw == 0.0:
                sigma = 0.0
                break
            v = w / nw
            w = B @ v
            new = float(v @ w)
            if abs(new - sigma) <= GAP_REL_TOL * max(abs(new), 1e-30):
                sigma = new
                break
            sigma = new
        best = max(best, np.sqrt(max(sigma, 0.0)))
    return float(best)
