"""Problem model: private quadratic costs, coupling constraint, local boxes.

The global problem is

    minimize   sum_i f_i(x_i)
    subject to sum_i A_i x_i = sum_i d_i,   x_i in X_i,

with f_i(x) = 0.5 x^T U x + v^T x + w strongly convex (U positive definite)
and X_i a box. Every A_i must have full row rank and nonsingular A_i^T A_i,
which together force square invertible coupling matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

# Default floor on the smallest eigenvalue of U; configs may tighten it.
DEFAULT_PHI_MIN = 1e-10

# Singular values below this fraction of the largest are treated as zero.
RANK_RTOL = 1e-10

# Off-diagonal entries below this fraction of the diagonal scale count as zero.
DIAG_RTOL = 1e-14


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """f(x) = 0.5 x^T U x + v^T x + w with U symmetric positive definite."""

    U: np.ndarray
    v: np.ndarray
    w: float = 0.0
    phi: float = field(init=False, repr=False)  # strong convexity modulus, min eigenvalue of U
    L: float = field(init=False, repr=False)  # Lipschitz constant of the gradient, max eigenvalue
    # the diagonal of U when its off-diagonal entries count as zero, else None
    diag: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if U.shape[0] != U.shape[1]:
            raise ValueError(f"U must be square, got shape {U.shape}")
        if v.shape != (U.shape[0],):
            raise ValueError(f"v has shape {v.shape}, expected ({U.shape[0]},)")
        if np.abs(U - U.T).max() > 1e-12 * max(1.0, np.abs(U).max()):
            raise ValueError("U must be symmetric")
        eig = np.linalg.eigvalsh(U)
        if eig[0] < DEFAULT_PHI_MIN:
            raise ValueError(f"U must be positive definite; smallest eigenvalue {eig[0]:.3e}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "phi", float(eig[0]))
        object.__setattr__(self, "L", float(eig[-1]))
        diag = np.diag(U)
        off_mass = np.abs(U - np.diag(diag)).max()
        diagonal = off_mass <= DIAG_RTOL * max(1.0, np.abs(diag).max())
        object.__setattr__(self, "diag", diag if diagonal else None)

    @classmethod
    def scalar(cls, u, v=0.0, w=0.0):
        """Scalar cost u x^2 + v x + w, stored as U = [[2u]]."""
        return cls(U=np.array([[2.0 * u]]), v=np.array([float(v)]), w=w)

    @property
    def p(self):
        return self.U.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.U @ x + self.v @ x + self.w)

    def gradient(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.p,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.p},)")
        return self.U @ x + self.v


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Componentwise bounds lower <= x <= upper; infinities allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lower and upper must have the same shape")
        if np.any(lo > hi):
            raise ValueError("empty box: lower exceeds upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def interval(cls, lo, hi):
        return cls(lower=np.array([float(lo)]), upper=np.array([float(hi)]))

    @property
    def p(self):
        return self.lower.shape[0]

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol=1e-12):
        x = np.asarray(x, dtype=float)
        scale = 1.0 + np.abs(x)
        return bool(
            np.all(x >= self.lower - tol * scale) and np.all(x <= self.upper + tol * scale)
        )

    def shifted(self, delta):
        return BoxSet(lower=self.lower + delta, upper=self.upper + delta)


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One agent: cost f_i, coupling matrix A_i (m x p), demand d_i, box X_i."""

    cost: QuadraticCost
    A: np.ndarray
    d: np.ndarray
    box: BoxSet
    A_norm: float = field(init=False, repr=False)  # spectral norm ||A_i||
    lamAA_min: float = field(init=False, repr=False)  # smallest eigenvalue of A_i^T A_i

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        m, p = A.shape
        if d.shape != (m,):
            raise ValueError(f"d has shape {d.shape}, expected ({m},)")
        if self.cost.p != p:
            raise ValueError(f"cost dimension {self.cost.p} does not match A columns {p}")
        if self.box.p != p:
            raise ValueError(f"box dimension {self.box.p} does not match A columns {p}")
        s = np.linalg.svd(A, compute_uv=False)
        smax = s[0]
        if p < m or s[-1] <= RANK_RTOL * smax:
            raise ValueError("A must have full row rank (m <= p with nonzero singular values)")
        if p > m:
            # A^T A is p x p with rank at most m, hence singular.
            raise ValueError("A^T A is singular when p > m; its smallest eigenvalue must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "A_norm", float(smax))
        object.__setattr__(self, "lamAA_min", float(s[-1] ** 2))

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """All agents plus shared dimensions (n, m, p) and their stacked arrays.

    A (n, m, p), v, lower, upper (n, p) and d (n, m) stack the agents' data;
    diag (n, p) stacks the diagonals of U when every agent's U is diagonal,
    else it is None.
    """

    agents: tuple
    A: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    lower: np.ndarray = field(init=False, repr=False)
    upper: np.ndarray = field(init=False, repr=False)
    d: np.ndarray = field(init=False, repr=False)
    diag: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise ValueError("instance needs at least one agent")
        m, p = agents[0].m, agents[0].p
        for k, a in enumerate(agents):
            if (a.m, a.p) != (m, p):
                raise ValueError(f"agent {k} has dims (m={a.m}, p={a.p}), expected ({m}, {p})")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "A", np.stack([a.A for a in agents]))
        object.__setattr__(self, "v", np.stack([a.cost.v for a in agents]))
        object.__setattr__(self, "lower", np.stack([a.box.lower for a in agents]))
        object.__setattr__(self, "upper", np.stack([a.box.upper for a in agents]))
        object.__setattr__(self, "d", np.stack([a.d for a in agents]))
        diagonal = all(a.cost.diag is not None for a in agents)
        diag = np.stack([a.cost.diag for a in agents]) if diagonal else None
        object.__setattr__(self, "diag", diag)

    @property
    def n(self):
        return len(self.agents)

    @property
    def m(self):
        return self.agents[0].m

    @property
    def p(self):
        return self.agents[0].p

    @property
    def dims(self):
        return (self.n, self.m, self.p)

    @property
    def total_demand(self):
        return self.d.sum(axis=0)

    def objective(self, x):
        """sum_i f_i(x_i) for stacked x of shape (n, p)."""
        x = np.asarray(x, dtype=float).reshape(self.n, self.p)
        return float(sum(a.cost.value(x[i]) for i, a in enumerate(self.agents)))


class Moduli(NamedTuple):
    """Instance-wide constants used by every bound."""

    phi_under: float  # min over agents of the strong convexity modulus
    L_bar: float  # max over agents of the gradient Lipschitz constant
    A_norm: float  # spectral norm of blkdiag(A_1..A_n) = max_i ||A_i||
    lamAA_min: float  # min over agents of the smallest eigenvalue of A_i^T A_i


def moduli(instance):
    """Compute (phi_under, L_bar, A_norm, lamAA_min) for a validated instance."""
    phi_under = min(a.cost.phi for a in instance.agents)
    L_bar = max(a.cost.L for a in instance.agents)
    A_norm = max(a.A_norm for a in instance.agents)
    lamAA_min = min(a.lamAA_min for a in instance.agents)
    return Moduli(phi_under, L_bar, A_norm, lamAA_min)


def shift_adjacent(instance, i0, delta_prime):
    """Return a copy where agent i0's cost becomes f(x - delta') and its box moves by +delta'.

    For quadratics: v <- v - U delta', w <- w + 0.5 delta'^T U delta' - v^T delta'.
    The shifted agent satisfies grad f'(x + delta') = grad f(x) everywhere.
    """
    if not 0 <= i0 < instance.n:
        raise IndexError(f"agent index {i0} out of range for n={instance.n}")
    delta_prime = np.atleast_1d(np.asarray(delta_prime, dtype=float))
    if delta_prime.shape != (instance.p,):
        raise ValueError(f"delta_prime has shape {delta_prime.shape}, expected ({instance.p},)")
    old = instance.agents[i0]
    U, v, w = old.cost.U, old.cost.v, old.cost.w
    new_cost = QuadraticCost(
        U=U.copy(),
        v=v - U @ delta_prime,
        w=w + 0.5 * delta_prime @ U @ delta_prime - v @ delta_prime,
    )
    shifted = AgentSpec(cost=new_cost, A=old.A.copy(), d=old.d.copy(), box=old.box.shifted(delta_prime))
    agents = list(instance.agents)
    agents[i0] = shifted
    return ProblemInstance(agents=tuple(agents))
