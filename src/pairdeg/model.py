"""Seniority-zero pair basis and operator matrices for the multi-level pairing model.

The Hamiltonian family is H(g) = T + g*(P + gamma*Q), where

* T is the single-particle energy, diagonal with entries sum_l eps_l * (2 n_l),
* P is the level-to-level pair-hopping matrix built from pair ladder operators
  with amplitude <n+1|B_l^+|n> = 2*sqrt((n+1)*(Omega_l/2 - n)), i.e.
  P = sum_{ij} B_i^+ B_j (the factor 2 per ladder makes every P element carry
  a factor 4 relative to the bare SU(2) ladders),
* Q is the anisotropy term, diagonal with entries sum_l (2 n_l)^2 (particle
  numbers squared).

This normalization is pinned by the trace identity Tr H(g) = Tr T +
g*(Tr P + gamma*Tr Q); for the reference three-level model (eps = 0,1,2,
Omega = 2,6,2, two pairs, gamma = -1/2) it gives Tr H = 16 + 36 g.

All matrices are small and dense; occupation states are ordered
lexicographically, and state labels used elsewhere in the package are 1-based
positions in the spectrum sorted by ascending imaginary part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidModelError

__all__ = [
    "LevelSpec",
    "ModelSpec",
    "OperatorMatrices",
    "MatrixFamily",
    "enumerate_basis",
    "build_operator_matrices",
    "hamiltonian_at",
]


@dataclass(frozen=True)
class LevelSpec:
    """One single-particle level: energy and (even) particle degeneracy."""

    epsilon: float
    omega: int

    def __post_init__(self):
        if self.omega < 2 or self.omega % 2 != 0:
            raise InvalidModelError(
                f"level degeneracy must be an even integer >= 2, got {self.omega}"
            )
        if not np.isfinite(self.epsilon):
            raise InvalidModelError(f"level energy must be finite, got {self.epsilon}")

    @property
    def capacity(self) -> int:
        """Maximum number of pairs the level can hold."""
        return self.omega // 2


@dataclass(frozen=True)
class ModelSpec:
    """Level structure, pair number and anisotropy ratio gamma = g'/g."""

    levels: tuple[LevelSpec, ...]
    n_pairs: int
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise InvalidModelError("model needs at least one level")
        if self.n_pairs < 0:
            raise InvalidModelError(f"n_pairs must be >= 0, got {self.n_pairs}")
        if self.n_pairs > sum(l.capacity for l in self.levels):
            raise InvalidModelError(
                f"{self.n_pairs} pairs exceed the total capacity "
                f"{sum(l.capacity for l in self.levels)}"
            )
        if not np.isfinite(self.gamma):
            raise InvalidModelError(f"gamma must be finite, got {self.gamma}")

    @classmethod
    def from_arrays(cls, epsilons, omegas, n_pairs, gamma) -> "ModelSpec":
        if len(epsilons) != len(omegas):
            raise InvalidModelError("epsilons and omegas must have equal length")
        levels = tuple(LevelSpec(float(e), int(w)) for e, w in zip(epsilons, omegas))
        return cls(levels, int(n_pairs), float(gamma))

    def with_gamma(self, gamma: float) -> "ModelSpec":
        return replace(self, gamma=float(gamma))

    def scaled(self, factor: float) -> "ModelSpec":
        """Rescale every level energy by a common positive factor."""
        if factor <= 0:
            raise InvalidModelError("scale factor must be positive")
        levels = tuple(LevelSpec(l.epsilon * factor, l.omega) for l in self.levels)
        return replace(self, levels=levels)

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(l.capacity for l in self.levels)

    def family(self) -> "MatrixFamily":
        return build_operator_matrices(self).family(self.gamma)


def enumerate_basis(model: ModelSpec) -> list[tuple[int, ...]]:
    """All pair-occupation tuples with sum n_pairs, in lexicographic order.

    Each entry obeys 0 <= n_l <= Omega_l/2; the ordering is deterministic and
    fixes the row/column convention of the operator matrices.
    """
    caps = model.capacities
    basis = [
        occ
        for occ in itertools.product(*[range(c + 1) for c in caps])
        if sum(occ) == model.n_pairs
    ]
    basis.sort()
    if not basis:
        # Unreachable for validated models, kept as a hard guard.
        raise InvalidModelError("no basis states: n_pairs exceeds capacity")
    return basis


@dataclass(frozen=True)
class OperatorMatrices:
    """Dense T (diagonal), P (symmetric) and Q (diagonal) in the pair basis."""

    T: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    basis: tuple[tuple[int, ...], ...] = field(default=())

    def family(self, gamma: float) -> "MatrixFamily":
        """H(g) = T + g*(P + gamma*Q) as a matrix family."""
        return MatrixFamily(self.T, self.P + float(gamma) * self.Q)


def build_operator_matrices(model: ModelSpec) -> OperatorMatrices:
    """Assemble T, P, Q from the ladder amplitudes in the module docstring.

    P's diagonal is sum_l 4*n_l*(cap_l - n_l + 1); its off-diagonal element
    between states that differ by moving one pair from level j to level i is
    4*sqrt((n_i+1)*(cap_i - n_i)) * sqrt(n_j*(cap_j - n_j + 1)).
    """
    basis = enumerate_basis(model)
    caps = model.capacities
    eps = [l.epsilon for l in model.levels]
    dim = len(basis)
    index = {occ: k for k, occ in enumerate(basis)}

    T = np.zeros((dim, dim))
    P = np.zeros((dim, dim))
    Q = np.zeros((dim, dim))
    for occ, k in index.items():
        T[k, k] = sum(e * 2 * n for e, n in zip(eps, occ))
        Q[k, k] = sum((2 * n) ** 2 for n in occ)
        P[k, k] = sum(4 * n * (c - n + 1) for n, c in zip(occ, caps))
        for i, j in itertools.permutations(range(len(caps)), 2):
            ni, nj = occ[i], occ[j]
            if ni + 1 > caps[i] or nj < 1:
                continue
            moved = list(occ)
            moved[i] += 1
            moved[j] -= 1
            target = index.get(tuple(moved))
            if target is not None:
                P[target, k] = 4.0 * np.sqrt((ni + 1) * (caps[i] - ni)) * np.sqrt(
                    nj * (caps[j] - nj + 1)
                )
    return OperatorMatrices(T=T, P=P, Q=Q, basis=tuple(basis))


@dataclass(frozen=True)
class MatrixFamily:
    """Matrix family affine in the coupling: H(g) = base + g * linear.

    Everything downstream (discriminant degree bounds, truncations for
    structural checks) only needs this affine structure, so block-diagonal toy
    families can be fed through the same machinery.
    """

    base: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base)
        linear = np.asarray(self.linear)
        if base.shape != linear.shape or base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise InvalidModelError("family parts must be equal square matrices")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "linear", linear)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def is_real(self) -> bool:
        return not (np.iscomplexobj(self.base) or np.iscomplexobj(self.linear))

    def matrix(self, g: complex) -> np.ndarray:
        return self.base + g * self.linear

    def matrices(self, gs) -> np.ndarray:
        """H(g) for each g of ``gs`` as one (k, n, n) stack.

        Broadcasting runs the same elementwise multiply and add as ``matrix``,
        so every slice is bit for bit ``matrix(g)``.
        """
        gs = np.asarray(gs)
        return self.base + gs[:, None, None] * self.linear

    def restricted(self, columns: np.ndarray) -> "MatrixFamily":
        """Congruence-truncate to span(columns): X^T H(g) X for each part."""
        X = np.asarray(columns)
        return MatrixFamily(X.T @ self.base @ X, X.T @ self.linear @ X)


def hamiltonian_at(model: ModelSpec, g: complex) -> np.ndarray:
    """H(g) = T + g*(P + gamma*Q); complex symmetric for every complex g."""
    return model.family().matrix(complex(g))


def as_family(model_or_family) -> MatrixFamily:
    """Accept either a ModelSpec or a prebuilt MatrixFamily."""
    if isinstance(model_or_family, MatrixFamily):
        return model_or_family
    if isinstance(model_or_family, ModelSpec):
        return model_or_family.family()
    raise TypeError(f"expected ModelSpec or MatrixFamily, got {type(model_or_family)!r}")
