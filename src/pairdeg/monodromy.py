"""Eigenpair transport around closed loops: permutations and geometric phases.

A loop g(phi) = center + radius*exp(i*phi) is sampled densely; states are
continued by eigenvalue matching and each state's phase is accumulated
incrementally from the overlap between consecutive continued eigenvectors,

    theta_m(phi_{k+1}) = theta_m(phi_k) - i*Log <u_m(phi_k) | u_m(phi_{k+1})>,

with the principal logarithm (steps are small, so every increment is small).
The real part of theta is the quantity plotted against phi; the imaginary
part records normalization drift.  At completed loops whose accumulated
permutation is the identity, the loop value of Re theta is snapped to the
exact endpoint holonomy arg<u(0)|u(2*pi*k)> -- a multiple of pi, since the
continued final vector equals the initial one up to sign -- using the
incremental sum only to resolve the 2*pi branch.  Finite loop radius shifts
the raw incremental sums by O(radius), so period detection uses the snapped
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import LoopError
from .model import as_family
from .spectra import (DEFAULT_TAU_C, LABEL_IM_TOL, AmbiguityRecord, _transport,
                      c_normalize, eigendecompose, match_states)

__all__ = ["LoopSpec", "LoopTrace", "trace_loop", "restore_count", "RestoreResult"]

PHASE_RETURN_TOL = 0.05
MIN_STEPS = 64


@dataclass(frozen=True)
class LoopSpec:
    """Circular loop in the coupling plane; orientation +1 is anticlockwise."""

    center: complex
    radius: float
    steps: int = 256
    loops: int = 1
    orientation: int = 1

    def __post_init__(self):
        if self.radius <= 0:
            raise LoopError(f"loop radius must be positive, got {self.radius}")
        if self.steps < MIN_STEPS:
            raise LoopError(f"need at least {MIN_STEPS} steps per loop, got {self.steps}")
        if self.loops < 1:
            raise LoopError("need at least one loop")
        if self.orientation not in (1, -1):
            raise LoopError("orientation must be +1 or -1")

    def point(self, phi: float) -> complex:
        return self.center + self.radius * np.exp(1j * phi)


def check_enclosure(loop: LoopSpec, degeneracies) -> int:
    """Validate that the loop encloses at most one listed degeneracy.

    Returns the number of enclosed roots (0 is allowed: trivial monodromy).
    Roots within 10% of the radius of the contour itself make continuation
    unreliable and are rejected.
    """
    inside = 0
    for root in degeneracies:
        d = abs(root.g0 - loop.center)
        if abs(d - loop.radius) < 0.1 * loop.radius:
            raise LoopError(
                f"degeneracy at {root.g0} lies within 10% of the loop contour"
            )
        if d < loop.radius:
            inside += 1
    if inside > 1:
        raise LoopError(f"loop encloses {inside} degeneracies; at most one allowed")
    return inside


def _cycle_notation(perm) -> str:
    """1-based cycle notation, e.g. '(2 3)'; identity prints as 'identity'."""
    seen = set()
    cycles = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cycle = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = perm[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(cycles) if cycles else "identity"


@dataclass
class LoopTrace:
    """Sampled loop: continued eigenvalues, phases and per-loop monodromy.

    Columns follow the labels fixed at phi = 0.  ``loop_permutations[k-1]``
    maps each continued state after k loops to the start label whose
    eigenvalue it now occupies.  ``loop_re_theta`` holds the holonomy-snapped
    real phases at loop boundaries (raw incremental values where the
    permutation is not the identity); ``raw_loop_theta`` keeps the unsnapped
    complex sums.  ``spec.loops`` is the number of loops traced; for the
    trace of ``restore_count`` that can be fewer than its ``max_loops``,
    whose sample angles ``phis`` it keeps.
    """

    spec: LoopSpec
    phis: np.ndarray
    eigenvalues: np.ndarray
    thetas: np.ndarray
    loop_permutations: list
    loop_re_theta: np.ndarray
    raw_loop_theta: np.ndarray
    ambiguities: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[1]

    def to_csv(self, path, meta=()):
        from ._csvio import write_csv

        names = ["phi"]
        for m in range(self.dim):
            names += [f"theta{m + 1}_re", f"theta{m + 1}_im",
                      f"E{m + 1}_re", f"E{m + 1}_im"]
        columns = [self.phis.tolist()]
        for m in range(self.dim):
            th, E = self.thetas[:, m], self.eigenvalues[:, m]
            columns += [th.real, th.imag, E.real, E.imag]
        write_csv(path, names, columns, meta=meta)

    def summary(self) -> dict:
        return {
            "center_re": self.spec.center.real,
            "center_im": self.spec.center.imag,
            "radius": self.spec.radius,
            "steps": self.spec.steps,
            "loops": self.spec.loops,
            "permutations": [
                _cycle_notation(p) for p in self.loop_permutations
            ],
            "loop_re_theta": [list(map(float, row)) for row in self.loop_re_theta],
        }


class _Turns:
    """Eigenpairs transported around ``loop``, one turn at a time.

    Iterating solves and transports the path up to the end of the next turn
    and yields the number of turns completed; ``perms[k - 1]`` is then turn
    k's permutation.  With ``vectors`` the start and every accepted state
    are c-normalized and sign-gauged, the phase increments are summed into
    ``thetas``, and each turn's raw and holonomy-snapped phases go to
    ``raw_loop`` and ``loop_re``.  Without, only eigenvalues are matched and
    the rest is never computed.  ``eigenvalues`` and ``thetas`` have rows
    for every turn of ``loop``; only those up to the end of the last turn
    yielded are final.  One transported block is held at a time.
    """

    def __init__(self, family, loop: LoopSpec, tau_c, vectors):
        self.family, self.loop, self.tau_c, self.vectors = family, loop, tau_c, vectors
        n_samples = loop.steps * loop.loops + 1
        self.phis = loop.orientation * np.linspace(0.0, 2 * np.pi * loop.loops,
                                                   n_samples)
        g0 = loop.point(self.phis[0])
        start = eigendecompose(family.matrix(g0), g=g0, im_tol=LABEL_IM_TOL)
        if vectors:
            start = c_normalize(start, tau_c=tau_c)
        self.start = start
        self.eigenvalues = np.empty((n_samples, start.dim), dtype=complex)
        self.eigenvalues[0] = start.eigenvalues
        # Increments until a turn ends, then theta_i = theta_{i-1} +
        # increment_i, added left to right.
        self.thetas = None
        if vectors:
            self.thetas = np.zeros((n_samples, start.dim), dtype=complex)
        self.records: list[AmbiguityRecord] = []
        self.perms, self.loop_re, self.raw_loop = [], [], []

    def __iter__(self):
        steps, thetas = self.loop.steps, self.thetas
        summed = 0  # thetas[:summed + 1] are final
        i = 1  # path point of the block's first row
        for E, V, _, _, increments in _transport(
                self.family, self.start, self.phis, self.loop.point, self.vectors,
                self.tau_c, self.vectors, self.records):
            k = len(E)
            self.eigenvalues[i:i + k] = E
            if increments is not None:
                thetas[i:i + k] = increments
            for end in range(-(-i // steps) * steps, i + k, steps):
                row = end - i
                perm = match_states(E[row], self.start.eigenvalues).perm
                self.perms.append(perm)
                if self.vectors:
                    thetas[summed:end + 1] = np.cumsum(thetas[summed:end + 1], axis=0)
                    summed = end
                    self._end_phases(perm, thetas[end], V[row])
                yield len(self.perms)
            i += k

    def _end_phases(self, perm, theta, vectors):
        """Record a turn's raw phases and its holonomy-snapped real phases."""
        self.raw_loop.append(theta.copy())
        snapped = theta.real.copy()
        start = self.start.eigenvectors
        if all(perm[j] == j for j in range(len(perm))):
            for k in range(len(perm)):
                ov = np.vdot(start[:, k], vectors[:, k])
                norm = np.linalg.norm(start[:, k]) * np.linalg.norm(vectors[:, k])
                if norm > 0 and abs(ov) > 0.2 * norm:
                    target = float(np.angle(ov))
                    snapped[k] = target + 2 * np.pi * np.round(
                        (theta[k].real - target) / (2 * np.pi)
                    )
        self.loop_re.append(snapped)

    def trace(self) -> LoopTrace:
        """The turns completed so far, as a trace of that many turns."""
        turns = len(self.perms)
        rows = turns * self.loop.steps + 1
        return LoopTrace(
            spec=replace(self.loop, loops=turns),
            phis=self.phis[:rows],
            eigenvalues=self.eigenvalues[:rows],
            thetas=self.thetas[:rows],
            loop_permutations=self.perms,
            loop_re_theta=np.array(self.loop_re),
            raw_loop_theta=np.array(self.raw_loop),
            ambiguities=self.records,
        )


def _checked_family(model_or_family, loop, degeneracies):
    """The family, once ``loop`` is checked against its degeneracies.

    ``degeneracies`` (the model's full root list) validates that the contour
    encloses at most one degeneracy and stays clear of all of them; None
    computes it here.
    """
    family = as_family(model_or_family)
    if degeneracies is None:
        from .discriminant import find_degeneracies

        degeneracies = find_degeneracies(family)
    check_enclosure(loop, degeneracies)
    return family


def trace_loop(model_or_family, loop: LoopSpec, degeneracies=None,
               tau_c: float = DEFAULT_TAU_C) -> LoopTrace:
    """Transport all eigenpairs around the loop, accumulating phases.

    ``degeneracies`` (the model's full root list) validates that the contour
    encloses at most one degeneracy and stays clear of all of them; pass it
    explicitly to avoid recomputation, or None to compute it here.
    """
    family = _checked_family(model_or_family, loop, degeneracies)
    turns = _Turns(family, loop, tau_c, vectors=True)
    for _ in turns:
        pass
    return turns.trace()


def _turn_permutation(model_or_family, loop: LoopSpec, degeneracies=None) -> tuple:
    """``trace_loop(...).loop_permutations[0]`` from eigenvalues alone.

    Matching reads only eigenvalues, so the vectors are neither
    c-normalized nor gauged and no phase is formed; the eigensolves are
    those of ``trace_loop``, so the permutation is too.
    """
    family = _checked_family(model_or_family, loop, degeneracies)
    turns = _Turns(family, loop, DEFAULT_TAU_C, vectors=False)
    next(iter(turns))
    return turns.perms[0]


class RestoreResult(NamedTuple):
    eigenvalue_period: int          # None if not restored within max_loops
    phase_period: int               # None if not restored within max_loops
    trace: LoopTrace

    @property
    def restored(self) -> bool:
        return self.eigenvalue_period is not None and self.phase_period is not None


def _restore_periods(permutations, loop_re_theta) -> tuple:
    """Smallest turn counts restoring (a) the eigenvalue assignment and (b)
    additionally all real phases to 0 mod 2*pi (within 0.05), among the
    turns given; None where none does."""
    eigenvalue_period = None
    for k, (perm, re) in enumerate(zip(permutations, loop_re_theta), start=1):
        if any(perm[j] != j for j in range(len(perm))):
            continue
        if eigenvalue_period is None:
            eigenvalue_period = k
        wrapped = re - 2 * np.pi * np.round(re / (2 * np.pi))
        if np.all(np.abs(wrapped) <= PHASE_RETURN_TOL):
            return eigenvalue_period, k
    return eigenvalue_period, None


def restore_count(model_or_family, loop: LoopSpec, max_loops: int,
                  degeneracies=None, tau_c: float = DEFAULT_TAU_C) -> RestoreResult:
    """Smallest loop counts restoring (a) the eigenvalue assignment and
    (b) additionally all real phases to 0 mod 2*pi (within 0.05).

    Turns are traced one at a time, up to ``max_loops``, and no further once
    the phase period is found: the returned trace ends there.  It is then
    the first turns of ``trace_loop`` on ``max_loops`` turns, bit for bit.
    """
    spec = LoopSpec(loop.center, loop.radius, loop.steps, max_loops, loop.orientation)
    family = _checked_family(model_or_family, spec, degeneracies)
    turns = _Turns(family, spec, tau_c, vectors=True)
    periods = (None, None)
    for _ in turns:
        periods = _restore_periods(turns.perms, turns.loop_re)
        if periods[1] is not None:
            break
    return RestoreResult(*periods, turns.trace())
