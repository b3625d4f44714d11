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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LoopError
from .model import as_family
from .spectra import (DEFAULT_TAU_C, AmbiguityRecord, _transport, c_normalize,
                      eigendecompose, match_states)

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
    complex sums.
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
        rows = []
        for i, phi in enumerate(self.phis):
            row = [float(phi)]
            for m in range(self.dim):
                th = self.thetas[i, m]
                E = self.eigenvalues[i, m]
                row += [th.real, th.imag, E.real, E.imag]
            rows.append(row)
        write_csv(path, names, rows, meta=meta)

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


def trace_loop(model_or_family, loop: LoopSpec, degeneracies=None,
               tau_c: float = DEFAULT_TAU_C, label_im_tol: float = 1e-3) -> LoopTrace:
    """Transport all eigenpairs around the loop, accumulating phases.

    ``degeneracies`` (the model's full root list) validates that the contour
    encloses at most one degeneracy and stays clear of all of them; pass it
    explicitly to avoid recomputation, or None to compute it here.
    """
    family = as_family(model_or_family)
    if degeneracies is None:
        from .discriminant import find_degeneracies

        degeneracies = find_degeneracies(family)
    check_enclosure(loop, degeneracies)

    n_samples = loop.steps * loop.loops + 1
    phis = loop.orientation * np.linspace(0.0, 2 * np.pi * loop.loops, n_samples)
    g0 = loop.point(phis[0])
    start = c_normalize(
        eigendecompose(family.matrix(g0), g=g0, im_tol=label_im_tol), tau_c=tau_c
    )
    dim = start.dim

    eigenvalues = np.empty((n_samples, dim), dtype=complex)
    eigenvalues[0] = start.eigenvalues
    increments = np.zeros((n_samples, dim), dtype=complex)
    records: list[AmbiguityRecord] = []
    ends = []
    for i, (current, step) in enumerate(
            _transport(family, start, phis, loop.point, True, tau_c, True, records),
            start=1):
        increments[i] = step
        eigenvalues[i] = current.eigenvalues
        if i % loop.steps == 0:
            ends.append((i, current))
    # theta_i = theta_{i-1} + increment_i, added left to right.
    thetas = np.cumsum(increments, axis=0)
    loop_perms = []
    loop_re = []
    raw_loop = []
    for i, current in ends:
        m = match_states(current.eigenvalues, start.eigenvalues)
        perm = m.perm
        loop_perms.append(perm)
        raw_loop.append(thetas[i].copy())
        snapped = thetas[i].real.copy()
        if all(perm[j] == j for j in range(dim)):
            for k in range(dim):
                ov = np.vdot(start.eigenvectors[:, k], current.eigenvectors[:, k])
                norm = (np.linalg.norm(start.eigenvectors[:, k])
                        * np.linalg.norm(current.eigenvectors[:, k]))
                if norm > 0 and abs(ov) > 0.2 * norm:
                    target = float(np.angle(ov))
                    snapped[k] = target + 2 * np.pi * np.round(
                        (thetas[i, k].real - target) / (2 * np.pi)
                    )
        loop_re.append(snapped)

    return LoopTrace(
        spec=loop,
        phis=phis,
        eigenvalues=eigenvalues,
        thetas=thetas,
        loop_permutations=loop_perms,
        loop_re_theta=np.array(loop_re),
        raw_loop_theta=np.array(raw_loop),
        ambiguities=records,
    )


class RestoreResult(NamedTuple):
    eigenvalue_period: int          # None if not restored within max_loops
    phase_period: int               # None if not restored within max_loops
    trace: LoopTrace

    @property
    def restored(self) -> bool:
        return self.eigenvalue_period is not None and self.phase_period is not None


def restore_count(model_or_family, loop: LoopSpec, max_loops: int,
                  degeneracies=None, tau_c: float = DEFAULT_TAU_C) -> RestoreResult:
    """Smallest loop counts restoring (a) the eigenvalue assignment and
    (b) additionally all real phases to 0 mod 2*pi (within 0.05)."""
    spec = LoopSpec(loop.center, loop.radius, loop.steps, max_loops, loop.orientation)
    trace = trace_loop(model_or_family, spec, degeneracies=degeneracies, tau_c=tau_c)
    eigenvalue_period = None
    phase_period = None
    for k in range(1, max_loops + 1):
        perm = trace.loop_permutations[k - 1]
        if any(perm[j] != j for j in range(trace.dim)):
            continue
        if eigenvalue_period is None:
            eigenvalue_period = k
        re = trace.loop_re_theta[k - 1]
        wrapped = re - 2 * np.pi * np.round(re / (2 * np.pi))
        if phase_period is None and np.all(np.abs(wrapped) <= PHASE_RETURN_TOL):
            phase_period = k
            break
    return RestoreResult(eigenvalue_period, phase_period, trace)
