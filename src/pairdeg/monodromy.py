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

import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import LoopError
from .model import as_family
from .spectra import (DEFAULT_TAU_C, LABEL_IM_TOL, Spectrum, _eig_stack, _in_stacks,
                      _solve_path, _transport, c_normalize, eigendecompose, match_states)

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
        if not (np.isfinite(self.center) and np.isfinite(self.radius)):
            raise LoopError(f"loop center {self.center} and radius {self.radius} "
                            "must be finite")
        if self.radius <= 0:
            raise LoopError(f"loop radius must be positive, got {self.radius}")
        if not all(isinstance(v, numbers.Integral) for v in (self.steps, self.loops)):
            raise LoopError(f"steps per loop and loops must be integers, got "
                            f"{self.steps!r} and {self.loops!r}")
        if self.steps < MIN_STEPS:
            raise LoopError(f"need at least {MIN_STEPS} steps per loop, got {self.steps}")
        if self.loops < 1:
            raise LoopError("need at least one loop")
        if self.orientation not in (1, -1):
            raise LoopError("orientation must be +1 or -1")

    def point(self, phi):
        """The coupling at angle ``phi``, or an array of them at an array of angles."""
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
        columns = [self.phis]
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


def _snapped_phases(perm, theta, start, vectors) -> np.ndarray:
    """A turn's real phases ``theta.real``, snapped to the endpoint holonomy
    against the ``start`` vectors where ``perm`` is the identity."""
    snapped = theta.real.copy()
    if all(perm[j] == j for j in range(len(perm))):
        for k in range(len(perm)):
            ov = np.vdot(start[:, k], vectors[:, k])
            norm = np.linalg.norm(start[:, k]) * np.linalg.norm(vectors[:, k])
            if norm > 0 and abs(ov) > 0.2 * norm:
                target = float(np.angle(ov))
                snapped[k] = target + 2 * np.pi * np.round(
                    (theta[k].real - target) / (2 * np.pi)
                )
    return snapped


def _turns(family, loop: LoopSpec, tau_c):
    """Eigenpairs and phases transported around ``loop``, one turn at a time.

    The start is the eigensystem at ``loop.point(phis[0])`` in canonical
    order with ``LABEL_IM_TOL`` clustering, c-normalized; the rest of the
    path is solved one block at a time as it goes (``_solve_path``).  After
    turn k it yields the ``LoopTrace`` of the first k turns: its arrays are
    views of buffers that later turns only extend, and ``ambiguities`` is
    the live record list.
    """
    phis, gs = _loop_path(loop)
    start = eigendecompose(family.matrix(gs[0]), g=gs[0], im_tol=LABEL_IM_TOL)
    start = c_normalize(start, tau_c=tau_c)
    eigenvalues = np.empty((len(phis), start.dim), dtype=complex)
    eigenvalues[0] = start.eigenvalues
    # Increments until a turn ends, then theta_i = theta_{i-1} + increment_i,
    # added left to right.
    thetas = np.zeros((len(phis), start.dim), dtype=complex)
    records, perms, loop_re, raw_loop = [], [], [], []
    steps, summed = loop.steps, 0  # thetas[:summed + 1] are final
    i = 1  # path point of the block's first row
    for E, V, _, _, increments in _transport(family, start, phis, loop.point,
                                             _solve_path(family, gs[1:]), True, tau_c,
                                             True, records):
        k = len(E)
        eigenvalues[i:i + k] = E
        thetas[i:i + k] = increments
        for end in range(-(-i // steps) * steps, i + k, steps):
            row = end - i
            perm = match_states(E[row], start.eigenvalues).perm
            perms.append(perm)
            thetas[summed:end + 1] = np.cumsum(thetas[summed:end + 1], axis=0)
            summed = end
            raw_loop.append(thetas[end].copy())
            loop_re.append(_snapped_phases(perm, thetas[end], start.eigenvectors, V[row]))
            yield LoopTrace(replace(loop, loops=len(perms)), phis[:end + 1],
                            eigenvalues[:end + 1], thetas[:end + 1], list(perms),
                            np.array(loop_re), np.array(raw_loop), records)
        i += k


def _loop_path(loop: LoopSpec):
    """The sample angles of ``loop`` and, as one array, its couplings there."""
    phis = loop.orientation * np.linspace(0.0, 2 * np.pi * loop.loops,
                                          loop.steps * loop.loops + 1)
    return phis, loop.point(phis)


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
    for trace in _turns(family, loop, tau_c):
        pass
    return trace


def _turn_permutations(loops) -> list:
    """``trace_loop(...).loop_permutations[0]`` of each (family, loop,
    degeneracies) of ``loops``, from eigenvalues alone; every loop has one
    turn, as ``atlas`` builds its verification loops.

    Each path goes through ``_transport`` without vectors, as the cuts of
    ``continue_spectrum`` do: the vectors are neither c-normalized nor
    gauged and no phase is formed, and the permutation matches the last
    point's eigenvalues to the start's.  The loops, of one dimension, go in
    groups whose paths fit in one stack, sized by the longest loop
    (``_in_stacks``, ``_first_turns``).  Each row is what ``trace_loop``
    solves there, so each permutation is too, and an error is the one the
    first failing loop raises alone.
    """
    if not loops:
        return []
    longest = max(loop.steps * loop.loops for _, loop, _ in loops)
    return [perm for perms in _in_stacks(_first_turns, loops, as_family(loops[0][0]).dim,
                                         longest, vectors=True) for perm in perms]


def _first_turns(loops) -> list:
    """``_turn_permutations`` of a group: the start points are solved in one
    stack, and the paths in another, one block per path; a group of one
    loop solves its path as ``trace_loop`` does (``_solve_path``)."""
    families = [_checked_family(f, loop, degeneracies) for f, loop, degeneracies in loops]
    paths = [_loop_path(loop) for _, loop, _ in loops]
    firsts = [gs[0] for _, gs in paths]
    E, V, b = _eig_stack(np.concatenate([f.matrices([g]) for f, g in zip(families, firsts)]),
                         firsts, LABEL_IM_TOL)
    rests = [gs[1:] for _, gs in paths]
    if len(loops) == 1:
        solved = [_solve_path(families[0], rests[0])]
    else:
        stack = _eig_stack(np.concatenate([f.matrices(gs) for f, gs in zip(families, rests)]),
                           [g for gs in rests for g in gs])
        ends = np.cumsum([len(gs) for gs in rests])[:-1]
        solved = [[(gs, *block)] for gs, *block in
                  zip(rests, *(np.split(a, ends) for a in stack))]
    perms = []
    for k, (family, (_, loop, _)) in enumerate(zip(families, loops)):
        start = Spectrum(complex(firsts[k]), E[k], V[k], b[k])
        for last, *_ in _transport(family, start, paths[k][0], loop.point, solved[k],
                                   False, DEFAULT_TAU_C, False, []):
            pass
        perms.append(match_states(last[-1], start.eigenvalues).perm)
    return perms


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
                  degeneracies=None) -> RestoreResult:
    """Smallest loop counts restoring (a) the eigenvalue assignment and
    (b) additionally all real phases to 0 mod 2*pi (within 0.05).

    Turns are traced one at a time, up to ``max_loops``, and no further once
    the phase period is found: the returned trace ends there.  It is then
    the first turns of ``trace_loop`` on ``max_loops`` turns, bit for bit.
    """
    spec = LoopSpec(loop.center, loop.radius, loop.steps, max_loops, loop.orientation)
    family = _checked_family(model_or_family, spec, degeneracies)
    for trace in _turns(family, spec, DEFAULT_TAU_C):
        periods = _restore_periods(trace.loop_permutations, trace.loop_re_theta)
        if periods[1] is not None:
            break
    return RestoreResult(*periods, trace)
