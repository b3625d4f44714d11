"""Classification of degeneracies and their trajectories under the gamma sweep.

Classification is two-tier: algebraic multiplicity of the discriminant root
first, then eigenvector coalescence (the self-orthogonality measure of the
involved pair), with a small monodromy loop as tie-breaker for double roots.
Multiplicity alone cannot separate a diabolic point from the double-root
degeneracy formed by two merged exceptional points: the distinction lives
entirely in the eigenvectors.

Kinds:

* EP        simple root, merging pair self-orthogonal (square-root branch point)
* DP        double root, both eigenvectors keep finite c-norm (level crossing)
* PSEUDO_DP double root, eigenvectors coalesce, eigenvalue monodromy trivial
* UNRESOLVED inconsistent evidence (reported with a diagnostic note), including
  double roots whose verification loop shows an eigenvalue exchange: those are
  two exceptional points closer than the root finder resolves, reported as a
  cluster rather than classified.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .discriminant import (DEFAULT_CLUSTER_FACTOR, DEFAULT_RADIUS, DegeneracyRoot,
                           _degeneracies, contour_moments, find_degeneracies)
from .errors import PairdegError
from .model import ModelSpec, as_family, build_operator_matrices
from .monodromy import LoopSpec, _turn_permutations
from .spectra import (DEFAULT_TAU_C, EPS, _c_normalize_stack, _in_stacks, c_normalize,
                      closest_pair, eigendecompose)

__all__ = [
    "Kind",
    "DegeneracyPoint",
    "classify",
    "classify_all",
    "sweep_gamma",
    "GammaTrajectory",
    "MergeEvent",
    "pair_truncation_family",
]

DEFAULT_LOOP_RADIUS = 0.01
DEFAULT_LOOP_STEPS = 64
DEFAULT_MERGE_RADIUS = 1e-4
# Share of the distance to the nearest other root that a circle around a
# root may span: the sweep's merge circles and the verification loops.
CIRCLE_FRACTION = 0.45
# Merge refinement (see _merge_event and sweep_gamma).
S0_TOL = 1e-6
MAX_HALVINGS = 40
MAX_FALSI_STEPS = 100


class Kind(str, Enum):
    EP = "EP"
    DP = "DP"
    PSEUDO_DP = "PSEUDO_DP"
    UNRESOLVED = "UNRESOLVED"


@dataclass
class DegeneracyPoint:
    """A classified degeneracy root."""

    root: DegeneracyRoot
    kind: Kind
    coalescence: float
    monodromy_permutation: tuple = None
    note: str = ""

    @property
    def g0(self) -> complex:
        return self.root.g0

    def as_dict(self) -> dict:
        d = self.root.as_dict()
        d["kind"] = self.kind.value
        # JSON has no NaN: an unclassified point's coalescence is null.
        d["coalescence"] = None if math.isnan(self.coalescence) else self.coalescence
        if self.monodromy_permutation is not None:
            d["monodromy_permutation"] = [p + 1 for p in self.monodromy_permutation]
        if self.note:
            d["note"] = self.note
        return d


def _verification_loop(root, degeneracies, loop_radius, loop_steps) -> LoopSpec:
    """The small loop around ``root`` that ``classify`` checks for an exchange."""
    radius = loop_radius
    for other in degeneracies:
        if other is root or abs(other.g0 - root.g0) < 1e-12:
            continue
        radius = min(radius, CIRCLE_FRACTION * abs(other.g0 - root.g0))
    return LoopSpec(root.g0, radius, steps=loop_steps, loops=1)


def _check_loop_settings(loop_radius, loop_steps) -> None:
    """Raise the LoopError of ``LoopSpec`` for settings no verification loop
    can take, so that the outcome does not depend on which roots are found."""
    LoopSpec(0j, loop_radius, steps=loop_steps)


def _classify_roots(jobs, tau_c, loop_radius, loop_steps) -> list:
    """``classify`` of each (family, root, degeneracies) of ``jobs``, in lockstep.

    The coalescence of every root is read from one stacked c-normalisation
    of the spectra the roots keep (a root built without one is solved
    here), and the verification loops of every multiplicity-2 root are
    solved in shared stacks (``_turn_permutations``).  Every row is what the
    root gives alone, so every point is too.
    """
    spectra = [root.spectrum if root.spectrum is not None
               else eigendecompose(family.matrix(root.g0), g=root.g0)
               for family, root, _ in jobs]
    if not spectra:
        return []
    _, B, _ = _c_normalize_stack(np.array([s.eigenvalues for s in spectra]),
                                 np.array([s.eigenvectors for s in spectra]), tau_c)
    perms = iter(_turn_permutations([
        (family, _verification_loop(root, roots, loop_radius, loop_steps), roots)
        for family, root, roots in jobs if root.multiplicity == 2]))
    points = []
    for (_, root, _), b in zip(jobs, np.abs(B)):
        i, j = (k - 1 for k in root.involved_pair)
        coalescence = float(min(b[i], b[j]))
        flags = (bool(b[i] <= tau_c), bool(b[j] <= tau_c))
        perm = next(perms) if root.multiplicity == 2 else None
        points.append(_decide(root, coalescence, flags, perm, tau_c))
    return points


def _decide(root, coalescence, flags, perm, tau_c) -> DegeneracyPoint:
    """The kind that the evidence of ``classify`` gives ``root``.

    ``coalescence`` is min |b| of the involved pair at g0, ``flags`` whether
    each of the two is self-orthogonal, and ``perm`` the eigenvalue
    permutation of the verification loop of a multiplicity-2 root.
    """
    if root.multiplicity == 1:
        if all(flags) or coalescence <= tau_c:
            return DegeneracyPoint(root, Kind.EP, coalescence)
        return DegeneracyPoint(
            root, Kind.UNRESOLVED, coalescence,
            note="simple root without eigenvector coalescence",
        )

    if root.multiplicity == 2:
        identity = all(p == k for k, p in enumerate(perm))
        if not identity:
            return DegeneracyPoint(
                root, Kind.UNRESOLVED, coalescence, monodromy_permutation=perm,
                note="unresolved EP cluster: eigenvalue exchange around a "
                     "multiplicity-2 root",
            )
        if all(flags):
            return DegeneracyPoint(root, Kind.PSEUDO_DP, coalescence, perm)
        if not any(flags):
            return DegeneracyPoint(root, Kind.DP, coalescence, perm)
        return DegeneracyPoint(
            root, Kind.UNRESOLVED, coalescence, monodromy_permutation=perm,
            note="mixed coalescence evidence on the merging pair",
        )

    return DegeneracyPoint(
        root, Kind.UNRESOLVED, coalescence,
        note=f"multiplicity {root.multiplicity} cluster not classified",
    )


def classify(model_or_family, root: DegeneracyRoot, degeneracies=None,
             tau_c: float = DEFAULT_TAU_C, loop_radius: float = DEFAULT_LOOP_RADIUS,
             loop_steps: int = DEFAULT_LOOP_STEPS) -> DegeneracyPoint:
    """Assign EP / DP / PSEUDO_DP (or UNRESOLVED) to one degeneracy root.

    For multiplicity-2 roots a small encircling loop verifies that the
    eigenvalues do not permute; an exchange there means the root is really a
    pair of unresolved exceptional points and is reported UNRESOLVED with a
    cluster note.  The coalescence is read from the spectrum the root keeps,
    so ``root`` must come from ``find_degeneracies`` on this same family.
    """
    _check_loop_settings(loop_radius, loop_steps)
    family = as_family(model_or_family)
    if degeneracies is None:
        degeneracies = find_degeneracies(family)
    return _classify_roots([(family, root, degeneracies)], tau_c, loop_radius,
                           loop_steps)[0]


def classify_all(model_or_family, tau_c: float = DEFAULT_TAU_C,
                 radius: float = DEFAULT_RADIUS,
                 loop_radius: float = DEFAULT_LOOP_RADIUS,
                 loop_steps: int = DEFAULT_LOOP_STEPS,
                 cluster_factor: float = DEFAULT_CLUSTER_FACTOR) -> list:
    """find_degeneracies followed by classify on every root.

    Loop settings that no verification loop can take raise LoopError,
    whatever roots are found.
    """
    _check_loop_settings(loop_radius, loop_steps)
    return _classify_families([as_family(model_or_family)], tau_c, radius, loop_radius,
                              loop_steps, cluster_factor)[0]


def _classify_families(families, tau_c, radius, loop_radius, loop_steps,
                       cluster_factor) -> list:
    """``classify_all`` of each of the same-dimension ``families``, in lockstep.

    The roots of all families are found together (``_degeneracies``) and
    classified together (``_classify_roots``).
    """
    root_sets = _degeneracies(families, radius, cluster_factor)
    points = iter(_classify_roots(
        [(family, root, roots) for family, roots in zip(families, root_sets)
         for root in roots], tau_c, loop_radius, loop_steps))
    return [[next(points) for _ in roots] for roots in root_sets]


@dataclass
class MergeEvent:
    """Two degeneracy trajectories coalescing at (gamma*, g*)."""

    gamma: float
    g: complex
    distance: float
    contact_order: int

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "g_re": self.g.real,
            "g_im": self.g.imag,
            "pair_distance": self.distance,
            "contact_order": self.contact_order,
        }


@dataclass
class GammaTrajectory:
    """Degeneracy sets along a gamma grid plus detected coalescence events."""

    gammas: np.ndarray
    points: list                      # per gamma: list of DegeneracyPoint
    events: list = field(default_factory=list)
    link_ambiguities: list = field(default_factory=list)

    def to_csv(self, path, meta=()):
        from ._csvio import write_csv

        rows = [[gamma, p.g0.real, p.g0.imag, p.kind.value, p.root.multiplicity]
                for gamma, pts in zip(self.gammas, self.points) for p in pts]
        write_csv(path, ["gamma", "g_re", "g_im", "kind", "multiplicity"],
                  list(zip(*rows)), meta=meta)

    def as_dict(self) -> dict:
        return {
            "gammas": [float(g) for g in self.gammas],
            "points": [[p.as_dict() for p in pts] for pts in self.points],
            "events": [e.as_dict() for e in self.events],
            "link_ambiguities": len(self.link_ambiguities),
        }


def _illinois(f, a, b):
    """A zero of f in [a, b], where f changes sign, by Illinois regula falsi.

    Halving the value kept at an end that survives two steps in a row keeps
    regula falsi superlinear at a simple zero and convergent at a multiple
    one.  Stops once the bracket is a few ulps wide.
    """
    x, fx = [a, b], [f(a), f(b)]
    c, last = x[int(abs(fx[1]) < abs(fx[0]))], None
    for _ in range(MAX_FALSI_STEPS):
        t = (x[0] * fx[1] - x[1] * fx[0]) / (fx[1] - fx[0])
        if (x[1] - x[0] <= 4 * EPS * max(1.0, abs(c))
                or not x[0] < t < x[1]):  # also when an end is a zero
            break
        c, fc = t, f(t)
        j = int(np.sign(fc) == np.sign(fx[1]))  # the end that c replaces
        if j == last:
            fx[1 - j] /= 2
        x[j], fx[j], last = c, fc, j
    return c


def _merge_event(family_at, g_lo, g_k, g_hi, center, radius, merge_radius):
    """The fusion of the pair inside the circle (center, radius) near g_k.

    With exactly two roots z1, z2 of D inside, sep2 = (z1 - z2)^2 =
    2*s2 - s1^2 from the contour moments is analytic in gamma, real while
    the pair is mirrored in the imaginary axis, and changes sign where it
    fuses there.  Both bracket ends move halfway toward g_k until the circle
    counts two roots (|s0 - 2| <= S0_TOL, which also vouches for the
    quadrature); Illinois finds the zero of Re sep2 on either half.  The
    contact order k, sep2 ~ (gamma - gamma*)^k, comes from sep2 at h and 2h
    toward the farther end.  None if no sign change or s0 = 2 bracket is
    found, or the pair stays more than ``merge_radius`` apart.
    """
    @functools.lru_cache(maxsize=None)
    def moments(gamma):
        s0, s1, s2 = contour_moments(family_at(gamma), center, radius)
        return s0, s1, 2 * s2 - s1 * s1

    def sep2(gamma):
        return moments(gamma)[2].real

    ends = []
    for end in (g_lo, g_hi):
        for _ in range(MAX_HALVINGS):
            if abs(moments(end)[0] - 2) <= S0_TOL:
                break
            end = 0.5 * (end + g_k)
        ends.append(end)
    lo, hi = ends
    if any(abs(moments(g)[0] - 2) > S0_TOL for g in (lo, g_k, hi)):
        return None
    for a, b in ((lo, g_k), (g_k, hi)):
        if a < b and np.sign(sep2(a)) != np.sign(sep2(b)):
            gamma_star = _illinois(sep2, a, b)
            break
    else:
        return None
    s0, s1, q = moments(gamma_star)
    distance = float(np.sqrt(abs(q)))
    if distance > merge_radius:
        return None
    h = 0.25 * max(lo - gamma_star, hi - gamma_star, key=abs)
    ratio = abs(moments(gamma_star + 2 * h)[2] / moments(gamma_star + h)[2])
    return MergeEvent(float(gamma_star), complex(center + s1 / s0), distance,
                      int(round(np.log2(ratio))))


def _gamma_grid(gamma_start, gamma_stop, steps) -> np.ndarray:
    """The ``steps`` evenly spaced gamma samples of a sweep, at least two."""
    if not isinstance(steps, numbers.Integral):
        raise PairdegError(f"gamma sweep needs a whole number of samples, got {steps!r}")
    if steps < 2:
        raise PairdegError("gamma sweep needs at least 2 samples")
    return np.linspace(gamma_start, gamma_stop, steps)


def sweep_gamma(model: ModelSpec, gamma_start: float, gamma_stop: float,
                steps: int, classify_points: bool = True,
                merge_radius: float = DEFAULT_MERGE_RADIUS,
                radius: float = DEFAULT_RADIUS,
                cluster_factor: float = DEFAULT_CLUSTER_FACTOR,
                tau_c: float = DEFAULT_TAU_C,
                loop_radius: float = DEFAULT_LOOP_RADIUS,
                loop_steps: int = DEFAULT_LOOP_STEPS) -> GammaTrajectory:
    """Track all degeneracies over a gamma interval and detect EP mergers.

    Roots at adjacent gamma samples are linked by nearest-location matching
    (ambiguous links, two candidates within 1e-9, are recorded).  A merger is
    bracketed wherever the distance of the closest tracked pair reaches a
    local minimum (or a multiplicity-2 root appears where two simple roots
    were) and located as the zero of the pair's squared separation, taken
    from contour moments (see ``_merge_event``); the event is recorded if the
    pair's separation there is at most ``merge_radius``.  The samples are
    solved and classified in lockstep (``_classify_families``), each
    sample's points those ``classify_all`` gives it alone with the same
    ``tau_c``, ``radius``, ``cluster_factor``, ``loop_radius`` and
    ``loop_steps``.
    """
    gammas = _gamma_grid(gamma_start, gamma_stop, steps)
    _check_loop_settings(loop_radius, loop_steps)
    ops = build_operator_matrices(model)
    families = [ops.family(gamma) for gamma in gammas]
    if classify_points:
        solve = functools.partial(
            _classify_families, tau_c=tau_c, radius=radius, loop_radius=loop_radius,
            loop_steps=loop_steps, cluster_factor=cluster_factor)
    else:
        def solve(batch):
            return [[DegeneracyPoint(r, Kind.UNRESOLVED, np.nan, note="not classified")
                     for r in roots]
                    for roots in _degeneracies(batch, radius, cluster_factor)]
    # Samples go through in lockstep batches whose discriminant samples fit
    # in one stack: all 21 of the default reference sweep.
    n = ops.T.shape[0]
    points = []
    for batch in _in_stacks(solve, families, n, n * (n - 1) + 1):
        for pts in batch:
            for p in pts:
                p.root.spectrum = None  # classified; the sweep keeps every root set
        points += batch
    root_sets = [[p.root for p in pts] for pts in points]

    # Record ambiguous nearest-root links between adjacent samples.
    link_ambiguities = []
    for k in range(len(gammas) - 1):
        for r in root_sets[k]:
            d = sorted(abs(r.g0 - s.g0) for s in root_sets[k + 1])
            if len(d) >= 2 and d[1] - d[0] <= 1e-9:
                link_ambiguities.append((float(gammas[k]), r.g0))

    events = []
    # Pair-distance profile of the closest same-sample pair.
    profile = []
    for roots, pts in zip(root_sets, points):
        best = (np.inf, None)
        if len(roots) >= 2:
            a, b = (roots[k].g0 for k in closest_pair([r.g0 for r in roots]))
            best = (abs(a - b), 0.5 * (a + b))
        # A multiplicity-2 root that is not a plain level crossing (nor,
        # unclassified, at g = 0) is an already merged pair: a grid
        # sample can land exactly on gamma*.
        merged = [p.g0 for p in pts if p.root.multiplicity >= 2
                  and p.kind != Kind.DP
                  and (classify_points or abs(p.g0) > 1e-6)]
        if merged:
            best = (0.0, merged[0])
        profile.append(best)
    dists = np.array([p[0] for p in profile])
    for k in range(len(gammas)):
        lo = dists[k - 1] if k > 0 else np.inf
        hi = dists[k + 1] if k + 1 < len(dists) else np.inf
        if not (dists[k] < lo and dists[k] <= hi):
            continue
        center = profile[k][1]
        # The pair is the merged root, or the two roots nearest the centre.
        others = sorted(abs(r.g0 - center) for r in root_sets[k])
        others = others[1 if dists[k] == 0.0 else 2:]
        circle = CIRCLE_FRACTION * min(others, default=radius)
        # The neighbours in ascending order, whichever way the sweep runs.
        g_lo, g_hi = sorted((float(gammas[max(k - 1, 0)]),
                             float(gammas[min(k + 1, len(gammas) - 1)])))
        event = _merge_event(ops.family, g_lo, float(gammas[k]), g_hi, center, circle,
                             merge_radius)
        if event is not None:
            events.append(event)
    return GammaTrajectory(gammas=gammas, points=points, events=events,
                           link_ambiguities=link_ambiguities)


def pair_truncation_family(model_or_family, g0: complex):
    """Truncate the family onto the merging pair's two-dimensional subspace.

    Builds a c-orthonormal basis of the eigenvector span of the closest
    eigenvalue pair at a regular reference point g0 + 1e-3 and
    congruence-truncates both parts of the affine family.  Used for the
    structural check that the double-root degeneracy is not a property of
    the two merging states alone: the truncated 2x2 family's discriminant
    has only simple roots near g0.
    """
    family = as_family(model_or_family)
    g_ref = complex(g0) + 1e-3
    spec = c_normalize(eigendecompose(family.matrix(g_ref), g=g_ref))
    i, j = closest_pair(spec.eigenvalues)
    X = np.stack([spec.eigenvectors[:, i], spec.eigenvectors[:, j]], axis=1)
    # Bilinear Gram-Schmidt so that X^T X = I2.
    X[:, 1] = X[:, 1] - X[:, 0] * (X[:, 0] @ X[:, 1])
    X[:, 1] = X[:, 1] / np.sqrt(X[:, 1] @ X[:, 1])
    return family.restricted(X)
