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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .discriminant import (DegeneracyRoot, _polish_root, _root_clusters,
                           discriminant_poly, find_degeneracies)
from .errors import PairdegError
from .model import MatrixFamily, ModelSpec, as_family, build_operator_matrices
from .monodromy import LoopSpec, trace_loop
from .spectra import DEFAULT_TAU_C, c_normalize, closest_pair, eigendecompose

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
        d["coalescence"] = self.coalescence
        if self.monodromy_permutation is not None:
            d["monodromy_permutation"] = [p + 1 for p in self.monodromy_permutation]
        if self.note:
            d["note"] = self.note
        return d


def _pair_coalescence(family, root, tau_c):
    spec = c_normalize(
        eigendecompose(family.matrix(root.g0), g=root.g0), tau_c=tau_c
    )
    i, j = (k - 1 for k in root.involved_pair)
    b = np.abs(spec.self_orthogonality)
    return float(min(b[i], b[j])), (bool(b[i] <= tau_c), bool(b[j] <= tau_c))


def _verification_loop(family, root, degeneracies, loop_radius, loop_steps, tau_c):
    radius = loop_radius
    for other in degeneracies:
        if other is root or abs(other.g0 - root.g0) < 1e-12:
            continue
        radius = min(radius, 0.45 * abs(other.g0 - root.g0))
    loop = LoopSpec(root.g0, radius, steps=max(loop_steps, 64), loops=1)
    trace = trace_loop(family, loop, degeneracies=degeneracies, tau_c=tau_c)
    return trace.loop_permutations[0]


def classify(model_or_family, root: DegeneracyRoot, degeneracies=None,
             tau_c: float = DEFAULT_TAU_C, loop_radius: float = DEFAULT_LOOP_RADIUS,
             loop_steps: int = DEFAULT_LOOP_STEPS) -> DegeneracyPoint:
    """Assign EP / DP / PSEUDO_DP (or UNRESOLVED) to one degeneracy root.

    For multiplicity-2 roots a small encircling loop verifies that the
    eigenvalues do not permute; an exchange there means the root is really a
    pair of unresolved exceptional points and is reported UNRESOLVED with a
    cluster note.
    """
    family = as_family(model_or_family)
    if degeneracies is None:
        degeneracies = find_degeneracies(family)
    coalescence, flags = _pair_coalescence(family, root, tau_c)

    if root.multiplicity == 1:
        if all(flags) or coalescence <= tau_c:
            return DegeneracyPoint(root, Kind.EP, coalescence)
        return DegeneracyPoint(
            root, Kind.UNRESOLVED, coalescence,
            note="simple root without eigenvector coalescence",
        )

    if root.multiplicity == 2:
        perm = _verification_loop(family, root, degeneracies, loop_radius,
                                  loop_steps, tau_c)
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


def classify_all(model_or_family, tau_c: float = DEFAULT_TAU_C,
                 radius: float = 0.5, loop_radius: float = DEFAULT_LOOP_RADIUS,
                 loop_steps: int = DEFAULT_LOOP_STEPS,
                 cluster_factor: float = 1e-4) -> list:
    """find_degeneracies followed by classify on every root."""
    family = as_family(model_or_family)
    roots = find_degeneracies(family, radius=radius, cluster_factor=cluster_factor)
    return [
        classify(family, r, degeneracies=roots, tau_c=tau_c,
                 loop_radius=loop_radius, loop_steps=loop_steps)
        for r in roots
    ]


@dataclass
class MergeEvent:
    """Two degeneracy trajectories coalescing at (gamma*, g*)."""

    gamma: float
    g: complex
    distance: float

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "g_re": self.g.real,
            "g_im": self.g.imag,
            "pair_distance": self.distance,
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

        rows = []
        for gamma, pts in zip(self.gammas, self.points):
            for p in pts:
                rows.append([float(gamma), p.g0.real, p.g0.imag, p.kind.value,
                             p.root.multiplicity])
        write_csv(path, ["gamma", "g_re", "g_im", "kind", "multiplicity"],
                  rows, meta=meta)

    def as_dict(self) -> dict:
        return {
            "gammas": [float(g) for g in self.gammas],
            "points": [[p.as_dict() for p in pts] for pts in self.points],
            "events": [e.as_dict() for e in self.events],
            "link_ambiguities": len(self.link_ambiguities),
        }


def _nearest_pair_distance(roots, center, focus):
    """Distance between the two roots nearest ``center`` (inf if fewer than 2).

    A multiplicity >= 2 root inside the focus region counts as an already
    merged pair (distance 0 at the root's location).
    """
    near = [r for r in roots if abs(r.g0 - center) <= focus]
    if not near:
        return np.inf, center
    near.sort(key=lambda r: abs(r.g0 - center))
    for r in near:
        if r.multiplicity >= 2:
            return 0.0, r.g0
    if len(near) < 2:
        return np.inf, near[0].g0
    a, b = near[0], near[1]
    return abs(a.g0 - b.g0), 0.5 * (a.g0 + b.g0)


def _probe(family, center, focus, radius, cluster_factor):
    """``_nearest_pair_distance`` of the family's roots, polishing only some.

    Each cluster gets one polish, on the derivative of D or on the gap, and
    it moves the centroid by at most two cluster radii, or not at all.  So a
    cluster whose centroid lies farther than that outside the focus window
    cannot end up inside it.  Only the other clusters are polished; the
    result is the same as from the full ``find_degeneracies`` list.
    """
    poly = discriminant_poly(family, radius=radius)
    reach = focus + 2 * cluster_factor * poly.radius
    roots = [_polish_root(family, poly, cluster, cluster_factor)
             for cluster in _root_clusters(poly, cluster_factor)
             if abs(cluster.centroid - center) <= reach]
    roots.sort(key=lambda r: (r.g0.imag, r.g0.real))
    return _nearest_pair_distance(roots, center, focus)


def _refine_merge(family_at, g_lo, g_hi, center, focus, radius,
                  cluster_factor, merge_radius, gamma_floor=1e-9):
    """Golden-section refinement of the pair-distance minimum over gamma.

    The pair separation scales like sqrt(|gamma - gamma*|) near a merger, so
    the bracket must collapse far below the wanted gamma resolution before
    the distance drops below the merge radius; iteration stops as soon as it
    does (or at the gamma floor).  ``family_at`` maps gamma to the family.
    """
    invphi = (np.sqrt(5.0) - 1) / 2

    def f(gamma):
        return _probe(family_at(gamma), center, focus, radius, cluster_factor)

    a, b = g_lo, g_hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, mc = f(c)
    fd, md = f(d)
    best = (fc, c, mc) if fc <= fd else (fd, d, md)
    while b - a > gamma_floor and best[0] > merge_radius:
        if fc <= fd:
            b, d, fd, md = d, c, fc, mc
            c = b - invphi * (b - a)
            fc, mc = f(c)
        else:
            a, c, fc, mc = c, d, fd, md
            d = a + invphi * (b - a)
            fd, md = f(d)
        cand = (fc, c, mc) if fc <= fd else (fd, d, md)
        if cand[0] < best[0]:
            best = cand
    dist, gamma_star, g_star = best
    return gamma_star, dist, g_star


def sweep_gamma(model: ModelSpec, gamma_start: float, gamma_stop: float,
                steps: int, classify_points: bool = True,
                refine_events: bool = True,
                merge_radius: float = DEFAULT_MERGE_RADIUS,
                radius: float = 0.5, cluster_factor: float = 1e-4,
                tau_c: float = DEFAULT_TAU_C) -> GammaTrajectory:
    """Track all degeneracies over a gamma interval and detect EP mergers.

    Roots at adjacent gamma samples are linked by nearest-location matching
    (ambiguous links, two candidates within 1e-9, are recorded).  A merger is
    bracketed wherever the distance of the closest tracked pair reaches a
    local minimum (or a multiplicity-2 root appears where two simple roots
    were) and refined by bisection of the bracket; the event is recorded if
    the refined minimum distance is below ``merge_radius``.
    """
    if steps < 2:
        raise PairdegError("gamma sweep needs at least 2 samples")
    gammas = np.linspace(gamma_start, gamma_stop, steps)
    ops = build_operator_matrices(model)

    def family_at(gamma):
        # The expression of ModelSpec.family(), so the bits are the same.
        return MatrixFamily(ops.T, ops.P + float(gamma) * ops.Q)

    root_sets = []
    points = []
    link_ambiguities = []
    for gamma in gammas:
        family = family_at(gamma)
        roots = find_degeneracies(family, radius=radius,
                                  cluster_factor=cluster_factor)
        root_sets.append(roots)
        if classify_points:
            points.append([
                classify(family, r, degeneracies=roots, tau_c=tau_c)
                for r in roots
            ])
        else:
            points.append([
                DegeneracyPoint(r, Kind.UNRESOLVED, np.nan, note="not classified")
                for r in roots
            ])

    # Record ambiguous nearest-root links between adjacent samples.
    for k in range(len(gammas) - 1):
        for r in root_sets[k]:
            d = sorted(abs(r.g0 - s.g0) for s in root_sets[k + 1])
            if len(d) >= 2 and d[1] - d[0] <= 1e-9:
                link_ambiguities.append((float(gammas[k]), r.g0))

    events = []
    if refine_events and len(gammas) >= 2:
        # Pair-distance profile of the closest same-sample pair, watched in a
        # moving focus window so unrelated static roots do not interfere.
        profile = []
        for roots, pts in zip(root_sets, points):
            best = (np.inf, None)
            if len(roots) >= 2:
                a, b = (roots[k].g0 for k in closest_pair([r.g0 for r in roots]))
                best = (abs(a - b), 0.5 * (a + b))
            # A multiplicity-2 root that is not a plain level crossing is an
            # already merged pair (a grid sample can land exactly on gamma*).
            if classify_points:
                merged = [p for p in pts
                          if p.root.multiplicity >= 2 and p.kind != Kind.DP]
            else:
                merged = [DegeneracyPoint(r, Kind.UNRESOLVED, np.nan)
                          for r in roots
                          if r.multiplicity >= 2 and abs(r.g0) > 1e-6]
            if merged:
                best = (0.0, merged[0].g0)
            profile.append(best)
        dists = np.array([p[0] for p in profile])
        for k in range(len(gammas)):
            lo = dists[k - 1] if k > 0 else np.inf
            hi = dists[k + 1] if k + 1 < len(dists) else np.inf
            if not (dists[k] < lo and dists[k] <= hi):
                continue
            center = profile[k][1]
            if center is None:
                continue
            # The focus window must cover the pair separation at the bracket
            # edges, where the merging roots are still far apart.
            neighbours = [d for d in (lo, hi, dists[k]) if np.isfinite(d)]
            focus = max(10 * merge_radius, 1.5 * max(neighbours, default=0.0))
            g_lo = gammas[max(k - 1, 0)]
            g_hi = gammas[min(k + 1, len(gammas) - 1)]
            gamma_star, dist, g_star = _refine_merge(
                family_at, float(g_lo), float(g_hi), center, focus, radius,
                cluster_factor, merge_radius)
            if dist <= merge_radius:
                events.append(MergeEvent(float(gamma_star), complex(g_star),
                                         float(dist)))
    return GammaTrajectory(gammas=gammas, points=points, events=events,
                           link_ambiguities=link_ambiguities)


def pair_truncation_family(model_or_family, g0: complex, pair=None,
                           reference_offset: complex = 1e-3,
                           tau_c: float = DEFAULT_TAU_C):
    """Truncate the family onto the merging pair's two-dimensional subspace.

    Builds a c-orthonormal basis of the involved pair's eigenvector span at a
    regular reference point g0 + reference_offset and congruence-truncates
    both parts of the affine family.  Used for the structural check that the
    double-root degeneracy is not a property of the two merging states alone:
    the truncated 2x2 family's discriminant has only simple roots near g0.
    """
    family = as_family(model_or_family)
    g_ref = complex(g0) + complex(reference_offset)
    spec = c_normalize(eigendecompose(family.matrix(g_ref), g=g_ref), tau_c=tau_c)
    if pair is None:
        i, j = closest_pair(spec.eigenvalues)
    else:
        i, j = (k - 1 for k in pair)
    X = np.stack([spec.eigenvectors[:, i], spec.eigenvectors[:, j]], axis=1)
    # Bilinear Gram-Schmidt so that X^T X = I2.
    X[:, 1] = X[:, 1] - X[:, 0] * (X[:, 0] @ X[:, 1])
    X[:, 1] = X[:, 1] / np.sqrt(X[:, 1] @ X[:, 1])
    return family.restricted(X)
