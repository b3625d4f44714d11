"""Complex-symmetric eigendecomposition, c-product normalization and continuation.

For a complex-symmetric matrix the left eigenvector of an eigenpair is the
transpose (not the conjugate) of the right one, so all biorthogonality here
uses the bilinear c-product  b(u, v) = sum_k u_k v_k.  Eigenvectors are
normalized to b(u, u) = 1 except near eigenvector coalescence, where |b| of
the Hermitian-normalized vector drops below the threshold ``tau_c`` and the
vector is flagged self-orthogonal and left with unit 2-norm instead.

Continuation along paths in the coupling plane matches states between
neighbouring samples by eigenvalue proximity only; eigenvector overlap is
deliberately not used because merging vectors become numerically
indistinguishable near an exceptional point while their eigenvalues still
separate linearly along the paths studied here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, MatchingAmbiguityError
from .model import as_family

__all__ = [
    "Spectrum",
    "CutTable",
    "Matching",
    "eigendecompose",
    "c_normalize",
    "match_states",
    "continue_spectrum",
    "spectrum_along",
    "branch_slopes",
    "canonical_order",
    "closest_pair",
]

DEFAULT_TAU_C = 1e-6
RESIDUAL_BOUND = 1e-9
MATCH_AMBIGUITY_TOL = 1e-12
EXHAUSTIVE_MATCH_LIMIT = 7
MAX_BISECT = 12
# Path points solved per stacked eigensolve; 256 was no faster at dim 4.
SOLVE_BLOCK = 64


def bilinear(u: np.ndarray, v: np.ndarray) -> complex:
    """c-product sum_k u_k v_k (no conjugation)."""
    return complex(u @ v)


def closest_pair(values) -> tuple:
    """Indices (i, j), i < j, of the two closest values; the first pair wins a tie.

    A plain loop over Python numbers: for the few states of a spectrum it is
    several times faster than any vectorised search.
    """
    v = np.asarray(values).tolist()
    if len(v) < 2:
        raise ValueError("need at least two values")
    best, pair = math.inf, (0, 1)
    for i, a in enumerate(v):
        for j in range(i + 1, len(v)):
            d = abs(a - v[j])
            if d < best:
                best, pair = d, (i, j)
    return pair


def canonical_order(eigenvalues: np.ndarray, im_tol: float = 1e-8) -> np.ndarray:
    """Index order: ascending Im, with Re breaking ties inside Im clusters.

    Eigenvalues whose imaginary parts differ by no more than
    ``im_tol * max(1, max|E|)`` are treated as one cluster and ordered by
    ascending real part.  The loose-tolerance variant is what reference-point
    labeling near a degeneracy uses.
    """
    return _canonical_orders(np.asarray(eigenvalues)[None, :], im_tol)[0]


def _canonical_orders(E: np.ndarray, im_tol: float) -> np.ndarray:
    """``canonical_order`` of every row of a (k, n) eigenvalue array.

    A row whose sorted imaginary parts are all more than the cluster
    tolerance apart has only one-element clusters, so its stable argsort is
    already the answer; only the other rows run the cluster loop.
    """
    atol = im_tol * np.maximum(1.0, np.abs(E).max(axis=1, initial=0.0))
    orders = np.argsort(E.imag, axis=1, kind="stable")
    im = np.sort(E.imag, axis=1)
    isolated = (im[:, 1:] - im[:, :-1] > atol[:, None]).all(axis=1)
    for r in np.flatnonzero(~isolated):
        e, order = E[r], orders[r]
        out = []
        k = 0
        while k < len(order):
            j = k + 1
            while j < len(order) and e.imag[order[j]] - e.imag[order[j - 1]] <= atol[r]:
                j += 1
            cluster = order[k:j]
            cluster = cluster[np.lexsort((e.imag[cluster], e.real[cluster]))]
            out.extend(cluster.tolist())
            k = j
        orders[r] = out
    return orders


@dataclass
class Spectrum:
    """Eigendecomposition of H(g) at one coupling value.

    ``eigenvectors`` holds one state per column. ``self_orthogonality`` is the
    c-norm b(v, v) of each Hermitian-normalized vector, recorded before any
    rescaling; ``self_orthogonal`` flags entries with |b| <= tau_c.
    """

    g: complex
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    self_orthogonality: np.ndarray
    self_orthogonal: np.ndarray = field(default=None)
    c_normalized: bool = False

    def __post_init__(self):
        if self.self_orthogonal is None:
            self.self_orthogonal = np.zeros(len(self.eigenvalues), dtype=bool)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def permuted(self, perm) -> "Spectrum":
        perm = np.asarray(perm, dtype=int)
        return Spectrum(
            g=self.g,
            eigenvalues=self.eigenvalues[perm],
            eigenvectors=self.eigenvectors[:, perm],
            self_orthogonality=self.self_orthogonality[perm],
            self_orthogonal=self.self_orthogonal[perm],
            c_normalized=self.c_normalized,
        )


def eigendecompose(H: np.ndarray, g: complex = None, im_tol: float = 1e-8) -> Spectrum:
    """Full eigensystem of a dense complex matrix, canonically ordered.

    Residuals are required to satisfy ||H u - E u|| <= 1e-9 ||H||_F for every
    returned pair; LAPACK failures and out-of-tolerance pairs raise
    EigensolverError naming the offending coupling.
    """
    return _eigendecompose_stack(np.asarray(H, dtype=complex)[None], [g], im_tol)[0]


def _eigendecompose_stack(H: np.ndarray, gs, im_tol: float = 1e-8) -> list:
    """``eigendecompose`` of each matrix of a (k, n, n) stack, one LAPACK call.

    LAPACK solves the matrices of a stack one by one, so every spectrum is
    bit for bit the one its matrix gives alone.  A failed check raises
    EigensolverError for the whole stack, naming the first coupling found
    with non-finite entries or out-of-tolerance residuals.
    """
    H = np.ascontiguousarray(H, dtype=complex)
    k, n = H.shape[:2]
    if not np.isfinite(H).all():
        first = int(np.argmin(np.isfinite(H).all(axis=(1, 2))))
        raise EigensolverError("matrix has non-finite entries", g=gs[first])
    try:
        eigenvalues, vectors = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}",
                               g=gs[0] if k == 1 else None) from exc
    # Frobenius and column 2-norms, summed over the float views.
    flat = H.view(float).reshape(k, -1)
    scale = np.sqrt(np.einsum("kx,kx->k", flat, flat))
    R = (H @ vectors - vectors * eigenvalues[:, None, :]).view(float)
    R = R.reshape(k, n, n, 2)
    residual = np.sqrt(np.einsum("kijc,kijc->kj", R, R))
    bad = (scale > 0) & (residual > RESIDUAL_BOUND * scale[:, None]).any(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise EigensolverError(
            f"eigenpair residual {residual[first].max():.3e} exceeds "
            f"{RESIDUAL_BOUND:.0e} * ||H||",
            g=gs[first],
        )
    order = _canonical_orders(eigenvalues, im_tol)
    rows = np.arange(k)[:, None]
    eigenvalues = eigenvalues[rows, order]
    vectors = vectors[rows[:, :, None], np.arange(n)[:, None], order[:, None, :]]
    b = np.einsum("kij,kij->kj", vectors, vectors)
    return [
        Spectrum(
            g=complex(g) if g is not None else 0j,
            eigenvalues=eigenvalues[r],
            eigenvectors=vectors[r],
            self_orthogonality=b[r],
        )
        for r, g in enumerate(gs)
    ]


def _solve_path(family, gs):
    """Spectra at the couplings ``gs``, in order, solved ``SOLVE_BLOCK`` at a time.

    A block that fails a check is solved again point by point, so the first
    failing coupling raises its own EigensolverError only once the consumer
    has taken every spectrum before it.
    """
    for lo in range(0, len(gs), SOLVE_BLOCK):
        block = gs[lo:lo + SOLVE_BLOCK]
        matrices = [family.matrix(g) for g in block]
        try:
            spectra = _eigendecompose_stack(np.array(matrices), block)
        except EigensolverError:
            spectra = (eigendecompose(H, g=g) for H, g in zip(matrices, block))
        yield from spectra


def _fix_gauge(v: np.ndarray) -> np.ndarray:
    """Flip the residual +-1 so the largest component's arg lies in (-pi/2, pi/2]."""
    a = v[int(np.argmax(np.abs(v)))]
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        return -v
    return v


def c_normalize(spectrum: Spectrum, tau_c: float = DEFAULT_TAU_C) -> Spectrum:
    """Scale eigenvectors to b(u, u) = 1, guarding against self-orthogonality.

    Within numerically degenerate eigenvalue clusters the vectors are first
    c-orthogonalized (Gram-Schmidt under the bilinear form) so that a diabolic
    pair is represented by a c-orthonormal basis rather than an arbitrary
    LAPACK mixture; the orthogonalization is skipped for vectors already
    inside the self-orthogonality guard, which is the defective (EP-like)
    situation.  Vectors with |b| <= tau_c keep unit 2-norm and are flagged.
    The remaining sign freedom is fixed by pushing the largest-magnitude
    component's argument into (-pi/2, pi/2].
    """
    V = spectrum.eigenvectors.astype(complex).copy()
    e = spectrum.eigenvalues
    n = spectrum.dim
    # Hermitian-normalize first (LAPACK already does, but keep it exact).
    V /= np.linalg.norm(V, axis=0)[None, :]

    scale = max(1.0, float(np.max(np.abs(e))))
    cluster_tol = 1e-9 * scale
    k = 0
    while k < n:
        j = k + 1
        while j < n and abs(e[j] - e[k]) <= cluster_tol:
            j += 1
        if j - k > 1:
            for a in range(k, j):
                for b_ in range(k, a):
                    nb = bilinear(V[:, b_], V[:, b_])
                    if abs(nb) <= tau_c:
                        continue
                    V[:, a] = V[:, a] - V[:, b_] * (bilinear(V[:, b_], V[:, a]) / nb)
                norm = np.linalg.norm(V[:, a])
                if norm > 0:
                    V[:, a] /= norm
        k = j

    b_values = np.einsum("ij,ij->j", V, V)
    flagged = np.abs(b_values) <= tau_c
    for m in range(n):
        if not flagged[m]:
            V[:, m] = V[:, m] / np.sqrt(b_values[m])
        V[:, m] = _fix_gauge(V[:, m])
    return Spectrum(
        g=spectrum.g,
        eigenvalues=e.copy(),
        eigenvectors=V,
        self_orthogonality=b_values,
        self_orthogonal=flagged,
        c_normalized=True,
    )


class Matching(NamedTuple):
    """Result of pairing two spectra by eigenvalue proximity."""

    perm: tuple
    cost: float
    margin: float          # best alternative cost minus best cost
    ambiguous: bool        # margin below the ambiguity tolerance
    benign_tie: bool       # the ambiguity only permutes coincident eigenvalues


def _eigs_of(x) -> np.ndarray:
    return np.asarray(x.eigenvalues if isinstance(x, Spectrum) else x)


@functools.lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """Every permutation of range(n) in lexicographic order, one per column.

    Row i holds the image of i under each permutation, so the cost terms of
    source state i are one contiguous gather.  int8 keeps n = 7 at 35 KB.
    """
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8, count=math.factorial(n) * n,
    )
    table = np.ascontiguousarray(flat.reshape(-1, n).T)
    table.flags.writeable = False  # cached: shared by every call
    return table


def match_states(prev, next, ambiguity_tol: float = MATCH_AMBIGUITY_TOL) -> Matching:
    """Permutation pi minimizing sum_m |E_m^prev - E_pi(m)^next|.

    For dimensions up to 7 the assignment is solved exhaustively: the cost of
    every permutation in a cached lexicographic permutation table is summed
    term by term in source order, so each total is the same float as the
    plain sum over m.  Ties are broken by that order: the best assignment is
    the first minimum, and the runner-up is the first minimum among the
    rest.  Two assignments within ``ambiguity_tol`` of each other raise the
    ``ambiguous`` flag.  A tie whose alternatives only swap eigenvalues that
    coincide within 1e-9 of the spectral scale is additionally marked
    ``benign_tie``: no refinement of the step can (or needs to) resolve it.
    Larger dimensions fall back to scipy's assignment solver, which reports
    ``margin = inf`` and so detects no ambiguity.
    """
    ep = _eigs_of(prev)
    en = _eigs_of(next)
    if ep.shape != en.shape:
        raise ValueError("spectra have different dimensions")
    n = len(ep)
    cost = np.abs(ep[:, None] - en[None, :])
    if n > EXHAUSTIVE_MATCH_LIMIT:
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        perm = tuple(int(c) for c in cols[np.argsort(rows)])
        return Matching(perm, float(cost[rows, cols].sum()), np.inf, False, False)

    table = _permutation_table(n)
    totals = cost[0].take(table[0])
    for i in range(1, n):
        totals += cost[i].take(table[i])
    best = int(np.argmin(totals))
    best_perm = tuple(table[:, best].tolist())
    best_cost = float(totals[best])
    second_perm, second_cost = None, np.inf
    if len(totals) > 1:
        second = int(np.argmin(np.delete(totals, best)))
        second += second >= best  # back to an index into totals
        second_perm = tuple(table[:, second].tolist())
        second_cost = float(totals[second])
    margin = second_cost - best_cost
    ambiguous = bool(margin <= ambiguity_tol)
    benign = False
    if ambiguous and second_perm is not None:
        # A tie is unresolvable-but-harmless when the competing assignments
        # only permute eigenvalues that coincide -- on the target side, or on
        # the source side (leaving an exact degeneracy, the branch labels are
        # genuinely undefined and no step refinement can split them).
        scale = max(1.0, float(np.max(np.abs(en))), float(np.max(np.abs(ep))))
        tol = 1e-9 * scale
        orbit = [i for i in range(n) if best_perm[i] != second_perm[i]]
        benign_next = all(
            abs(en[best_perm[i]] - en[second_perm[i]]) <= tol for i in orbit
        )
        benign_prev = all(
            abs(ep[s] - ep[t]) <= tol for s in orbit for t in orbit
        )
        benign = benign_next or benign_prev
    return Matching(best_perm, best_cost, margin, ambiguous, benign)


@dataclass
class AmbiguityRecord:
    """One flagged matching ambiguity along a continuation."""

    g_from: complex
    g_to: complex
    margin: float
    benign: bool
    refined: int = 0


@dataclass
class ContinuationResult:
    spectra: list
    ambiguities: list

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([s.eigenvalues for s in self.spectra])


def _align_next(family, current: Spectrum, t_from, t_to, point, nxt: Spectrum,
                want_vectors, tau_c, depth, records):
    """One continuation step from ``current`` at path parameter t_from to t_to.

    ``nxt`` is the spectrum already solved at ``point(t_to)``.  ``point``
    maps the path parameter to the coupling: ``complex`` for cuts, whose
    parameter is g itself, or ``LoopSpec.point`` for loops, which bisect in
    phi.  Only bisection midpoints are solved here.  Returns the accepted
    sub-steps in path order, bisection midpoints first, the last one at t_to.
    Vectors are c-normalized when wanted; the sign gauge is left to the
    caller.
    """
    m = match_states(current.eigenvalues, nxt.eigenvalues)
    if m.ambiguous and not m.benign_tie:
        if depth >= MAX_BISECT:
            raise MatchingAmbiguityError(
                f"state matching still ambiguous after {MAX_BISECT} bisections "
                f"between g = {current.g} and g = {point(t_to)} "
                f"(margin {m.margin:.3e})"
            )
        t_mid = 0.5 * (t_from + t_to)
        g_mid = point(t_mid)
        mid = eigendecompose(family.matrix(g_mid), g=g_mid)
        first = _align_next(family, current, t_from, t_mid, point, mid,
                            want_vectors, tau_c, depth + 1, records)
        return first + _align_next(family, first[-1], t_mid, t_to, point, nxt,
                                   want_vectors, tau_c, depth + 1, records)
    if m.ambiguous:
        records.append(AmbiguityRecord(current.g, nxt.g, m.margin,
                                       benign=True, refined=depth))
    aligned = nxt.permuted(m.perm)
    if want_vectors:
        aligned = c_normalize(aligned, tau_c=tau_c)
    return [aligned]


def continue_spectrum(model_or_family, points, want_vectors: bool = True,
                      tau_c: float = DEFAULT_TAU_C,
                      start_im_tol: float = 1e-8) -> ContinuationResult:
    """Continue a labeled eigensystem through a sequence of couplings.

    Labels are assigned at the first point by canonical ordering (ascending
    Im with ``start_im_tol`` clustering) and then propagated by eigenvalue
    matching; flagged ambiguities trigger step bisection up to ``MAX_BISECT``
    levels unless they are benign ties.  Traversing the reversed path returns
    states to their original labels.
    """
    family = as_family(model_or_family)
    points = [complex(p) for p in points]
    if len(points) < 1:
        raise ValueError("need at least one path point")
    records: list[AmbiguityRecord] = []
    start = eigendecompose(family.matrix(points[0]), g=points[0], im_tol=start_im_tol)
    if want_vectors:
        start = c_normalize(start, tau_c=tau_c)
    spectra = [start]
    for g_to, nxt in zip(points[1:], _solve_path(family, points[1:])):
        current = spectra[-1]
        for aligned in _align_next(family, current, current.g, g_to, complex, nxt,
                                   want_vectors, tau_c, 0, records):
            if want_vectors:
                # Continue the sign gauge: make the Hermitian overlap with
                # the previous sample lie in the right half-plane.
                for k in range(aligned.dim):
                    ov = np.vdot(current.eigenvectors[:, k],
                                 aligned.eigenvectors[:, k])
                    if ov.real < 0:
                        aligned.eigenvectors[:, k] = -aligned.eigenvectors[:, k]
            current = aligned
        spectra.append(current)
    return ContinuationResult(spectra=spectra, ambiguities=records)


@dataclass
class CutTable:
    """Label-stable eigenvalue branches along a straight segment."""

    gs: np.ndarray
    energies: np.ndarray          # (samples, dim), column m is state m+1
    ambiguities: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    def csv_rows(self):
        names = ["g_re", "g_im"]
        for m in range(self.dim):
            names += [f"E{m + 1}_re", f"E{m + 1}_im"]
        rows = []
        for g, row in zip(self.gs, self.energies):
            out = [g.real, g.imag]
            for E in row:
                out += [E.real, E.imag]
            rows.append(out)
        return names, rows

    def to_csv(self, path, meta=()):
        from ._csvio import write_csv

        names, rows = self.csv_rows()
        write_csv(path, names, rows, meta=meta)


def spectrum_along(model_or_family, start, stop, n: int) -> CutTable:
    """Sample a straight segment in the coupling plane with stable labels."""
    if n < 2:
        raise ValueError("need at least two samples along a cut")
    points = np.linspace(complex(start), complex(stop), n)
    res = continue_spectrum(model_or_family, points, want_vectors=False)
    return CutTable(gs=points, energies=res.eigenvalues,
                    ambiguities=res.ambiguities)


def semicircle(g0: complex, h: float, steps: int, upper: bool = True) -> np.ndarray:
    """Arc from g0 - h to g0 + h avoiding g0 (upper half by default)."""
    thetas = np.linspace(np.pi, 0.0, steps + 1)
    if not upper:
        thetas = -thetas
    return g0 + h * np.exp(1j * thetas)


def branch_slopes(model_or_family, g0: complex, h: float = 1e-4,
                  steps: int = 32, label_im_tol: float = 1e-3) -> np.ndarray:
    """Central-difference dE/d(delta) at g0 along the real direction.

    The two evaluation points g0 -+ h are connected by analytic continuation
    over a semicircle around g0, so the branch assignment is well defined even
    when the spectrum is degenerate at g0 itself (matching straight across the
    degeneracy is ambiguous at O(h^3)).  Labels are canonical at g0 - h with a
    loose imaginary-part clustering so nearly degenerate pairs are ordered by
    real part there.
    """
    path = semicircle(complex(g0), h, steps)
    res = continue_spectrum(model_or_family, path, want_vectors=False,
                            start_im_tol=label_im_tol)
    return (res.spectra[-1].eigenvalues - res.spectra[0].eigenvalues) / (2 * h)
