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

from .errors import CutError, EigensolverError, MatchingAmbiguityError, PairdegError
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
# Im clustering of canonical labels (``canonical_order``) away from a degeneracy.
ORDER_IM_TOL = 1e-8
# Im clustering of the canonical labels fixed next to a degeneracy, where a
# nearly degenerate pair is then ordered by real part.
LABEL_IM_TOL = 1e-3
RESIDUAL_BOUND = 1e-9
MATCH_AMBIGUITY_TOL = 1e-12
# Eigenvalues within this fraction of max(1, max|E|) coincide: a cluster to
# c-orthogonalize, or a tie no step refinement can resolve.
COINCIDENCE_TOL = 1e-9
EXHAUSTIVE_MATCH_LIMIT = 7
MAX_BISECT = 12
EPS = np.finfo(float).eps
# Matrix bytes per stack of ``_in_stacks``: 256 KB, 1,024 points at dim 4,
# for eigenvalues alone.  A full eigensystem holds its vectors and residuals
# too, several times the matrices, so its stacks take a quarter of that.
# Larger stacks raised the peak size of the process and were no faster.
STACK_BYTES = 1 << 18


def bilinear(u: np.ndarray, v: np.ndarray) -> complex:
    """c-product sum_k u_k v_k (no conjugation)."""
    return complex(u @ v)


def closest_pair(values) -> tuple:
    """Indices (i, j), i < j, of the two closest values; the first pair wins a tie.

    ``values`` is one row, giving a tuple of ints, or a (k, n) stack, giving
    the (k,) index arrays i and j of every row.  Pairs are compared in
    (i, j) order by ``np.hypot`` of their difference, which is Python's
    ``abs``; a NaN distance never wins.
    """
    v = np.asarray(values)
    if v.shape[-1] < 2:
        raise ValueError("need at least two values")
    # The pairs i < j in row order, as np.triu_indices lists them, at a
    # fifth of its cost.
    k = np.arange(v.shape[-1])
    i, j = np.nonzero(k[:, None] < k)
    d = v[..., i] - v[..., j]
    dist = np.hypot(d.real, d.imag)
    best = np.where(np.isnan(dist), np.inf, dist).argmin(axis=-1)
    if v.ndim == 1:
        return int(i[best]), int(j[best])
    return i[best], j[best]


def canonical_order(eigenvalues: np.ndarray,
                    im_tol: float = ORDER_IM_TOL) -> np.ndarray:
    """Index order: ascending Im, with Re breaking ties inside Im clusters.

    Eigenvalues whose imaginary parts differ by no more than
    ``im_tol * max(1, max|E|)`` are treated as one cluster and ordered by
    ascending real part.  The loose-tolerance variant is what reference-point
    labeling near a degeneracy uses.  A non-finite eigenvalue has no place
    in that order and raises EigensolverError.
    """
    E = np.asarray(eigenvalues)[None, :]
    if not np.isfinite(E).all():
        raise EigensolverError("cannot order non-finite eigenvalues")
    return _canonical_orders(E, im_tol)[0]


def _canonical_orders(E: np.ndarray, im_tol: float) -> np.ndarray:
    """``canonical_order`` of every row of a (k, n) eigenvalue array.

    A cluster is a run of the Im-sorted values whose neighbours are at most
    the tolerance apart; one stable lexsort then orders each row by cluster,
    Re and Im, so that exact ties keep their index order.
    """
    atol = im_tol * np.maximum(1.0, np.abs(E).max(axis=1, initial=0.0))
    order = np.argsort(E.imag, axis=1, kind="stable")
    im = np.sort(E.imag, axis=1)
    # Written so that a NaN gap starts a cluster.
    starts = ~(im[:, 1:] - im[:, :-1] <= atol[:, None])
    cluster = np.zeros(E.shape, dtype=int)
    cluster[np.arange(len(E))[:, None], order[:, 1:]] = np.cumsum(starts, axis=1)
    return np.lexsort((E.imag, E.real, cluster), axis=1)


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
        )


def eigendecompose(H: np.ndarray, g: complex = None,
                   im_tol: float = ORDER_IM_TOL) -> Spectrum:
    """Full eigensystem of a dense complex matrix, canonically ordered.

    Residuals are required to satisfy ||H u - E u|| <= 1e-9 ||H||_F for every
    returned pair; LAPACK failures and out-of-tolerance pairs raise
    EigensolverError naming the offending coupling.
    """
    E, V, b = _eig_stack(np.asarray(H, dtype=complex)[None], [g], im_tol)
    return Spectrum(complex(g) if g is not None else 0j, E[0], V[0], b[0])


def _lapack(solve, H: np.ndarray, gs, returned: str):
    """``solve(H)`` on a (k, n, n) stack, under the one policy for LAPACK failures.

    ``solve`` is ``np.linalg.eig`` or ``eigvals``, looked up by the caller at
    call time so that a wrapper installed on numpy is seen, and called once
    per stack, on the calling thread.  EigensolverError is raised for a
    non-finite matrix and for non-finite results (an overflow inside the
    solver; the message calls them ``returned``), naming the first such
    coupling of ``gs``, and for a solver that does not converge, naming g
    when the stack holds one matrix.
    """
    finite = np.isfinite(H).all(axis=(1, 2))
    if not finite.all():
        raise EigensolverError("matrix has non-finite entries",
                               g=gs[int(np.argmin(finite))])
    try:
        out = solve(H)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}",
                               g=gs[0] if len(H) == 1 else None) from exc
    for part in out if isinstance(out, tuple) else (out,):
        finite &= np.isfinite(part).reshape(len(H), -1).all(axis=1)
    if not finite.all():
        raise EigensolverError(f"eigensolver returned non-finite {returned}",
                               g=gs[int(np.argmin(finite))])
    return out


def _eig_stack(H: np.ndarray, gs, im_tol: float = ORDER_IM_TOL):
    """Checked, canonically ordered eigensystems of a (k, n, n) stack, as arrays.

    Returns the (k, n) eigenvalues, the (k, n, n) eigenvectors, one state per
    column, and the (k, n) c-norms b(v, v) of the vectors.  LAPACK solves the
    matrices of a stack one by one, so every row is bit for bit the one its
    matrix gives alone.  A failed check raises EigensolverError for the whole
    stack, naming the first coupling found with non-finite entries,
    non-finite eigenpairs (``_lapack``) or residuals not within tolerance.
    """
    H = np.ascontiguousarray(H, dtype=complex)
    k, n = H.shape[:2]
    eigenvalues, vectors = _lapack(np.linalg.eig, H, gs, "eigenpairs")
    # Frobenius and column 2-norms, summed over the float views of each
    # matrix and its residuals divided by the matrix's largest component, so
    # that no square overflows (an entry above ~1.3e154 would).
    flat = H.view(float).reshape(k, -1)
    top = np.abs(flat).max(axis=1, initial=0.0)
    unit = np.where(top > 0, top, 1.0)[:, None]
    flat = flat / unit
    scale = np.sqrt(np.einsum("kx,kx->k", flat, flat))
    R = (H @ vectors - vectors * eigenvalues[:, None, :]).view(float)
    R = R.reshape(k, n, n, 2) / unit[:, :, None, None]
    residual = np.sqrt(np.einsum("kijc,kijc->kj", R, R))
    # Written so that a NaN residual fails.
    bad = (top > 0) & ~(residual <= RESIDUAL_BOUND * scale[:, None]).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise EigensolverError(
            f"eigenpair residual {residual[first].max() * top[first]:.3e} exceeds "
            f"{RESIDUAL_BOUND:.0e} * ||H||",
            g=gs[first],
        )
    order = _canonical_orders(eigenvalues, im_tol)
    rows = np.arange(k)[:, None]
    eigenvalues = eigenvalues[rows, order]
    vectors = vectors[rows[:, :, None], np.arange(n)[:, None], order[:, None, :]]
    return eigenvalues, vectors, np.einsum("kij,kij->kj", vectors, vectors)


def _in_stacks(run, items, dim: int, matrices: int = 1, vectors: bool = False):
    """``run(group)`` for each group of consecutive ``items``, in order.

    Each group is a slice of ``items``: as many as fit their matrices,
    ``matrices`` of dim x dim per item, in ``STACK_BYTES`` (a quarter of
    that when eigenvectors are solved too), and at least one; only the last
    group can hold fewer.  ``run`` solves a group's items
    together, each result what the item gives alone, so only which item's
    error surfaces can depend on the grouping.  A group that raises a
    PairdegError is run again one item at a time, in order, each result
    yielded as it comes: the first failing item raises its own error once
    every item before it has been yielded, and a failure of the stack alone
    is recovered.
    """
    budget = STACK_BYTES // 4 if vectors else STACK_BYTES
    size = max(1, budget // (16 * dim * dim * matrices))
    for i in range(0, len(items), size):
        group = items[i:i + size]
        try:
            out = [run(group)]
        except PairdegError:
            if len(group) == 1:
                raise
            out = (run([item]) for item in group)
        yield from out


def _sources(gs, family=None):
    """For each coupling of ``gs``, the earlier one whose solve it reuses.

    Returns ``(source, flip)``, two arrays over ``gs``: ``source[i]`` is
    the first coupling with the bits of ``gs[i]`` (all 16 bytes, so -0.0
    and 0.0 stay apart) or, for a real ``family`` and Im g != +-0, with
    the bits of its conjugate, and ``flip[i]`` says that the source is its
    conjugate.  For a real family H(conj g) = conj H(g), and LAPACK returns
    the conjugated eigenvalues bit for bit
    (``test_lapack_eigenvalues_are_conjugation_equivariant`` pins it).  A
    source is its own source and comes first, so the first failing
    coupling, and its error, are the same whether the others are solved or
    not.
    """
    gs = np.asarray(gs, dtype=complex)
    first = {}
    keys = enumerate(gs.view("V16").tolist())
    own = np.array([first.setdefault(key, i) for i, key in keys], dtype=int)
    if family is None or not family.is_real:
        return own, np.zeros(len(own), dtype=bool)
    keys = enumerate(np.conj(gs).view("V16").tolist())
    conj = np.array([first.get(key, i) for i, key in keys], dtype=int)
    source = np.where(gs.imag != 0, np.minimum(own, conj), own)
    return source, source != own


def _solve_path(family, gs):
    """Eigensystems at the couplings ``gs``, in order, in stacks (``_in_stacks``).

    Yields ``(couplings, E, V, b)`` for each run of path points taken as one
    stack, with the arrays of ``_eig_stack``; a coupling that fails a check
    raises its own EigensolverError once every row before it is yielded.

    Each distinct coupling is solved once, at its first occurrence
    (``_sources``): loops and round trips come back to couplings bit for
    bit, and the same matrix gives the same eigensystem.  A solved row is
    kept until the last point that reuses it; a block with repeats gathers
    its rows from the kept ones and its own solves with one fancy index,
    and a block of repeats only makes no LAPACK call.
    """
    source = _sources(gs)[0]
    last = dict(zip(source.tolist(), range(len(gs))))
    until = np.array([last[i] for i in source.tolist()], dtype=int)  # a point's last reader
    solves = source == np.arange(len(gs))
    slot = np.empty(len(gs), dtype=int)  # a solving point's row in the block's pool
    kept = np.empty(0, dtype=int), None  # solving points whose rows are kept, and the rows

    def run(block):
        nonlocal kept
        start, end = block[0], block[-1] + 1
        new = start + np.flatnonzero(solves[start:end])
        couplings = [gs[i] for i in new]
        ids, pool = kept  # a block of repeats only has kept rows
        solved = (_eig_stack(family.matrices(couplings), couplings) if couplings
                  else tuple(part[:0] for part in pool))
        if len(ids):
            ids = np.concatenate([ids, new])
            pool = tuple(np.concatenate(parts) for parts in zip(pool, solved))
        else:
            ids, pool = new, solved
        E, V, b = solved
        if len(new) < end - start:  # repeats
            slot[ids] = np.arange(len(ids))
            at = slot[source[start:end]]
            E, V, b = (part[at] for part in pool)
        keep = until[ids] >= end
        kept = ids[keep], tuple(part[keep] for part in pool)
        return gs[start:end], E, V, b

    return _in_stacks(run, range(len(gs)), family.dim, vectors=True)


def _orthogonalize_clusters(e: np.ndarray, V: np.ndarray, tau_c: float) -> None:
    """c-orthogonalize, in place, the columns of V inside eigenvalue clusters.

    A cluster is a run of eigenvalues within ``COINCIDENCE_TOL * max(1,
    max|e|)`` of its first member.  Columns already inside the
    self-orthogonality guard are not projected out, which is the defective
    (EP-like) situation.
    """
    n = len(e)
    scale = max(1.0, float(np.max(np.abs(e))))
    cluster_tol = COINCIDENCE_TOL * scale
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


def _c_normalize_stack(E: np.ndarray, V: np.ndarray, tau_c: float):
    """``c_normalize`` of every row of (k, n) eigenvalues and (k, n, n) vectors.

    Returns the normalized vectors, their c-norms b and the self-orthogonal
    flags, each row bit for bit what the row gives alone.  Only rows with two
    adjacent eigenvalues near the cluster tolerance (twice it, so that the
    vectorised test cannot miss one) run the Gram-Schmidt loop, which then
    decides the clusters exactly.
    """
    # C order, as the rows alone had: the norms and c-norms below then add
    # each column in row order, never pairwise.
    V = np.array(V, dtype=complex, order="C")
    # Hermitian-normalize first (LAPACK already does, but keep it exact).
    V /= np.linalg.norm(V, axis=1)[:, None, :]
    scale = np.maximum(1.0, np.abs(E).max(axis=1, initial=0.0))
    near = (np.abs(np.diff(E, axis=1))
            <= 2 * COINCIDENCE_TOL * scale[:, None]).any(axis=1)
    for r in np.flatnonzero(near):
        _orthogonalize_clusters(E[r], V[r], tau_c)

    b = np.einsum("kij,kij->kj", V, V)
    flagged = np.abs(b) <= tau_c
    root = np.sqrt(np.where(flagged, 1.0, b))[:, None, :]
    V = np.where(flagged[:, None, :], V, V / root)
    # The remaining sign: the largest component's arg into (-pi/2, pi/2].
    a = np.take_along_axis(V, np.abs(V).argmax(axis=1)[:, None, :], axis=1)[:, 0]
    flip = (a.real < 0) | ((a.real == 0) & (a.imag < 0))
    return np.where(flip[:, None, :], -V, V), b, flagged


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
    e = spectrum.eigenvalues
    V, b, flagged = _c_normalize_stack(np.asarray(e)[None], spectrum.eigenvectors[None],
                                       tau_c)
    return Spectrum(
        g=spectrum.g,
        eigenvalues=e.copy(),
        eigenvectors=V[0],
        self_orthogonality=b[0],
        self_orthogonal=flagged[0],
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


def match_states(prev, next) -> Matching:
    """Permutation pi minimizing sum_m |E_m^prev - E_pi(m)^next|.

    For dimensions up to 7 the assignment is solved exhaustively: the cost of
    every permutation in a cached lexicographic permutation table is summed
    term by term in source order, so each total is the same float as the
    plain sum over m.  Ties are broken by that order: the best assignment is
    the first minimum, and the runner-up is the first minimum among the
    rest.  Two assignments within ``MATCH_AMBIGUITY_TOL`` of each other raise
    the ``ambiguous`` flag.  A tie whose alternatives only swap eigenvalues
    that coincide (``COINCIDENCE_TOL``) is additionally marked
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
    ambiguous = bool(margin <= MATCH_AMBIGUITY_TOL)
    benign = False
    if ambiguous and second_perm is not None:
        # A tie is unresolvable-but-harmless when the competing assignments
        # only permute eigenvalues that coincide -- on the target side, or on
        # the source side (leaving an exact degeneracy, the branch labels are
        # genuinely undefined and no step refinement can split them).
        scale = max(1.0, float(np.max(np.abs(en))), float(np.max(np.abs(ep))))
        tol = COINCIDENCE_TOL * scale
        orbit = [i for i in range(n) if best_perm[i] != second_perm[i]]
        benign_next = all(
            abs(en[best_perm[i]] - en[second_perm[i]]) <= tol for i in orbit
        )
        benign_prev = all(
            abs(ep[s] - ep[t]) <= tol for s in orbit for t in orbit
        )
        benign = benign_next or benign_prev
    return Matching(best_perm, best_cost, margin, ambiguous, benign)


def _match_block(first: np.ndarray, E: np.ndarray):
    """Assignments of the k steps of a block, and which of them are clear.

    Step j pairs the eigenvalues E[j - 1] (``first`` for j = 0) with E[j];
    row j of the returned (k, n) array sends each source to the target of
    least cost |E_prev,a - E_next,b|.  When those targets form a permutation
    pi, any other assignment moves at least two sources off their best
    targets, so its total exceeds pi's by at least the sum of the two
    smallest row gaps, a source's second-best cost minus its best.  The
    totals of ``match_states`` sum the same costs in label order, each
    within n eps / 2 of the exact sum relatively, so their margin is at
    least that bound less n eps (T + bound), T the row minima's total.  A
    step is clear when the bound beats twice ``MATCH_AMBIGUITY_TOL`` plus
    6 n eps (T + bound), which also covers the rounding of the bound and T
    themselves: ``match_states`` then picks pi and finds it unambiguous.
    Every array is (k, n) or (k, n, n), at any dimension.
    """
    k, n = E.shape
    if n == 1:
        return np.zeros((k, 1), dtype=int), np.ones(k, dtype=bool)
    sources = np.concatenate([first[None], E[:-1]])
    cost = np.abs(sources[:, :, None] - E[:, None, :])
    assign = cost.argmin(axis=2)
    # Minima rather than np.sort or np.partition, whose first calls map in
    # about 0.4 MB of code and so raise a process's peak resident size.
    steps, states = np.arange(k)[:, None], np.arange(n)
    best = cost[steps, states, assign]
    cost[steps, states, assign] = np.inf
    gaps = cost.min(axis=2) - best
    smallest = gaps.min(axis=1)
    gaps[steps[:, 0], gaps.argmin(axis=1)] = np.inf
    bound = smallest + gaps.min(axis=1)
    guard = 2 * MATCH_AMBIGUITY_TOL + 6 * n * EPS * (best.sum(axis=1) + bound)
    hit = np.zeros((k, n), dtype=bool)
    hit[steps, assign] = True  # every target hit: a permutation
    return assign, hit.all(axis=1) & (bound > guard)


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
                depth, records):
    """Match the continuation step from ``current`` at t_from to path parameter t_to.

    ``nxt`` is the spectrum already solved at ``point(t_to)``.  ``point``
    maps the path parameter to the coupling: ``complex`` for cuts, whose
    parameter is g itself, or ``LoopSpec.point`` for loops, which bisect in
    phi.  Only bisection midpoints are solved here.  Returns the accepted
    sub-steps in path order, bisection midpoints first, the last one at t_to,
    each with its solved vectors in label order, and the permutation of
    ``nxt`` that the last one is.
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
        first, _ = _align_next(family, current, t_from, t_mid, point, mid,
                               depth + 1, records)
        second, perm = _align_next(family, first[-1], t_mid, t_to, point, nxt,
                                   depth + 1, records)
        return first + second, perm
    if m.ambiguous:
        records.append(AmbiguityRecord(current.g, nxt.g, m.margin,
                                       benign=True, refined=depth))
    return [nxt.permuted(m.perm)], m.perm


def _column_dots(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each column of P with the same column of Q, bit for bit.

    P and Q are (k, n, n) stacks with one vector per column.  Up to 7
    components a stacked ``matmul`` adds in ``np.vdot``'s order; ``einsum``
    and ``sum`` do not.  For longer columns OpenBLAS's sum depends on their
    stride, so they go through ``np.vdot`` one by one, laid out as given.
    """
    n = P.shape[-1]
    if n <= 7:
        A, B = P.transpose(0, 2, 1), Q.transpose(0, 2, 1)
        return (np.conj(A)[..., None, :] @ B[..., :, None])[..., 0, 0]
    return np.array([[np.vdot(p[:, m], q[:, m]) for m in range(n)]
                     for p, q in zip(P, Q)], dtype=complex).reshape(P.shape[:2])


def _column_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of the rows of the last axis of X, bit for bit."""
    re, im = X.real, X.imag
    return np.sqrt((re[..., None, :] @ re[..., :, None]
                    + im[..., None, :] @ im[..., :, None])[..., 0, 0])


def _gauge_signs(re: np.ndarray) -> np.ndarray:
    """Signs s_j of the recurrence s_j = -1 iff s_{j-1} * re_j < 0, s_{-1} = 1.

    For each column of the (k, n) array ``re``.  An exact +-0 or a NaN makes
    the product non-negative, so the sign there is +1; elsewhere s_j is
    s_{j-1} times the sign of re_j.  So s_j = -1 exactly when the number of
    negative re since the last such reset (or since the start) is odd.
    """
    negative = re < 0
    count = np.cumsum(negative, axis=0)
    reset = ~((re > 0) | negative)
    if reset.any():
        rows = np.arange(len(re))[:, None]
        last = np.maximum.accumulate(np.where(reset, rows, -1), axis=0)
        at_reset = np.take_along_axis(count, np.maximum(last, 0), axis=0)
        count = count - np.where(last >= 0, at_reset, 0)
    return np.where(count % 2 == 1, -1.0, 1.0)


def _gauge(prev: Spectrum, W: np.ndarray, flagged: np.ndarray, b: np.ndarray,
           phases: bool):
    """Sign gauge, and with ``phases`` the phase increments, of k accepted steps.

    ``prev`` is the accepted spectrum before the first step; W (k, n, n) holds
    the steps' c-normalized vectors, ``flagged`` and ``b`` (k, n) their
    self-orthogonality flags and c-norms.  A column is negated when its
    Hermitian overlap with the previous step's column, as signed, has a
    negative real part.  Negation is exact, so with the overlaps ``raw`` of
    the unsigned columns the sign of step j is -1 exactly when
    s_{j-1} * Re(raw_j) < 0.  For phases the overlap is normalized by the
    2-norms: near a coalescence the c-normalized vectors carry large, varying
    2-norms, which belong to the normalization correction, not the
    transported phase.  A column self-orthogonal at either end takes the
    overlap of the unit vectors instead, and its increment -i Log(ov) gets
    the analytic normalization correction, which telescopes to zero over
    closed loops.

    Returns the signed vectors and the (k, n) increments, None without
    ``phases``.
    """
    # C order, as each step had alone: np.vdot sees the same column strides.
    mats = np.concatenate([prev.eigenvectors[None], W])
    raw = _column_dots(mats[:-1], mats[1:])
    if phases:
        cols = np.ascontiguousarray(mats.transpose(0, 2, 1))
        norms = _column_norms(cols)
        raw = raw / (norms[:-1] * norms[1:])
        guarded = flagged | np.concatenate([prev.self_orthogonal[None], flagged[:-1]])
        if guarded.any():
            # Unit vectors in contiguous columns, as divided out one by one.
            unit = (cols / norms[..., None]).transpose(0, 2, 1)
            raw = np.where(guarded, _column_dots(unit[:-1], unit[1:]), raw)
    signs = _gauge_signs(raw.real)
    W = np.where(signs[:, None, :] < 0, -W, W)
    if not phases:
        return W, None
    before = np.concatenate([np.ones((1, raw.shape[1])), signs[:-1]])
    increments = -1j * np.log(np.where(signs * before < 0, -raw, raw))
    if guarded.any():
        b_all = np.concatenate([prev.self_orthogonality[None], b])
        b_new, b_old = b_all[1:][guarded], b_all[:-1][guarded]
        ok = (b_new != 0) & (b_old != 0)
        corr = np.zeros(len(b_new), dtype=complex)
        corr[ok] = -0.5j * (np.log(b_new[ok]) - np.log(b_old[ok]))
        increments[guarded] = increments[guarded] + corr
    return W, increments


def _transport(family, start: Spectrum, ts, point, blocks, want_vectors, tau_c,
               phases, records):
    """Continue ``start`` (at path parameter ts[0]) through ``point(ts[1:])``.

    Yields, in path order, blocks ``(E, V, b, flagged, increments)`` of the
    accepted states at consecutive path points after the start: (k, n)
    eigenvalues, (k, n, n) vectors, c-norms and self-orthogonality flags,
    and with ``phases`` the (k, n) phase increments of the steps, else None.
    The vectors are c-normalized and in the sign gauge when
    ``want_vectors``.  Consumers must not write to the blocks.

    ``blocks`` holds the path solved by the caller, as ``_solve_path``
    yields it: ``(couplings, E, V, b)`` blocks of consecutive path points
    after the start.  Each step is put into label order one of two ways: a
    run of steps that ``_match_block`` finds clear by the permutations it
    found, and any other step (near-ties among them) by ``_align_next``,
    which bisects.  Either way the states then take one tail: c-normalized,
    gauged and, with ``phases``, given their increments as a stack, each row
    bit for bit the step taken alone.  Of a bisected step only the state at
    its path point is handed on, with the sub-steps' increments added in
    path order.  Only the state that the next matching starts from is kept
    as a Spectrum.
    """
    current = start
    n = start.dim
    i = 1  # path point of the block's first row, as an index into ts
    for gs, E, V, B in blocks:
        k = len(E)
        q, clear = _match_block(current.eigenvalues, E)
        perm = np.arange(n)  # current, in label order, as a permutation of itself
        j = 0
        while j < k:
            end = j + 1
            if clear[j]:
                while end < k and clear[end]:
                    end += 1
                perms = np.empty((end - j, n), dtype=int)
                for t in range(j, end):
                    perm = perms[t - j] = q[t][perm]
                rows = np.arange(end - j)[:, None]
                Ea, Ba = E[j:end][rows, perms], B[j:end][rows, perms]
                Va = np.take_along_axis(V[j:end], perms[:, None, :], axis=2)
            else:
                steps, perm = _align_next(
                    family, current, ts[i + j - 1], ts[i + j], point,
                    Spectrum(complex(gs[j]), E[j], V[j], B[j]), 0, records)
                perm = np.asarray(perm)
                Ea = np.array([s.eigenvalues for s in steps])
                Va = np.array([s.eigenvectors for s in steps])
                Ba = np.array([s.self_orthogonality for s in steps])
            Fa = np.zeros(Ea.shape, dtype=bool)
            increments = None
            if want_vectors:
                Va, Ba, Fa = _c_normalize_stack(Ea, Va, tau_c)
                Va, increments = _gauge(current, Va, Fa, Ba, phases)
            if not clear[j]:
                Ea, Va, Ba, Fa = Ea[-1:], Va[-1:], Ba[-1:], Fa[-1:]
                if increments is not None:
                    increments = sum(increments[1:], increments[0])[None]
            yield Ea, Va, Ba, Fa, increments
            current = Spectrum(complex(gs[end - 1]), Ea[-1], Va[-1], Ba[-1], Fa[-1])
            j = end
        i += k


def continue_spectrum(model_or_family, points, want_vectors: bool = True,
                      tau_c: float = DEFAULT_TAU_C,
                      start_im_tol: float = ORDER_IM_TOL) -> ContinuationResult:
    """Continue a labeled eigensystem through a sequence of couplings.

    Labels are assigned at the first point by canonical ordering (ascending
    Im with ``start_im_tol`` clustering) and then propagated by eigenvalue
    matching; flagged ambiguities trigger step bisection up to ``MAX_BISECT``
    levels unless they are benign ties.  With vectors the sign gauge is
    continued: each vector's Hermitian overlap with the previous sample lies
    in the right half-plane.  Traversing the reversed path returns states to
    their original labels.
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
    for E, V, b, flagged, _ in _transport(family, start, points, complex,
                                          _solve_path(family, points[1:]), want_vectors,
                                          tau_c, False, records):
        for t in range(len(E)):
            spectra.append(Spectrum(points[len(spectra)], E[t], V[t], b[t], flagged[t]))
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

    def to_csv(self, path, meta=()):
        from ._csvio import write_csv

        names = ["g_re", "g_im"]
        columns = [self.gs.real, self.gs.imag]
        for m in range(self.dim):
            names += [f"E{m + 1}_re", f"E{m + 1}_im"]
            columns += [self.energies[:, m].real, self.energies[:, m].imag]
        write_csv(path, names, columns, meta=meta)


def _segment(start, stop, n: int) -> np.ndarray:
    """The ``n`` evenly spaced samples of a straight cut, at least two."""
    if n < 2:
        raise CutError("samples must be at least 2")
    return np.linspace(complex(start), complex(stop), n)


def spectrum_along(model_or_family, start, stop, n: int) -> CutTable:
    """Sample a straight segment in the coupling plane with stable labels."""
    points = _segment(start, stop, n)
    res = continue_spectrum(model_or_family, points, want_vectors=False)
    return CutTable(gs=points, energies=res.eigenvalues,
                    ambiguities=res.ambiguities)


def semicircle(g0: complex, h: float, steps: int) -> np.ndarray:
    """Arc from g0 - h to g0 + h over the upper half plane, avoiding g0."""
    return g0 + h * np.exp(1j * np.linspace(np.pi, 0.0, steps + 1))


def branch_slopes(model_or_family, g0: complex) -> np.ndarray:
    """Central-difference dE/d(delta) at g0 along the real direction.

    The two evaluation points g0 -+ h, h = 1e-4, are connected by analytic
    continuation over a 32-step semicircle around g0, so the branch
    assignment is well defined even when the spectrum is degenerate at g0
    itself (matching straight across the degeneracy is ambiguous at
    O(h^3)).  Labels are canonical at g0 - h with ``LABEL_IM_TOL``
    clustering.
    """
    h = 1e-4
    path = semicircle(complex(g0), h, 32)
    res = continue_spectrum(model_or_family, path, want_vectors=False,
                            start_im_tol=LABEL_IM_TOL)
    return (res.spectra[-1].eigenvalues - res.spectra[0].eigenvalues) / (2 * h)
