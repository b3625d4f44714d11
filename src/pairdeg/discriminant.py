"""Characteristic polynomial, discriminant reconstruction and degeneracy roots.

Every entry of H(g) is affine in g, so the discriminant

    D(g) = prod_{m<m'} (E_m(g) - E_{m'}(g))^2

is an exact polynomial in g of degree at most M = n(n-1).  Its coefficients
are recovered by sampling D on an origin-centered circle at M+1 equispaced
points and inverting the discrete Fourier system; the full degeneracy set is
then the polynomial's root set, obtained from the companion matrix and
polished by Newton iteration.

Two independent evaluation routes are kept for cross-checking: the product of
squared eigenvalue gaps, and the Sylvester resultant of the characteristic
polynomial with its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, InterpolationError
from .model import as_family
from .spectra import (EPS, STACK_BYTES, Spectrum, _eig_stack, _in_lockstep, _lapack,
                      closest_pair)

__all__ = [
    "char_poly",
    "poly_eval",
    "discriminant_at",
    "DiscriminantPoly",
    "discriminant_poly",
    "DegeneracyRoot",
    "find_degeneracies",
    "discriminant_grid",
    "contour_moments",
]

DEFAULT_RADIUS = 0.5
DEFAULT_CLUSTER_FACTOR = 1e-4
HOLDOUT_TOL = 1e-6
HOLDOUT_POINTS = 8
MOMENT_POINTS = 64


def char_poly(H: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial of det(E*I - H), ascending coefficients.

    Uses the Faddeev-LeVerrier recurrence: only traces, matrix products and
    divisions by the integer step counter.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    N = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        M = H @ N
        c[n - k] = -np.trace(M) / k
        N = M + c[n - k] * np.eye(n)
    return c


def poly_eval(coeffs: np.ndarray, x: complex) -> complex:
    """Horner evaluation; ``coeffs`` ascending."""
    v = 0.0 + 0.0j
    for a in coeffs[::-1]:
        v = v * x + a
    return v


def poly_derivative(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs)
    if len(c) <= 1:
        return np.zeros(1, dtype=c.dtype)
    return c[1:] * np.arange(1, len(c))


def _sylvester(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Sylvester matrix of two polynomials given by ascending coefficients."""
    dp, dq = len(p) - 1, len(q) - 1
    S = np.zeros((dp + dq, dp + dq), dtype=complex)
    p_desc, q_desc = p[::-1], q[::-1]
    for r in range(dq):
        S[r, r:r + dp + 1] = p_desc
    for r in range(dp):
        S[dq + r, r:r + dq + 1] = q_desc
    return S


def discriminant_from_charpoly(coeffs: np.ndarray) -> complex:
    """disc(p) = (-1)^{d(d-1)/2} Res(p, p') for monic p."""
    d = len(coeffs) - 1
    if d < 2:
        return 1.0 + 0j
    res = np.linalg.det(_sylvester(coeffs, poly_derivative(coeffs)))
    return (-1) ** (d * (d - 1) // 2) * res


def _discriminant_rows(E: np.ndarray) -> np.ndarray:
    """prod_{i<j} (E_i - E_j)^2 of each row of a (k, n) eigenvalue array.

    Bit for bit the scalar loop ``d = 1; d *= (e[i] - e[j])**2`` over the
    pairs in (i, j) order, overflow to inf or NaN included.  That loop
    squares and multiplies complex scalars as (a.re b.re - a.im b.im,
    a.re b.im + a.im b.re); numpy's complex array multiply is fused and
    rounds differently, so the rows work on real and imaginary parts, in
    the same order.  Overflow is left to the callers, without warnings.
    """
    E = np.asarray(E)
    re, im = E.real.T, E.imag.T
    d_re, d_im = np.ones(len(E)), np.zeros(len(E))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(re)):
            for j in range(i + 1, len(re)):
                a, b = re[i] - re[j], im[i] - im[j]
                cross = a * b
                a, b = a * a - b * b, cross + cross
                d_re, d_im = d_re * a - d_im * b, d_re * b + d_im * a
    d = np.empty(len(E), dtype=complex)
    d.real, d.imag = d_re, d_im
    return d


def _require_finite(values: np.ndarray, gs) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise EigensolverError("non-finite discriminant",
                               g=gs[int(np.argmin(finite))])


def _eigvals_along(family, gs) -> np.ndarray:
    """Eigenvalues of H(g) for each g of ``gs``, one row per point.

    One stacked ``eigvals`` call, checked by ``spectra._lapack``; its rows
    are bitwise equal to solving each ``family.matrix(g)`` on its own.
    """
    return _lapack(np.linalg.eigvals, family.matrices(gs), gs, "eigenvalues")


def _eigvals_at(groups) -> np.ndarray:
    """``_eigvals_along`` for the points of several (family, gs) groups, in one call."""
    gs = [g for _, part in groups for g in part]
    H = np.concatenate([family.matrices(part) for family, part in groups])
    return _lapack(np.linalg.eigvals, H, gs, "eigenvalues")


def discriminant_at(model_or_family, g: complex, method: str = "product") -> complex:
    """D(g) by the squared-gap product or by the resultant route.

    Both routes agree to rounding; the resultant never touches eigenvalues,
    which makes it the independent oracle for the product path.  A product
    that overflows raises EigensolverError.
    """
    family = as_family(model_or_family)
    if method == "product":
        gs = [complex(g)]
        d = _discriminant_rows(_eigvals_along(family, gs))
        _require_finite(d, gs)
        return complex(d[0])
    if method == "resultant":
        return discriminant_from_charpoly(char_poly(family.matrix(complex(g))))
    raise ValueError(f"unknown method {method!r}")


@dataclass
class DiscriminantPoly:
    """Reconstructed discriminant polynomial in g (ascending coefficients)."""

    coefficients: np.ndarray
    radius: float
    holdout_residual: float

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, g: complex) -> complex:
        return poly_eval(self.coefficients, complex(g))

    def scale_at(self, g: complex) -> float:
        """Evaluation scale sum_k |c_k| |g|^k (cancellation-free)."""
        a = np.abs(self.coefficients)
        r = abs(g)
        return float(poly_eval(a, r).real)

    @property
    def disc_norm(self) -> float:
        """Sup-norm bound of the polynomial on the interpolation circle."""
        return self.scale_at(self.radius)


def _trim_trailing(coeffs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients negligible on the circle; ``powers`` = radius**k."""
    weights = np.abs(coeffs) * powers
    top = weights.max()
    deg = len(coeffs) - 1
    while deg > 0 and weights[deg] <= 1e-10 * top:
        deg -= 1
    return coeffs[: deg + 1]


def discriminant_poly(model_or_family,
                      radius: float = DEFAULT_RADIUS) -> DiscriminantPoly:
    """Recover D(g) as an exact polynomial of degree <= n(n-1).

    Samples the squared-gap product at M+1 equispaced points on |g| = radius
    and inverts by FFT.  The reconstruction is validated at held-out
    pseudo-random points inside the circle; failure retries a schedule of
    larger and smaller radii before giving up.
    """
    return _discriminant_polys([as_family(model_or_family)], radius)[0]


def _reconstruct(families, r0) -> list:
    """One reconstruction of D for each family at radius r0, with its hold-out.

    The samples of all families are one stacked eigensolve, and so are the
    hold-out points of every family whose coefficients are finite.  Returns
    a DiscriminantPoly per family with its worst hold-out residual (inf for
    a NaN), or None where D or its coefficients overflow.
    """
    n = families[0].dim
    Ns = n * (n - 1) + 1
    nodes = r0 * np.exp(2j * np.pi * np.arange(Ns) / Ns)
    samples = _discriminant_rows(_eigvals_at([(f, nodes) for f in families]))
    polys = []
    for family, row in zip(families, samples.reshape(len(families), Ns)):
        # Past the float range r0**k is inf or 0, and coefficient k comes out
        # 0 (the hold-out decides whether that is right) or non-finite.
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            powers = r0 ** np.arange(Ns)
            coeffs = np.fft.fft(row) / Ns / powers
            if family.is_real:
                # D(g*) = D(g)* forces real coefficients; rounding leaves dust.
                coeffs = coeffs.real.astype(complex)
            coeffs = _trim_trailing(coeffs, powers)
        finite = np.isfinite(row).all() and np.isfinite(coeffs).all()
        polys.append(DiscriminantPoly(coeffs, r0, np.nan) if finite else None)

    rng = np.random.default_rng(20260808)
    held = [r0 * (0.15 + 0.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
            for _ in range(HOLDOUT_POINTS)]
    checked = [(family, poly) for family, poly in zip(families, polys)
               if poly is not None]
    if not checked:
        return polys
    directs = _discriminant_rows(_eigvals_at([(f, held) for f, _ in checked]))
    for (_, poly), row in zip(checked, directs.reshape(len(checked), -1).tolist()):
        worst = 0.0
        for g, direct in zip(held, row):
            diff = abs(poly(g) - direct)
            if diff == 0.0:
                continue  # covers identically vanishing discriminants too
            scale = max(abs(direct), 1e-9 * poly.scale_at(g))
            ratio = diff / scale if scale > 0 else np.inf
            worst = max(worst, ratio) if ratio <= np.inf else np.inf  # NaN fails
        poly.holdout_residual = worst
    return polys


def _discriminant_polys(families, radius: float) -> list:
    """``discriminant_poly`` of each of the same-dimension ``families``.

    The first radius is tried for all families at once (``_reconstruct``);
    a family whose reconstruction overflows or fails the hold-out goes
    through the rest of the retry schedule on its own.
    """
    M = families[0].dim * (families[0].dim - 1)
    if M == 0:
        return [DiscriminantPoly(np.array([1.0 + 0j]), radius, 0.0) for _ in families]
    polys = _reconstruct(families, radius)
    for k, family in enumerate(families):
        tried = [polys[k]]
        for r0 in (2 * radius, 0.5 * radius, 4 * radius, 0.25 * radius):
            if tried[-1] is not None and tried[-1].holdout_residual <= HOLDOUT_TOL:
                break
            tried += _reconstruct([family], r0)
        polys[k] = tried[-1]
        if polys[k] is not None and polys[k].holdout_residual <= HOLDOUT_TOL:
            continue
        residuals = [p.holdout_residual for p in tried if p is not None]
        if not residuals:
            raise InterpolationError(
                f"discriminant reconstruction at radius {radius!r}: D(g) or its "
                f"coefficients overflow at every retry radius"
            )
        raise InterpolationError(
            f"discriminant reconstruction at radius {radius!r} failed hold-out "
            f"validation (best residual {min(residuals):.3e} > {HOLDOUT_TOL:.0e})"
        )
    return polys


@dataclass
class DegeneracyRoot:
    """One degeneracy of H(g): location, multiplicity and diagnostics.

    ``involved_pair`` holds the 1-based labels (canonical order at g0) of the
    two closest eigenvalues; ``residual`` is |D(g0)| under the reconstructed
    polynomial and ``min_gap`` the closest eigenvalue distance found at g0.
    ``spectrum`` is the eigendecomposition of H(g0) of the family the root
    was found on, kept so that classification need not solve it again; it
    is not part of the root's value (``as_dict``, ``repr``, ``==``).
    """

    g0: complex
    multiplicity: int
    residual: float
    involved_pair: tuple
    min_gap: float
    converged: bool = True
    spectrum: Spectrum = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "g_re": self.g0.real,
            "g_im": self.g0.imag,
            "multiplicity": self.multiplicity,
            "residual": self.residual,
            "pair": list(self.involved_pair),
        }


def _newton_polish(coeffs, roots):
    dcoeffs = poly_derivative(coeffs)
    roots = np.array(roots, dtype=complex)
    converged = np.zeros(len(roots), dtype=bool)
    for k in range(len(roots)):
        r = roots[k]
        for _ in range(60):
            d = poly_eval(dcoeffs, r)
            if d == 0:
                break
            step = poly_eval(coeffs, r) / d
            r = r - step
            if abs(step) <= 8 * EPS * max(1.0, abs(r)):
                converged[k] = True
                break
        roots[k] = r
    return roots, converged


def _cluster(roots, rho):
    remaining = sorted(range(len(roots)), key=lambda i: (roots[i].imag, roots[i].real))
    clusters = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        changed = True
        while changed:
            changed = False
            for j in list(remaining):
                if any(abs(roots[j] - roots[m]) <= rho for m in members):
                    members.append(j)
                    remaining.remove(j)
                    changed = True
        clusters.append(members)
    return clusters


def _closest_gap_squared(E) -> list:
    """(E_a - E_b)^2 of the closest eigenvalue pair of each row of E.

    Squared on real and imaginary parts, as a complex scalar multiply
    rounds (see ``_discriminant_rows``); the list holds numpy complex
    scalars, whose arithmetic the callers rely on.
    """
    rows = np.arange(len(E))
    i, j = closest_pair(E)
    d = E[rows, i] - E[rows, j]
    a, b = d.real, d.imag
    out = np.empty(len(E), dtype=complex)
    out.real, out.imag = a * a - b * b, a * b + b * a
    return list(out)


def _gap_newton(families, starts, step_bounds) -> list:
    """Polish simple roots directly on the squared gap of the closest pair.

    d(g) = (E_a - E_b)^2 is analytic through a simple degeneracy with a
    simple zero, so Newton converges quadratically and needs no branch
    bookkeeping (d is symmetric in the pair).  The reconstructed polynomial's
    roots carry its coefficient-rounding noise (~1e-8 here); the gap is
    evaluated from fresh eigenvalues and reaches machine accuracy, which the
    eigenvector coalescence measure used by classification requires.

    ``starts[f]`` lists the roots of ``families[f]``, and ``step_bounds[f]``
    bounds their steps.  All roots iterate in lockstep: each iteration solves
    the (g, g + h, g - h) triple of every root still iterating, of every
    family, in one stack.  Each root keeps its own h and stop rule, takes at
    most 12 steps, and falls back to its start if a step, or its total move,
    exceeds its family's bound.  Returns the polished roots, one list per
    family, in the order of ``starts``.
    """
    g = [[complex(g0) for g0 in roots] for roots in starts]
    h = [[1e-6 * max(1.0, abs(x)) for x in roots] for roots in g]
    active = [list(range(len(roots))) for roots in g]
    for _ in range(12):
        groups = [(families[f], [p for k in ks
                                 for p in (g[f][k], g[f][k] + h[f][k], g[f][k] - h[f][k])])
                  for f, ks in enumerate(active) if ks]
        if not groups:
            break
        gaps = iter(_closest_gap_squared(_eigvals_at(groups)))
        for f, ks in enumerate(active):
            iterating = []
            for k in ks:
                d0, d_plus, d_minus = next(gaps), next(gaps), next(gaps)
                der = (d_plus - d_minus) / (2 * h[f][k])
                if der == 0:
                    continue
                step = d0 / der
                if abs(step) > step_bounds[f]:
                    g[f][k] = None
                    continue
                g[f][k] = g[f][k] - step
                if abs(step) > 1e-15 * max(1.0, abs(g[f][k])):
                    iterating.append(k)
            active[f] = iterating
    return [[complex(g0) if x is None or abs(x - g0) > bound else x
             for x, g0 in zip(roots, firsts)]
            for roots, firsts, bound in zip(g, starts, step_bounds)]


def _gcd_degree(coeffs, radius: float) -> int:
    """Degree of gcd(D, D') from the numerical rank of their Sylvester matrix.

    The variable is rescaled by the interpolation radius first: the raw
    coefficients span ~12 orders of magnitude here and would drown the rank
    decision.  After scaling, the spectrum shows a multi-decade gap at the
    true deficiency; 1e-13 of the largest singular value sits inside it.
    Nothing in the pipeline calls it: it is an independent check of the
    cluster multiplicities for the tests.
    """
    d = len(coeffs) - 1
    if d < 2:
        return 0
    scaled = np.asarray(coeffs) * radius ** np.arange(d + 1)
    scaled = scaled / np.abs(scaled).max()
    S = _sylvester(scaled, poly_derivative(scaled))
    sv = np.linalg.svd(S, compute_uv=False)
    rank = int(np.sum(sv > 1e-13 * sv[0]))
    return S.shape[0] - rank


class _Cluster(NamedTuple):
    """Polynomial roots merged into one candidate degeneracy."""

    centroid: complex
    multiplicity: int
    converged: bool


def _root_clusters(poly: DiscriminantPoly, cluster_factor: float) -> list:
    """Companion roots of D, Newton-polished on D and clustered.

    Roots within ``cluster_factor * poly.radius`` of each other form one
    cluster: double-precision coefficient rounding splits a true double root
    by roughly sqrt(eps * local scale / |D''|), which is of order 1e-5 here,
    so the cluster radius must sit above that.
    """
    if poly.degree < 1:
        return []
    coeffs = poly.coefficients
    raw = np.roots(coeffs[::-1])
    raw, converged = _newton_polish(coeffs, raw)
    return [
        _Cluster(complex(np.mean(raw[members])), len(members),
                 bool(np.all(converged[members])))
        for members in _cluster(raw, cluster_factor * poly.radius)
    ]


def _polish_clusters(families, polys, cluster_sets, cluster_factor: float) -> list:
    """Sharpen each cluster centroid into a root with one polish step.

    A centroid of multiplicity m >= 2 is polished on the (m-1)-th derivative
    of D, where the root is simple again; D's coefficients are real for a
    real family, so conjugate clusters stay exact conjugates.  The eigenvalue
    gap is no use there: at a defective multiple root the eigenvalues carry
    sqrt(eps) noise, which a finite-difference Newton on the gap turns into
    ~1e-8 errors in g.  Simple roots are polished on the squared gap, those
    of all families in lockstep (``_gap_newton``).  Either polish moves the
    centroid by at most twice the cluster radius, or not at all.  Returns the
    roots of each family in cluster order.
    """
    rhos = [cluster_factor * poly.radius for poly in polys]
    gs = [[cluster.centroid for cluster in clusters] for clusters in cluster_sets]
    simple = [[k for k, cluster in enumerate(clusters) if cluster.multiplicity == 1]
              for clusters in cluster_sets]
    polished = _gap_newton(families, [[row[k] for k in ks] for row, ks in zip(gs, simple)],
                           [2 * rho for rho in rhos])
    for row, ks, new in zip(gs, simple, polished):
        for k, g0 in zip(ks, new):
            row[k] = g0
    for row, poly, clusters, rho in zip(gs, polys, cluster_sets, rhos):
        for k, (g0, mult, _) in enumerate(clusters):
            if mult >= 2:
                dk = poly.coefficients
                for _ in range(mult - 1):
                    dk = poly_derivative(dk)
                root, conv = _newton_polish(dk, np.array([g0]))
                if conv[0] and abs(root[0] - g0) <= 2 * rho:
                    row[k] = complex(root[0])
    return gs


def find_degeneracies(model_or_family, radius: float = DEFAULT_RADIUS,
                      cluster_factor: float = DEFAULT_CLUSTER_FACTOR) -> list:
    """All roots of D(g) with multiplicities: the complete degeneracy set.

    Roots come from the companion matrix of the reconstructed discriminant,
    are Newton-polished on D, and clustered with radius
    ``cluster_factor * radius`` (see ``_root_clusters``).  Each cluster is
    then polished once, by the step its multiplicity calls for (see
    ``_polish_clusters``), and the polished roots are solved in one stacked
    eigendecomposition, whose spectra the roots keep.
    """
    return _degeneracies([as_family(model_or_family)], radius, cluster_factor)[0]


def _degeneracies(families, radius: float, cluster_factor: float) -> list:
    """``find_degeneracies`` of each of the same-dimension ``families``, in lockstep.

    Each stage serves every family with one stacked solve: the discriminant
    samples and hold-outs (``_discriminant_polys``), each gap-Newton
    iteration, and the eigendecomposition of every polished root.  Every row
    is what the family's matrix gives alone, so each root set is the one
    ``find_degeneracies`` gives for the family alone.  A stage raises the
    first error it meets, which may be a later family's than a loop over
    the families would meet first (``spectra._in_lockstep`` restores that).
    """
    polys = _discriminant_polys(families, radius)
    cluster_sets = [_root_clusters(poly, cluster_factor) for poly in polys]
    gs = _polish_clusters(families, polys, cluster_sets, cluster_factor)
    groups = [(family, row) for family, row in zip(families, gs) if row]
    if not groups:
        return [[] for _ in families]
    E, V, B = _eig_stack(np.concatenate([f.matrices(row) for f, row in groups]),
                         [g for _, row in groups for g in row])
    I, J = closest_pair(E)
    solved = zip(E, V, B, I.tolist(), J.tolist())
    root_sets = []
    for row, poly, clusters in zip(gs, polys, cluster_sets):
        roots = [DegeneracyRoot(
            g0=g0,
            multiplicity=cluster.multiplicity,
            residual=abs(poly(g0)),
            involved_pair=(i + 1, j + 1),
            min_gap=float(abs(e[i] - e[j])),
            converged=cluster.converged,
            spectrum=Spectrum(complex(g0), e, v, b),
        ) for g0, cluster, (e, v, b, i, j) in zip(row, clusters, solved)]
        roots.sort(key=lambda r: (r.g0.imag, r.g0.real))
        root_sets.append(roots)
    return root_sets


def discriminant_grid(model_or_family, window, n_re: int, n_im: int):
    """|D(g)| on a rectangular grid, row-major, by direct evaluation.

    ``window`` is (re_min, re_max, im_min, im_max).  Returns the real and
    imaginary grid axes and an (n_im, n_re) array whose row i holds
    |D(re + i*ims[i])| along the real axis.  Whole rows are solved together,
    as many as fit in ``STACK_BYTES`` of matrices, in one stacked eigensolve
    and one ``_discriminant_rows`` call.  A non-finite |D| raises
    EigensolverError naming the first such g in row-major order: a stack
    that fails a check is solved again row by row.
    """
    family = as_family(model_or_family)
    re_min, re_max, im_min, im_max = window
    res = np.linspace(re_min, re_max, n_re)
    ims = np.linspace(im_min, im_max, n_im)
    grid = np.empty((n_im, n_re))

    def fill(rows):
        gs = np.empty((len(rows), n_re), dtype=complex)
        gs.real, gs.imag = res, ims[rows, None]
        gs = gs.ravel()
        D = _discriminant_rows(_eigvals_along(family, gs))
        with np.errstate(over="ignore"):
            absD = np.hypot(D.real, D.imag)
        _require_finite(absD, gs)
        grid[rows] = absD.reshape(len(rows), n_re)

    per_stack = max(1, STACK_BYTES // (16 * family.dim ** 2 * n_re))
    for lo in range(0, n_im, per_stack):
        _in_lockstep(fill, list(range(lo, min(lo + per_stack, n_im))))
    return res, ims, grid


def contour_moments(model_or_family, center: complex, radius: float):
    """Moments (s0, s1, s2) of the roots of D in a circle, about its centre.

    s_k = sum of (z - center)^k over the roots z inside |g - center| =
    radius, with multiplicity: the contour integral of (g - center)^k D'/D
    over 2 pi i, by the trapezoid rule on ``MOMENT_POINTS`` points (Delves
    and Lyness, Math. Comp. 21, 1967).  D is never formed, so nothing
    overflows: with Hellmann-Feynman slopes E_i' = u_i^T L u_i / u_i^T u_i
    (H is complex symmetric), D'/D = sum_{i<j} 2 (E_i' - E_j') / (E_i - E_j).
    """
    family = as_family(model_or_family)
    w = radius * np.exp(2j * np.pi * np.arange(MOMENT_POINTS) / MOMENT_POINTS)
    gs = complex(center) + w
    E, U, _ = _eig_stack(family.matrices(gs), gs)
    slopes = (np.einsum("kji,jl,kli->ki", U, family.linear, U)
              / np.einsum("kji,kji->ki", U, U))
    i, j = np.triu_indices(family.dim, 1)
    log_derivative = 2 * ((slopes[:, i] - slopes[:, j])
                          / (E[:, i] - E[:, j])).sum(axis=1)
    return tuple(complex(np.mean(w ** (k + 1) * log_derivative))
                 for k in range(3))
