"""Operators in the biorthogonal eigenbasis near degeneracies.

The pairing operator studied here is g*P including the coupling factor; its
eigenbasis matrix elements are O_ij = u_i^T (g P) u_j over c-normalized right
eigenvectors (for a complex-symmetric H the left eigenvector is the
transpose, so no conjugation appears anywhere).  Near an eigenvector
coalescence the c-normalization is deliberately *unguarded* so the physical
divergences stay visible: entries blow up like 1/delta on the merging pair's
diagonal block and like 1/sqrt(delta) between the pair and the regular
states, while the merging pair's diagonal sum stays finite.

Leading coefficients of those divergences are extracted by continuing labeled
eigenvectors down a real-delta ladder (entered through a semicircle around
the degeneracy, where branches are unambiguous) and Richardson-extrapolating
entry * delta^(-leading power) to delta -> 0; after multiplying out the
leading power every entry is a series in integer powers of delta, so a
three-node Neville table is exact through the quadratic term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CutError, FitRejectedError, SelfOrthogonalityError
from .model import ModelSpec, build_operator_matrices
from .spectra import (DEFAULT_TAU_C, LABEL_IM_TOL, _segment, continue_spectrum,
                      eigendecompose, semicircle)

__all__ = [
    "EigenbasisOperator",
    "operator_in_eigenbasis",
    "PairingCut",
    "pairing_energy_cut",
    "PowerLawFit",
    "fit_power_law",
    "CoefficientTable",
    "coefficient_extract",
    "ladder_spectra",
]

RAW_NORM_GUARD = 1e-12
LADDER_ARC_STEPS = 48
LADDER_DESCENT_RATIO = 0.7


def _eigenbasis_operators(P: np.ndarray, spectra) -> tuple:
    """Raw c-normalized vectors U and O = U^T (g P) U at every spectrum of a stack.

    Both are (k, n, n), each row bit for bit the spectrum's own 2-D products.  No
    coalescence guard: a c-norm below ``RAW_NORM_GUARD`` raises, naming the
    first such spectrum and its first such column.
    """
    V = np.array([s.eigenvectors for s in spectra], dtype=complex)
    cols = V.transpose(0, 2, 1)
    b = (cols[..., None, :] @ cols[..., :, None])[..., 0, 0]
    bad = np.abs(b) < RAW_NORM_GUARD
    if bad.any():
        r, k = np.argwhere(bad)[0]
        raise SelfOrthogonalityError(
            f"eigenvector {k + 1} at g = {spectra[r].g} is self-orthogonal "
            f"(|b| = {abs(b[r, k]):.2e}); evaluate at a larger distance delta "
            f"from the degeneracy"
        )
    U = V / np.sqrt(b)[:, None, :]
    g = np.array([s.g for s in spectra], dtype=complex)
    return U, U.transpose(0, 2, 1) @ (g[:, None, None] * P) @ U


@dataclass
class EigenbasisOperator:
    """Pairing operator g*P in the c-normalized eigenbasis at one coupling."""

    g: complex
    matrix: np.ndarray
    eigenvalues: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.matrix)


def operator_in_eigenbasis(model: ModelSpec, g: complex) -> EigenbasisOperator:
    """O_ij = u_i^T (g P) u_j with raw (unguarded) c-normalization.

    Labels are canonical at g.  Exactly at a degeneracy the normalization is
    undefined; the guard raises with advice to step further away.
    """
    g = complex(g)
    ops = build_operator_matrices(model)
    spec = eigendecompose(ops.family(model.gamma).matrix(g), g=g)
    return EigenbasisOperator(g=g, matrix=_eigenbasis_operators(ops.P, [spec])[1][0],
                              eigenvalues=spec.eigenvalues)


@dataclass
class PairingCut:
    """Diagonal pairing energies along a cut, plus the merging-pair sum."""

    gs: np.ndarray
    diagonal: np.ndarray          # complex (samples, dim)
    energies: np.ndarray          # labeled eigenvalues (samples, dim)
    pair: tuple                   # 1-based labels whose sum is tracked
    ambiguities: list = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.diagonal.shape[1]

    @property
    def pair_sum(self) -> np.ndarray:
        i, j = (k - 1 for k in self.pair)
        return self.diagonal[:, i] + self.diagonal[:, j]

    def to_csv(self, path, meta=()):
        from ._csvio import write_csv

        i, j = self.pair
        names = ["g_re", "g_im"]
        names += [f"ReO_{m + 1}{m + 1}" for m in range(self.dim)]
        names.append(f"ReO_{i}{i}+ReO_{j}{j}")
        columns = [self.gs.real, self.gs.imag]
        columns += [self.diagonal[:, m].real for m in range(self.dim)]
        columns.append(self.pair_sum.real)
        write_csv(path, names, columns, meta=meta)


def _pair_labels(pair, dim: int) -> tuple:
    """``pair`` as a tuple, if it holds two state labels in 1..dim."""
    if len(pair) != 2 or not all(1 <= k <= dim for k in pair):
        raise CutError(f"pair {', '.join(map(str, pair))}: "
                       f"needs two state labels in 1..{dim}")
    return tuple(pair)


def pairing_energy_cut(model: ModelSpec, start=None, stop=None, n: int = None,
                       points=None, pair=(2, 3),
                       tau_c: float = DEFAULT_TAU_C) -> PairingCut:
    """Label-stable diagonal pairing energies along a cut.

    Either a straight segment (start, stop, n) or an explicit ``points``
    sequence; the latter is how the divergence region is sampled with a
    geometric grid that avoids the degeneracy itself.  ``pair`` holds two
    labels in 1..dim.
    """
    if points is None:
        if start is None or stop is None or n is None:
            raise ValueError("need either points or (start, stop, n)")
        points = _segment(start, stop, n)
    points = [complex(p) for p in points]
    ops = build_operator_matrices(model)
    pair = _pair_labels(pair, len(ops.T))
    res = continue_spectrum(ops.family(model.gamma), points, want_vectors=True,
                            tau_c=tau_c)
    O = _eigenbasis_operators(ops.P, res.spectra)[1]
    return PairingCut(gs=np.array(points), diagonal=O.diagonal(axis1=1, axis2=2).copy(),
                      energies=res.eigenvalues, pair=pair,
                      ambiguities=res.ambiguities)


@dataclass
class PowerLawFit:
    """Least-squares power law |value| ~ |amplitude| * delta^exponent."""

    exponent: float
    amplitude: complex
    residual: float


def fit_power_law(deltas, values) -> PowerLawFit:
    """Log-log fit of |value| against delta.

    Requires at least 6 finite, strictly positive, sorted deltas spanning
    1.5 decades, and finite non-zero values whose unit phases do not average
    to zero; a fit whose RMS residual in log-space exceeds 0.02 (or is not a
    number) is rejected.
    """
    d = np.asarray(deltas, dtype=float)
    v = np.asarray(values, dtype=complex)
    if len(d) != len(v):
        raise ValueError("deltas and values must have equal length")
    if len(d) < 6:
        raise FitRejectedError(f"need at least 6 samples, got {len(d)}")
    if not np.isfinite(d).all():
        raise FitRejectedError("deltas must be finite")
    if np.any(d <= 0) or np.any(np.diff(d) <= 0):
        raise FitRejectedError("deltas must be positive and strictly increasing")
    if not (np.isfinite(v) & (v != 0)).all():
        raise FitRejectedError("values must be finite and non-zero")
    if np.log10(d[-1] / d[0]) < 1.5:
        raise FitRejectedError(
            f"delta range spans {np.log10(d[-1] / d[0]):.2f} decades < required 1.5"
        )
    x = np.log(d)
    y = np.log(np.abs(v))
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.sqrt(np.mean((A @ (slope, intercept) - y) ** 2)))
    if not residual <= 0.02:
        raise FitRejectedError(f"power-law fit residual {residual:.3f} exceeds 0.02")
    phases = v * d ** (-slope)
    mean_phase = np.mean(phases / np.abs(phases))
    if not abs(mean_phase) > 0:
        raise FitRejectedError("the values' phases cancel: no amplitude phase")
    amplitude = np.exp(intercept) * mean_phase / abs(mean_phase)
    return PowerLawFit(exponent=float(slope), amplitude=complex(amplitude),
                       residual=residual)


def ladder_spectra(model_or_family, g0: complex, deltas):
    """Labeled spectra at g0 + delta for a descending ladder of real deltas.

    Branch labels are fixed at g0 - max(delta) (canonical order with
    ``LABEL_IM_TOL`` clustering, so the nearly degenerate pair is ordered by
    real part), carried to +max(delta) over a semicircle of ``LADDER_ARC_STEPS``
    steps around the degeneracy and then down the real ladder with geometric
    intermediate steps of ratio ``LADDER_DESCENT_RATIO``.  Matching
    straight across the degeneracy would be ambiguous; the arc is not.

    Returns a list of (delta, Spectrum) for the requested deltas, vectors
    c-normalized with a continued sign gauge.
    """
    deltas = sorted(float(d) for d in deltas)
    if deltas[0] <= 0:
        raise ValueError("deltas must be positive")
    anchor = deltas[-1]
    g0 = complex(g0)
    path = list(semicircle(g0, anchor, LADDER_ARC_STEPS))
    targets = {len(path) - 1: anchor}
    current = anchor
    for d in reversed(deltas[:-1]):
        while current * LADDER_DESCENT_RATIO > d:
            current *= LADDER_DESCENT_RATIO
            path.append(g0 + current)
        path.append(g0 + d)
        current = d
        targets[len(path) - 1] = d
    res = continue_spectrum(model_or_family, path, want_vectors=True,
                            start_im_tol=LABEL_IM_TOL)
    out = [(targets[i], res.spectra[i]) for i in sorted(targets)]
    out.sort(key=lambda t: t[0])
    return out


# Leading power of delta for every eigenbasis-operator entry, by block:
# the merging pair's 2x2 block diverges like 1/delta, its coupling to the
# regular states like 1/sqrt(delta), and the regular block stays finite.
def _leading_power(i, j, pair):
    in_pair_i = i in pair
    in_pair_j = j in pair
    if in_pair_i and in_pair_j:
        return -1.0
    if in_pair_i or in_pair_j:
        return -0.5
    return 0.0


def _neville_at_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    xs = list(xs)
    tab = list(ys)
    m = len(tab)
    for level in range(1, m):
        new = []
        for i in range(m - level):
            x_lo, x_hi = xs[i], xs[i + level]
            new.append((x_lo * tab[i + 1] - x_hi * tab[i]) / (x_lo - x_hi))
        tab = new
    return tab[0]


@dataclass
class CoefficientTable:
    """Extrapolated leading coefficients a1..a8 of the pairing-operator matrix."""

    g0: complex
    coefficients: dict
    conjugacy: dict               # |a5 - conj(a6)|, |a7 - conj(a8)|
    antisymmetry: float           # |A22 + A33| consistency of the +-a1 pair
    flagged: list                 # entries whose extrapolation looks unconverged
    matrix: np.ndarray            # full extrapolated leading-coefficient matrix

    def as_dict(self) -> dict:
        out = {"g0_re": self.g0.real, "g0_im": self.g0.imag}
        for name, val in self.coefficients.items():
            out[f"{name}_re"] = val.real
            out[f"{name}_im"] = val.imag
        out["conjugacy_a5_a6"] = self.conjugacy["a5_a6"]
        out["conjugacy_a7_a8"] = self.conjugacy["a7_a8"]
        out["flagged"] = list(self.flagged)
        return out


def _locate_pseudo_dp(model_or_family, roots=None) -> complex:
    """The lowest multiplicity-2 root below the real axis, away from g = 0.

    ``roots`` is the model's root set, solved here when None.
    """
    if roots is None:
        from .discriminant import find_degeneracies

        roots = find_degeneracies(model_or_family)
    candidates = [r for r in roots
                  if r.multiplicity == 2 and r.g0.imag < 0 and abs(r.g0) > 1e-8]
    if not candidates:
        raise SelfOrthogonalityError(
            "no multiplicity-2 degeneracy below the real axis to expand around"
        )
    candidates.sort(key=lambda r: r.g0.imag)
    return candidates[0].g0


def coefficient_extract(model: ModelSpec, g0: complex = None,
                        deltas=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                        pair=(2, 3)) -> CoefficientTable:
    """Leading coefficients of the pairing operator around a double root.

    Each entry of O(delta) is multiplied by its known leading power of delta
    and extrapolated to delta -> 0 with a Neville table over the sample
    ladder.  The per-vector sign gauge left free by c-normalization is then
    canonicalized so that the (1,2) and (1,3) leading coefficients have
    positive real part and the (1,4) entry's coefficient of i is positive;
    the remaining entries, including both conjugacy relations, carry no
    freedom and are genuine predictions.
    """
    ops = build_operator_matrices(model)
    family = ops.family(model.gamma)
    if g0 is None:
        g0 = _locate_pseudo_dp(family)
    g0 = complex(g0)
    pair0 = tuple(k - 1 for k in pair)
    samples = ladder_spectra(family, g0, deltas)
    dim = samples[0][1].dim

    ds = np.array([d for d, _ in samples])
    mats = _eigenbasis_operators(ops.P, [spec for _, spec in samples])[1]

    lead = np.empty((dim, dim), dtype=complex)
    err = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            p = _leading_power(i, j, pair0)
            ys = [m[i, j] * d ** (-p) for m, d in zip(mats, ds)]
            lead[i, j] = _neville_at_zero(ds, ys)
            if len(ys) >= 3:
                shorter = _neville_at_zero(ds[1:], ys[1:])
                err[i, j] = abs(lead[i, j] - shorter)

    # Canonical per-vector signs (diagonal entries are gauge invariant).
    # The first regular state carries the one genuinely free overall sign.
    flips = np.ones(dim)
    a, b = pair0
    regular = [k for k in range(dim) if k not in pair0]
    if regular:
        r1 = regular[0]
        if lead[r1, a].real < 0:
            flips[a] = -1.0
        if lead[r1, b].real < 0:
            flips[b] = -1.0
        for r in regular[1:]:
            if (lead[r1, r] / 1j).real < 0:
                flips[r] = -1.0
    lead = lead * flips[:, None] * flips[None, :]

    flagged = [
        (i + 1, j + 1)
        for i in range(dim)
        for j in range(dim)
        if err[i, j] > 0.05 * (abs(lead[i, j]) + 1e-12) and abs(lead[i, j]) > 1e-9
    ]

    coeffs = {}
    if dim == 4 and pair0 == (1, 2):
        coeffs = {
            "a1": lead[1, 1],
            "a2": lead[0, 0] / 1j,
            "a3": lead[3, 3] / 1j,
            "a4": lead[0, 3] / 1j,
            "a5": lead[0, 1],
            "a6": lead[0, 2],
            "a7": lead[1, 3],
            "a8": lead[2, 3],
        }
        conj = {
            "a5_a6": float(abs(coeffs["a5"] - np.conj(coeffs["a6"]))),
            "a7_a8": float(abs(coeffs["a7"] - np.conj(coeffs["a8"]))),
        }
        antisym = float(abs(lead[1, 1] + lead[2, 2]))
    else:
        conj = {"a5_a6": np.nan, "a7_a8": np.nan}
        antisym = float(abs(lead[a, a] + lead[b, b]))

    return CoefficientTable(
        g0=g0,
        coefficients=coeffs,
        conjugacy=conj,
        antisymmetry=antisym,
        flagged=flagged,
        matrix=lead,
    )
