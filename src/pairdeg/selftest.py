"""Verification suite for the reference three-level benchmark model.

Ten numbered criteria pin the package against reference values of the
three-level model (eps = 0, 1, 2; Omega = 2, 6, 2; two pairs): the location
and classification of the double-root degeneracy on the negative imaginary
axis at gamma = -1/2, the exceptional point at gamma = -49/100, eigenvalue
slopes, monodromy periods and phases, pairing-operator divergence
coefficients, and a battery of model-independent identities.  Each criterion
reports one pass/fail line; ``run_all`` is what the CLI ``selftest``
subcommand executes.  Every criterion takes ``roots_of``, the solver it reads
root sets from (``find_degeneracies`` by default; ``run_all`` passes one that
solves each model once per run); criteria 2, 3, 8 and 9 read none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atlas import Kind, classify, sweep_gamma
from .discriminant import (_discriminant_rows, _eigvals_at, _require_finite,
                           discriminant_at, discriminant_poly, find_degeneracies)
from .model import ModelSpec, build_operator_matrices, hamiltonian_at
from .monodromy import LoopSpec, restore_count, trace_loop
from .observables import (_eigenbasis_operators, _locate_pseudo_dp, coefficient_extract,
                          fit_power_law, ladder_spectra, pairing_energy_cut)
from .spectra import (DEFAULT_TAU_C, _c_normalize_stack, _eig_stack, branch_slopes,
                      continue_spectrum, eigendecompose)

__all__ = ["reference_model", "run_all", "CriterionResult", "CRITERIA"]

# Reference three-level benchmark: the double root sits at -i/(4*sqrt(2)).
PSEUDO_DP_G = -1j / (4 * np.sqrt(2))
REF_EIGENVALUES = np.array([
    4 - 3.79878j,
    4 - np.sqrt(2) * 1j,
    4 - np.sqrt(2) * 1j,
    4 + 0.263243j,
])
REF_SLOPES = np.array([35.9338, 8.0, 0.0, -7.93378])
EP_G_049 = -0.207687j
REF_COEFFS = {
    "a1": 1 / 16,
    "a2": -7.43796,
    "a3": 0.455281,
    "a4": 0.603023,
    "a5": 0.475579 * (1 - 1j),
}


def reference_model(gamma: float = -0.5) -> ModelSpec:
    return ModelSpec.from_arrays([0.0, 1.0, 2.0], [2, 6, 2], 2, gamma)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} — {self.details}"


def _checks_result(number, name, checks) -> CriterionResult:
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    if failed:
        return CriterionResult(number, name, False, "; ".join(failed))
    return CriterionResult(number, name, True,
                           "; ".join(f"{label}: {detail}" for label, ok, detail in checks))


def criterion_1(roots_of=find_degeneracies) -> CriterionResult:
    """Double-root location and classification at gamma = -1/2."""
    model = reference_model()
    roots = roots_of(model)
    doubles = [r for r in roots if r.multiplicity == 2
               and abs(r.g0 - PSEUDO_DP_G) < 1e-3]
    if not doubles:
        return CriterionResult(1, "pseudo-DP location", False,
                               "no multiplicity-2 root near the target")
    root = doubles[0]
    err = abs(root.g0 - PSEUDO_DP_G)
    point = classify(model, root, degeneracies=roots)
    checks = [
        ("location", err <= 1e-8, f"|g0 - target| = {err:.2e} (<= 1e-8)"),
        ("multiplicity", root.multiplicity == 2, f"{root.multiplicity}"),
        ("kind", point.kind == Kind.PSEUDO_DP, point.kind.value),
    ]
    return _checks_result(1, "pseudo-DP location", checks)


def criterion_2(roots_of=find_degeneracies) -> CriterionResult:
    """Eigenvalues at the double root and the imaginary-part pairing."""
    model = reference_model()
    spec = eigendecompose(hamiltonian_at(model, PSEUDO_DP_G), g=PSEUDO_DP_G)
    errs = np.abs(spec.eigenvalues - REF_EIGENVALUES)
    pairing = spec.eigenvalues[0].imag + spec.eigenvalues[3].imag
    pairing_err = abs(pairing - (-2.5 * np.sqrt(2)))
    checks = [
        ("eigenvalues", bool(np.all(errs <= 1e-5)),
         f"max |E - ref| = {errs.max():.2e} (<= 1e-5)"),
        ("x1+x4", pairing_err <= 1e-5,
         f"|x1+x4 + 2.5*sqrt(2)| = {pairing_err:.2e} (<= 1e-5)"),
    ]
    return _checks_result(2, "spectrum at the pseudo-DP", checks)


def criterion_3(roots_of=find_degeneracies) -> CriterionResult:
    """Central-difference eigenvalue slopes at the double root."""
    model = reference_model()
    slopes = branch_slopes(model, PSEUDO_DP_G)
    checks = []
    for k, ref in enumerate(REF_SLOPES):
        s = slopes[k]
        if ref == 0.0:
            checks.append((f"slope {k + 1}", abs(s) <= 1e-2,
                           f"|slope| = {abs(s):.2e} (<= 1e-2)"))
        else:
            rel = abs(s - ref) / abs(ref)
            checks.append((f"slope {k + 1}", rel <= 1e-3,
                           f"rel err = {rel:.2e} (<= 1e-3)"))
    total = complex(np.sum(slopes))
    checks.append(("sum rule", abs(total - 36.0) <= 1e-8,
                   f"|sum - 36| = {abs(total - 36.0):.2e} (<= 1e-8)"))
    return _checks_result(3, "delta-slopes", checks)


def criterion_4(roots_of=find_degeneracies) -> CriterionResult:
    """Exceptional point on the axis at gamma = -49/100."""
    model = reference_model(gamma=-0.49)
    roots = roots_of(model)
    near = [r for r in roots if abs(r.g0 - EP_G_049) < 1e-3]
    if not near:
        return CriterionResult(4, "EP location", False,
                               "no root near the reference location")
    root = near[0]
    err = abs(root.g0 - EP_G_049)
    point = classify(model, root, degeneracies=roots)
    checks = [
        ("location", err <= 1e-5, f"|g0 - ref| = {err:.2e} (<= 1e-5)"),
        ("multiplicity", root.multiplicity == 1, f"{root.multiplicity}"),
        ("kind", point.kind == Kind.EP, point.kind.value),
    ]
    return _checks_result(4, "EP location", checks)


def criterion_5(roots_of=find_degeneracies) -> CriterionResult:
    """EP coalescence event located by the gamma sweep."""
    model = reference_model()
    traj = sweep_gamma(model, -0.52, -0.48, steps=5, classify_points=True)
    if not traj.events:
        return CriterionResult(5, "coalescence sweep", False, "no merge event found")
    ev = min(traj.events, key=lambda e: abs(e.gamma + 0.5))
    gamma_err = abs(ev.gamma + 0.5)
    g_err = abs(ev.g - PSEUDO_DP_G)
    checks = [
        ("gamma*", gamma_err <= 1e-3, f"|gamma* + 1/2| = {gamma_err:.2e} (<= 1e-3)"),
        ("g*", g_err <= 1e-4, f"|g* - target| = {g_err:.2e} (<= 1e-4)"),
    ]
    for gamma in (-0.49, -0.48):
        roots = roots_of(model.with_gamma(gamma))
        lower = sorted(
            (r for r in roots if r.g0.imag < -1e-3 and r.multiplicity == 1
             and abs(r.g0 - ev.g) < 0.08),
            key=lambda r: abs(r.g0 - ev.g),
        )[:2]
        ok = len(lower) == 2 and all(abs(r.g0.real) <= 1e-6 for r in lower)
        worst = max((abs(r.g0.real) for r in lower), default=np.inf)
        checks.append((f"on-axis at gamma={gamma}", ok,
                       f"max |Re g| = {worst:.2e} (<= 1e-6)"))
    return _checks_result(5, "coalescence sweep", checks)


def criterion_6(roots_of=find_degeneracies) -> CriterionResult:
    """Monodromy periods and per-loop phases."""
    model = reference_model()
    roots = roots_of(model)
    pdp = min((r for r in roots if r.multiplicity == 2 and r.g0.imag < -1e-3),
              key=lambda r: abs(r.g0 - PSEUDO_DP_G))
    res_pdp = restore_count(model, LoopSpec(pdp.g0, 0.01, steps=256), max_loops=4,
                            degeneracies=roots)
    model_ep = reference_model(gamma=-0.49)
    roots_ep = roots_of(model_ep)
    ep = min((r for r in roots_ep if r.multiplicity == 1),
             key=lambda r: abs(r.g0 - EP_G_049))
    res_ep = restore_count(model_ep, LoopSpec(ep.g0, 0.01, steps=256), max_loops=6,
                           degeneracies=roots_ep)
    raw = res_pdp.trace.raw_loop_theta[0].real
    checks = [
        ("EP periods", (res_ep.eigenvalue_period, res_ep.phase_period) == (2, 4),
         f"(eig, phase) = ({res_ep.eigenvalue_period}, {res_ep.phase_period})"),
        ("pseudo-DP periods",
         (res_pdp.eigenvalue_period, res_pdp.phase_period) == (1, 2),
         f"(eig, phase) = ({res_pdp.eigenvalue_period}, {res_pdp.phase_period})"),
        ("phase state 2", abs(abs(raw[1]) - np.pi) <= 0.05,
         f"||theta| - pi| = {abs(abs(raw[1]) - np.pi):.3f} (<= 0.05)"),
        ("phase state 3", abs(abs(raw[2]) - np.pi) <= 0.05,
         f"||theta| - pi| = {abs(abs(raw[2]) - np.pi):.3f} (<= 0.05)"),
        ("phase state 1", abs(raw[0]) <= 0.1, f"|theta| = {abs(raw[0]):.3f} (<= 0.1)"),
        ("phase state 4", abs(raw[3]) <= 0.1, f"|theta| = {abs(raw[3]):.3f} (<= 0.1)"),
    ]
    return _checks_result(6, "monodromy periods", checks)


def criterion_7(roots_of=find_degeneracies) -> CriterionResult:
    """Pairing-operator divergence coefficients."""
    model = reference_model()
    table = coefficient_extract(model, g0=_locate_pseudo_dp(model, roots_of(model)))
    a = table.coefficients
    checks = [("a1", abs(a["a1"].real - REF_COEFFS["a1"]) <= 1e-4
               and abs(a["a1"].imag) <= 1e-4,
               f"|a1 - 1/16| = {abs(a['a1'] - REF_COEFFS['a1']):.2e} (<= 1e-4)")]
    for name in ("a2", "a3", "a4", "a5"):
        rel = abs(a[name] - REF_COEFFS[name]) / abs(REF_COEFFS[name])
        checks.append((name, rel <= 1e-3, f"rel err = {rel:.2e} (<= 1e-3)"))
    for key, label in (("a5_a6", "a5 = conj(a6)"), ("a7_a8", "a7 = conj(a8)")):
        val = table.conjugacy[key]
        scale = abs(a["a5"]) if key == "a5_a6" else abs(a["a7"])
        checks.append((label, val <= 1e-6 * max(scale, 1.0),
                       f"|diff| = {val:.2e}"))
    return _checks_result(7, "operator coefficients", checks)


def criterion_8(roots_of=find_degeneracies) -> CriterionResult:
    """Square-root and inverse-delta divergence exponents."""
    model = reference_model()
    deltas = np.logspace(-4, -2, 9)
    ops = build_operator_matrices(model)
    samples = ladder_spectra(ops.family(model.gamma), PSEUDO_DP_G, deltas)
    U, O = _eigenbasis_operators(ops.P, [spec for _, spec in samples])
    ds = np.array([d for d, _ in samples])
    fit_u = fit_power_law(ds, np.abs(U[:, :, 1]).max(axis=1))
    fit_o = fit_power_law(ds, O[:, 1, 1])
    checks = [
        ("u2 exponent", abs(fit_u.exponent + 0.5) <= 0.03,
         f"exponent = {fit_u.exponent:.4f} (-0.5 +- 0.03)"),
        ("O22 exponent", abs(fit_o.exponent + 1.0) <= 0.03,
         f"exponent = {fit_o.exponent:.4f} (-1.0 +- 0.03)"),
    ]
    return _checks_result(8, "divergence exponents", checks)


def criterion_9(roots_of=find_degeneracies) -> CriterionResult:
    """Finite, positive merging-pair sum while individual entries diverge.

    Every diagonal pairing energy of this model is exactly odd across the
    degeneracy (Re O(-delta) = -Re O(delta), a consequence of the level
    reflection symmetry), so the sum is positive on the Re g > 0 half of the
    cut and mirrored on the other; the boundedness and divergence statements
    hold on both halves.
    """
    model = reference_model()
    xs = np.geomspace(2e-5, 0.05, 18)
    points = [complex(-x, PSEUDO_DP_G.imag) for x in xs[::-1]]
    points += [complex(x, PSEUDO_DP_G.imag) for x in xs]
    cut = pairing_energy_cut(model, points=points, pair=(2, 3))
    re22 = cut.diagonal[:, 1].real
    re33 = cut.diagonal[:, 2].real
    s = cut.pair_sum.real
    x_vals = np.array([g.real for g in cut.gs])
    x_abs = np.abs(x_vals)
    near = x_abs <= 1e-4
    edge = np.isclose(x_abs, 0.05)
    spread = np.max(np.abs(s)) / np.min(np.abs(s[edge]))
    positive_half = s[x_vals > 0]
    checks = [
        ("individual divergence",
         bool(np.max(np.abs(re22[near])) > 1e3 and np.max(np.abs(re33[near])) > 1e3),
         f"max |ReO| near 1e-4: {max(np.max(np.abs(re22[near])), np.max(np.abs(re33[near]))):.0f} (> 1e3)"),
        ("opposite signs", bool(np.all(re22 * re33 < 0)),
         "sign(ReO_22) = -sign(ReO_33) at every sample"),
        ("sum bounded", spread < 10.0,
         f"max|sum| / |sum at edge| = {spread:.2f} (< 10)"),
        ("sum positive (Re g > 0)", bool(np.all(positive_half > 0)),
         f"min sum = {np.min(positive_half):.4f} (> 0)"),
        ("sum odd symmetry",
         bool(np.max(np.abs(s[x_vals > 0] + s[x_vals < 0][::-1])) <= 1e-6
              * np.max(np.abs(s))),
         "Re(O22+O33) antisymmetric across the degeneracy"),
    ]
    return _checks_result(9, "pair-sum cancellation", checks)


def criterion_10(roots_of=find_degeneracies) -> CriterionResult:
    """Model-independent identity battery (no reference numbers)."""
    model = reference_model()
    family = model.family()
    rng = np.random.default_rng(1234)
    checks = []

    # Each identity is checked on one stack of points, in the rng's order.
    gs = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(100)]
    products = _discriminant_rows(_eigvals_at([(family, gs)]))
    _require_finite(products, gs)
    worst = 0.0
    for g, d1 in zip(gs, products.tolist()):
        d2 = discriminant_at(family, g, method="resultant")
        worst = max(worst, abs(d1 - d2) / max(abs(d1), abs(d2), 1e-300))
    checks.append(("resultant oracle", worst <= 1e-8,
                   f"max rel diff = {worst:.2e} (<= 1e-8)"))

    gs = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(25)]
    E = _eig_stack(family.matrices(gs), gs)[0]
    reflected = [-g for g in gs]
    E_refl = _eig_stack(family.matrices(reflected), reflected)[0]
    worst_tr = worst_refl = 0.0
    for g, e, e_refl in zip(gs, E, E_refl):
        worst_tr = max(worst_tr, abs(np.sum(e) - (16 + 36 * g)))
        a = np.sort_complex(e)
        b = np.sort_complex(8.0 - e_refl)
        worst_refl = max(worst_refl, float(np.max(np.abs(a - b))))
    checks.append(("trace identity", worst_tr <= 1e-10,
                   f"max |sum E - (16+36g)| = {worst_tr:.2e} (<= 1e-10)"))
    checks.append(("reflection symmetry", worst_refl <= 1e-10,
                   f"max multiset deviation = {worst_refl:.2e} (<= 1e-10)"))

    gs = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5)) for _ in range(25)]
    matrices = family.matrices(gs)
    E, V, _ = _eig_stack(matrices, gs)
    V, _, flagged = _c_normalize_stack(E, V, DEFAULT_TAU_C)
    worst_bi = worst_res = 0.0
    for H, e, U, self_orthogonal in zip(matrices, E, V, flagged):
        res = np.linalg.norm(H @ U - U * e[None, :], axis=0)
        scale = np.linalg.norm(H)
        norms = np.linalg.norm(U, axis=0)
        worst_res = max(worst_res, float(np.max(res / norms)) / scale)
        G = U.T @ U
        off = G - np.diag(np.diag(G))
        keep = ~self_orthogonal
        worst_bi = max(worst_bi, float(np.max(np.abs(off[np.ix_(keep, keep)]))))
    checks.append(("residual bound", worst_res <= 1e-9,
                   f"max residual / ||H|| = {worst_res:.2e} (<= 1e-9)"))
    checks.append(("biorthogonality", worst_bi <= 1e-8,
                   f"max |b(u_i, u_j)| = {worst_bi:.2e} (<= 1e-8)"))

    fb_ok = True
    for _ in range(5):
        a = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.05, 0.4))
        b = a + complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        pts = list(np.linspace(a, b, 12))
        fwd = continue_spectrum(family, pts, want_vectors=False)
        back = continue_spectrum(family, pts[::-1], want_vectors=False)
        dev = np.max(np.abs(np.sort_complex(fwd.spectra[-1].eigenvalues)
                            - np.sort_complex(back.spectra[0].eigenvalues)))
        round_trip = continue_spectrum(
            family, pts + pts[::-1][1:], want_vectors=False)
        dev2 = np.max(np.abs(round_trip.spectra[-1].eigenvalues
                             - round_trip.spectra[0].eigenvalues))
        fb_ok = fb_ok and dev < 1e-12 and dev2 < 1e-10
    checks.append(("forward-backward continuation", fb_ok,
                   "round trips return the identity labeling"))

    roots = roots_of(model)
    pdp = min((r for r in roots if r.multiplicity == 2 and r.g0.imag < -1e-3),
              key=lambda r: r.g0.imag)
    fwd_loop = trace_loop(model, LoopSpec(pdp.g0, 0.01, 128), degeneracies=roots)
    rev_loop = trace_loop(model, LoopSpec(pdp.g0, 0.01, 128, orientation=-1),
                          degeneracies=roots)
    anti = np.max(np.abs(fwd_loop.raw_loop_theta[0].real
                         + rev_loop.raw_loop_theta[0].real))
    checks.append(("loop orientation antisymmetry", anti <= 0.02,
                   f"max |theta_fwd + theta_rev| = {anti:.2e} (<= 0.02)"))

    d0 = discriminant_at(family, 0.0, method="product")
    poly = discriminant_poly(family)
    checks.append(("trivial degeneracy at g=0",
                   abs(d0) == 0.0 and abs(poly(0.0)) <= 1e-8 * poly.disc_norm,
                   f"|D(0)| = {abs(d0):.1e}, poly constant term small"))
    return _checks_result(10, "property suite", checks)


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_all(echo=print) -> list:
    """Run every criterion, printing one pass/fail line per criterion.

    Each model's root set is solved once for the whole run and handed to
    every criterion that reads it; the memo lives only as long as the run.
    """
    roots_of = functools.lru_cache(maxsize=None)(find_degeneracies)
    results = []
    for crit in CRITERIA:
        result = crit(roots_of)
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
