import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.observables
from pairdeg import (CutError, FitRejectedError, MatrixFamily, PairdegError,
                     SelfOrthogonalityError, build_operator_matrices, c_normalize,
                     coefficient_extract, continue_spectrum, eigendecompose,
                     fit_power_law, ladder_spectra, operator_in_eigenbasis,
                     pairing_energy_cut, spectrum_along)
from pairdeg.observables import RAW_NORM_GUARD, _eigenbasis_operators


def test_operator_symmetry(model):
    rng = np.random.default_rng(20)
    for _ in range(8):
        g = complex(rng.normal(), rng.normal()) * 0.3
        op = operator_in_eigenbasis(model, g)
        assert np.max(np.abs(op.matrix - op.matrix.T)) <= \
            1e-8 * max(1.0, np.max(np.abs(op.matrix)))


def test_hermitian_limit_real_diagonal(model):
    op = operator_in_eigenbasis(model, 0.02)
    assert np.max(np.abs(op.diagonal.imag)) <= 1e-10


def test_leading_divergence_at_small_delta(model, pseudo_dp):
    # At delta = 1e-3 the merging pair's diagonal entries are +-a1/delta to
    # within a few percent, and their sum stays O(1).
    delta = 1e-3
    op = operator_in_eigenbasis(model, pseudo_dp + delta)
    diag = op.diagonal
    pair_vals = sorted((diag[1], diag[2]), key=lambda z: -z.real)
    a1_over_delta = (1 / 16) / delta
    assert abs(pair_vals[0] - a1_over_delta) <= 0.05 * a1_over_delta
    assert abs(pair_vals[1] + a1_over_delta) <= 0.05 * a1_over_delta
    assert abs(diag[1] + diag[2]) < 10.0


def test_raw_normalization_guard():
    # (1, i) is exactly self-orthogonal under the c-product.
    from pairdeg.spectra import Spectrum

    V = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
    spec = Spectrum(g=0j, eigenvalues=np.array([1.0 + 0j, 2.0 + 0j]),
                    eigenvectors=V, self_orthogonality=np.zeros(2, complex))
    with pytest.raises(SelfOrthogonalityError):
        _eigenbasis_operators(np.eye(2), [spec])


def test_gauge_invariance_of_diagonal(model, pseudo_dp):
    # Flipping any eigenvector's sign leaves diagonal entries unchanged and
    # flips the corresponding row/column.
    from pairdeg.spectra import eigendecompose

    g = pseudo_dp + 1e-2
    spec = eigendecompose(model.family().matrix(g), g=g)
    P = build_operator_matrices(model).P
    U = _eigenbasis_operators(P, [spec])[0][0]
    base = U.T @ (g * P) @ U
    rng = np.random.default_rng(21)
    for _ in range(16):
        signs = rng.choice([-1.0, 1.0], size=4)
        V = U * signs[None, :]
        O = V.T @ (g * P) @ V
        np.testing.assert_allclose(np.diag(O), np.diag(base), rtol=1e-12)
        np.testing.assert_allclose(O, base * signs[:, None] * signs[None, :],
                                   rtol=1e-12)


def test_completeness_at_regular_point(model):
    from pairdeg.spectra import eigendecompose

    rng = np.random.default_rng(22)
    P = build_operator_matrices(model).P
    for _ in range(5):
        g = complex(rng.normal(), rng.normal()) * 0.3
        spec = eigendecompose(model.family().matrix(g), g=g)
        U = _eigenbasis_operators(P, [spec])[0][0]
        np.testing.assert_allclose(U @ U.T, np.eye(4), atol=1e-8)
        total = np.trace(U.T @ (g * P) @ U)
        assert total == pytest.approx(g * np.trace(P), abs=1e-8)


def test_pairing_cut_divergence_and_cancellation(model, pseudo_dp):
    xs = np.geomspace(2e-5, 0.05, 16)
    points = [complex(-x, pseudo_dp.imag) for x in xs[::-1]]
    points += [complex(x, pseudo_dp.imag) for x in xs]
    cut = pairing_energy_cut(model, points=points, pair=(2, 3))
    re22 = cut.diagonal[:, 1].real
    re33 = cut.diagonal[:, 2].real
    assert np.all(re22 * re33 < 0)
    assert np.max(np.abs(re22)) > 1e3
    s = cut.pair_sum.real
    x_vals = np.array([g.real for g in cut.gs])
    assert np.all(s[x_vals > 0] > 0)
    # second difference of the sum stays bounded on one side of the cut
    right = s[x_vals > 0]
    assert np.max(np.abs(np.diff(right, 2))) < 10 * np.max(np.abs(right))
    # regular states stay bounded across the whole cut
    assert np.max(np.abs(cut.diagonal[:, 0])) < 50
    assert np.max(np.abs(cut.diagonal[:, 3])) < 50


def test_pairing_cut_linear_segment(model, pseudo_dp):
    cut = pairing_energy_cut(model, pseudo_dp - 0.05, pseudo_dp - 0.01, 9)
    assert cut.diagonal.shape == (9, 4)


@pytest.mark.parametrize("pair", [(0, 3), (2, 5)])
def test_pairing_cut_rejects_labels_out_of_range(model, pseudo_dp, monkeypatch, pair):
    # Label 0 once wrapped to the last state; label 5 failed after the cut.
    def never(*args, **kwargs):
        raise AssertionError("continued before the pair was checked")

    monkeypatch.setattr(pairdeg.observables, "continue_spectrum", never)
    with pytest.raises(ValueError, match=r"needs two state labels in 1\.\.4"):
        pairing_energy_cut(model, pseudo_dp - 0.05, pseudo_dp - 0.01, 9, pair=pair)


@pytest.mark.parametrize("cut", [spectrum_along, pairing_energy_cut])
def test_cut_with_one_sample_raises_cut_error(model, pseudo_dp, cut):
    with pytest.raises(CutError, match="^samples must be at least 2$") as info:
        cut(model, pseudo_dp - 0.05, pseudo_dp - 0.01, 1)
    assert isinstance(info.value, PairdegError) and isinstance(info.value, ValueError)


@pytest.fixture
def builds(monkeypatch):
    """The models that T, P and Q are built for, one entry per build."""
    import pairdeg.model
    import pairdeg.observables as observables

    calls = []
    original = pairdeg.model.build_operator_matrices

    def counting(m):
        calls.append(m)
        return original(m)

    # ModelSpec.family() finds the builder in the model module, the
    # observables in their own: count both.
    monkeypatch.setattr(pairdeg.model, "build_operator_matrices", counting)
    monkeypatch.setattr(observables, "build_operator_matrices", counting)
    return calls


@pytest.mark.parametrize("samples", [2, 9, 40])
def test_pairing_cut_builds_operators_once(builds, model, pseudo_dp, samples):
    pairing_energy_cut(model, pseudo_dp - 0.05, pseudo_dp - 0.01, samples)
    assert len(builds) == 1


def test_eigenbasis_and_coefficients_build_operators_once(builds, model, pseudo_dp):
    operator_in_eigenbasis(model, pseudo_dp + 0.01)
    assert len(builds) == 1
    coefficient_extract(model)  # locates the pseudo-DP itself
    assert len(builds) == 2


def test_pairing_cut_csv(tmp_path, model, pseudo_dp):
    cut = pairing_energy_cut(model, pseudo_dp + 0.01, pseudo_dp + 0.05, 5)
    path = tmp_path / "pairing.csv"
    cut.to_csv(path, meta=["version=test"])
    lines = path.read_text().splitlines()
    assert lines[1].split(",") == [
        "g_re", "g_im", "ReO_11", "ReO_22", "ReO_33", "ReO_44",
        "ReO_22+ReO_33"]
    assert len(lines) == 2 + 5


def test_fit_power_law_constant():
    d = np.logspace(-4, -2, 8)
    fit = fit_power_law(d, np.full(8, 2.5 + 0j))
    assert abs(fit.exponent) <= 1e-6
    assert fit.amplitude == pytest.approx(2.5)


def test_fit_power_law_validation():
    d = np.logspace(-3, -2, 8)
    with pytest.raises(FitRejectedError):
        fit_power_law(d, np.ones(8))  # only one decade
    with pytest.raises(FitRejectedError):
        fit_power_law(np.logspace(-4, -2, 4), np.ones(4))  # too few samples
    rng = np.random.default_rng(23)
    d = np.logspace(-4, -2, 10)
    noisy = d ** -0.5 * np.exp(rng.normal(scale=0.5, size=10))
    with pytest.raises(FitRejectedError):
        fit_power_law(d, noisy)
    with pytest.raises(FitRejectedError, match="phases cancel"):
        fit_power_law(d, d ** -0.5 * (-1.0) ** np.arange(10))


@pytest.mark.parametrize("target, bad", [
    ("values", 0.0), ("values", np.nan), ("values", np.inf),
    ("values", complex(np.nan, 1.0)), ("deltas", np.nan), ("deltas", np.inf),
])
def test_fit_power_law_rejects_non_finite_or_zero_input(target, bad):
    # Each once gave a NaN exponent with no error: NaN fails every residual
    # comparison.  Rejected before any log, so no numpy warning either.
    data = {"deltas": np.logspace(-4, -2, 8)}
    data["values"] = data["deltas"] ** -0.5 + 0j
    data[target][-1 if target == "deltas" else 3] = bad
    with pytest.raises(FitRejectedError, match="finite"):
        fit_power_law(data["deltas"], data["values"])


def test_divergence_exponents(model, pseudo_dp):
    deltas = np.logspace(-4, -2, 9)
    samples = ladder_spectra(model, pseudo_dp, deltas)
    P = build_operator_matrices(model).P
    comp, o22 = [], []
    Us = _eigenbasis_operators(P, [spec for _, spec in samples])[0]
    for U, (d, spec) in zip(Us, samples):
        comp.append(np.max(np.abs(U[:, 1])))
        o22.append(U[:, 1] @ (spec.g * P) @ U[:, 1])
    ds = np.array([d for d, _ in samples])
    fit_u = fit_power_law(ds, np.array(comp))
    fit_o = fit_power_law(ds, np.array(o22))
    assert abs(fit_u.exponent + 0.5) <= 0.03
    assert abs(fit_o.exponent + 1.0) <= 0.03


def test_o22_amplitude_lower_window(model, pseudo_dp):
    # The finite O(delta^0) term biases the intercept at the top of the
    # [1e-4, 1e-2] window; a lower window recovers |a1| within 5%.
    deltas = np.logspace(-5, -3, 9)
    samples = ladder_spectra(model, pseudo_dp, deltas)
    P = build_operator_matrices(model).P
    o22 = []
    Us = _eigenbasis_operators(P, [spec for _, spec in samples])[0]
    for U, (d, spec) in zip(Us, samples):
        o22.append(U[:, 1] @ (spec.g * P) @ U[:, 1])
    ds = np.array([d for d, _ in samples])
    fit = fit_power_law(ds, np.array(o22))
    assert abs(fit.exponent + 1.0) <= 0.03
    assert abs(abs(fit.amplitude) - 1 / 16) <= 0.05 / 16


def test_u2_third_component_subleading(model, pseudo_dp):
    # The merging pair's flat branch has a vanishing third basis component at
    # leading order; it grows like sqrt(delta) instead of diverging.
    samples = ladder_spectra(model, pseudo_dp, np.logspace(-4, -2, 7))
    P = build_operator_matrices(model).P
    Us = _eigenbasis_operators(P, [spec for _, spec in samples])[0]
    for U in Us:
        assert np.abs(U[2, 1]) < 0.1 * np.min(np.abs(U[[0, 1, 3], 1]))


def test_coefficient_extract_reference(model):
    table = coefficient_extract(model)
    a = table.coefficients
    refs = {
        "a1": 1 / 16,
        "a2": -7.43796,
        "a3": 0.455281,
        "a4": 0.603023,
        "a5": 0.475579 * (1 - 1j),
        "a6": 0.475579 * (1 + 1j),
        "a7": 0.118873 * (1 - 1j),
        "a8": 0.118873 * (1 + 1j),
    }
    for name, ref in refs.items():
        assert abs(a[name] - ref) / abs(ref) <= 1e-3, name
    assert table.conjugacy["a5_a6"] <= 1e-6
    assert table.conjugacy["a7_a8"] <= 1e-6
    assert table.antisymmetry <= 1e-6
    assert not table.flagged


def test_coefficient_table_serialization(model):
    table = coefficient_extract(model)
    d = table.as_dict()
    assert d["a1_re"] == pytest.approx(1 / 16, abs=1e-4)
    assert "conjugacy_a5_a6" in d


# The stacked kernel against the per-spectrum loop it replaced: U and O must
# equal the loop's bytes, and the guard must name the same spectrum and column.
def _raw_c_normalized_oracle(spectrum):
    V = spectrum.eigenvectors.astype(complex).copy()
    for k in range(V.shape[1]):
        b = V[:, k] @ V[:, k]
        if abs(b) < RAW_NORM_GUARD:
            raise SelfOrthogonalityError(
                f"eigenvector {k + 1} at g = {spectrum.g} is self-orthogonal "
                f"(|b| = {abs(b):.2e}); evaluate at a larger distance delta "
                f"from the degeneracy"
            )
        V[:, k] = V[:, k] / np.sqrt(b)
    return V


def _eigenbasis_operators_oracle(P, spectra):
    Us = [_raw_c_normalized_oracle(s) for s in spectra]
    return np.array(Us), np.array([U.T @ (s.g * P) @ U for U, s in zip(Us, spectra)])


def _assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_kernel_matches_oracle(P, spectra):
    U, O = _eigenbasis_operators(P, spectra)
    U_want, O_want = _eigenbasis_operators_oracle(P, spectra)
    _assert_same_bytes(U, U_want)
    _assert_same_bytes(O, O_want)
    return U, O


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 11), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
       normalized=st.booleans(), complex_p=st.booleans())
def test_eigenbasis_operators_match_per_spectrum_loop(n, seed, k, normalized, complex_p):
    # Random complex-symmetric families; LAPACK's vectors or c-normalized ones.
    rng = np.random.default_rng(seed)
    base = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
    P = rng.normal(size=(n, n))
    if complex_p:
        P = P + 1j * rng.normal(size=(n, n))
    family = MatrixFamily(base, P + P.T)
    gs = [complex(x, y) for x, y in rng.normal(size=(k, 2))]
    spectra = [eigendecompose(family.matrix(g), g=g) for g in gs]
    if normalized:
        spectra = [c_normalize(s) for s in spectra]
    _assert_kernel_matches_oracle(P + P.T, spectra)


@pytest.mark.parametrize("deltas", [(1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                                    tuple(np.logspace(-4, -2, 9))])
def test_eigenbasis_operators_match_loop_on_ladders(model, pseudo_dp, deltas):
    # The ladders of the coefficient table and of the divergence fits, with
    # the fits' one-column forms of |u_2| and O_22.
    ops = build_operator_matrices(model)
    spectra = [s for _, s in ladder_spectra(ops.family(model.gamma), pseudo_dp, deltas)]
    U, O = _assert_kernel_matches_oracle(ops.P, spectra)
    comp, o22 = [], []
    for s in spectra:
        u = _raw_c_normalized_oracle(s)
        comp.append(np.max(np.abs(u[:, 1])))
        o22.append(u[:, 1] @ (s.g * ops.P) @ u[:, 1])
    _assert_same_bytes(np.abs(U[:, :, 1]).max(axis=1), np.array(comp))
    _assert_same_bytes(O[:, 1, 1], np.array(o22))


def test_eigenbasis_operators_match_loop_on_cut(model, pseudo_dp):
    # The pair-sum cut through the pseudo-DP, as the selftest samples it.
    xs = np.geomspace(2e-5, 0.05, 18)
    points = [complex(-x, pseudo_dp.imag) for x in xs[::-1]]
    points += [complex(x, pseudo_dp.imag) for x in xs]
    ops = build_operator_matrices(model)
    spectra = continue_spectrum(ops.family(model.gamma), points).spectra
    _assert_kernel_matches_oracle(ops.P, spectra)


def test_eigenbasis_operators_name_first_self_orthogonal_column():
    # Spectrum 2 has a self-orthogonal third column, spectrum 3 its first:
    # the guard names spectrum 2's column as the per-spectrum loop did.
    from pairdeg.spectra import Spectrum

    null = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    vectors = [np.eye(3, dtype=complex), np.eye(3, dtype=complex),
               np.eye(3, dtype=complex)]
    vectors[1][:, 2] = null
    vectors[2][:, 0] = null
    spectra = [Spectrum(g=g, eigenvalues=np.arange(3, dtype=complex),
                        eigenvectors=V, self_orthogonality=np.ones(3, complex))
               for g, V in zip((0.5j, 0.25 + 0.5j, -0.75), vectors)]
    message = r"eigenvector 3 at g = \(0\.25\+0\.5j\) is self-orthogonal \(\|b\| = "
    with pytest.raises(SelfOrthogonalityError, match=message) as got:
        _eigenbasis_operators(np.eye(3), spectra)
    with pytest.raises(SelfOrthogonalityError) as want:
        _eigenbasis_operators_oracle(np.eye(3), spectra)
    assert str(got.value) == str(want.value)
