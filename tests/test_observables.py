import numpy as np
import pytest

from pairdeg import (FitRejectedError, SelfOrthogonalityError,
                     build_operator_matrices, coefficient_extract,
                     fit_power_law, ladder_spectra, operator_in_eigenbasis,
                     pairing_energy_cut)
from pairdeg.observables import _raw_c_normalized


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
        _raw_c_normalized(spec)


def test_gauge_invariance_of_diagonal(model, pseudo_dp):
    # Flipping any eigenvector's sign leaves diagonal entries unchanged and
    # flips the corresponding row/column.
    from pairdeg.spectra import eigendecompose

    g = pseudo_dp + 1e-2
    spec = eigendecompose(model.family().matrix(g), g=g)
    P = build_operator_matrices(model).P
    U = _raw_c_normalized(spec)
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
        U = _raw_c_normalized(spec)
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
    for d, spec in samples:
        U = _raw_c_normalized(spec)
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
    for d, spec in samples:
        U = _raw_c_normalized(spec)
        o22.append(U[:, 1] @ (spec.g * P) @ U[:, 1])
    ds = np.array([d for d, _ in samples])
    fit = fit_power_law(ds, np.array(o22))
    assert abs(fit.exponent + 1.0) <= 0.03
    assert abs(abs(fit.amplitude) - 1 / 16) <= 0.05 / 16


def test_u2_third_component_subleading(model, pseudo_dp):
    # The merging pair's flat branch has a vanishing third basis component at
    # leading order; it grows like sqrt(delta) instead of diverging.
    samples = ladder_spectra(model, pseudo_dp, np.logspace(-4, -2, 7))
    for d, spec in samples:
        U = _raw_c_normalized(spec)
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
