import itertools
import math
import operator
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.discriminant as disc
from pairdeg import (EigensolverError, InterpolationError, ModelSpec,
                     VanishingDiscriminantError, char_poly, discriminant_at,
                     discriminant_grid, discriminant_poly, eigendecompose,
                     find_degeneracies, hamiltonian_at)
from pairdeg.discriminant import (_closest_gap_squared, _eigvals_at,
                                  _gcd_degree, _newton_polish, _polish_clusters,
                                  _root_clusters, contour_moments, poly_derivative,
                                  poly_eval)
from pairdeg.model import MatrixFamily


def test_char_poly_diagonal():
    c = char_poly(np.diag([6.0, 4.0, 4.0, 2.0]).astype(complex))
    # (E-6)(E-4)^2(E-2), ascending coefficients
    np.testing.assert_allclose(c.real, [192.0, -224.0, 92.0, -16.0, 1.0],
                               atol=1e-10)
    np.testing.assert_allclose(c.imag, 0.0, atol=1e-12)


def test_char_poly_matches_eigenvalue_expansion():
    rng = np.random.default_rng(10)
    for _ in range(10):
        H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c = char_poly(H)
        ref = np.poly(np.linalg.eigvals(H))[::-1]
        np.testing.assert_allclose(c, ref, atol=1e-9 * np.abs(ref).max())


def test_char_poly_vanishes_at_eigenvalues():
    rng = np.random.default_rng(15)
    for _ in range(10):
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = char_poly(H)
        scale = np.abs(c).max()
        for E in np.linalg.eigvals(H):
            assert abs(poly_eval(c, E)) <= 1e-8 * scale


def test_char_poly_cubic_coefficient_is_minus_trace(model):
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = complex(rng.normal(), rng.normal()) * 0.3
        c = char_poly(hamiltonian_at(model, g))
        assert c[3] == pytest.approx(-(16 + 36 * g), abs=1e-10)


def test_discriminant_zero_at_trivial_degeneracy(model):
    assert discriminant_at(model, 0.0) == 0.0


def test_discriminant_small_at_double_root(model, pseudo_dp):
    d = discriminant_at(model, pseudo_dp)
    poly = discriminant_poly(model)
    scale = sum(abs(c) * abs(pseudo_dp) ** k
                for k, c in enumerate(poly.coefficients))
    assert abs(d) <= 1e-12 * scale


def test_discriminant_diagonal_product():
    from pairdeg.model import MatrixFamily

    family = MatrixFamily(np.diag([1.0, 2.0, 4.0]), np.zeros((3, 3)))
    # gaps 1, 3, 2 -> product of squares = 36
    assert discriminant_at(family, 0.7) == pytest.approx(36.0)


def test_resultant_agrees_with_product(model):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5
        d1 = discriminant_at(model, g, method="product")
        d2 = discriminant_at(model, g, method="resultant")
        worst = max(worst, abs(d1 - d2) / max(abs(d1), abs(d2), 1e-300))
    assert worst <= 1e-8


def test_discriminant_poly_degree_and_leading(model):
    poly = discriminant_poly(model)
    assert poly.degree == 12
    weights = np.abs(poly.coefficients) * poly.radius ** np.arange(13)
    assert weights[12] > 1e-10 * weights.max()


def test_discriminant_poly_reproduces_fresh_points(model):
    poly = discriminant_poly(model)
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        direct = discriminant_at(model, g)
        assert abs(poly(g) - direct) <= 1e-8 * max(abs(direct), 1e-6)


def test_discriminant_poly_constant_term_vanishes(model):
    poly = discriminant_poly(model)
    scale = sum(abs(c) * poly.radius ** k for k, c in enumerate(poly.coefficients))
    assert abs(poly.coefficients[0]) <= 1e-8 * scale


def test_discriminant_conjugation_symmetry(model):
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        d = discriminant_at(model, g)
        dc = discriminant_at(model, np.conj(g))
        assert abs(dc - np.conj(d)) <= 1e-8 * max(abs(d), 1e-12)


def test_find_degeneracies_reference(model, pseudo_dp):
    roots = find_degeneracies(model)
    assert sum(r.multiplicity for r in roots) == 12
    doubles = [r for r in roots if r.multiplicity == 2]
    locations = sorted(r.g0.imag for r in doubles)
    # g = 0 crossing plus the conjugate double-root pair
    assert len(doubles) == 3
    assert abs(doubles[0].g0 - pseudo_dp) <= 1e-8 or any(
        abs(r.g0 - pseudo_dp) <= 1e-8 for r in doubles)
    assert any(abs(r.g0 - np.conj(pseudo_dp)) <= 1e-8 for r in doubles)
    assert any(abs(r.g0) <= 1e-8 for r in doubles)
    assert locations[0] == pytest.approx(-locations[2], abs=1e-8)
    # root set closed under conjugation
    for r in roots:
        assert any(abs(np.conj(r.g0) - s.g0) <= 1e-6 for s in roots)


def test_find_degeneracies_residual_and_gap(model):
    poly = discriminant_poly(model)
    roots = find_degeneracies(model)
    for r in roots:
        assert r.residual <= 1e-10 * poly.disc_norm
        H = hamiltonian_at(model, r.g0)
        assert r.min_gap <= 1e-5 * np.linalg.norm(H)


def test_involved_pair_reference(model, pseudo_dp):
    roots = find_degeneracies(model)
    pdp = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    assert pdp.involved_pair == (2, 3)


def test_ep_location_at_gamma_049(model_049):
    roots = find_degeneracies(model_049)
    target = -0.207687j
    near = min(roots, key=lambda r: abs(r.g0 - target))
    assert near.multiplicity == 1
    assert abs(near.g0 - target) <= 1e-5


def test_double_root_splits_under_gamma_perturbation(model, model_049, pseudo_dp):
    # Structural stability: the multiplicity-2 root at gamma=-1/2 becomes two
    # multiplicity-1 roots when gamma moves to -0.49.
    roots = find_degeneracies(model_049)
    lower_axis = [r for r in roots
                  if abs(r.g0.real) < 1e-6 and r.g0.imag < -0.1]
    assert all(r.multiplicity == 1 for r in lower_axis)
    assert len(lower_axis) >= 2


def test_multiplicity_gcd_cross_check(model):
    poly = discriminant_poly(model)
    roots = find_degeneracies(model)
    gcd_degree = _gcd_degree(poly.coefficients, poly.radius)
    assert gcd_degree == sum(r.multiplicity - 1 for r in roots)
    assert gcd_degree == 3  # g = 0 and the two pseudo-DPs
    assert poly.degree == 12


def test_identically_degenerate_family():
    # H(g) = g*I has D == 0 everywhere; the reconstruction must terminate and
    # report no isolated roots.
    from pairdeg.model import MatrixFamily

    family = MatrixFamily(np.zeros((3, 3)), np.eye(3))
    poly = discriminant_poly(family)
    assert poly.degree == 0
    assert find_degeneracies(family) == []


def test_poly_eval_horner():
    coeffs = np.array([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    assert poly_eval(coeffs, 2.0) == pytest.approx(17.0)
    assert poly_eval(coeffs, 1j) == pytest.approx(-2 + 2j)


def _poly_eval_numpy(coeffs, x):
    """Horner on numpy complex scalars throughout."""
    v, x = np.complex128(0), np.complex128(x)
    for a in np.asarray(coeffs, dtype=complex)[::-1]:
        v = v * x + a
    return v


def _newton_polish_numpy(coeffs, roots, divide=operator.truediv):
    """``_newton_polish`` on numpy complex scalars throughout, each step
    ``divide(p(r), p'(r))``."""
    dcoeffs = poly_derivative(coeffs)
    roots = np.array(roots, dtype=complex)
    converged = np.zeros(len(roots), dtype=bool)
    for k in range(len(roots)):
        r = roots[k]
        for _ in range(60):
            d = _poly_eval_numpy(dcoeffs, r)
            if d == 0:
                break
            step = divide(_poly_eval_numpy(coeffs, r), d)
            r = r - step
            if abs(step) <= 8 * np.finfo(float).eps * max(1.0, abs(r)):
                converged[k] = True
                break
        roots[k] = r
    return roots, converged


def test_horner_on_python_complex_matches_numpy_scalars():
    # Python's complex multiply and add round as numpy's complex scalars do,
    # so the Horner loop gives the same bits.  Their divisions do not: the
    # Newton step divides as numpy scalars, and Python's division would move
    # some of the polished roots below.
    rng = np.random.default_rng(0)
    moved = 0
    for _ in range(16):
        for degree in (12, 20, 42, 110):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            for x in 1.3 * np.exp(2j * np.pi * rng.random(8)) * rng.random(8):
                want = _poly_eval_numpy(coeffs, x)
                for arg in (x, complex(x)):
                    got = poly_eval(coeffs, arg)
                    assert type(got) is np.complex128
                    assert got.tobytes() == want.tobytes()
            assert poly_eval(np.abs(coeffs), 1.1).tobytes() == \
                _poly_eval_numpy(np.abs(coeffs), 1.1).tobytes()
            roots = np.roots(coeffs[::-1])
            roots = roots + 1e-3 * (rng.normal(size=degree) + 1j * rng.normal(size=degree))
            want, want_conv = _newton_polish_numpy(coeffs, roots)
            for start in (roots, roots.tolist()):
                got, conv = _newton_polish(coeffs, start)
                assert got.tobytes() == want.tobytes()
                np.testing.assert_array_equal(conv, want_conv)
            python, _ = _newton_polish_numpy(
                coeffs, roots, lambda p, d: np.complex128(complex(p) / complex(d)))
            moved += int((python != want).sum())
    assert moved > 0


def _shifted_reference(c):
    """The reference model with every level energy shifted by c.

    T moves by a multiple of the identity, so every eigenvalue moves by the
    same amount and D(g), hence every degeneracy, stays where it was.
    """
    return ModelSpec.from_arrays([c, 1.0 + c, 2.0 + c], [2, 6, 2], 2, -0.5)


@pytest.mark.parametrize("c", [0.49458253244656714, 0.1406568462737463,
                               0.36400912117595574])
def test_shifted_reference_pseudo_dps(c, pseudo_dp):
    # The shifts of perfbench seeds 26, 33 and 37.  A finite-difference
    # Newton on the eigenvalue gap, run on the double roots, left the
    # pseudo-DPs up to 6.3e-8 away there and not conjugate to each other.
    doubles = sorted((r for r in find_degeneracies(_shifted_reference(c))
                      if r.multiplicity == 2), key=lambda r: r.g0.imag)
    lower, upper = doubles[0], doubles[-1]
    assert abs(lower.g0 - pseudo_dp) <= 1e-9
    assert abs(upper.g0 - np.conj(pseudo_dp)) <= 1e-9
    assert abs(lower.g0 - np.conj(upper.g0)) <= 1e-12


@pytest.mark.parametrize("gamma", [-0.6, -0.5, -0.49, -0.4306])
def test_polish_moves_a_cluster_at_most_two_radii(model, gamma):
    # One polish per cluster, on D^(m-1) or on the gap, moves it at most two
    # cluster radii, or leaves it where it was.
    family = model.with_gamma(gamma).family()
    poly = discriminant_poly(family)
    clusters = _root_clusters(poly, 1e-4)
    [polished] = _polish_clusters([family], [poly], [clusters], 1e-4)
    assert len(polished) == len(clusters)
    for g0, cluster in zip(polished, clusters):
        assert abs(g0 - cluster.centroid) <= 2e-4 * poly.radius


@pytest.mark.parametrize("gamma", [-0.5, -0.49])
def test_contour_moments_count_each_root(model, gamma):
    # s0 counts the roots inside with multiplicity, s1/s0 is their centroid.
    family = model.with_gamma(gamma).family()
    roots = find_degeneracies(family)
    assert sum(r.multiplicity for r in roots) == 12
    for r in roots:
        nearest = min(abs(o.g0 - r.g0) for o in roots if o is not r)
        s0, s1, _ = contour_moments(family, r.g0, 0.3 * nearest)
        assert round(s0.real) == r.multiplicity
        assert abs(s0 - r.multiplicity) <= 1e-10
        assert abs(s1 / s0) <= 1e-8


def test_contour_moments_root_free_circle(model):
    s0, s1, s2 = contour_moments(model.family(), 0.2 + 0.2j, 0.01)
    assert abs(s0) <= 1e-12
    assert abs(s1) <= 1e-12 and abs(s2) <= 1e-12


def test_contour_moments_pair_separation(model, pseudo_dp):
    # For two roots inside, 2*s2 - s1^2 is their squared separation.
    family = model.with_gamma(-0.5005).family()
    roots = sorted(find_degeneracies(family), key=lambda r: abs(r.g0 - pseudo_dp))
    a, b = roots[0].g0, roots[1].g0
    center = 0.5 * (a + b)
    s0, s1, s2 = contour_moments(family, center,
                                 0.45 * abs(roots[2].g0 - center))
    assert abs(s0 - 2) <= 1e-12
    assert abs(s1 / s0) <= 1e-12
    assert abs(2 * s2 - s1 * s1 - (a - b) ** 2) <= 1e-9 * abs(a - b) ** 2


def test_discriminant_at_overflow_is_an_eigensolver_error(model):
    with np.errstate(over="ignore"), pytest.raises(
            EigensolverError, match="non-finite") as info:
        discriminant_at(model, 1e308)
    assert info.value.g == 1e308


@pytest.mark.parametrize("g", [7e306, 1e307])
def test_overflowed_eigenvalues_are_an_eigensolver_error(model, g):
    # H(g) is finite, but eigvals overflows inside LAPACK.
    assert np.isfinite(model.family().matrix(g)).all()
    with pytest.raises(EigensolverError, match="non-finite eigenvalues") as info:
        _eigvals_at([(model.family(), [0.1, g])])
    assert info.value.g == g
    with pytest.raises(EigensolverError, match="non-finite") as info:
        discriminant_at(model, g)
    assert info.value.g == g


def test_discriminant_overflow_is_an_eigensolver_error(model, capfd):
    # H(1e300) and its eigenvalues are finite, but the squared gaps overflow
    # and their product is NaN.  That raises, naming g, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigensolverError, match="non-finite discriminant") as info:
            discriminant_at(model, 1e300)
        assert info.value.g == 1e300
        # The heatmap names the first such g in row-major order.
        with pytest.raises(EigensolverError, match="non-finite discriminant") as info:
            discriminant_grid(model, (0.1, 1e300, -0.2, 0.1), 3, 2)
        assert info.value.g == complex(5e299, -0.2)
    assert capfd.readouterr().err == ""


def test_heatmap_error_is_the_first_in_row_major_order(model, capfd):
    # Both rows are one stack.  The second fails its eigensolve (at
    # 0.1 + 7e306 i the eigenvalues overflow inside LAPACK), but the first
    # row's D overflows first in row-major order, and that is the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EigensolverError, match="non-finite discriminant") as info:
            discriminant_grid(model, (0.1, 1e300, -0.2, 7e306), 3, 2)
        assert info.value.g == complex(5e299, -0.2)
        with pytest.raises(EigensolverError, match="non-finite eigenvalues") as info:
            discriminant_grid(model, (0.1, 1e300, 7e306, -0.2), 3, 2)
        assert info.value.g == complex(0.1, 7e306)
        # The second row mirrors the first and is not solved; the first
        # raises as it did when both rows were solved.
        for im in (-7e306, 7e306):
            with pytest.raises(EigensolverError, match="non-finite eigenvalues") as info:
                discriminant_grid(model, (0.1, 1e300, im, -im), 3, 2)
            assert info.value.g == complex(0.1, im)
    assert capfd.readouterr().err == ""


oracle_settings = settings(derandomize=True, max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@oracle_settings
@given(c=st.floats(-1.0, 1.0))
def test_level_shift_leaves_roots_in_place(model, c):
    base = find_degeneracies(model)
    roots = find_degeneracies(_shifted_reference(c))
    assert (sorted(r.multiplicity for r in roots)
            == sorted(r.multiplicity for r in base))
    for r in roots:
        assert min(abs(r.g0 - b.g0) for b in base
                   if b.multiplicity == r.multiplicity) <= 1e-9
    assert min(abs(r.g0) for r in roots) <= 1e-9


def _discriminant_oracle(e):
    """The scalar squared-gap product that ``_discriminant_rows`` replaced."""
    d = 1.0 + 0.0j
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            d *= (e[i] - e[j]) ** 2
    return complex(d)


def _pointwise_discriminant(family, g):
    """D(g) from one eigvals call on one matrix: the stacked evaluator's oracle."""
    return _discriminant_oracle(np.linalg.eigvals(family.matrix(g)))


def _closest_pair_oracle(values):
    """The double loop over Python numbers that closest_pair replaced."""
    v = np.asarray(values).tolist()
    best, pair = math.inf, (0, 1)
    for i, a in enumerate(v):
        for j in range(i + 1, len(v)):
            d = abs(a - v[j])
            if d < best:
                best, pair = d, (i, j)
    return pair


def _closest_gap_squared_oracle(family, g):
    e = np.linalg.eigvals(family.matrix(g))
    i, j = _closest_pair_oracle(e)
    d = e[i] - e[j]
    return d * d


def test_closest_gap_squared_returns_numpy_scalars(model, pseudo_dp):
    # _gap_newton's scalar arithmetic rounds differently on Python complex.
    # At g = 0 the reference spectrum has exact ties.
    gs = [pseudo_dp, 0.1j, 0.0]
    gaps = _closest_gap_squared(_eigvals_at([(model.family(), gs)]))
    assert [type(d) for d in gaps] == [np.complex128] * 3
    _assert_same_bytes(gaps, [_closest_gap_squared_oracle(model.family(), g)
                              for g in gs])


def _assert_same_bytes(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _random_family(rng, n):
    base = np.diag(rng.normal(size=n))
    linear = rng.normal(size=(n, n))
    return MatrixFamily(base, linear + linear.T)


@oracle_settings
@given(n=st.integers(2, 7), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_stacked_evaluator_oracle(n, k, seed):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    gs = [complex(*rng.normal(size=2)) for _ in range(k)]
    rows = _eigvals_at([(family, gs)])
    for g, e in zip(gs, rows):
        _assert_same_bytes(e, np.linalg.eigvals(family.matrix(g)))
        _assert_same_bytes(discriminant_at(family, g),
                           _pointwise_discriminant(family, g))
    h = 1e-6 * max(1.0, abs(gs[0]))
    probes = [gs[0], gs[0] + h, gs[0] - h]
    _assert_same_bytes(_closest_gap_squared(_eigvals_at([(family, probes)])),
                       [_closest_gap_squared_oracle(family, g) for g in probes])


def test_heatmap_rows_match_pointwise_oracle(model):
    window = (-0.3, 0.3, -0.3, 0.3)
    res, ims, grid = discriminant_grid(model, window, 101, 3)
    family = model.family()
    want = [[abs(_pointwise_discriminant(family, complex(x, y))) for x in res]
            for y in ims]
    _assert_same_bytes(grid, np.array(want))


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_discriminant_poly_values_match_pointwise_oracle(n, seed):
    # Every sample and hold-out value, in evaluation order, is the pointwise
    # one at the same node; the hold-out points keep their rng draw order.
    family = _random_family(np.random.default_rng(seed), n)
    seen = []
    rows = disc._discriminant_rows

    def record(E):
        d = rows(E)
        seen.extend(d)
        return d

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disc, "_discriminant_rows", record)
        try:
            poly = discriminant_poly(family)
        except disc.InterpolationError:
            poly = None
    want = []
    Ns = n * (n - 1) + 1
    for r0 in (0.5, 1.0, 0.25, 2.0, 0.125):
        want += [_pointwise_discriminant(family, g)
                 for g in r0 * np.exp(2j * np.pi * np.arange(Ns) / Ns)]
        rng = np.random.default_rng(20260808)
        for _ in range(8):
            g = r0 * (0.15 + 0.75 * rng.random()) * np.exp(2j * np.pi * rng.random())
            want.append(_pointwise_discriminant(family, g))
        if poly is not None and r0 == poly.radius:
            break
    _assert_same_bytes(seen, want)


@pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.0, 1.0])
def test_identically_vanishing_discriminant_names_its_pair(gamma):
    # eps 0..3, omegas 2, 2, 2, 2 (2 pairs, dim 6) has a symmetry-protected
    # crossing at every g.  Its reconstruction fails the hold-out at every
    # radius, which once raised an InterpolationError (best residual 16.2).
    model = ModelSpec.from_arrays([0, 1, 2, 3], [2, 2, 2, 2], 2, gamma)
    with pytest.raises(VanishingDiscriminantError,
                       match=r"^discriminant vanishes identically: a pair of states is "
                             r"degenerate at every node of \|g\| = 0\.5 \(states "
                             r"\d and \d at g = 0\.5\)$") as info:
        find_degeneracies(model)
    assert not isinstance(info.value, InterpolationError)
    i, j = info.value.pair
    assert f"(states {i} and {j} at g = 0.5)" in str(info.value)
    H = hamiltonian_at(model, 0.5)
    E = eigendecompose(H, g=0.5).eigenvalues
    assert abs(E[i - 1] - E[j - 1]) <= 1e-14 * np.linalg.norm(H)


def test_a_root_on_one_node_is_no_permanent_pair():
    # At L5, gamma = -1/2, one node of |g| = 0.5 sits on a root, where the
    # closest gap is 2e-16 ||H||_F; the largest gap over the nodes is 8e-2.
    family = ModelSpec.from_arrays([0, 1, 2], [2, 4, 4], 2, -0.5).family()
    gaps = [min(abs(a - b) for a, b in itertools.combinations(np.linalg.eigvals(H), 2))
            / np.linalg.norm(H) for H in family.matrices(disc._nodes(family.dim, 0.5))]
    assert min(gaps) <= disc.PERMANENT_GAP < max(gaps)
    assert disc._permanent_pair(family, 0.5) is None
    assert len(find_degeneracies(family)) > 0


@pytest.mark.parametrize("radius", [1e200, 1e30, 1e-200])
def test_unrepresentable_radius_raises_quietly(model, radius):
    # At 1e200 and 1e-200, radius**12 leaves the float range; at 1e30 D(g)
    # itself overflows to NaN on every retry circle, which once passed the
    # hold-out as an all-NaN polynomial.  Each raises, naming the radius,
    # and warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        match = re.escape(f"radius {radius!r}")
        with pytest.raises(disc.InterpolationError, match=match):
            discriminant_poly(model, radius=radius)
