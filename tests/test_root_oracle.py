"""Array-native stacked solves against the per-point code they replaced.

The oracles below are the per-point ``family.matrix`` stacks, the scalar
squared-gap loop, the per-point heatmap and contour-moment evaluation, the
one-root-at-a-time ``_gap_newton`` and ``_polish_root``, and the per-root
``classify`` that solved each root a second time and traced each
verification loop on its own.  Every value must match byte for byte, down
to the Python or numpy type of each number.
"""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.atlas
import pairdeg.discriminant as disc
from pairdeg import (Kind, LoopSpec, MatrixFamily, ModelSpec, c_normalize, classify,
                     classify_all, discriminant_grid, discriminant_poly,
                     eigendecompose, find_degeneracies, trace_loop)
from pairdeg.atlas import DegeneracyPoint, _classify_families, _classify_roots
from pairdeg.discriminant import (DegeneracyRoot, _discriminant_rows, _gap_newton,
                                  _newton_polish, _root_clusters, contour_moments,
                                  poly_derivative)
from pairdeg.errors import PairdegError
from pairdeg.model import as_family, build_operator_matrices
from pairdeg.spectra import _in_stacks, closest_pair

oracle_settings = settings(derandomize=True, max_examples=25, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_same_bytes_but_nan_signs(got, want):
    """Byte equality, except that a NaN may carry either sign.

    Where both operands of an operation are NaN, x86 returns the first one;
    numpy's SIMD loops may order the operands differently from the scalar
    code, so a NaN's sign bit depends on which loop produced it.
    """
    got, want = np.asarray(got).view(float), np.asarray(want).view(float)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    _assert_same_bytes(got[~nan], want[~nan])


def _random_family(rng, n, complex_parts=False):
    base = np.diag(rng.normal(size=n))
    linear = rng.normal(size=(n, n))
    if complex_parts:
        base = base + 1j * np.diag(rng.normal(size=n))
        linear = linear + 1j * rng.normal(size=(n, n))
    return MatrixFamily(base, linear + linear.T)


# Level structures (omegas, pairs) of dimension 2 to 7.
STRUCTURES = [((2, 2), 1), ((4, 4), 2), ((2, 2, 2), 1), ((2, 6, 2), 2),
              ((2, 4, 4), 2), ((2, 2, 2, 2), 2), ((4, 2, 6), 3), ((6, 2, 6), 3)]


@st.composite
def models(draw):
    omegas, pairs = draw(st.sampled_from(STRUCTURES))
    eps = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(omegas),
                        max_size=len(omegas)))
    return ModelSpec.from_arrays(eps, omegas, pairs, draw(st.floats(-1.0, 1.0)))


def _discriminant_oracle(e):
    d = 1.0 + 0.0j
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            d *= (e[i] - e[j]) ** 2
    return complex(d)


def _gap_newton_oracle(family, g0, step_bound, max_iter=12):
    g = complex(g0)
    h = 1e-6 * max(1.0, abs(g))
    for _ in range(max_iter):
        d0, d_plus, d_minus = disc._closest_gap_squared(
            disc._eigvals_along(family, [g, g + h, g - h]))
        der = (d_plus - d_minus) / (2 * h)
        if der == 0:
            break
        step = d0 / der
        if abs(step) > step_bound:
            return complex(g0)
        g = g - step
        if abs(step) <= 1e-15 * max(1.0, abs(g)):
            break
    if abs(g - g0) > step_bound:
        return complex(g0)
    return g


def _polish_root_oracle(family, poly, cluster, cluster_factor):
    rho = cluster_factor * poly.radius
    g0, mult = cluster.centroid, cluster.multiplicity
    if mult >= 2:
        dk = poly.coefficients
        for _ in range(mult - 1):
            dk = poly_derivative(dk)
        polished, conv = _newton_polish(dk, np.array([g0]))
        if conv[0] and abs(polished[0] - g0) <= 2 * rho:
            g0 = complex(polished[0])
    else:
        g0 = _gap_newton_oracle(family, g0, step_bound=2 * rho)
    e = eigendecompose(family.matrix(g0), g=g0).eigenvalues
    i, j = closest_pair(e)
    return DegeneracyRoot(g0=g0, multiplicity=mult, residual=abs(poly(g0)),
                          involved_pair=(i + 1, j + 1),
                          min_gap=float(abs(e[i] - e[j])), converged=cluster.converged)


def _find_degeneracies_oracle(model_or_family, radius=0.5, cluster_factor=1e-4):
    family = as_family(model_or_family)
    poly = discriminant_poly(family, radius=radius)
    roots = [_polish_root_oracle(family, poly, cluster, cluster_factor)
             for cluster in _root_clusters(poly, cluster_factor)]
    roots.sort(key=lambda r: (r.g0.imag, r.g0.real))
    return roots


def _pair_coalescence_oracle(family, root, tau_c):
    spec = c_normalize(eigendecompose(family.matrix(root.g0), g=root.g0), tau_c=tau_c)
    i, j = (k - 1 for k in root.involved_pair)
    b = np.abs(spec.self_orthogonality)
    return float(min(b[i], b[j])), (bool(b[i] <= tau_c), bool(b[j] <= tau_c))


def _classify_oracle(family, root, roots, tau_c=1e-6, loop_radius=0.01, loop_steps=64):
    """``classify`` as it ran on one root: its own c-normalisation and loop."""
    coalescence, flags = _pair_coalescence_oracle(family, root, tau_c)
    if root.multiplicity == 1:
        if all(flags) or coalescence <= tau_c:
            return DegeneracyPoint(root, Kind.EP, coalescence)
        return DegeneracyPoint(root, Kind.UNRESOLVED, coalescence,
                               note="simple root without eigenvector coalescence")
    if root.multiplicity == 2:
        radius = loop_radius
        for other in roots:
            if other is root or abs(other.g0 - root.g0) < 1e-12:
                continue
            radius = min(radius, 0.45 * abs(other.g0 - root.g0))
        loop = LoopSpec(root.g0, radius, steps=loop_steps, loops=1)
        perm = trace_loop(family, loop, degeneracies=roots).loop_permutations[0]
        if not all(p == k for k, p in enumerate(perm)):
            return DegeneracyPoint(
                root, Kind.UNRESOLVED, coalescence, monodromy_permutation=perm,
                note="unresolved EP cluster: eigenvalue exchange around a "
                     "multiplicity-2 root")
        if all(flags):
            return DegeneracyPoint(root, Kind.PSEUDO_DP, coalescence, perm)
        if not any(flags):
            return DegeneracyPoint(root, Kind.DP, coalescence, perm)
        return DegeneracyPoint(root, Kind.UNRESOLVED, coalescence,
                               monodromy_permutation=perm,
                               note="mixed coalescence evidence on the merging pair")
    return DegeneracyPoint(root, Kind.UNRESOLVED, coalescence,
                           note=f"multiplicity {root.multiplicity} cluster not classified")


def _classify_all_oracle(model_or_family):
    family = as_family(model_or_family)
    roots = _find_degeneracies_oracle(family)
    return [_classify_oracle(family, r, roots) for r in roots]


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the type and message of the PairdegError raised."""
    try:
        return repr(fn(*args, **kwargs))
    except PairdegError as exc:
        return type(exc).__name__, str(exc)


@oracle_settings
@given(n=st.integers(1, 11), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 70),
       complex_parts=st.booleans(), real_g=st.booleans())
def test_matrices_equal_matrix(n, seed, k, complex_parts, real_g):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n, complex_parts)
    scale = 10.0 ** rng.uniform(-3, 3, size=k)
    if real_g:
        gs = [float(x) for x in rng.normal(size=k) * scale]
    else:
        gs = [complex(x, y) for x, y in rng.normal(size=(k, 2)) * scale[:, None]]
    want = np.array([family.matrix(g) for g in gs])
    _assert_same_bytes(family.matrices(gs), want)
    _assert_same_bytes(family.matrices(np.array(gs)), want)


@oracle_settings
@given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
       exponent=st.sampled_from([-200, -30, 0, 10, 40, 80, 150, 300]))
def test_discriminant_rows_match_scalar_loop(n, seed, k, exponent):
    # Large exponents overflow the product to inf and NaN; exact ties, real
    # rows and non-finite eigenvalues ride along.  One row at a time runs
    # numpy's scalar loops, where even the NaN signs agree.
    rng = np.random.default_rng(seed)
    E = (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))) * 10.0 ** exponent
    if n >= 2:
        E[::3, 1] = E[::3, 0]
        E[1::4] = E[1::4].real
    if n >= 3:
        E[2::5, 2] = np.inf
        E[3::7, 2] = complex(np.nan, 1.0)
    with np.errstate(all="ignore"):
        want = np.array([_discriminant_oracle(e) for e in E], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the kernel warns about nothing
        got = _discriminant_rows(E)
    _assert_same_bytes_but_nan_signs(got, want)
    for e, d in zip(E, want):
        _assert_same_bytes(_discriminant_rows(e[None]), [d])


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), n_re=st.integers(1, 30),
       n_im=st.integers(1, 4), half=st.sampled_from([0.05, 0.5, 3.0]))
def test_discriminant_grid_matches_pointwise_oracle(n, seed, n_re, n_im, half):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    c = complex(*rng.normal(size=2))
    window = (c.real - half, c.real + half, c.imag - half, c.imag + half)
    res, ims, grid = discriminant_grid(family, window, n_re, n_im)
    want = [[abs(_discriminant_oracle(np.linalg.eigvals(family.matrix(complex(x, y)))))
             for x in res] for y in ims]
    _assert_same_bytes(grid, np.array(want))


def _contour_moments_oracle(family, center, radius):
    w = radius * np.exp(2j * np.pi * np.arange(64) / 64)
    gs = complex(center) + w
    spectra = [eigendecompose(family.matrix(g), g=g) for g in gs]
    E = np.array([s.eigenvalues for s in spectra])
    U = np.array([s.eigenvectors for s in spectra])
    slopes = (np.einsum("kji,jl,kli->ki", U, family.linear, U)
              / np.einsum("kji,kji->ki", U, U))
    i, j = np.triu_indices(family.dim, 1)
    log_derivative = 2 * ((slopes[:, i] - slopes[:, j])
                          / (E[:, i] - E[:, j])).sum(axis=1)
    return tuple(complex(np.mean(w ** (k + 1) * log_derivative)) for k in range(3))


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       radius=st.sampled_from([1e-3, 0.05, 0.4]))
def test_contour_moments_match_per_point_oracle(n, seed, radius):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    center = complex(*rng.normal(size=2))
    _assert_same_bytes(contour_moments(family, center, radius),
                       _contour_moments_oracle(family, center, radius))


@settings(derandomize=True, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=models())
def test_find_degeneracies_and_classify_all_match_per_root_oracle(model):
    # Each root's repr holds the type of every number (np.complex128 or
    # complex g0, np.float64 residual, ...), and as_dict the written output.
    want = _outcome(_find_degeneracies_oracle, model)
    assert _outcome(find_degeneracies, model) == want
    want = _outcome(lambda: [p.as_dict() for p in _classify_all_oracle(model)])
    assert _outcome(lambda: [p.as_dict() for p in classify_all(model)]) == want


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       bound=st.sampled_from([1e-9, 1e-5, 1e-2]),
       jitter=st.sampled_from([0.0, 1e-7, 1e-4, 0.1]))
def test_lockstep_newton_matches_single_root_runs(n, seed, bound, jitter):
    # Starts near the discriminant's roots, some moved away far enough that
    # their steps exceed the bound and they fall back to where they started.
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    # A reconstruction that fails its hold-out still starts near the roots.
    poly = disc._reconstruct([family], 0.5)[0]
    starts = [c.centroid for c in _root_clusters(poly, 1e-4)]
    starts = [s + jitter * complex(*rng.normal(size=2)) for s in starts]
    [got] = _gap_newton([family], [starts], [bound])
    assert repr(got) == repr([_gap_newton_oracle(family, s, bound) for s in starts])
    assert repr(got) == repr([_gap_newton([family], [[s]], [bound])[0][0]
                              for s in starts])


def test_root_set_costs_one_stacked_eigensolve(model, monkeypatch):
    family = model.family()
    eig = np.linalg.eig
    stacks = []

    def counted(H):
        stacks.append(len(H))
        return eig(H)

    monkeypatch.setattr(np.linalg, "eig", counted)
    roots = find_degeneracies(family)
    assert stacks == [len(roots)]
    assert all(r.spectrum is not None and r.spectrum.g == complex(r.g0) for r in roots)


def test_pair_coalescence_solves_nothing(model_049, monkeypatch):
    # Simple roots need no loop, so classifying them reads only the spectra
    # the roots keep.
    family = model_049.family()
    roots = find_degeneracies(family)
    simple = [r for r in roots if r.multiplicity == 1]
    want = [repr(_classify_oracle(family, r, roots)) for r in simple]

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a matrix")

    monkeypatch.setattr(np.linalg, "eig", no_solve)
    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    got = _classify_roots([(family, r, roots) for r in simple], 1e-6, 0.01, 64)
    assert [repr(p) for p in got] == want


def test_kept_spectrum_is_not_part_of_the_root(model):
    roots = find_degeneracies(model)
    bare = [DegeneracyRoot(r.g0, r.multiplicity, r.residual, r.involved_pair,
                           r.min_gap, r.converged) for r in roots]
    assert roots == bare
    assert repr(roots) == repr(bare)
    assert [r.as_dict() for r in roots] == [r.as_dict() for r in bare]
    # A root built without a spectrum is solved when classified.
    family = model.family()
    assert ([classify(family, r, degeneracies=bare).as_dict() for r in bare]
            == [classify(family, r, degeneracies=roots).as_dict() for r in roots])


# Three-level structures, dimension 3 to 7.
THREE_LEVEL = [(omegas, pairs) for omegas, pairs in STRUCTURES if len(omegas) == 3]


@st.composite
def gamma_samples(draw):
    """A random three-level model and 1 to 9 gamma samples of it."""
    omegas, pairs = draw(st.sampled_from(THREE_LEVEL))
    eps = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    gammas = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=9))
    return ModelSpec.from_arrays(eps, omegas, pairs, 0.0), gammas


def _per_sample_oracle(oracle, families):
    """The oracle run on one family after the other, as the sweep once did."""
    return _outcome(lambda: [oracle(f) for f in families])


def _in_sweep_batches(run, families):
    """``run`` over the families in the batches of ``sweep_gamma``, flattened."""
    n = families[0].dim
    return [out for batch in _in_stacks(run, families, n, n * (n - 1) + 1)
            for out in batch]


def _assert_lockstep_matches_per_sample_oracle(families):
    # Roots: g0, residual, min_gap, pair and types through repr; the kept
    # spectrum is the eigensystem the root's matrix gives alone.
    find = functools.partial(disc._degeneracies, radius=0.5, cluster_factor=1e-4)
    want = _per_sample_oracle(_find_degeneracies_oracle, families)
    assert _outcome(_in_sweep_batches, find, families) == want
    if isinstance(want, str):
        # A success is also what every family gives in one stack, with no
        # replay to mask a failure that only the stack raises.
        assert _outcome(find, families) == want
        for family, roots in zip(families, _in_sweep_batches(find, families)):
            for r in roots:
                spec = eigendecompose(family.matrix(r.g0), g=r.g0)
                assert r.spectrum.g == spec.g
                for name in ("eigenvalues", "eigenvectors", "self_orthogonality"):
                    _assert_same_bytes(getattr(r.spectrum, name), getattr(spec, name))
    # Points: every root again, with kind, coalescence, permutation and note.
    classify_families = functools.partial(
        _classify_families, tau_c=1e-6, radius=0.5, loop_radius=0.01, loop_steps=64,
        cluster_factor=1e-4)
    want = _per_sample_oracle(_classify_all_oracle, families)
    assert _outcome(_in_sweep_batches, classify_families, families) == want
    if isinstance(want, str):
        assert _outcome(classify_families, families) == want


@settings(derandomize=True, max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=gamma_samples())
def test_lockstep_sweep_matches_per_sample_oracle(case):
    model, gammas = case
    ops = build_operator_matrices(model)
    _assert_lockstep_matches_per_sample_oracle([ops.family(g) for g in gammas])


def test_lockstep_sweep_with_a_radius_retry_matches_oracle():
    # L5 (eps 0, 1, 2; omegas 2, 4, 4; 2 pairs) retries its radius at
    # gamma = -0.5 and -0.45 (0.5, 1.0, then 0.25), but not at -0.25.
    ops = build_operator_matrices(ModelSpec.from_arrays([0, 1, 2], [2, 4, 4], 2, 0.0))
    families = [ops.family(g) for g in (-0.5, -0.25, -0.45)]
    assert [discriminant_poly(f).radius for f in families] == [0.25, 0.5, 0.25]
    _assert_lockstep_matches_per_sample_oracle(families)


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_lockstep_sweep_with_a_non_finite_sample_raises_as_oracle(model, bad):
    # One sample's coupling matrix holds a NaN pair, so that every matrix of
    # that sample is non-finite.
    ops = build_operator_matrices(model)
    families = [ops.family(g) for g in (-0.52, -0.5, -0.48)]
    linear = families[bad].linear.copy()
    linear[0, 1] = linear[1, 0] = np.nan
    families[bad] = MatrixFamily(families[bad].base, linear)
    want = _per_sample_oracle(_classify_all_oracle, families)
    assert want[0] == "EigensolverError"
    _assert_lockstep_matches_per_sample_oracle(families)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_lockstep_raises_the_first_failing_samples_error(order):
    # D of eps 0..3, omegas 2, 2, 2, 2 (2 pairs) vanishes identically, so its
    # reconstruction fails the hold-out at every radius and names the
    # permanently degenerate pair; the NaN sample fails
    # at its first solve.  Solved together, the NaN sample raises first, but
    # a loop over the samples meets the one that comes first.
    family = ModelSpec.from_arrays([0, 1, 2, 3], [2, 2, 2, 2], 2, -0.5).family()
    linear = family.linear.copy()
    linear[0, 1] = linear[1, 0] = np.nan
    families = [[family, MatrixFamily(family.base, linear)][k] for k in order]
    want = _per_sample_oracle(_classify_all_oracle, families)
    assert want[0] == ("VanishingDiscriminantError", "EigensolverError")[order[0]]
    _assert_lockstep_matches_per_sample_oracle(families)


def test_sweep_solves_each_stage_in_one_stack(model, monkeypatch):
    # The default 21-sample reference sweep: every gap-Newton iteration of
    # all samples is one eigvals call, the polished roots of all samples one
    # eigendecomposition, and their coalescences one c-normalisation.
    calls = {"eigvals": 0, "newton": 0, "eig": 0, "roots": 0, "coalescence": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting(key, fn, inner):
        # The calls of ``inner`` that ``fn`` makes, added to calls[key].
        def wrapper(*args, **kwargs):
            before = calls[inner]
            out = fn(*args, **kwargs)
            calls[key] += calls[inner] - before
            return out
        return wrapper

    # The merge events' contour moments solve stacks too: count only the
    # root solves.  A stack is counted where it is handed to LAPACK.
    lapack = disc._lapack

    def counted_stacks(solve, H, gs, returned):
        calls["eigvals"] += solve is np.linalg.eigvals
        return lapack(solve, H, gs, returned)

    monkeypatch.setattr(disc, "_lapack", counted_stacks)
    monkeypatch.setattr(disc, "_gap_newton", counting("newton", disc._gap_newton,
                                                      "eigvals"))
    monkeypatch.setattr(disc, "_eig_stack", counted("eig", disc._eig_stack))
    monkeypatch.setattr(pairdeg.atlas, "_degeneracies",
                        counting("roots", pairdeg.atlas._degeneracies, "eig"))
    monkeypatch.setattr(pairdeg.atlas, "_c_normalize_stack",
                        counted("coalescence", pairdeg.atlas._c_normalize_stack))
    traj = pairdeg.atlas.sweep_gamma(model, -0.6, -0.4, 21)
    assert len(traj.points) == 21
    assert 1 <= calls["newton"] <= 12
    assert calls["roots"] == 1
    assert calls["coalescence"] == 1


def test_heatmap_solves_whole_rows_per_stack(model, monkeypatch):
    # 1,024 points of dim-4 matrices per stack: ten rows of 101 at a time,
    # each stack counted where it is handed to LAPACK.
    stacks = []
    lapack = disc._lapack

    def counted(solve, H, gs, returned):
        stacks.append(len(H))
        return lapack(solve, H, gs, returned)

    monkeypatch.setattr(disc, "_lapack", counted)
    discriminant_grid(model, (-0.6, 0.6, -0.6, 0.6), 101, 101)
    assert stacks == [1010] * 10 + [101]
