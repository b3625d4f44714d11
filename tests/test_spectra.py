import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.atlas
import pairdeg.spectra
from pairdeg import (EigensolverError, LoopSpec, MatrixFamily, ModelSpec, branch_slopes,
                     c_normalize, canonical_order, classify_all, continue_spectrum,
                     discriminant_grid, eigendecompose, find_degeneracies,
                     hamiltonian_at, match_states, spectrum_along, sweep_gamma,
                     trace_loop)
from pairdeg.monodromy import _turn_permutations
from pairdeg.spectra import (MATCH_AMBIGUITY_TOL, Matching, _eig_stack, bilinear,
                             closest_pair, semicircle)


def random_complex_symmetric(rng, n=4):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.T


def test_eigendecompose_diagonal():
    spec = eigendecompose(np.diag([6.0, 4.0, 4.0, 2.0]).astype(complex))
    assert sorted(spec.eigenvalues.real) == [2, 4, 4, 6]
    # coordinate eigenvectors up to ordering/sign
    P = np.abs(spec.eigenvectors)
    assert np.allclose(np.sort(P, axis=0)[-1], 1.0)


def test_eigendecompose_reference(model, pseudo_dp):
    spec = eigendecompose(hamiltonian_at(model, pseudo_dp), g=pseudo_dp)
    ref = np.array([4 - 3.79878j, 4 - np.sqrt(2) * 1j, 4 - np.sqrt(2) * 1j,
                    4 + 0.263243j])
    np.testing.assert_allclose(spec.eigenvalues, ref, atol=1e-5)


def test_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = random_complex_symmetric(rng)
        spec = eigendecompose(H)
        assert abs(np.sum(spec.eigenvalues) - np.trace(H)) <= 1e-10 * max(
            1.0, abs(np.trace(H)))


def test_eigendecompose_rejects_nonfinite():
    H = np.eye(3, dtype=complex)
    H[0, 0] = np.nan
    with pytest.raises(EigensolverError):
        eigendecompose(H)


def test_residual_bound(model):
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal()) * 0.4
        H = hamiltonian_at(model, g)
        spec = eigendecompose(H, g=g)
        res = np.linalg.norm(
            H @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues[None, :],
            axis=0)
        assert np.all(res <= 1e-9 * np.linalg.norm(H))


def test_canonical_order_groups_by_imag():
    e = np.array([1 + 1j, -2 + 1j + 1e-12j, 0 - 1j])
    order = canonical_order(e, im_tol=1e-8)
    assert list(order) == [2, 1, 0]  # Im -1 first, then the Im=1 pair by Re


def test_c_normalize_coordinate_vector():
    spec = eigendecompose(np.diag([1.0, 2.0, 3.0]).astype(complex))
    out = c_normalize(spec)
    assert np.allclose(np.abs(out.self_orthogonality), 1.0)
    for k in range(3):
        assert bilinear(out.eigenvectors[:, k], out.eigenvectors[:, k]) == \
            pytest.approx(1.0)


def test_c_normalize_flags_coalescing_pair(model, pseudo_dp):
    spec = c_normalize(eigendecompose(hamiltonian_at(model, pseudo_dp), g=pseudo_dp))
    assert list(spec.self_orthogonal) == [False, True, True, False]
    assert np.all(np.abs(spec.self_orthogonality[[1, 2]]) <= 1e-6)
    # flagged vectors keep unit 2-norm
    for k in (1, 2):
        assert np.linalg.norm(spec.eigenvectors[:, k]) == pytest.approx(1.0)


def test_c_normalized_gauge_rule(model):
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal()) * 0.3
        spec = c_normalize(eigendecompose(hamiltonian_at(model, g), g=g))
        for k in range(spec.dim):
            v = spec.eigenvectors[:, k]
            a = v[np.argmax(np.abs(v))]
            assert a.real > 0 or (a.real == 0 and a.imag >= 0)


def test_u1_components_match_reference(model, pseudo_dp):
    spec = c_normalize(eigendecompose(hamiltonian_at(model, pseudo_dp), g=pseudo_dp))
    ref = np.array([0.616894 + 0.517406j, 0.731723, 0.488757,
                    0.616894 - 0.517406j])
    u1 = spec.eigenvectors[:, 0]
    err = min(np.max(np.abs(u1 - ref)), np.max(np.abs(u1 + ref)))
    assert err <= 1e-4


def test_biorthogonality_generic(model):
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = complex(rng.normal(), 0.2 + abs(rng.normal())) * 0.3
        spec = c_normalize(eigendecompose(hamiltonian_at(model, g), g=g))
        if np.any(spec.self_orthogonal):
            continue
        G = spec.eigenvectors.T @ spec.eigenvectors
        assert np.max(np.abs(G - np.eye(spec.dim))) <= 1e-8


def test_match_states_identity():
    e = np.array([1 + 1j, 2.0, 3 - 1j])
    m = match_states(e, e)
    assert m.perm == (0, 1, 2)
    assert not m.ambiguous


def test_match_states_detects_benign_tie():
    prev = np.array([0.0 + 0j, 1.0])
    nxt = np.array([0.5, 0.5 + 1e-15])
    m = match_states(prev, nxt)
    assert m.ambiguous and m.benign_tie


def test_match_states_detects_genuine_ambiguity():
    prev = np.array([-1.0 + 0j, 1.0])
    nxt = np.array([0.5j, -0.5j])
    m = match_states(prev, nxt)
    assert m.ambiguous and not m.benign_tie


def _exhaustive_match_oracle(prev, next, ambiguity_tol=MATCH_AMBIGUITY_TOL):
    """Reference matcher for n <= 7: a plain loop over all permutations."""
    ep = np.asarray(prev)
    en = np.asarray(next)
    n = len(ep)
    cost = np.abs(ep[:, None] - en[None, :])
    best_perm, best_cost = None, np.inf
    second_perm, second_cost = None, np.inf
    for p in itertools.permutations(range(n)):
        c = float(sum(cost[i, p[i]] for i in range(n)))
        if c < best_cost:
            second_perm, second_cost = best_perm, best_cost
            best_perm, best_cost = p, c
        elif c < second_cost:
            second_perm, second_cost = p, c
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
    return Matching(tuple(best_perm), best_cost, margin, ambiguous, benign)


def _assert_same_matching(prev, next):
    got = match_states(prev, next)
    want = _exhaustive_match_oracle(prev, next)
    assert got == want
    assert all(type(k) is int for k in got.perm)
    assert type(got.cost) is float and type(got.margin) is float
    return got


oracle_settings = settings(derandomize=True, max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@oracle_settings
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([1e-14, 1e-6, 1e-2, 0.3, 3.0]))
def test_match_states_oracle_random_spectra(n, seed, step):
    rng = np.random.default_rng(seed)
    prev = rng.normal(size=n) + 1j * rng.normal(size=n)
    nxt = prev[rng.permutation(n)] + step * (
        rng.normal(size=n) + 1j * rng.normal(size=n))
    _assert_same_matching(prev, nxt)


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       side=st.sampled_from(["prev", "next", "both"]),
       step=st.sampled_from([0.0, 1e-15, 1e-3, 0.5]))
def test_match_states_oracle_repeated_eigenvalues(n, seed, side, step):
    rng = np.random.default_rng(seed)
    prev = rng.normal(size=n) + 1j * rng.normal(size=n)
    nxt = prev + step * (rng.normal(size=n) + 1j * rng.normal(size=n))
    copies = rng.integers(0, n, size=n)
    keep = rng.random(n) < 0.5
    if side in ("prev", "both"):
        prev = np.where(keep, prev, prev[copies])
    if side in ("next", "both"):
        nxt = np.where(keep, nxt, nxt[copies])
    _assert_same_matching(prev, nxt)


lattice = st.builds(complex, st.integers(-2, 2), st.integers(-1, 1))


@oracle_settings
@given(data=st.data(), n=st.integers(1, 7))
def test_match_states_oracle_equal_cost_alternatives(data, n):
    # Small Gaussian integers give many assignments of exactly equal cost
    # (on a line every non-interleaved pairing costs the same), so the order
    # of the search decides both the best and the runner-up.
    prev = np.array(data.draw(st.lists(lattice, min_size=n, max_size=n)))
    nxt = np.array(data.draw(st.lists(lattice, min_size=n, max_size=n)))
    _assert_same_matching(prev, nxt)


def test_match_states_tie_break_order():
    # All six assignments cost 15: the first permutation wins and the next
    # one in lexicographic order is the runner-up, for any input dtype.
    for dtype in (complex, float, int):
        m = _assert_same_matching(np.array([0, 1, 2], dtype=dtype),
                                  np.array([5, 6, 7], dtype=dtype))
        assert m.perm == (0, 1, 2)
        assert m.margin == 0.0 and m.ambiguous and not m.benign_tie


@pytest.mark.parametrize("pair", [(0.3 + 1j, 0.3 + 1j), (1.0, -2.5j), (0j, 0j)])
def test_match_states_single_state(pair):
    m = _assert_same_matching(np.array([pair[0]]), np.array([pair[1]]))
    assert m.perm == (0,) and m.margin == np.inf and not m.ambiguous


def test_match_states_large_dimension_path():
    rng = np.random.default_rng(7)
    e = rng.normal(size=9) + 1j * rng.normal(size=9)
    perm = rng.permutation(9)
    m = match_states(e, e[perm])
    restored = np.array(m.perm)
    np.testing.assert_array_equal(e[perm][restored], e)


def _closest_pair_oracle(values):
    """The loop over Python numbers that closest_pair replaced, kept as its oracle."""
    v = np.asarray(values).tolist()
    best, pair = math.inf, (0, 1)
    for i, a in enumerate(v):
        for j in range(i + 1, len(v)):
            d = abs(a - v[j])
            if d < best:
                best, pair = d, (i, j)
    return pair


@oracle_settings
@given(n=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([1e-12, 1.0, 1e6]))
def test_closest_pair_oracle_random_spectra(n, seed, spread):
    rng = np.random.default_rng(seed)
    e = spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
    assert closest_pair(e) == _closest_pair_oracle(e)
    assert closest_pair(e.real) == _closest_pair_oracle(e.real)


@oracle_settings
@given(data=st.data(), n=st.integers(2, 9))
def test_closest_pair_oracle_exact_ties(data, n):
    # Gaussian integers repeat distances exactly: the first pair must win.
    e = np.array(data.draw(st.lists(lattice, min_size=n, max_size=n)))
    assert closest_pair(e) == _closest_pair_oracle(e)


@pytest.fixture(scope="session")
def root_sets(model, model_049):
    return [find_degeneracies(m) for m in (model, model_049)]


@st.composite
def tied_rows(draw, n, root_sets):
    """A row of n values with exact ties in its pairwise distances."""
    kind = draw(st.sampled_from(["lattice", "conjugate", "roots", "nan"]))
    if kind == "roots":
        # The sweep's closest_pair input: a root set of a real family, in
        # conjugate pairs, repeated to length n.
        roots = [r.g0 for r in draw(st.sampled_from(root_sets))]
        return (draw(st.permutations(roots)) * n)[:n]
    row = draw(st.lists(lattice, min_size=n, max_size=n))
    if kind == "conjugate":
        row = [z for x in row for z in (x, x.conjugate())][:n]
    if kind == "nan":
        row[draw(st.integers(0, n - 1))] = complex(*draw(st.sampled_from(
            [(np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (np.inf, np.nan)])))
    return row


@oracle_settings
@given(data=st.data(), n=st.integers(2, 9), k=st.integers(1, 6))
def test_closest_pair_stack_oracle(data, root_sets, n, k):
    E = np.array([data.draw(tied_rows(n, root_sets)) for _ in range(k)])
    for stack in (E, E.real):
        I, J = closest_pair(stack)
        assert list(zip(I.tolist(), J.tolist())) == [_closest_pair_oracle(e)
                                                     for e in stack]
        for e in stack:
            pair = closest_pair(e)
            assert pair == _closest_pair_oracle(e)
            assert all(type(x) is int for x in pair)
    # The pair goes into repr and JSON: plain ints, as the oracle's.
    assert all(type(x) is int for roots in root_sets for r in roots
               for x in r.involved_pair)


def test_closest_pair_first_tie_and_short_input():
    assert closest_pair([0.0, 1.0, 2.0, 3.0]) == (0, 1)
    assert closest_pair([5j, 0j, 1 + 5j, 0j]) == (1, 3)
    with pytest.raises(ValueError):
        closest_pair([1.0])


def test_spectrum_along_hermitian_limit(model):
    table = spectrum_along(model, -0.1, 0.1, 21)
    assert np.max(np.abs(table.energies.imag)) <= 1e-10
    # The path crosses the exact crossing at g=0, where the branch choice is
    # a recorded tie rather than a refinement failure.
    assert any(rec.benign for rec in table.ambiguities)


def test_spectrum_along_width_coalescence(model, pseudo_dp):
    # Cut through the double root: widths of the merging pair touch at Re g=0,
    # all real parts cross at 4 there.
    start = -0.05 + 1j * pseudo_dp.imag
    table = spectrum_along(model, start, -np.conj(start), 41)
    mid = 20
    assert abs(table.gs[mid].real) < 1e-12
    # Eigenvalues of the defective pair carry sqrt(eps)-level solver noise.
    np.testing.assert_allclose(table.energies[mid].real, 4.0, atol=1e-6)
    width_gap = abs(table.energies[mid, 1].imag - table.energies[mid, 2].imag)
    assert width_gap <= 1e-6
    edge_gap = abs(table.energies[0, 1] - table.energies[0, 2])
    assert edge_gap > 0.1


def test_forward_backward_identity(model):
    pts = list(np.linspace(-0.3 + 0.2j, 0.1 - 0.25j, 15))
    fwd = continue_spectrum(model, pts, want_vectors=False)
    round_trip = continue_spectrum(model, pts + pts[::-1][1:], want_vectors=False)
    np.testing.assert_allclose(
        round_trip.spectra[-1].eigenvalues, round_trip.spectra[0].eigenvalues,
        atol=1e-10)
    np.testing.assert_allclose(
        fwd.spectra[0].eigenvalues, round_trip.spectra[0].eigenvalues, atol=0)


def test_branch_slopes_reference(model, pseudo_dp):
    slopes = branch_slopes(model, pseudo_dp)
    ref = np.array([35.9338, 8.0, 0.0, -7.93378])
    for k, r in enumerate(ref):
        if r == 0:
            assert abs(slopes[k]) <= 1e-2
        else:
            assert abs(slopes[k] - r) / abs(r) <= 1e-3
    assert abs(np.sum(slopes) - 36.0) <= 1e-8


def test_eigenvalues_agree_with_char_poly_roots(model):
    # Independent oracle: the characteristic polynomial from the trace
    # recurrence must have the eigensolver's spectrum as its root set.
    from pairdeg import char_poly

    rng = np.random.default_rng(8)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal()) * 0.4
        H = hamiltonian_at(model, g)
        eigs = np.sort_complex(eigendecompose(H, g=g).eigenvalues)
        roots = np.sort_complex(np.roots(char_poly(H)[::-1]))
        np.testing.assert_allclose(eigs, roots, atol=1e-8 * np.linalg.norm(H))


def test_semicircle_endpoints():
    arc = semicircle(1j, 0.1, 16)
    assert arc[0] == pytest.approx(1j - 0.1)
    assert arc[-1] == pytest.approx(1j + 0.1)
    assert np.all(np.abs(np.abs(arc - 1j) - 0.1) < 1e-14)


def test_cut_table_csv(tmp_path, model):
    table = spectrum_along(model, -0.05, 0.05, 5)
    path = tmp_path / "cut.csv"
    table.to_csv(path, meta=["config_sha256=deadbeef", "version=test"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_sha256=deadbeef"
    header = lines[2].split(",")
    assert header[:4] == ["g_re", "g_im", "E1_re", "E1_im"]
    assert len(lines) == 3 + 5


def _canonical_order_oracle(eigenvalues, im_tol=1e-8):
    """The cluster loop that canonical_order ran on every call, kept as its oracle."""
    e = np.asarray(eigenvalues)
    scale = max(1.0, float(np.max(np.abs(e))) if e.size else 1.0)
    atol = im_tol * scale
    order = np.argsort(e.imag, kind="stable")
    out = []
    k = 0
    while k < len(order):
        j = k + 1
        while j < len(order) and e.imag[order[j]] - e.imag[order[j - 1]] <= atol:
            j += 1
        cluster = order[k:j]
        cluster = cluster[np.lexsort((e.imag[cluster], e.real[cluster]))]
        out.extend(cluster.tolist())
        k = j
    return np.array(out, dtype=int)


def _eigendecompose_oracle(H, im_tol=1e-8):
    """The single-matrix eigendecompose the stacked kernel replaced.

    Returns its eigenvalues, eigenvectors and self-orthogonality.
    """
    H = np.asarray(H, dtype=complex)
    eigenvalues, vectors = np.linalg.eig(H)
    order = _canonical_order_oracle(eigenvalues, im_tol=im_tol)
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    return eigenvalues, vectors, np.einsum("ij,ij->j", vectors, vectors)


def _assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_stack_matches_oracle(matrices, gs, im_tol=1e-8):
    """Stacked rows and single solves are byte for byte the oracle's."""
    E, V, b = _eig_stack(np.array(matrices), gs, im_tol)
    assert len(E) == len(matrices)
    for row, H, g in zip(zip(E, V, b), matrices, gs):
        want = _eigendecompose_oracle(H, im_tol)
        spec = eigendecompose(H, g=g, im_tol=im_tol)
        assert spec.g == complex(g)
        assert not spec.self_orthogonal.any()
        for solved in (row, (spec.eigenvalues, spec.eigenvectors,
                             spec.self_orthogonality)):
            _assert_same_bytes(solved[0], want[0])
            _assert_same_bytes(solved[1], want[1])
            _assert_same_bytes(solved[2], want[2])


def _random_family(rng, n):
    base = np.diag(rng.normal(size=n))
    linear = rng.normal(size=(n, n))
    return MatrixFamily(base, linear + linear.T)


@oracle_settings
@given(n=st.integers(2, 7), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       im_tol=st.sampled_from([1e-8, 1e-3]))
def test_stacked_solve_oracle_random_couplings(n, k, seed, im_tol):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    gs = [complex(*rng.normal(size=2)) for _ in range(k)]
    _assert_stack_matches_oracle([family.matrix(g) for g in gs], gs, im_tol)


@oracle_settings
@given(k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       im_tol=st.sampled_from([1e-8, 1e-3]))
def test_stacked_solve_oracle_real_couplings_with_ties(model, k, seed, im_tol):
    # At g = 0 the reference model is diagonal with repeated entries, and the
    # doubled-block family is doubly degenerate at every real g: exact ties
    # in a single all-real Im cluster.
    rng = np.random.default_rng(seed)
    doubled = _doubled_family()
    gs = [0.0] + [float(x) for x in rng.normal(size=k - 1)]
    for family in (model.family(), doubled):
        _assert_stack_matches_oracle([family.matrix(g) for g in gs], gs, im_tol)


def _doubled_family():
    """Two identical 2x2 blocks: every eigenvalue is doubly degenerate."""
    block = np.zeros((4, 4))
    block[[1, 3], [1, 3]] = 1.0
    hop = np.zeros((4, 4))
    hop[[0, 1, 2, 3], [1, 0, 3, 2]] = 1.0
    return MatrixFamily(block, hop)


@oracle_settings
@given(k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_stacked_solve_oracle_imaginary_clusters(model, pseudo_dp, k, seed, spread):
    # Near the pseudo-DP the merging pair shares Im to within ~spread, so
    # im_tol = 1e-3 clusters it and orders it by Re.
    rng = np.random.default_rng(seed)
    family = model.family()
    gs = [pseudo_dp + spread * complex(*rng.normal(size=2)) for _ in range(k)]
    matrices = [family.matrix(g) for g in gs]
    _assert_stack_matches_oracle(matrices, gs, im_tol=1e-3)
    _assert_stack_matches_oracle(matrices, gs, im_tol=1e-8)


def _clustered_row(data, n):
    # Lattice points plus tiny offsets put imaginary gaps on both sides of
    # the cluster tolerance, and repeat values exactly.
    base = data.draw(st.lists(lattice, min_size=n, max_size=n))
    jitter = data.draw(st.lists(st.sampled_from([0.0, 1e-9, 2e-8, 1e-4, 1e-3]),
                                min_size=n, max_size=n))
    return np.array(base) + 1j * np.array(jitter)


def _isolated_row(data, n):
    # Distinct integer imaginary parts: one-element clusters unless im_tol = 0.5.
    re = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return np.array(re) + 1j * np.array(data.draw(st.permutations(range(n))))


@oracle_settings
@given(data=st.data(), n=st.integers(1, 7), k=st.integers(1, 6),
       im_tol=st.sampled_from([1e-8, 1e-3, 0.5]))
def test_canonical_order_oracle(data, n, k, im_tol):
    e = _clustered_row(data, n)
    got = canonical_order(e, im_tol=im_tol)
    want = _canonical_order_oracle(e, im_tol=im_tol)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    # A stack of isolated and clustered rows, ordered row by row as alone.
    E = np.array([data.draw(st.sampled_from([_clustered_row, _isolated_row]))(data, n)
                  for _ in range(k)])
    orders = pairdeg.spectra._canonical_orders(E, im_tol)
    for row, order in zip(E, orders):
        np.testing.assert_array_equal(order, _canonical_order_oracle(row, im_tol))
    assert orders.dtype == want.dtype


@pytest.mark.parametrize("row", [
    [complex(0, np.nan), 1, 0, complex(np.nan, np.nan)],
    [1, np.inf, 0],
    [complex(2, -np.inf), 1j],
])
def test_canonical_order_rejects_non_finite_eigenvalues(row):
    # A NaN scale once made every value its own cluster, so the first row
    # came out [1, 2, 0, 3] where the cluster loop gives [2, 1, 0, 3]: a
    # non-finite eigenvalue has no canonical place.
    with pytest.raises(EigensolverError, match="non-finite"):
        canonical_order(np.array(row, dtype=complex))


def test_canonical_order_gap_equal_to_tolerance():
    # A gap of exactly im_tol * scale still joins a cluster (ordered by Re),
    # so the stable argsort alone would be wrong here.
    e = np.array([1.0 + 0j, 0.5j])
    np.testing.assert_array_equal(canonical_order(e, im_tol=0.5), [1, 0])
    np.testing.assert_array_equal(_canonical_order_oracle(e, im_tol=0.5), [1, 0])
    np.testing.assert_array_equal(canonical_order(e, im_tol=0.4), [0, 1])


def _overflows(H):
    """H(g) is non-finite, or its eigenpairs overflow inside the solver."""
    if not np.isfinite(H).all():
        return True
    w, v = np.linalg.eig(H)
    return not (np.isfinite(w).all() and np.isfinite(v).all())


@pytest.mark.parametrize("stop, n", [(1e308, 5), (2.2e307, 100), (1e307, 100)])
def test_spectrum_along_overflow_names_first_bad_point(model, stop, n):
    # H(g) overflows from the first g with 12 g > max float on, and its
    # eigenvalues from about g = 6.7e306 on; with stop 1e307 and 100 points
    # that g lies in the second solve block.
    family = model.family()
    points = np.linspace(0j, complex(stop), n)  # as spectrum_along samples
    with np.errstate(over="ignore", invalid="ignore"):
        first = next(g for g in points if _overflows(family.matrix(g)))
        with pytest.raises(EigensolverError, match="non-finite") as info:
            spectrum_along(model, 0, stop, n)
    assert info.value.g == first


def test_overflowed_eigenpairs_are_rejected(model, monkeypatch):
    # H(1e307) is finite, but the largest eigenvalue, about 2.7e308, is not;
    # the Frobenius scale is inf too, so only the finite check catches it.
    H = model.family().matrix(1e307)
    assert np.isfinite(H).all()
    with pytest.raises(EigensolverError, match="non-finite eigenpairs") as info:
        eigendecompose(H, g=1e307)
    assert info.value.g == 1e307
    stack = np.array([model.family().matrix(g) for g in (0.1, 1e307)])
    with pytest.raises(EigensolverError, match="non-finite") as info:
        _eig_stack(stack, [0.1, 1e307])
    assert info.value.g == 1e307
    # A solver that does not converge names g on one matrix; a stack of
    # several raises with g None, since LAPACK does not say which failed.
    def no_convergence(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    with pytest.raises(EigensolverError, match="did not converge") as info:
        eigendecompose(stack[0], g=0.1)
    assert info.value.g == 0.1
    with pytest.raises(EigensolverError, match="did not converge") as info:
        _eig_stack(stack, [0.1, 1e307])
    assert info.value.g is None


@pytest.mark.parametrize("g, with_base", [(1e160, True), (1e-170, False)])
def test_residual_gate_holds_at_extreme_scales(model, g, with_base, monkeypatch):
    # The entries of H(1e160) square to inf, and those of 1e-170 * (P + gamma
    # Q) to (nearly) zero.  The gate divides each matrix by its largest entry
    # first, so a corrupted eigenpair still fails it, and a sound one passes.
    family = model.family()
    H = family.base * with_base + g * family.linear
    assert np.isfinite(H).all()
    assert np.all(np.isfinite(eigendecompose(H, g=g).eigenvalues))
    eig = np.linalg.eig

    def corrupt(A):
        w, v = eig(A)
        return w, v + 0.1

    monkeypatch.setattr(np.linalg, "eig", corrupt)
    with pytest.raises(EigensolverError, match="residual") as info:
        eigendecompose(H, g=g)
    assert info.value.g == g


def test_residual_failure_raises_at_its_own_step(model, monkeypatch):
    # Corrupt the solve of one path point: the steps before it run, then it
    # raises, as when every point was solved on its own.
    points = [0.1j + 0.01 * k for k in range(10)]
    bad = model.family().matrix(points[6])
    eig = np.linalg.eig

    def corrupt(H):
        w, v = eig(H)
        v[np.all(H == bad, axis=(-2, -1))] += 0.1
        return w, v

    calls = {"rows": 0}
    match_block = pairdeg.spectra._match_block

    def counted(first, E):
        calls["rows"] += len(E)
        return match_block(first, E)

    monkeypatch.setattr(np.linalg, "eig", corrupt)
    monkeypatch.setattr(pairdeg.spectra, "_match_block", counted)
    with pytest.raises(EigensolverError, match="residual") as info:
        continue_spectrum(model, points)
    assert info.value.g == points[6]
    assert calls["rows"] == 5


def test_stacked_lapack_failure_falls_back(model, pseudo_dp, monkeypatch):
    # When LAPACK fails on a stack, its points are solved one by one, and
    # cuts and loops come out byte for byte the same.
    roots = find_degeneracies(model)
    pdp = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    loop = LoopSpec(pdp.g0, 0.01, steps=64, loops=2)
    points = np.linspace(-0.3 + 0.2j, 0.1 - 0.25j, 2 * 256 + 7)  # 256-point blocks
    runs = []
    for broken in (False, True):
        if broken:
            eig = np.linalg.eig

            def fail_stacks(H):
                if np.ndim(H) == 3 and len(H) > 1:
                    raise np.linalg.LinAlgError("stack failed")
                return eig(H)

            monkeypatch.setattr(np.linalg, "eig", fail_stacks)
        cut = continue_spectrum(model, points)
        trace = trace_loop(model, loop, degeneracies=roots)
        runs.append((cut, trace))
    (cut, trace), (cut_fb, trace_fb) = runs
    for a, b in zip(cut.spectra, cut_fb.spectra):
        _assert_same_bytes(a.eigenvalues, b.eigenvalues)
        _assert_same_bytes(a.eigenvectors, b.eigenvectors)
    for name in ("eigenvalues", "thetas", "loop_re_theta"):
        _assert_same_bytes(getattr(trace, name), getattr(trace_fb, name))
    assert trace.loop_permutations == trace_fb.loop_permutations


def _run_recorded(groups, bad=(), bad_in_stack=()):
    """A ``run`` for ``_in_stacks`` of named items, recording every group.

    An item of ``bad`` fails wherever it is run; a group of several items
    fails if it holds one of ``bad_in_stack``, naming its last bad item (a
    stacked solve may meet any of them first).
    """
    def run(group):
        groups.append(list(group))
        failing = [item for item in group if item in bad
                   or (len(group) > 1 and item in bad_in_stack)]
        if failing:
            raise EigensolverError(f"item {failing[-1]} failed")
        return [f"solved {item}" for item in group]
    return run


def test_in_stacks_groups_greedily():
    # 300 dim-4 matrices are 76,800 bytes: three items fit in STACK_BYTES.
    groups = []
    out = list(pairdeg.spectra._in_stacks(_run_recorded(groups), range(8), 4, 300))
    assert groups == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert out == [[f"solved {item}" for item in group] for group in groups]
    # Dim 1: 16 bytes a matrix, so four items of 4,096 land on the budget exactly.
    groups.clear()
    list(pairdeg.spectra._in_stacks(_run_recorded(groups), "abcde", 1, 4096))
    assert groups == [["a", "b", "c", "d"], ["e"]]
    # With vectors a quarter of that: an item above the budget goes alone.
    groups.clear()
    list(pairdeg.spectra._in_stacks(_run_recorded(groups), range(3), 4, 300, vectors=True))
    assert groups == [[0], [1], [2]]
    assert list(pairdeg.spectra._in_stacks(_run_recorded(groups), [], 4)) == []


def test_in_stacks_replays_a_failed_stack_one_item_at_a_time():
    # "b" fails only in a stack: its group is replayed item by item, in
    # order, each result yielded as it comes, and nothing is lost.
    groups = []
    stacks = pairdeg.spectra._in_stacks(_run_recorded(groups, bad_in_stack="b"),
                                        "abcd", 1, 5000)
    assert next(stacks) == ["solved a"]
    assert groups == [["a", "b", "c"], ["a"]]
    assert list(stacks) == [["solved b"], ["solved c"], ["solved d"]]
    assert groups == [["a", "b", "c"], ["a"], ["b"], ["c"], ["d"]]


def test_in_stacks_raises_the_first_failing_items_error():
    # "b" and "c" fail alone too: the stack names "c", the replay "b", once
    # "a" has been yielded, and "c" is not run again.
    groups = []
    stacks = pairdeg.spectra._in_stacks(_run_recorded(groups, bad="bc"), "abcd", 1, 5000)
    assert next(stacks) == ["solved a"]
    with pytest.raises(EigensolverError, match="^item b failed$"):
        next(stacks)
    assert groups == [["a", "b", "c"], ["a"], ["b"]]
    # A group of one that fails is not run again; other errors pass through.
    groups.clear()
    with pytest.raises(EigensolverError, match="^item e failed$"):
        list(pairdeg.spectra._in_stacks(_run_recorded(groups, bad="e"), "e", 1))
    assert groups == [["e"]]

    def broken(group):
        groups.append(list(group))
        raise ValueError("not a solver failure")

    groups.clear()
    with pytest.raises(ValueError):
        list(pairdeg.spectra._in_stacks(broken, "ab", 1))
    assert groups == [["a", "b"]]


def _sources_oracle(gs, family):
    """Each coupling's source: the first coupling with its bits or, for a
    real family and Im g != +-0, with its conjugate's; flipped if the
    source's bits are not its own."""
    keys = [np.complex128(g).tobytes() for g in gs]
    mirror = family is not None and family.is_real
    source, flip = [], []
    for i, g in enumerate(gs):
        mates = {keys[i]}
        if mirror and g.imag != 0:
            mates.add(np.conj(np.complex128(g)).tobytes())
        j = next(j for j in range(i + 1) if keys[j] in mates)
        source.append(j)
        flip.append(keys[j] != keys[i])
    return source, flip


REAL_FAMILY = MatrixFamily(np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
COMPLEX_TYPED_FAMILY = MatrixFamily(REAL_FAMILY.base.astype(complex),
                                    REAL_FAMILY.linear.astype(complex))


PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(PARTS, PARTS), max_size=30),
       family=st.sampled_from([None, REAL_FAMILY, COMPLEX_TYPED_FAMILY]))
def test_sources_match_the_first_coupling_with_the_same_or_conjugate_bits(parts, family):
    # Few distinct parts, so that repeats, conjugates and signed zeros abound.
    gs = [complex(re, im) for re, im in parts]
    source, flip = pairdeg.spectra._sources(gs, family)
    assert (source.tolist(), flip.tolist()) == _sources_oracle(gs, family)


def test_sources_keep_signed_zeros_apart_and_follow_a_flip_to_its_source():
    a, b = 0.5 + 0.5j, 0.5 - 0.5j
    gs = [0j, complex(0.0, -0.0), complex(-0.0, 0.0), a, b, b, a, np.conj(b)]
    source, flip = pairdeg.spectra._sources(gs, REAL_FAMILY)
    assert source.tolist() == [0, 1, 2, 3, 3, 3, 3, 3]
    assert flip.tolist() == [False, False, False, False, True, True, False, False]
    source, flip = pairdeg.spectra._sources(gs, COMPLEX_TYPED_FAMILY)
    assert source.tolist() == [0, 1, 2, 3, 4, 4, 3, 3] and not flip.any()
    assert pairdeg.spectra._sources(gs)[0].tolist() == source.tolist()


def _stack_sizes(monkeypatch):
    """The size of every stack that ``_eig_stack`` hands to LAPACK, in order."""
    sizes = []
    lapack = pairdeg.spectra._lapack

    def recorded(solve, H, gs, returned):
        sizes.append(len(H))
        return lapack(solve, H, gs, returned)

    monkeypatch.setattr(pairdeg.spectra, "_lapack", recorded)
    return sizes


@pytest.mark.parametrize("omegas, pairs, block", [((2, 6, 2), 2, 256), ((6, 2, 6), 3, 83)],
                         ids=["dim4", "dim7"])
def test_path_blocks_hold_a_quarter_stack(monkeypatch, omegas, pairs, block):
    # 64 KB of matrices per block of a continuation: 256 points at dim 4,
    # 83 at dim 7.  The start is solved alone.
    family = ModelSpec.from_arrays([0.0, 1.0, 2.0], omegas, pairs, -0.5).family()
    sizes = _stack_sizes(monkeypatch)
    spectrum_along(family, 0.1 + 0.2j, 0.4 - 0.1j, 2 * block + 8)
    assert sizes == [1, block, block, 7]


def test_loop_groups_hold_a_quarter_stack(model, monkeypatch):
    # Four 64-step loops at dim 4 fill 64 KB of path matrices exactly: their
    # starts are one stack and their paths another.  A fifth goes alone, its
    # path solved as trace_loop solves it.
    family = model.family()
    roots = find_degeneracies(family)
    assert len(roots) >= 5
    jobs = []
    for root in roots[:5]:
        others = min(abs(r.g0 - root.g0) for r in roots if r is not root)
        jobs.append((family, LoopSpec(root.g0, 0.3 * others, steps=64), roots))
    sizes = _stack_sizes(monkeypatch)
    perms = _turn_permutations(jobs)
    assert sizes == [4, 256, 1, 64]
    assert len(perms) == 5


def test_a_long_loop_alone_is_solved_in_path_blocks(model, monkeypatch):
    # A group of one loop solves its path as trace_loop does, in blocks of
    # 256 points at dim 4, so a 300-step loop takes two.
    family = model.family()
    roots = find_degeneracies(family)
    others = min(abs(r.g0 - roots[0].g0) for r in roots[1:])
    loop = LoopSpec(roots[0].g0, 0.3 * others, steps=300)
    sizes = _stack_sizes(monkeypatch)
    assert len(_turn_permutations([(family, loop, roots)])) == 1
    assert sizes == [1, 256, 44]


def test_sweep_batches_fill_a_stack(monkeypatch):
    # 256 KB of discriminant samples per batch: 43 dim-7 matrices a sample,
    # so 7 samples.
    batches = []
    degeneracies = pairdeg.atlas._degeneracies

    def recorded(families, radius, cluster_factor):
        batches.append(len(families))
        return degeneracies(families, radius, cluster_factor)

    monkeypatch.setattr(pairdeg.atlas, "_degeneracies", recorded)
    model = ModelSpec.from_arrays([0.0, 1.0, 2.0], [6, 2, 6], 3, -0.5)
    sweep_gamma(model, -0.52, -0.48, 9, classify_points=False)
    assert batches == [7, 2]


def _eigvals_failing_above(monkeypatch, limit):
    """Make ``np.linalg.eigvals`` fail on every stack of more than ``limit``."""
    eigvals = np.linalg.eigvals

    def failing(H):
        if np.ndim(H) == 3 and len(H) > limit:
            raise np.linalg.LinAlgError("stack failed")
        return eigvals(H)

    monkeypatch.setattr(np.linalg, "eigvals", failing)


def test_stack_only_failure_leaves_the_sweep_unchanged(model, monkeypatch):
    # The 21 samples of the default sweep share a batch of 273 discriminant
    # samples; each sample alone solves far fewer than 40 at once.
    want = sweep_gamma(model, -0.6, -0.4, 21)
    _eigvals_failing_above(monkeypatch, 40)
    got = sweep_gamma(model, -0.6, -0.4, 21)
    assert repr(got.as_dict()) == repr(want.as_dict())
    assert repr(got.points) == repr(want.points)
    assert got.link_ambiguities == want.link_ambiguities


def test_stack_only_failure_leaves_the_heatmap_unchanged(model, monkeypatch):
    # Ten rows of 101 per stack; each row alone is 101 matrices.
    window = (-0.3, 0.3, -0.3, 0.3)
    want = discriminant_grid(model, window, 101, 101)
    _eigvals_failing_above(monkeypatch, 101)
    got = discriminant_grid(model, window, 101, 101)
    for a, b in zip(got, want):
        _assert_same_bytes(a, b)


def test_one_cpu_starts_no_thread(model):
    # A 4,000-matrix stack is one solve call, on the calling thread, and a
    # reference classification starts no thread of its own.
    rng = np.random.default_rng(6)
    H = np.array([random_complex_symmetric(rng) for _ in range(4000)])
    threads = threading.active_count()
    calls = []

    def solve(A):
        calls.append((threading.current_thread(), len(A)))
        return np.linalg.eigvals(A)

    pairdeg.spectra._lapack(solve, H, list(range(4000)), "eigenvalues")
    assert calls == [(threading.current_thread(), 4000)]
    classify_all(model)
    assert threading.active_count() == threads
