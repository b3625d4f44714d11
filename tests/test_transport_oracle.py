"""Block-stepped continuation against the per-step code it replaced.

The oracles below are the step-at-a-time ``c_normalize``, ``_align_next``,
``continue_spectrum``, ``_phase_increments`` and ``trace_loop`` that the
stacked kernels of ``spectra._transport`` replaced, solving every path point
on its own, the per-step sign loop that ``_gauge_signs`` replaced, and the
permutation-table block matcher that the row-gap certificate replaced.
Every array must match byte for byte.  The loops that compute less than
``trace_loop`` -- the eigenvalue-only verification loop and
``restore_count``, which stops at the phase period -- are held to the full
trace.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairdeg.spectra
from pairdeg import (LoopSpec, MatrixFamily, c_normalize, continue_spectrum,
                     eigendecompose, find_degeneracies, match_states, restore_count,
                     spectrum_along, trace_loop)
from pairdeg.errors import MatchingAmbiguityError
from pairdeg.monodromy import _restore_periods, _turn_permutations
from pairdeg.spectra import (MATCH_AMBIGUITY_TOL, MAX_BISECT, AmbiguityRecord, Spectrum,
                             _c_normalize_stack, _gauge, _gauge_signs, _match_block,
                             _path_block, _permutation_table, bilinear)


def _fix_gauge_oracle(v):
    a = v[int(np.argmax(np.abs(v)))]
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        return -v
    return v


def _c_normalize_oracle(spectrum, tau_c=1e-6):
    V = spectrum.eigenvectors.astype(complex).copy()
    e = spectrum.eigenvalues
    n = spectrum.dim
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
        V[:, m] = _fix_gauge_oracle(V[:, m])
    return Spectrum(g=spectrum.g, eigenvalues=e.copy(), eigenvectors=V,
                    self_orthogonality=b_values, self_orthogonal=flagged)


def _align_next_oracle(family, current, t_from, t_to, point, nxt, want_vectors,
                       tau_c, depth, records):
    m = match_states(current.eigenvalues, nxt.eigenvalues)
    if m.ambiguous and not m.benign_tie:
        if depth >= MAX_BISECT:
            raise MatchingAmbiguityError("still ambiguous")
        t_mid = 0.5 * (t_from + t_to)
        g_mid = point(t_mid)
        mid = eigendecompose(family.matrix(g_mid), g=g_mid)
        first = _align_next_oracle(family, current, t_from, t_mid, point, mid,
                                   want_vectors, tau_c, depth + 1, records)
        return first + _align_next_oracle(family, first[-1], t_mid, t_to, point, nxt,
                                          want_vectors, tau_c, depth + 1, records)
    if m.ambiguous:
        records.append(AmbiguityRecord(current.g, nxt.g, m.margin,
                                       benign=True, refined=depth))
    aligned = nxt.permuted(m.perm)
    if want_vectors:
        aligned = _c_normalize_oracle(aligned, tau_c=tau_c)
    return [aligned]


def _continue_spectrum_oracle(family, points, want_vectors=True, tau_c=1e-6,
                              start_im_tol=1e-8):
    points = [complex(p) for p in points]
    records = []
    start = eigendecompose(family.matrix(points[0]), g=points[0], im_tol=start_im_tol)
    if want_vectors:
        start = _c_normalize_oracle(start, tau_c=tau_c)
    spectra = [start]
    for g_to in points[1:]:
        nxt = eigendecompose(family.matrix(g_to), g=g_to)
        current = spectra[-1]
        for aligned in _align_next_oracle(family, current, current.g, g_to, complex,
                                          nxt, want_vectors, tau_c, 0, records):
            if want_vectors:
                for k in range(aligned.dim):
                    ov = np.vdot(current.eigenvectors[:, k],
                                 aligned.eigenvectors[:, k])
                    if ov.real < 0:
                        aligned.eigenvectors[:, k] = -aligned.eigenvectors[:, k]
            current = aligned
        spectra.append(current)
    return spectra, records


def _phase_increments_oracle(current, aligned):
    increments = np.zeros(current.dim, dtype=complex)
    for k in range(current.dim):
        u_prev = current.eigenvectors[:, k]
        u_new = aligned.eigenvectors[:, k]
        guarded = current.self_orthogonal[k] or aligned.self_orthogonal[k]
        if guarded:
            v_prev = u_prev / np.linalg.norm(u_prev)
            v_new = u_new / np.linalg.norm(u_new)
            ov = np.vdot(v_prev, v_new)
            if ov.real < 0:
                v_new, u_new, ov = -v_new, -u_new, -ov
            b_new = aligned.self_orthogonality[k]
            b_old = current.self_orthogonality[k]
            corr = 0.0
            if b_new != 0 and b_old != 0:
                corr = -0.5j * (np.log(b_new) - np.log(b_old))
            increments[k] = -1j * np.log(ov) + corr
        else:
            ov = np.vdot(u_prev, u_new) / (
                np.linalg.norm(u_prev) * np.linalg.norm(u_new))
            if ov.real < 0:
                u_new, ov = -u_new, -ov
            increments[k] = -1j * np.log(ov)
        aligned.eigenvectors[:, k] = u_new
    return increments


def _trace_loop_oracle(family, loop, tau_c=1e-6, label_im_tol=1e-3):
    """Returns (eigenvalues, thetas, permutations, loop_re, raw_loop, records)."""
    n_samples = loop.steps * loop.loops + 1
    phis = loop.orientation * np.linspace(0.0, 2 * np.pi * loop.loops, n_samples)
    g0 = loop.point(phis[0])
    start = _c_normalize_oracle(
        eigendecompose(family.matrix(g0), g=g0, im_tol=label_im_tol), tau_c=tau_c)
    dim = start.dim
    eigenvalues = np.empty((n_samples, dim), dtype=complex)
    thetas = np.zeros((n_samples, dim), dtype=complex)
    eigenvalues[0] = start.eigenvalues
    records, loop_perms, loop_re, raw_loop = [], [], [], []
    current = start
    for i in range(1, n_samples):
        g = loop.point(phis[i])
        nxt = eigendecompose(family.matrix(g), g=g)
        increments = []
        for aligned in _align_next_oracle(family, current, phis[i - 1], phis[i],
                                          loop.point, nxt, True, tau_c, 0, records):
            increments.append(_phase_increments_oracle(current, aligned))
            current = aligned
        thetas[i] = thetas[i - 1] + sum(increments[1:], increments[0])
        eigenvalues[i] = current.eigenvalues
        if i % loop.steps == 0:
            perm = match_states(current.eigenvalues, start.eigenvalues).perm
            loop_perms.append(perm)
            raw_loop.append(thetas[i].copy())
            snapped = thetas[i].real.copy()
            if all(perm[j] == j for j in range(dim)):
                for k in range(dim):
                    ov = np.vdot(start.eigenvectors[:, k], current.eigenvectors[:, k])
                    norm = (np.linalg.norm(start.eigenvectors[:, k])
                            * np.linalg.norm(current.eigenvectors[:, k]))
                    if norm > 0 and abs(ov) > 0.2 * norm:
                        target = float(np.angle(ov))
                        snapped[k] = target + 2 * np.pi * np.round(
                            (thetas[i, k].real - target) / (2 * np.pi))
            loop_re.append(snapped)
    return (eigenvalues, thetas, loop_perms, np.array(loop_re), np.array(raw_loop),
            records)


def _assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _assert_same_spectrum(got, want):
    assert got.g == want.g
    for name in ("eigenvalues", "eigenvectors", "self_orthogonality",
                 "self_orthogonal"):
        _assert_same_bytes(getattr(got, name), getattr(want, name))


def _assert_loop_matches_oracle(family, loop, roots, tau_c=1e-6):
    try:
        want = _trace_loop_oracle(family, loop, tau_c=tau_c)
    except MatchingAmbiguityError:
        with pytest.raises(MatchingAmbiguityError):
            trace_loop(family, loop, degeneracies=roots, tau_c=tau_c)
        return
    got = trace_loop(family, loop, degeneracies=roots, tau_c=tau_c)
    eigenvalues, thetas, perms, loop_re, raw_loop, records = want
    _assert_same_bytes(got.eigenvalues, eigenvalues)
    _assert_same_bytes(got.thetas, thetas)
    _assert_same_bytes(got.loop_re_theta, loop_re)
    _assert_same_bytes(got.raw_loop_theta, raw_loop)
    assert got.loop_permutations == perms
    assert got.ambiguities == records


def _assert_cut_matches_oracle(family, points, want_vectors=True, tau_c=1e-6):
    try:
        want, records = _continue_spectrum_oracle(family, points, want_vectors, tau_c)
    except MatchingAmbiguityError:
        with pytest.raises(MatchingAmbiguityError):
            continue_spectrum(family, points, want_vectors=want_vectors, tau_c=tau_c)
        return
    got = continue_spectrum(family, points, want_vectors=want_vectors, tau_c=tau_c)
    assert len(got.spectra) == len(want)
    for a, b in zip(got.spectra, want):
        _assert_same_spectrum(a, b)
    assert got.ambiguities == records


def _random_family(rng, n):
    base = np.diag(rng.normal(size=n))
    linear = rng.normal(size=(n, n))
    return MatrixFamily(base, linear + linear.T)


def _doubled_family(offset=0.0):
    """Two 2x2 blocks, the second shifted by ``offset``: every eigenvalue is
    doubled (offset 0) or has a partner ``offset`` away."""
    block = np.diag([0.0, 1.0, offset, 1.0 + offset])
    hop = np.zeros((4, 4))
    hop[[0, 1, 2, 3], [1, 0, 3, 2]] = 1.0
    return MatrixFamily(block, hop)


oracle_settings = settings(derandomize=True, max_examples=25, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])
steps = st.sampled_from([64, 65, 100, 127, 130])
tau_cs = st.sampled_from([1e-6, 0.3, 0.9])


@oracle_settings
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 99),
       steps=steps, loops=st.integers(1, 2), orientation=st.sampled_from([1, -1]),
       tau_c=tau_cs)
def test_loop_around_random_ep_matches_oracle(n, seed, pick, steps, loops,
                                              orientation, tau_c):
    family = _random_family(np.random.default_rng(seed), n)
    roots = find_degeneracies(family)
    root = roots[pick % len(roots)]
    others = [abs(r.g0 - root.g0) for r in roots if r is not root]
    radius = 0.3 * min(others, default=1.0)
    loop = LoopSpec(root.g0, radius, steps=steps, loops=loops, orientation=orientation)
    _assert_loop_matches_oracle(family, loop, roots, tau_c)


@settings(derandomize=True, max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(8, 11), seed=st.integers(0, 2**32 - 1), steps=steps,
       tau_c=tau_cs)
def test_large_dimension_loops_match_oracle(n, seed, steps, tau_c):
    # Above 7 states the certified steps take the block path and the others
    # the exact path; both take overlaps by np.vdot column by column.  No
    # roots are needed to transport.
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    loop = LoopSpec(complex(*rng.normal(size=2)), 0.05, steps=steps)
    _assert_loop_matches_oracle(family, loop, [], tau_c)


@oracle_settings
@given(which=st.sampled_from(["pseudo-DP", "EP"]), radius=st.sampled_from([1e-3, 0.01]),
       steps=steps, loops=st.integers(1, 2), orientation=st.sampled_from([1, -1]),
       tau_c=tau_cs)
def test_reference_loops_match_oracle(model, model_049, pseudo_dp, which, radius, steps,
                                      loops, orientation, tau_c):
    m = model if which == "pseudo-DP" else model_049
    roots = find_degeneracies(m)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    loop = LoopSpec(root.g0, radius, steps=steps, loops=loops, orientation=orientation)
    _assert_loop_matches_oracle(m.family(), loop, roots, tau_c)


@pytest.mark.parametrize("offset", [0.0, 3e-10])
def test_doubled_and_cluster_loops_match_oracle(offset):
    # offset 0: every step a benign tie, each through the exact path.  3e-10:
    # every spectrum a cluster row (pairs within 1e-9), matched clear.
    # The cluster's Gram-Schmidt mixes each pair anew at every step, so some
    # overlaps vanish and their increments are not finite, on both sides.
    loop = LoopSpec(0.2 + 0j, 0.1, steps=100, loops=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_loop_matches_oracle(_doubled_family(offset), loop, [])


@oracle_settings
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       samples=st.sampled_from([2, 40, 64, 65, 129, 200]),
       want_vectors=st.booleans(), tau_c=tau_cs)
def test_random_cuts_match_oracle(n, seed, samples, want_vectors, tau_c):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    a, b = (complex(*rng.normal(size=2)) for _ in range(2))
    _assert_cut_matches_oracle(family, np.linspace(a, b, samples), want_vectors, tau_c)


@pytest.mark.parametrize("samples", [40, 101, 200])
@pytest.mark.parametrize("tau_c", [1e-6, 0.3])
def test_pairing_cut_through_pseudo_dp_matches_oracle(model, pseudo_dp, samples, tau_c):
    # The cut that ``pairing_energy_cut`` runs across the pseudo-DP, and the
    # real axis through g = 0, where the reference model has a doubled level.
    family = model.family()
    cut = np.linspace(pseudo_dp - 0.05, pseudo_dp + 0.05, samples)
    _assert_cut_matches_oracle(family, cut, True, tau_c)
    _assert_cut_matches_oracle(family, np.linspace(-0.2, 0.2, samples), True, tau_c)


@pytest.mark.parametrize("offset", [0.0, 3e-10])
def test_doubled_and_cluster_cuts_match_oracle(offset):
    points = np.linspace(0.1 + 0.05j, 0.3 - 0.1j, 150)
    for want_vectors in (True, False):
        _assert_cut_matches_oracle(_doubled_family(offset), points, want_vectors)


@oracle_settings
@given(n=st.integers(1, 11), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 70),
       spread=st.sampled_from([1e-12, 1e-3, 0.3]), tau_c=tau_cs)
def test_c_normalize_matches_oracle(n, seed, k, spread, tau_c):
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    g0 = complex(*rng.normal(size=2))
    spectra = [eigendecompose(family.matrix(g), g=g).permuted(rng.permutation(n))
               for g in g0 + spread * (rng.normal(size=k) + 1j * rng.normal(size=k))]
    E = np.array([s.eigenvalues for s in spectra])
    V, b, flagged = _c_normalize_stack(E, np.array([s.eigenvectors for s in spectra]),
                                       tau_c)
    for r, s in enumerate(spectra):
        want = _c_normalize_oracle(s, tau_c)
        _assert_same_bytes(V[r], want.eigenvectors)
        _assert_same_bytes(b[r], want.self_orthogonality)
        _assert_same_bytes(flagged[r], want.self_orthogonal)
        _assert_same_spectrum(c_normalize(s, tau_c), want)


@oracle_settings
@given(n=st.integers(1, 11), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 70),
       step=st.sampled_from([1e-4, 1e-2, 0.3]), tau_c=tau_cs)
def test_gauge_matches_phase_increments_oracle(n, seed, k, step, tau_c):
    # Steps along a random walk, so some overlaps have a negative real part
    # and some columns are self-orthogonal at one end only.
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    gs = complex(*rng.normal(size=2)) + np.cumsum(
        step * (rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)))
    spectra = [c_normalize(eigendecompose(family.matrix(g), g=g), tau_c) for g in gs]
    W = np.array([s.eigenvectors for s in spectra[1:]])
    flags = np.array([s.self_orthogonal for s in spectra[1:]])
    b = np.array([s.self_orthogonality for s in spectra[1:]])
    signed, increments = _gauge(spectra[0], W, flags, b, True)
    cuts, _ = _gauge(spectra[0], W, flags, b, False)
    current = cut = spectra[0]
    for j, s in enumerate(spectra[1:]):
        aligned = dataclasses.replace(s, eigenvectors=s.eigenvectors.copy())
        want = _phase_increments_oracle(current, aligned)
        _assert_same_bytes(increments[j], want)
        _assert_same_bytes(signed[j], aligned.eigenvectors)
        current = aligned
        aligned = dataclasses.replace(s, eigenvectors=s.eigenvectors.copy())
        for m in range(n):
            if np.vdot(cut.eigenvectors[:, m], aligned.eigenvectors[:, m]).real < 0:
                aligned.eigenvectors[:, m] = -aligned.eigenvectors[:, m]
        _assert_same_bytes(cuts[j], aligned.eigenvectors)
        cut = aligned


def test_block_matcher_memory_is_capped():
    # At dim 7 an 83-step block has 83 x 5040 permutation totals, 3.3 MB.
    # The row-gap matcher holds a few (83, 7, 7) cost arrays instead; 1 MiB
    # covers them, the 200 spectra and a solved block, but not those totals.
    rng = np.random.default_rng(3)
    family = _random_family(rng, 7)
    bound = 2**20
    assert bound < _path_block(7) * math.factorial(7) * 8
    spectrum_along(family, 0.1 + 0.2j, 0.4 - 0.1j, 200)  # warm caches
    tracemalloc.start()
    try:
        table = spectrum_along(family, 0.1 + 0.2j, 0.4 - 0.1j, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.energies.shape == (200, 7)
    assert peak < bound


def _match_block_totals_oracle(first, E):
    """The block matcher before the row-gap certificate: every permutation's
    total, summed over the permutation table in the sources' order (n <= 7)."""
    k, n = E.shape
    table = _permutation_table(n)
    sources = np.concatenate([first[None], E[:-1]])
    cost = np.abs(sources[:, :, None] - E[:, None, :])
    totals = cost[:, 0].take(table[0], axis=1)
    for i in range(1, n):
        totals += cost[:, i].take(table[i], axis=1)
    rows = np.arange(k)
    best = totals.argmin(axis=1)
    best_cost = totals[rows, best]
    totals[rows, best] = np.inf
    second = totals.min(axis=1)
    guard = 2 * MATCH_AMBIGUITY_TOL + 4 * n * np.finfo(float).eps * second
    return table[:, best].T, second - best_cost > guard


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 11), k=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       step=st.sampled_from([1e-3, 0.05, 0.5]),
       ties=st.lists(st.tuples(st.integers(0, 69),
                               st.sampled_from(["target", "midpoint", "bisector"]),
                               st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 1.5e-12, 3e-12,
                                                1e-11, 1e-9])),
                     max_size=10))
def test_row_gap_certificate_agrees_with_match_states(n, k, seed, step, ties):
    rng = np.random.default_rng(seed)
    first = rng.normal(size=n) + 1j * rng.normal(size=n)
    walk = first + np.cumsum(step * (rng.normal(size=(k, n))
                                     + 1j * rng.normal(size=(k, n))), axis=0)
    E = np.array([row[rng.permutation(n)] for row in walk])  # in any solved order
    for j, kind, eps in ties:
        # Near-ties: two targets nearly coincide, a target sits nearly halfway
        # between two sources, or two sources sit nearly on the bisector of two
        # targets z -+ 1, one 1e-14 and one eps nearer its own target: row gaps
        # of about 1e-14 and eps, and a swap that costs their sum.
        j %= k
        src = first if j == 0 else E[j - 1]
        a, b = rng.choice(n, 2, replace=False)
        if kind == "bisector":
            z = src[a]
            E[j, a], E[j, b] = z - 1, z + 1
            src[a], src[b] = z + 1j - 1e-14 / np.sqrt(2), z - 1j + eps / np.sqrt(2)
        else:
            E[j, b] = (E[j, a] if kind == "target" else 0.5 * (src[a] + src[b])) + eps
    assign, clear = _match_block(first, E)
    sources = np.concatenate([first[None], E[:-1]])
    for j in range(k):
        # Swapping the sources of two targets d apart moves a total by <= 2 d.
        d = np.abs(E[j][:, None] - E[j][None, :])[np.triu_indices(n, 1)].min()
        if d <= MATCH_AMBIGUITY_TOL:
            assert not clear[j]
        if not clear[j]:
            continue
        labels = rng.permutation(n)  # match_states sees the sources in label order
        m = match_states(sources[j][labels], E[j])
        assert m.perm == tuple(assign[j][labels].tolist())
        if n <= 7:
            assert m.margin > MATCH_AMBIGUITY_TOL and not m.ambiguous
    if n <= 7:
        old_assign, old_clear = _match_block_totals_oracle(first, E)
        assert not (clear & ~old_clear).any()
        np.testing.assert_array_equal(assign[clear], old_assign[clear])


def test_dim_11_loop_takes_only_the_block_path(monkeypatch):
    rng = np.random.default_rng(11)
    family = _random_family(rng, 11)
    loop = LoopSpec(complex(*rng.normal(size=2)), 0.05, steps=256)
    align_next = pairdeg.spectra._align_next
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return align_next(*args, **kwargs)

    monkeypatch.setattr(pairdeg.spectra, "_align_next", counted)
    _assert_loop_matches_oracle(family, loop, [])
    assert calls == []


def _gauge_signs_oracle(re):
    signs = np.empty(re.shape)
    s = np.ones(re.shape[1])
    for j, r in enumerate(re):
        s = signs[j] = np.where(s * r < 0, -1.0, 1.0)
    return signs


@oracle_settings
@given(k=st.integers(1, 70), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       specials=st.sampled_from([0.0, 0.05, 0.3]))
def test_gauge_signs_match_per_step_loop(k, n, seed, specials):
    # Real parts of both signs, with exact +0.0, -0.0 and NaN (each resets
    # the sign to +1) and infinities mixed in at the given rate.
    rng = np.random.default_rng(seed)
    re = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-300, 300, size=(k, n))
    special = rng.random((k, n)) < specials
    re[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], size=special.sum())
    _assert_same_bytes(_gauge_signs(re), _gauge_signs_oracle(re))


def _loop_cases(roots, rng, steps, orientation):
    """An EP-like loop around a random root and a trivial loop away from all."""
    root = roots[rng.integers(len(roots))]
    others = [abs(r.g0 - root.g0) for r in roots if r is not root]
    yield LoopSpec(root.g0, 0.3 * min(others, default=1.0), steps=steps,
                   orientation=orientation)
    center = root.g0 + complex(*rng.normal(size=2))
    clear = min(abs(r.g0 - center) for r in roots)
    yield LoopSpec(center, 0.3 * clear, steps=steps, orientation=orientation)


def _assert_eigenvalue_permutation_matches(family, loop, roots):
    try:
        want = trace_loop(family, loop, degeneracies=roots).loop_permutations[0]
    except MatchingAmbiguityError:
        with pytest.raises(MatchingAmbiguityError):
            _turn_permutations([(family, loop, roots)])
        return
    assert _turn_permutations([(family, loop, roots)]) == [want]


def _assert_restore_is_prefix(family, loop, max_loops, roots, tau_c=1e-6):
    full_spec = LoopSpec(loop.center, loop.radius, loop.steps, max_loops,
                         loop.orientation)
    try:
        full = trace_loop(family, full_spec, degeneracies=roots, tau_c=tau_c)
    except MatchingAmbiguityError:
        with pytest.raises(MatchingAmbiguityError):
            restore_count(family, loop, max_loops, degeneracies=roots)
        return
    res = restore_count(family, loop, max_loops, degeneracies=roots)
    periods = _restore_periods(full.loop_permutations, full.loop_re_theta)
    assert (res.eigenvalue_period, res.phase_period) == periods
    trace = res.trace
    turns = len(trace.loop_permutations)
    # The trace ends at the phase period, or runs the whole budget.
    assert turns == (periods[1] if periods[1] is not None else max_loops)
    assert trace.spec == dataclasses.replace(full_spec, loops=turns)
    rows = turns * loop.steps + 1
    for name in ("phis", "eigenvalues", "thetas"):
        _assert_same_bytes(getattr(trace, name), getattr(full, name)[:rows])
    _assert_same_bytes(trace.loop_re_theta, full.loop_re_theta[:turns])
    _assert_same_bytes(trace.raw_loop_theta, full.raw_loop_theta[:turns])
    assert trace.loop_permutations == full.loop_permutations[:turns]
    assert trace.ambiguities == full.ambiguities[:len(trace.ambiguities)]


@settings(derandomize=True, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), steps=steps,
       orientation=st.sampled_from([1, -1]), max_loops=st.integers(1, 4))
def test_short_loops_match_full_trace_on_random_models(n, seed, steps, orientation,
                                                       max_loops):
    # Steps of 65, 100, 127 and 130 end turns inside a solved block.
    rng = np.random.default_rng(seed)
    family = _random_family(rng, n)
    roots = find_degeneracies(family)
    for loop in _loop_cases(roots, rng, steps, orientation):
        _assert_eigenvalue_permutation_matches(family, loop, roots)
        _assert_restore_is_prefix(family, loop, max_loops, roots)


def test_turn_permutations_of_many_loops_match_trace_loop(model, model_049):
    # Loops around every root of two families, EP loops with a transposition
    # among them, and loops around no root, solved together in groups (a
    # group's starts are one stack and its paths another), each as
    # trace_loop gives it alone.
    jobs = []
    for m in (model_049, model):
        family = m.family()
        roots = find_degeneracies(family)
        for root in roots:
            others = min(abs(r.g0 - root.g0) for r in roots if r is not root)
            jobs.append((family, LoopSpec(root.g0, 0.3 * others, steps=64), roots))
            jobs.append((family, LoopSpec(root.g0 + 1.5 * others, 0.3 * others,
                                          steps=100), roots))
    want = [trace_loop(f, loop, degeneracies=roots).loop_permutations[0]
            for f, loop, roots in jobs]
    assert any(p != tuple(range(len(p))) for p in want)
    assert _turn_permutations(jobs) == want


@pytest.mark.parametrize("steps", [64, 100])
@pytest.mark.parametrize("which, max_loops, periods", [
    ("pseudo-DP", 4, (1, 2)),   # stops after 2 of 4 turns
    ("EP", 6, (2, 4)),          # stops after 4 of 6 turns
    ("EP", 3, (2, None)),       # never phase-restored: all 3 turns
    ("EP", 1, (None, None)),    # never restored at all
])
def test_short_reference_loops_match_full_trace(model, model_049, pseudo_dp, steps,
                                                which, max_loops, periods):
    m = model if which == "pseudo-DP" else model_049
    roots = find_degeneracies(m)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    loop = LoopSpec(root.g0, 0.01, steps=steps)
    family = m.family()
    _assert_eigenvalue_permutation_matches(family, loop, roots)
    _assert_restore_is_prefix(family, loop, max_loops, roots)
    res = restore_count(family, loop, max_loops, degeneracies=roots)
    assert (res.eigenvalue_period, res.phase_period) == periods


def test_short_loops_match_full_trace_through_forced_bisection(model, pseudo_dp,
                                                               monkeypatch):
    # Steps 20 and 90 of every loop take the exact path, and the first step
    # matched there reports a genuine tie, so it is bisected.  Each loop
    # below starts with fresh counters.
    roots = find_degeneracies(model)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    loop = LoopSpec(root.g0, 0.01, steps=100)
    match_block = pairdeg.spectra._match_block
    match_states_ = pairdeg.spectra.match_states
    calls = {"match": 0, "blocks": 0}

    def unclear(first, E):
        assign, clear = match_block(first, E)
        calls["blocks"] += 1
        if calls["blocks"] in (1, 2):
            clear[19 if calls["blocks"] == 1 else 25] = False
        return assign, clear

    def tie_first(prev, nxt):
        calls["match"] += 1
        m = match_states_(prev, nxt)
        return m._replace(ambiguous=True, benign_tie=False) if calls["match"] == 1 else m

    def fresh(fn, *args, **kwargs):
        calls["match"] = calls["blocks"] = 0
        return fn(*args, **kwargs)

    monkeypatch.setattr(pairdeg.spectra, "_match_block", unclear)
    monkeypatch.setattr(pairdeg.spectra, "match_states", tie_first)
    family = model.family()
    full_spec = dataclasses.replace(loop, loops=4)
    full = fresh(trace_loop, family, full_spec, degeneracies=roots)
    assert fresh(_turn_permutations, [(family, loop, roots)]) == \
        [full.loop_permutations[0]]
    res = fresh(restore_count, family, loop, 4, degeneracies=roots)
    assert (res.eigenvalue_period, res.phase_period) == (1, 2)
    rows = 2 * loop.steps + 1
    _assert_same_bytes(res.trace.eigenvalues, full.eigenvalues[:rows])
    _assert_same_bytes(res.trace.thetas, full.thetas[:rows])
    _assert_same_bytes(res.trace.loop_re_theta, full.loop_re_theta[:2])
    # The bisection moved the phases: the forced path was taken.
    monkeypatch.undo()
    plain = trace_loop(family, full_spec, degeneracies=roots)
    assert not np.array_equal(plain.thetas, full.thetas)


def _force_ties(monkeypatch, family, g, count):
    """Report the first ``count`` matchings onto the state solved at ``g`` as
    genuine ties, in the engine and in the oracles alike, and keep the block
    matcher from clearing any step onto it.  Returns the list of ties fired,
    to be cleared before each run."""
    target = eigendecompose(family.matrix(g), g=g).eigenvalues
    match_block, match_states_ = pairdeg.spectra._match_block, match_states
    fired = []

    def unclear(first, E):
        assign, clear = match_block(first, E)
        return assign, clear & ~(E == target).all(axis=1)

    def tied(prev, nxt):
        m = match_states_(prev, nxt)
        if len(fired) < count and np.array_equal(nxt, target):
            fired.append(g)
            return m._replace(ambiguous=True, benign_tie=False)
        return m

    monkeypatch.setattr(pairdeg.spectra, "_match_block", unclear)
    monkeypatch.setattr(pairdeg.spectra, "match_states", tied)
    monkeypatch.setitem(globals(), "match_states", tied)  # the oracles' binding
    return fired


@pytest.mark.parametrize("count", [1, 2])
def test_bisected_loop_step_matches_oracle(model, pseudo_dp, monkeypatch, count):
    # The tied step is bisected into count + 1 sub-steps, which take the
    # shared normalise-and-gauge tail as one stack; their phase increments
    # are added in path order.
    roots = find_degeneracies(model)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    loop = LoopSpec(root.g0, 0.01, steps=100, loops=2)
    family = model.family()
    phis = np.linspace(0.0, 4 * np.pi, 201)
    fired = _force_ties(monkeypatch, family, loop.point(phis[37]), count)
    eigenvalues, thetas, perms, loop_re, raw_loop, records = _trace_loop_oracle(
        family, loop)
    assert len(fired) == count
    fired.clear()
    got = trace_loop(family, loop, degeneracies=roots)
    assert len(fired) == count
    _assert_same_bytes(got.eigenvalues, eigenvalues)
    _assert_same_bytes(got.thetas, thetas)
    _assert_same_bytes(got.loop_re_theta, loop_re)
    _assert_same_bytes(got.raw_loop_theta, raw_loop)
    assert got.loop_permutations == perms
    assert got.ambiguities == records


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("tau_c", [1e-6, 0.3])
def test_bisected_cut_step_matches_oracle(model, pseudo_dp, monkeypatch, count, tau_c):
    family = model.family()
    points = np.linspace(pseudo_dp - 0.05, pseudo_dp + 0.05, 101)
    fired = _force_ties(monkeypatch, family, complex(points[70]), count)
    want, records = _continue_spectrum_oracle(family, points, True, tau_c)
    assert len(fired) == count
    fired.clear()
    got = continue_spectrum(family, points, want_vectors=True, tau_c=tau_c)
    assert len(fired) == count
    assert len(got.spectra) == len(want)
    for a, b in zip(got.spectra, want):
        _assert_same_spectrum(a, b)
    assert got.ambiguities == records
