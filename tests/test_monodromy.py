import numpy as np
import pytest

import pairdeg.spectra
from pairdeg import (LoopError, LoopSpec, MatrixFamily, find_degeneracies,
                     restore_count, trace_loop)
from pairdeg.spectra import AmbiguityRecord


@pytest.fixture(scope="module")
def roots(model):
    return find_degeneracies(model)


@pytest.fixture(scope="module")
def pdp_root(model, roots, pseudo_dp):
    return min(roots, key=lambda r: abs(r.g0 - pseudo_dp))


def test_loopspec_validation():
    with pytest.raises(LoopError):
        LoopSpec(0j, -0.1)
    with pytest.raises(LoopError):
        LoopSpec(0j, 0.1, steps=16)
    with pytest.raises(LoopError):
        LoopSpec(0j, 0.1, loops=0)
    with pytest.raises(LoopError):
        LoopSpec(0j, 0.1, orientation=2)
    with pytest.raises(LoopError):
        LoopSpec(0j, np.nan)
    with pytest.raises(LoopError):
        LoopSpec(0j, np.inf)
    with pytest.raises(LoopError):
        LoopSpec(complex(np.nan, 0.0), 0.01)
    # A non-integral count once reached np.linspace as a raw TypeError.
    with pytest.raises(LoopError, match="must be integers"):
        LoopSpec(0j, 0.001, steps=64.5)
    with pytest.raises(LoopError, match="must be integers"):
        LoopSpec(0j, 0.001, loops=1.5)


def test_loop_enclosing_two_roots_rejected(model, roots):
    # A large loop around the origin catches several degeneracies.
    with pytest.raises(LoopError):
        trace_loop(model, LoopSpec(0j, 0.2, steps=64), degeneracies=roots)


def test_loop_grazing_a_root_rejected(model, roots, pdp_root):
    graze = LoopSpec(pdp_root.g0 + 0.0101, 0.01, steps=64)
    with pytest.raises(LoopError):
        trace_loop(model, graze, degeneracies=roots)


def test_pseudo_dp_loop_phases(model, roots, pdp_root):
    trace = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=256),
                       degeneracies=roots)
    assert trace.loop_permutations[0] == (0, 1, 2, 3)
    raw = trace.raw_loop_theta[0].real
    assert abs(abs(raw[1]) - np.pi) <= 0.05
    assert abs(abs(raw[2]) - np.pi) <= 0.05
    assert abs(raw[0]) <= 0.1 and abs(raw[3]) <= 0.1
    # snapped holonomy is an exact multiple of pi
    snapped = trace.loop_re_theta[0]
    assert snapped[1] == pytest.approx(-np.pi) or snapped[1] == pytest.approx(np.pi)
    # sum of the loop phases is 2*pi times an integer (within tolerance)
    total = np.sum(snapped)
    assert abs(total - 2 * np.pi * np.round(total / (2 * np.pi))) <= 0.05
    assert np.round(total / (2 * np.pi)) != 0


def test_ep_loop_exchanges_merging_pair(model_049):
    roots = find_degeneracies(model_049)
    ep = min(roots, key=lambda r: abs(r.g0 - (-0.207687j)))
    trace = trace_loop(model_049, LoopSpec(ep.g0, 0.01, steps=256),
                       degeneracies=roots)
    assert trace.loop_permutations[0] == (0, 2, 1, 3)


def test_far_loop_trivial(model, roots):
    trace = trace_loop(model, LoopSpec(0.3 + 0.3j, 0.01, steps=64),
                       degeneracies=roots)
    assert trace.loop_permutations[0] == (0, 1, 2, 3)
    assert np.max(np.abs(trace.raw_loop_theta[0].real)) <= 0.01


def test_restore_counts(model, model_049, roots, pdp_root):
    res = restore_count(model, LoopSpec(pdp_root.g0, 0.01, steps=256),
                        max_loops=4, degeneracies=roots)
    assert (res.eigenvalue_period, res.phase_period) == (1, 2)
    roots2 = find_degeneracies(model_049)
    ep = min(roots2, key=lambda r: abs(r.g0 - (-0.207687j)))
    res2 = restore_count(model_049, LoopSpec(ep.g0, 0.01, steps=256),
                         max_loops=6, degeneracies=roots2)
    assert (res2.eigenvalue_period, res2.phase_period) == (2, 4)
    assert res2.restored


def test_restore_count_trivial_loop(model, roots):
    res = restore_count(model, LoopSpec(0.3 + 0.3j, 0.01, steps=64),
                        max_loops=2, degeneracies=roots)
    assert (res.eigenvalue_period, res.phase_period) == (1, 1)


def test_not_restored_reported(model_049):
    roots2 = find_degeneracies(model_049)
    ep = min(roots2, key=lambda r: abs(r.g0 - (-0.207687j)))
    res = restore_count(model_049, LoopSpec(ep.g0, 0.01, steps=128),
                        max_loops=1, degeneracies=roots2)
    assert res.eigenvalue_period is None
    assert not res.restored


def test_orientation_reversal(model, roots, pdp_root):
    fwd = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=128),
                     degeneracies=roots)
    rev = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=128,
                                     orientation=-1), degeneracies=roots)
    np.testing.assert_allclose(fwd.raw_loop_theta[0].real,
                               -rev.raw_loop_theta[0].real, atol=0.02)
    assert fwd.loop_permutations[0] == rev.loop_permutations[0] == (0, 1, 2, 3)


def test_ep_permutation_powers(model_049):
    roots2 = find_degeneracies(model_049)
    ep = min(roots2, key=lambda r: abs(r.g0 - (-0.207687j)))
    trace = trace_loop(model_049, LoopSpec(ep.g0, 0.01, steps=128, loops=4),
                       degeneracies=roots2)
    single = trace.loop_permutations[0]

    def power(p, k):
        out = list(range(len(p)))
        for _ in range(k):
            out = [p[i] for i in out]
        return tuple(out)

    for k in range(1, 5):
        assert trace.loop_permutations[k - 1] == power(single, k)


def test_step_doubling_convergence(model, roots, pdp_root):
    coarse = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=128),
                        degeneracies=roots)
    fine = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=256),
                      degeneracies=roots)
    delta = np.abs(coarse.raw_loop_theta[0] - fine.raw_loop_theta[0])
    assert np.max(delta) <= 1e-3


def test_loop_trace_csv_and_summary(tmp_path, model, roots, pdp_root):
    trace = trace_loop(model, LoopSpec(pdp_root.g0, 0.01, steps=64),
                       degeneracies=roots)
    path = tmp_path / "phases.csv"
    trace.to_csv(path, meta=["version=test"])
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "phi"
    assert "theta1_re" in header and "E4_im" in header
    assert len(lines) == 2 + 65
    summary = trace.summary()
    assert summary["permutations"] == ["identity"]
    assert len(summary["loop_re_theta"][0]) == 4


def test_loop_over_doubled_blocks_records_benign_ties():
    # Two identical 2x2 blocks: every eigenvalue is doubly degenerate along
    # the whole loop, so each step is a benign tie, recorded and not bisected.
    # The blocks' own EPs sit at g = +-0.5i, outside the loop.
    block = np.zeros((4, 4))
    block[[1, 3], [1, 3]] = 1.0
    hop = np.zeros((4, 4))
    hop[[0, 1, 2, 3], [1, 0, 3, 2]] = 1.0
    family = MatrixFamily(block, hop)
    trace = trace_loop(family, LoopSpec(0.2 + 0j, 0.1, steps=64),
                       degeneracies=[])
    assert len(trace.ambiguities) == 64
    assert all(isinstance(r, AmbiguityRecord) and r.benign and r.refined == 0
               for r in trace.ambiguities)
    assert trace.loop_permutations[0] == (0, 1, 2, 3)


def test_forced_loop_bisection(model, roots, pdp_root, monkeypatch):
    loop = LoopSpec(pdp_root.g0, 0.01, steps=64)
    stack = pairdeg.spectra._eig_stack
    match_block = pairdeg.spectra._match_block
    match_states = pairdeg.spectra.match_states
    calls = {"match": 0, "eig": 0, "blocks": 0}

    def counted(H, gs, *args, **kwargs):
        # Every solve, single or stacked, runs here once per matrix.
        calls["eig"] += len(gs)
        return stack(H, gs, *args, **kwargs)

    def unclear_step_20(first, E):
        assign, clear = match_block(first, E)
        calls["blocks"] += 1
        if calls["blocks"] == 1:
            clear[19] = False  # step 20 takes the exact path
        return assign, clear

    def tie_first(prev, nxt):
        # The exact path's first match is step 20's: report a genuine tie.
        calls["match"] += 1
        m = match_states(prev, nxt)
        return m._replace(ambiguous=True, benign_tie=False) if calls["match"] == 1 else m

    monkeypatch.setattr(pairdeg.spectra, "_eig_stack", counted)
    monkeypatch.setattr(pairdeg.spectra, "match_states", tie_first)
    plain = trace_loop(model, loop, degeneracies=roots)
    assert calls["eig"] == 1 + 64  # the start point and the 64 steps
    assert calls["match"] == 0  # every step of the block is clear

    monkeypatch.setattr(pairdeg.spectra, "_match_block", unclear_step_20)
    calls["eig"] = 0
    forced = trace_loop(model, loop, degeneracies=roots)

    # The tied step is split at its phi midpoint: one more sample solved, and
    # the second half reuses the step's end point.  Only step 20 and its two
    # halves are matched one at a time.
    assert calls["eig"] == 1 + 64 + 1
    assert calls["match"] == 1 + 2
    assert forced.ambiguities == plain.ambiguities == []
    assert forced.loop_permutations == plain.loop_permutations
    np.testing.assert_array_equal(forced.loop_re_theta, plain.loop_re_theta)
    np.testing.assert_array_equal(forced.eigenvalues, plain.eigenvalues)
    assert np.max(np.abs(forced.thetas - plain.thetas)) <= 1e-4
    assert np.max(np.abs(forced.thetas - plain.thetas)) > 0
    assert np.array_equal(forced.thetas[:20], plain.thetas[:20])
