import numpy as np
import pytest

import pairdeg.atlas
import pairdeg.model
from pairdeg import (Kind, LoopError, MatrixFamily, classify, classify_all,
                     discriminant_poly, find_degeneracies,
                     pair_truncation_family, sweep_gamma)
from pairdeg.errors import PairdegError


def block_diagonal_family():
    """Two uncoupled 2x2 blocks whose eigenvalues cross at a real coupling.

    Cross-block eigenvalue crossings keep both eigenvectors regular, which is
    the level-crossing (DP) situation; each block also carries its own
    square-root branch points.
    """
    H0 = np.diag([0.0, 1.0, 2.0, 3.0])
    H1 = np.zeros((4, 4))
    H1[0, 1] = H1[1, 0] = 1.0
    H1[2, 3] = H1[3, 2] = 2.0
    return MatrixFamily(H0, H1)


def test_classify_pseudo_dp(model, pseudo_dp):
    roots = find_degeneracies(model)
    root = min(roots, key=lambda r: abs(r.g0 - pseudo_dp))
    point = classify(model, root, degeneracies=roots)
    assert point.kind == Kind.PSEUDO_DP
    assert point.coalescence <= 1e-6
    assert point.monodromy_permutation == (0, 1, 2, 3)


def test_classify_ep(model_049):
    roots = find_degeneracies(model_049)
    root = min(roots, key=lambda r: abs(r.g0 - (-0.207687j)))
    point = classify(model_049, root, degeneracies=roots)
    assert point.kind == Kind.EP
    assert point.coalescence <= 1e-6


def test_classify_trivial_crossing_as_dp(model):
    roots = find_degeneracies(model)
    origin = min(roots, key=lambda r: abs(r.g0))
    assert origin.multiplicity == 2
    point = classify(model, origin, degeneracies=roots)
    assert point.kind == Kind.DP
    assert point.coalescence > 1e-6


def test_classify_block_diagonal_dp():
    family = block_diagonal_family()
    roots = find_degeneracies(family, radius=1.0)
    real_roots = [r for r in roots if abs(r.g0.imag) < 1e-8]
    assert real_roots, "expected a cross-block level crossing on the real axis"
    for r in real_roots:
        point = classify(family, r, degeneracies=roots)
        assert point.kind == Kind.DP
    imag_roots = [r for r in roots if abs(r.g0.real) < 1e-8 and abs(r.g0.imag) > 1e-8]
    assert imag_roots, "expected in-block branch points on the imaginary axis"
    kinds = {classify(family, r, degeneracies=roots).kind for r in imag_roots}
    assert Kind.EP in kinds


def test_conjugate_points_same_kind(model):
    points = classify_all(model)
    by_g = {complex(np.round(p.g0, 7)): p.kind for p in points}
    for g, kind in by_g.items():
        partner = complex(np.round(np.conj(g), 7))
        assert by_g[partner] == kind


def test_classification_scale_invariance(model, pseudo_dp):
    # Rescaling all level energies by s moves every degeneracy to s*g0 with
    # the kind unchanged.
    s = 2.5
    scaled = model.scaled(s)
    pts = classify_all(scaled, radius=0.5 * s)
    match = min(pts, key=lambda p: abs(p.g0 - s * pseudo_dp))
    assert abs(match.g0 - s * pseudo_dp) <= 1e-7 * s
    assert match.kind == Kind.PSEUDO_DP
    ep_pts = [p for p in pts if p.kind == Kind.EP]
    assert len(ep_pts) == 6


def test_rank_defect_at_pseudo_dp(model, pseudo_dp):
    # Geometric multiplicity 1 with algebraic multiplicity 2: one vanishing
    # singular value of H - E0, not two.
    from pairdeg import hamiltonian_at

    H = hamiltonian_at(model, pseudo_dp)
    E0 = 4 - np.sqrt(2) * 1j
    sv = np.linalg.svd(H - E0 * np.eye(4), compute_uv=False)
    assert sv[-1] <= 1e-7
    assert sv[-2] > 0.1


def test_two_level_truncation_destroys_double_root(model, pseudo_dp):
    # The double root needs all four states: restricted to the merging pair's
    # subspace, the discriminant has only simple roots near g0.
    truncated = pair_truncation_family(model, pseudo_dp)
    assert truncated.dim == 2
    roots = find_degeneracies(truncated, radius=0.5)
    nearby = [r for r in roots if abs(r.g0 - pseudo_dp) < 1e-2]
    assert all(r.multiplicity == 1 for r in nearby)
    assert all(abs(r.g0 - pseudo_dp) > 1e-5 for r in nearby)


def test_sweep_gamma_merge_event(model):
    traj = sweep_gamma(model, -0.52, -0.48, steps=5, classify_points=True)
    assert len(traj.events) >= 1
    ev = min(traj.events, key=lambda e: abs(e.gamma + 0.5))
    assert abs(ev.gamma + 0.5) <= 1e-3
    assert abs(ev.g - (-1j / (4 * np.sqrt(2)))) <= 1e-4


def test_sweep_gamma_on_axis_after_merge(model):
    traj = sweep_gamma(model, -0.52, -0.48, steps=5, classify_points=True)
    g_star = traj.events[0].g
    for gamma, pts in zip(traj.gammas, traj.points):
        if gamma <= -0.5:
            continue
        near = sorted((p for p in pts if p.root.multiplicity == 1
                       and p.g0.imag < -1e-3 and abs(p.g0 - g_star) < 0.08),
                      key=lambda p: abs(p.g0 - g_star))[:2]
        assert len(near) == 2
        assert all(abs(p.g0.real) <= 1e-6 for p in near)
        assert all(p.kind == Kind.EP for p in near)


def test_sweep_gamma_deterministic(model):
    a = sweep_gamma(model, -0.51, -0.49, steps=3, classify_points=False)
    b = sweep_gamma(model, -0.51, -0.49, steps=3, classify_points=False)
    for pa, pb in zip(a.points, b.points):
        assert [p.g0 for p in pa] == [p.g0 for p in pb]
    assert [e.gamma for e in a.events] == [e.gamma for e in b.events]


def test_gamma_trajectory_csv(tmp_path, model):
    traj = sweep_gamma(model, -0.51, -0.49, steps=3, classify_points=True)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, meta=["version=test"])
    lines = path.read_text().splitlines()
    assert lines[1].split(",") == ["gamma", "g_re", "g_im", "kind", "multiplicity"]
    assert any("PSEUDO_DP" in line for line in lines)


def test_sweep_gamma_builds_operators_once(model, monkeypatch):
    calls = {"build": 0}
    build = pairdeg.model.build_operator_matrices

    def counting(m):
        calls["build"] += 1
        return build(m)

    # ModelSpec.family() finds the builder in the model module, sweep_gamma
    # in its own: count both.
    monkeypatch.setattr(pairdeg.model, "build_operator_matrices", counting)
    monkeypatch.setattr(pairdeg.atlas, "build_operator_matrices", counting)
    traj = sweep_gamma(model, -0.52, -0.48, steps=5, classify_points=True)
    assert traj.events
    assert calls["build"] == 1


def test_sweep_gamma_verification_loops_take_their_settings(model, monkeypatch):
    # Each sample's points are those classify_all gives its family with the
    # same loop radius and steps, and every verification loop has them.
    loops = []
    turn_permutations = pairdeg.atlas._turn_permutations

    def recording(jobs):
        loops.extend(loop for _, loop, _ in jobs)
        return turn_permutations(jobs)

    monkeypatch.setattr(pairdeg.atlas, "_turn_permutations", recording)
    traj = sweep_gamma(model, -0.51, -0.49, steps=3, loop_radius=0.005, loop_steps=200)
    assert len(loops) >= 3
    assert all(loop.steps == 200 and loop.radius <= 0.005 for loop in loops)
    ops = pairdeg.model.build_operator_matrices(model)
    for gamma, pts in zip(traj.gammas, traj.points):
        want = classify_all(ops.family(gamma), loop_radius=0.005, loop_steps=200)
        assert repr([p.as_dict() for p in pts]) == repr([p.as_dict() for p in want])


def test_verification_loop_steps_below_minimum_raise(model):
    # loop_steps = 10 once ran 64-step loops without a word.
    with pytest.raises(LoopError, match="need at least 64 steps per loop, got 10"):
        classify_all(model, loop_steps=10)


TWO_LEVELS = MatrixFamily(np.diag([0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("settings, message", [
    ({"loop_steps": 10}, "need at least 64 steps per loop, got 10"),
    ({"loop_steps": 10.5}, "must be integers"),
    ({"loop_radius": 0.0}, "loop radius must be positive, got 0.0"),
    ({"loop_radius": -0.01}, "loop radius must be positive, got -0.01"),
], ids=["steps-small", "steps-fractional", "radius-zero", "radius-negative"])
def test_loop_settings_are_checked_on_entry(model, monkeypatch, settings, message):
    # The two-level family has two EPs and no multiplicity-2 root, so no
    # verification loop is built: these settings once passed unnoticed.
    assert [p.kind for p in classify_all(TWO_LEVELS)] == [Kind.EP, Kind.EP]
    root = find_degeneracies(TWO_LEVELS)[0]

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a matrix")

    monkeypatch.setattr(np.linalg, "eig", no_solve)
    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    for call in (lambda: classify_all(TWO_LEVELS, **settings),
                 lambda: classify(TWO_LEVELS, root, degeneracies=[root], **settings),
                 lambda: sweep_gamma(model, -0.6, -0.4, 21, **settings),
                 lambda: sweep_gamma(model, -0.6, -0.4, 21, classify_points=False,
                                     **settings)):
        with pytest.raises(LoopError, match=message):
            call()


@pytest.mark.parametrize("steps, message", [
    (2.5, "gamma sweep needs a whole number of samples, got 2.5"),
    (1, "gamma sweep needs at least 2 samples"),
])
def test_sweep_sample_count_is_checked(model, steps, message):
    # 2.5 samples once reached np.linspace as a raw TypeError.
    with pytest.raises(PairdegError, match=f"^{message}$"):
        sweep_gamma(model, -0.6, -0.4, steps)


@pytest.fixture(scope="module")
def default_sweep(model):
    """The README-default sweep: gamma from -0.6 to -0.4 in 21 samples."""
    return sweep_gamma(model, -0.6, -0.4, steps=21, classify_points=True)


@pytest.mark.parametrize("steps", [21, 5])
def test_fusion_to_machine_precision(model, pseudo_dp, default_sweep, steps):
    # The pseudo-DP forms at gamma* = -1/2 exactly, at g* = -i/(4 sqrt 2);
    # the 5-sample sweep is selftest criterion 5's.
    traj = (default_sweep if steps == 21
            else sweep_gamma(model, -0.52, -0.48, steps=5))
    ev = min(traj.events, key=lambda e: abs(e.gamma + 0.5))
    assert abs(ev.gamma + 0.5) <= 1e-12
    assert abs(ev.g - pseudo_dp) <= 1e-12
    assert ev.contact_order == 1


def test_order_three_contact_independent_of_sampling(model, default_sweep):
    # Near gamma = -0.4305 two EPs touch with sep^2 ~ (gamma - gamma*)^3; the
    # contact is noise-limited near eps^(1/3), so 6 and 21 samples agree to
    # 1e-5 rather than to machine precision.
    coarse = sweep_gamma(model, -0.6, -0.4, steps=6, classify_points=False)
    [a] = [e for e in default_sweep.events if e.gamma > -0.45]
    [b] = coarse.events
    assert abs(a.gamma - b.gamma) <= 1e-5
    assert abs(a.gamma + 0.4305) <= 1e-4
    assert a.contact_order == b.contact_order == 3
    assert a.distance <= 1e-4 and b.distance <= 1e-4


def test_descending_sweep_reports_the_same_events(model, default_sweep):
    # The same range run from -0.4 down to -0.6 brackets each fusion between
    # the same two neighbours, so both events come out bit for bit, in
    # descending gamma.
    down = sweep_gamma(model, -0.4, -0.6, steps=21, classify_points=True)
    assert len(default_sweep.events) == 2
    assert repr(down.events[::-1]) == repr(default_sweep.events)


def test_merge_refinement_solves_each_circle_once_per_operator(model, default_sweep,
                                                              monkeypatch):
    # Two Illinois iterates of the order-3 event near gamma = -0.4305 build
    # the same P + gamma*Q bit for bit, so their circle is solved once: 55
    # contour solves, each of a distinct (P + gamma*Q, centre, radius).
    solved = []
    moments = pairdeg.atlas.contour_moments

    def counted(family, center, radius):
        solved.append((family.linear.tobytes(), center, radius))
        return moments(family, center, radius)

    monkeypatch.setattr(pairdeg.atlas, "contour_moments", counted)
    traj = sweep_gamma(model, -0.6, -0.4, steps=21, classify_points=True)
    assert len(solved) == len(set(solved)) == 55
    assert repr(traj.events) == repr(default_sweep.events)


@pytest.mark.parametrize("start, stop", [(-0.6, -0.59), (-0.49, -0.48)])
def test_near_miss_brackets_give_no_event(model, start, stop):
    # Edge brackets of the reference sweeps where the closest pair comes
    # within 0.027 and 0.0089 but does not fuse: Re sep^2 keeps its sign.
    traj = sweep_gamma(model, start, stop, steps=2, classify_points=False)
    assert traj.events == []
