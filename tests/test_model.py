import itertools

import numpy as np
import pytest

from pairdeg import (InvalidModelError, LevelSpec, ModelSpec,
                     build_operator_matrices, enumerate_basis, hamiltonian_at)


def tensor_oracle(model):
    """Brute-force operator construction in the full tensor-product pair space.

    Builds one ladder matrix per level with amplitude 2*sqrt((n+1)*(cap-n)),
    tensors them with identities, and projects onto the fixed-pair-number
    block in lexicographic order.  Independent of the formula-based builder.
    """
    caps = model.capacities
    dims = [c + 1 for c in caps]
    L = len(caps)

    def embed(op, level):
        mats = [np.eye(d) for d in dims]
        mats[level] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    ladders = []
    numbers = []
    for level, cap in enumerate(caps):
        B = np.zeros((cap + 1, cap + 1))
        for n in range(cap):
            B[n + 1, n] = 2 * np.sqrt((n + 1) * (cap - n))
        ladders.append(embed(B, level))
        numbers.append(embed(np.diag([2.0 * n for n in range(cap + 1)]), level))

    P_full = sum(Bi @ Bj.T for Bi in ladders for Bj in ladders)
    T_full = sum(lev.epsilon * N for lev, N in zip(model.levels, numbers))
    Q_full = sum(N @ N for N in numbers)

    occs = list(itertools.product(*[range(d) for d in dims]))
    keep = [k for k, occ in enumerate(occs) if sum(occ) == model.n_pairs]
    ix = np.ix_(keep, keep)
    return T_full[ix], P_full[ix], Q_full[ix]


def test_basis_reference_model(model):
    assert enumerate_basis(model) == [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)]


def test_basis_vacuum():
    m = ModelSpec.from_arrays([0, 1, 2], [2, 6, 2], 0, -0.5)
    assert enumerate_basis(m) == [(0, 0, 0)]


def test_basis_fully_blocked():
    m = ModelSpec.from_arrays([0, 1, 2], [2, 2, 2], 3, -0.5)
    assert enumerate_basis(m) == [(1, 1, 1)]


def test_model_validation():
    with pytest.raises(InvalidModelError):
        LevelSpec(0.0, 3)  # odd degeneracy
    with pytest.raises(InvalidModelError):
        LevelSpec(0.0, 0)
    with pytest.raises(InvalidModelError):
        ModelSpec.from_arrays([0, 1, 2], [2, 2, 2], 4, -0.5)  # over capacity
    with pytest.raises(InvalidModelError):
        ModelSpec.from_arrays([0, 1, 2], [2, 6, 2], 2, np.inf)


def test_operator_entries_reference(model):
    ops = build_operator_matrices(model)
    basis = enumerate_basis(model)
    k = basis.index((0, 2, 0))
    assert ops.T[k, k] == pytest.approx(4.0)
    assert ops.Q[k, k] == pytest.approx(16.0)
    assert ops.P[k, k] == pytest.approx(16.0)
    j = basis.index((0, 1, 1))
    assert ops.P[k, j] == pytest.approx(8.0)
    assert ops.P[j, k] == pytest.approx(8.0)


@pytest.mark.parametrize("epsilons,omegas,n_pairs", [
    ([0, 1, 2], [2, 6, 2], 2),
    ([0.3, 1.7], [4, 6], 3),
    ([0, 1, 2, 3], [2, 4, 4, 2], 3),
])
def test_operators_match_tensor_oracle(epsilons, omegas, n_pairs):
    m = ModelSpec.from_arrays(epsilons, omegas, n_pairs, -0.5)
    ops = build_operator_matrices(m)
    T, P, Q = tensor_oracle(m)
    np.testing.assert_allclose(ops.T, T, atol=1e-12)
    np.testing.assert_allclose(ops.P, P, atol=1e-12)
    np.testing.assert_allclose(ops.Q, Q, atol=1e-12)
    assert np.allclose(ops.P, ops.P.T)


def test_hamiltonian_diagonal_at_zero(model):
    H = hamiltonian_at(model, 0.0)
    np.testing.assert_allclose(H, np.diag([6.0, 4.0, 4.0, 2.0]), atol=1e-14)


def test_hamiltonian_complex_symmetric(model):
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal())
        H = hamiltonian_at(model, g)
        assert np.max(np.abs(H - H.T)) == 0.0


def test_trace_identity(model):
    family = model.family()
    assert np.trace(family.base) == pytest.approx(16.0)
    assert np.trace(family.linear) == pytest.approx(36.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal())
        assert np.trace(hamiltonian_at(model, g)) == pytest.approx(16 + 36 * g)


def test_trace_imaginary_part_at_pseudo_dp(model, pseudo_dp):
    # Pins the operator convention: Im Tr H = -9/sqrt(2) at the double root.
    H = hamiltonian_at(model, pseudo_dp)
    assert np.trace(H).imag == pytest.approx(-9 / np.sqrt(2), abs=1e-12)


def test_reflection_symmetry(model):
    # Level 1<->3 relabeling maps the spectrum of H(g) to 8 - spectrum(H(-g)).
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = complex(rng.normal(), rng.normal()) * 0.4
        e_plus = np.sort_complex(np.linalg.eigvals(hamiltonian_at(model, g)))
        e_minus = np.sort_complex(8.0 - np.linalg.eigvals(hamiltonian_at(model, -g)))
        np.testing.assert_allclose(e_plus, e_minus, atol=1e-10)


def test_eigenvalues_at_pseudo_dp(model, pseudo_dp):
    e = np.linalg.eigvals(hamiltonian_at(model, pseudo_dp))
    e = e[np.argsort(e.imag)]
    ref = np.array([4 - 3.79878j, 4 - np.sqrt(2) * 1j, 4 - np.sqrt(2) * 1j,
                    4 + 0.263243j])
    np.testing.assert_allclose(e, ref, atol=1e-5)


def test_family_restriction(model):
    family = model.family()
    X = np.eye(4)[:, :2]
    np.testing.assert_allclose(family.restricted(X).matrix(0.1),
                               family.matrix(0.1)[:2, :2])


def test_scaled_model(model):
    scaled = model.scaled(2.5)
    assert [l.epsilon for l in scaled.levels] == [0.0, 2.5, 5.0]
    with pytest.raises(InvalidModelError):
        model.scaled(-1.0)
