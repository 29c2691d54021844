import math

import numpy as np
import pytest
from scipy import sparse

from vdicke.errors import CapacityError
from vdicke.exactdiag import (
    SymmetricBasis,
    TruncatedSpace,
    build_basis,
    build_hamiltonian,
    collective_operator,
    converge_cutoffs,
    default_cutoffs,
    ground_state,
    lowest_two,
    observables,
    parity_check,
    parity_operators,
    solve_point,
    truncated_space,
)
from vdicke.model import ModelParams


def _swap_params(p: ModelParams) -> ModelParams:
    """Relabel the two branches: levels 2<->3 together with modes a<->b."""
    return ModelParams(omega21=p.omega31, omega31=p.omega21,
                       omega_a=p.omega_b, omega_b=p.omega_a,
                       g1=p.g2, g2=p.g1)


# ---------------------------------------------------------------------------
# basis bookkeeping

def test_basis_size_is_triangular():
    for n in (1, 2, 3, 7, 12):
        basis = build_basis(n)
        assert basis.size == (n + 1) * (n + 2) // 2
        assert len(basis.states) == basis.size
        for n1, n2, n3 in basis.states:
            assert n1 + n2 + n3 == n
            assert min(n1, n2, n3) >= 0


def test_basis_enumeration_order():
    basis = build_basis(2)
    assert basis.states == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0),
        (1, 0, 1), (0, 1, 1),
        (0, 0, 2),
    )
    with pytest.raises(ValueError):
        build_basis(0)


def test_single_atom_operators_are_matrix_units():
    basis = build_basis(1)
    # basis order (1,0,0), (0,1,0), (0,0,1) = levels 1, 2, 3
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            ref = np.zeros((3, 3))
            ref[m - 1, n - 1] = 1.0
            got = collective_operator(basis, m, n).toarray()
            assert np.array_equal(got, ref), (m, n)


def test_collective_amplitude_sqrt2_for_two_atoms():
    basis = build_basis(2)
    j13 = collective_operator(basis, 1, 3)
    i_from = basis.states.index((1, 0, 1))
    i_to = basis.states.index((2, 0, 0))
    assert j13[i_to, i_from] == math.sqrt(2.0)


def test_collective_operators_match_explicit_two_atom_tensor():
    # symmetrize the raw two-atom space by hand and conjugate
    basis = build_basis(2)
    iso = np.zeros((9, basis.size))
    for col, (n1, n2, n3) in enumerate(basis.states):
        levels = [0] * n1 + [1] * n2 + [2] * n3
        la, lb = levels
        if la == lb:
            iso[3 * la + lb, col] = 1.0
        else:
            iso[3 * la + lb, col] = 1.0 / math.sqrt(2.0)
            iso[3 * lb + la, col] = 1.0 / math.sqrt(2.0)
    eye = np.eye(3)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            unit = np.zeros((3, 3))
            unit[m - 1, n - 1] = 1.0
            full = np.kron(unit, eye) + np.kron(eye, unit)
            projected = iso.T @ full @ iso
            got = collective_operator(basis, m, n).toarray()
            assert np.allclose(got, projected, rtol=0, atol=1e-14), (m, n)


def test_operator_index_validation():
    basis = build_basis(2)
    with pytest.raises(ValueError):
        collective_operator(basis, 0, 1)
    with pytest.raises(ValueError):
        collective_operator(basis, 1, 4)


# ---------------------------------------------------------------------------
# Hamiltonian assembly

def test_hamiltonian_is_real_symmetric():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7,
                    g1=0.8, g2=0.5)
    space = TruncatedSpace(build_basis(3), 4, 5)
    h = build_hamiltonian(p, space)
    assert h.shape == (space.dimension, space.dimension)
    assert h.dtype == np.float64
    assert abs(h - h.T).max() == 0.0


def test_decoupled_hamiltonian_is_diagonal_with_known_spectrum():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7)
    space = TruncatedSpace(build_basis(2), 2, 2)
    h = build_hamiltonian(p, space).toarray()
    assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
    # diagonal entry = omega21*n2 + omega31*n3 + omega_a*ia + omega_b*ib
    expected = []
    for n1, n2, n3 in space.basis.states:
        for ia in range(3):
            for ib in range(3):
                expected.append(0.9 * n2 + 1.4 * n3 + 1.1 * ia + 0.7 * ib)
    assert np.allclose(np.diagonal(h), expected, rtol=0, atol=1e-15)


def test_capacity_limit_raises_before_allocation():
    space = TruncatedSpace(build_basis(10), 40, 40)
    with pytest.raises(CapacityError):
        build_hamiltonian(ModelParams(g1=0.7), space, dim_limit=1000)
    # the dimension is checked before the basis is enumerated: a basis of
    # 5e11 states is never built
    with pytest.raises(CapacityError, match="dimension limit 2000000"):
        truncated_space(10 ** 6, 8, 8)
    with pytest.raises(CapacityError, match="dimension limit 1000"):
        truncated_space(10, 40, 40, dim_limit=1000)
    for bad in ((0, 8, 8), (-(10 ** 6), 8, 8), (3, 0, 8)):
        with pytest.raises(ValueError):
            truncated_space(*bad)
    small = truncated_space(10, 40, 40)
    assert small.dimension == space.dimension == 66 * 41 * 41


def test_exchange_relabeling_is_a_permutation_conjugation():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7,
                    g1=0.8, g2=0.5)
    basis = build_basis(3)
    index = {s: i for i, s in enumerate(basis.states)}
    p_atom = np.array([index[(s[0], s[2], s[1])] for s in basis.states])
    ca, cb = 3, 4
    h1 = build_hamiltonian(p, TruncatedSpace(basis, ca, cb)).toarray()
    h2 = build_hamiltonian(_swap_params(p), TruncatedSpace(basis, cb, ca)).toarray()
    # composite index (atom, ia, ib) -> (swapped atom, ib, ia)
    old = np.arange(h1.shape[0]).reshape(basis.size, ca + 1, cb + 1)
    perm = np.empty((basis.size, cb + 1, ca + 1), dtype=int)
    for i in range(basis.size):
        perm[p_atom[i]] = old[i].T
    perm = perm.reshape(-1)
    assert np.max(np.abs(h2 - h1[np.ix_(perm, perm)])) <= 1e-13


def test_exchange_relabeling_swaps_observables():
    p = ModelParams(omega21=1.0, omega31=1.3, omega_a=0.8, omega_b=1.1,
                    g1=0.9, g2=0.55)
    space = TruncatedSpace(build_basis(3), 8, 8)
    res = solve_point(p, 3, space=space)
    res_swapped = solve_point(_swap_params(p), 3, space=space)
    assert abs(res.energy - res_swapped.energy) < 1e-10
    assert abs(res.photon_a - res_swapped.photon_b) < 1e-10
    assert abs(res.photon_b - res_swapped.photon_a) < 1e-10
    assert abs(res.pop2 - res_swapped.pop3) < 1e-10
    assert abs(res.parity_l - res_swapped.parity_r) < 1e-10


# ---------------------------------------------------------------------------
# parity structure

def test_parity_operators_square_to_identity_and_factorize():
    space = TruncatedSpace(build_basis(2), 3, 4)
    pl, pr, pg = parity_operators(space)
    eye = sparse.identity(space.dimension)
    for op in (pl, pr, pg):
        assert abs(op @ op - eye).max() == 0.0
    assert abs(pg - pl @ pr).max() == 0.0


def test_parity_commutes_with_hamiltonian():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        space = TruncatedSpace(build_basis(n), int(rng.integers(2, 7)),
                               int(rng.integers(2, 7)))
        assert parity_check(p, space) <= 1e-10


# ---------------------------------------------------------------------------
# eigensolver

def test_decoupled_ground_state_is_the_vacuum():
    p = ModelParams()
    space = TruncatedSpace(build_basis(4), 3, 3)
    h = build_hamiltonian(p, space)
    e0, vec = ground_state(h)
    # the vacuum sits at exactly zero; the Lanczos path must not skip
    # it even though the matrix annihilates that basis vector
    assert abs(e0) < 1e-12
    res = observables(p, space, vec, energy=e0)
    assert res.photon_a < 1e-12 and res.photon_b < 1e-12
    assert res.pop2 < 1e-12 and res.pop3 < 1e-12
    assert abs(res.parity_l - 1.0) < 1e-12
    assert abs(res.parity_r - 1.0) < 1e-12
    assert abs(res.parity_g - 1.0) < 1e-12
    e0_, e1, _ = lowest_two(h)
    assert abs(e0_) < 1e-12
    assert abs(e1 - 1.0) < 1e-10


def test_sparse_ground_state_matches_dense_on_random_points():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        p = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        space = TruncatedSpace(build_basis(n), int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        h = build_hamiltonian(p, space)
        e0, _ = ground_state(h)
        dense = np.linalg.eigvalsh(h.toarray())
        assert abs(e0 - dense[0]) < 1e-9 * max(1.0, abs(dense[0]))


def test_ground_state_is_seed_deterministic():
    p = ModelParams(omega31=1.7, g1=0.9, g2=0.6)
    space = TruncatedSpace(build_basis(3), 8, 8)
    h = build_hamiltonian(p, space)
    e_a, v_a = ground_state(h, seed=123)
    e_b, v_b = ground_state(h, seed=123)
    assert e_a == e_b
    assert np.array_equal(v_a, v_b)
    e_c, _ = ground_state(h, seed=7)
    assert abs(e_a - e_c) < 1e-9


def test_lowest_two_orders_the_doublet():
    # deep in the condensed regime the two parity sectors are nearly
    # degenerate; the solver must still resolve and order them
    p = ModelParams(g1=1.2)
    space = TruncatedSpace(build_basis(4), 14, 4)
    h = build_hamiltonian(p, space)
    e0, e1, vec = lowest_two(h)
    dense = np.linalg.eigvalsh(h.toarray())
    assert abs(e0 - dense[0]) < 1e-9
    assert abs(e1 - dense[1]) < 1e-9
    assert e1 >= e0
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# observables and cutoff management

def test_observables_against_dense_expectation_values():
    p = ModelParams(omega31=1.3, g1=0.85, g2=0.4)
    space = TruncatedSpace(build_basis(2), 6, 6)
    h = build_hamiltonian(p, space)
    vals, vecs = np.linalg.eigh(h.toarray())
    vec = vecs[:, 0]
    res = observables(p, space, vec, energy=float(vals[0]))
    na = space.cutoff_a + 1
    weights = (vec.reshape(space.basis.size, na, -1)) ** 2
    photon_a = (weights.sum(axis=(0, 2)) * np.arange(na)).sum() / 2
    assert abs(res.photon_a - photon_a) < 1e-13
    pops = weights.sum(axis=(1, 2))
    pop3 = sum(w * s[2] for w, s in zip(pops, space.basis.states)) / 2
    assert abs(res.pop3 - pop3) < 1e-13


def test_default_cutoffs_grow_with_the_condensate():
    lo = default_cutoffs(ModelParams(), 10)
    hi = default_cutoffs(ModelParams(g1=1.0), 10)
    assert lo == (10, 10)
    assert hi[0] > lo[0]          # mode a must make room for the field
    assert hi[1] == lo[1]


def test_converge_cutoffs_settles_immediately_when_decoupled():
    space, trace = converge_cutoffs(ModelParams(), 3)
    assert (space.cutoff_a, space.cutoff_b) == (10, 10)
    assert len(trace) == 2        # one doubling to confirm
    assert trace[0]["dimension"] < trace[1]["dimension"]
    for entry in trace:
        assert abs(entry["photon_a"]) < 1e-10
        assert abs(entry["energy"]) < 1e-9


def test_converge_cutoffs_capacity_error_carries_trace():
    with pytest.raises(CapacityError) as err:
        converge_cutoffs(ModelParams(g1=0.9), 6, dim_limit=20_000)
    assert isinstance(err.value.trace, list)


def test_solve_point_with_gap():
    res = solve_point(ModelParams(omega31=1.7, g1=0.8, g2=0.3), 2,
                      with_gap=True)
    assert res.gap is not None and res.gap > 0.0
    assert res.cutoff_a >= 8 and res.cutoff_b >= 8
    no_gap = solve_point(ModelParams(omega31=1.7, g1=0.8, g2=0.3), 2)
    assert no_gap.gap is None
    assert abs(no_gap.energy - res.energy) < 1e-9
