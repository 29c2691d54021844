import ast
import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vdicke import exactdiag
from vdicke.cli import run as cli_run
from vdicke.errors import CapacityError, ConvergenceError
from vdicke.exactdiag import (
    PARITY_SECTORS,
    TruncatedSpace,
    build_hamiltonian,
    converge_cutoffs,
    ground_state,
    lowest_two,
    observables,
    parity_commutator_norms,
    parity_operators,
    solve_point,
)
from vdicke.meanfield import classify_arrays, stationary_branches
from vdicke.model import ModelParams
from vdicke.scan import ed_sweep


def _swap_params(p: ModelParams) -> ModelParams:
    """Relabel the two branches: levels 2<->3 together with modes a<->b."""
    return ModelParams(omega21=p.omega31, omega31=p.omega21,
                       omega_a=p.omega_b, omega_b=p.omega_a,
                       g1=p.g2, g2=p.g1)


def test_mirrored_is_the_branch_swap_and_an_involution():
    for p in (ModelParams(), ModelParams(1.0, 1.7, 0.8, 1.3, 0.75, 0.6),
              ModelParams(omega31=2.0, omega_b=0.5, g1=0.4)):
        assert p.mirrored() == _swap_params(p)
        assert p.mirrored().mirrored() == p


# ---------------------------------------------------------------------------
# basis bookkeeping

def _enumerated_states(n_atoms: int) -> list[tuple[int, int, int]]:
    """Every occupation (n1, n2, n3) of n_atoms atoms, lexicographic in (n3, n2)."""
    return sorted((s for s in itertools.product(range(n_atoms + 1), repeat=3)
                   if sum(s) == n_atoms), key=lambda s: (s[2], s[1]))


def test_atomic_layout_is_the_basis_order():
    for n in range(1, 13):
        states = _enumerated_states(n)
        assert len(states) == (n + 1) * (n + 2) // 2 == TruncatedSpace(n, 1, 1).shape[0]
        n2, n3 = exactdiag._atomic_states(n)
        assert list(zip(n2.tolist(), n3.tolist())) == [(s[1], s[2]) for s in states]
        assert np.array_equal(exactdiag._atom_index(n, n2, n3), np.arange(len(states)))
        # and the other way round, from every (n2, n3) with n2 + n3 <= n
        pairs = np.array([(a, b) for a in range(n + 1) for b in range(n + 1 - a)])
        positions = exactdiag._atom_index(n, pairs[:, 0], pairs[:, 1])
        assert sorted(positions.tolist()) == list(range(len(states)))
        assert np.array_equal(n2[positions], pairs[:, 0])
        assert np.array_equal(n3[positions], pairs[:, 1])


def test_basis_enumeration_order():
    assert _enumerated_states(2) == [
        (2, 0, 0), (1, 1, 0), (0, 2, 0),
        (1, 0, 1), (0, 1, 1),
        (0, 0, 2),
    ]
    n2, n3 = exactdiag._atomic_states(2)
    assert n2.tolist() == [0, 1, 2, 0, 1, 0] and n3.tolist() == [0, 0, 0, 1, 1, 2]


# ---------------------------------------------------------------------------
# Hamiltonian assembly

def _explicit_hamiltonian(p: ModelParams, n_atoms: int, cutoff_a: int, cutoff_b: int):
    """Dense H on (3 levels)^N x mode a x mode b, built atom by atom."""
    def unit(m, n):
        out = np.zeros((3, 3))
        out[m - 1, n - 1] = 1.0
        return out

    def collective(op):
        # sum over atoms j of op acting on atom j alone
        total = 0.0
        for j in range(n_atoms):
            term = np.eye(1)
            for k in range(n_atoms):
                term = np.kron(term, op if k == j else np.eye(3))
            total = total + term
        return total

    def position(levels):
        lower = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
        return lower + lower.T

    ia, ib = np.eye(cutoff_a + 1), np.eye(cutoff_b + 1)
    atoms = np.eye(3 ** n_atoms)
    coupling = 1.0 / math.sqrt(n_atoms)
    return (p.omega21 * np.kron(np.kron(collective(unit(2, 2)), ia), ib)
            + p.omega31 * np.kron(np.kron(collective(unit(3, 3)), ia), ib)
            + p.omega_a * np.kron(np.kron(atoms, np.diag(np.arange(cutoff_a + 1.0))), ib)
            + p.omega_b * np.kron(np.kron(atoms, ia), np.diag(np.arange(cutoff_b + 1.0)))
            + p.g1 * coupling * np.kron(np.kron(collective(unit(1, 3) + unit(3, 1)),
                                                position(cutoff_a + 1)), ib)
            + p.g2 * coupling * np.kron(np.kron(collective(unit(1, 2) + unit(2, 1)), ia),
                                        position(cutoff_b + 1)))


def _symmetric_isometry(n_atoms: int) -> np.ndarray:
    """Columns: the normalized symmetric product states, in basis order."""
    index = {state: i for i, state in enumerate(_enumerated_states(n_atoms))}
    iso = np.zeros((3 ** n_atoms, len(index)))
    for row, levels in enumerate(itertools.product(range(3), repeat=n_atoms)):
        iso[row, index[tuple(levels.count(level) for level in range(3))]] = 1.0
    return iso / np.linalg.norm(iso, axis=0)


def test_hamiltonian_matches_explicit_tensor_product():
    # project the explicit 3^N-atom Hamiltonian onto the symmetric sector
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        iso = _symmetric_isometry(n)
        for trial in range(4):
            p = ModelParams(
                omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
                omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
                g1=0.0 if trial == 0 else rng.uniform(0.0, 1.5),
                g2=0.0 if trial in (0, 1) else rng.uniform(0.0, 1.5))
            ca, cb = (1, 1) if trial == 0 else (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            full_iso = np.kron(np.kron(iso, np.eye(ca + 1)), np.eye(cb + 1))
            projected = full_iso.T @ _explicit_hamiltonian(p, n, ca, cb) @ full_iso
            space = TruncatedSpace(n, ca, cb)
            got = build_hamiltonian(p, space).toarray()
            assert np.max(np.abs(got - projected)) <= 1e-13, (n, trial, ca, cb)
            # each parity block is the projected H restricted to its states,
            # with the parities read off the basis enumeration itself
            occupations = np.array([(n2, n3, na, nb) for _, n2, n3 in _enumerated_states(n)
                                    for na in range(ca + 1) for nb in range(cb + 1)])
            n2, n3, na, nb = occupations.T
            for left, right in PARITY_SECTORS:
                mask = ((-1) ** (n3 + na) == left) & ((-1) ** (n2 + nb) == right)
                block = build_hamiltonian(p, replace(space, parities=(left, right))).toarray()
                expected = projected[np.ix_(mask, mask)]
                assert block.shape == expected.shape
                assert np.max(np.abs(block - expected)) <= 1e-13, (n, trial, left, right)


def test_hamiltonian_is_real_symmetric():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7,
                    g1=0.8, g2=0.5)
    space = TruncatedSpace(3, 4, 5)
    h = build_hamiltonian(p, space)
    assert h.shape == (space.dimension, space.dimension)
    assert h.dtype == np.float64
    dense = h.toarray()
    assert np.array_equal(dense, dense.T)


def test_decoupled_hamiltonian_is_diagonal_with_known_spectrum():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7)
    space = TruncatedSpace(2, 2, 2)
    h = build_hamiltonian(p, space).toarray()
    assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
    # diagonal entry = omega21*n2 + omega31*n3 + omega_a*ia + omega_b*ib
    expected = []
    for n1, n2, n3 in _enumerated_states(2):
        for ia in range(3):
            for ib in range(3):
                expected.append(0.9 * n2 + 1.4 * n3 + 1.1 * ia + 0.7 * ib)
    assert np.allclose(np.diagonal(h), expected, rtol=0, atol=1e-15)


def test_capacity_limit_raises_before_allocation(monkeypatch):
    # the dimension is checked when the space is constructed: the 5e11
    # atomic states of N = 10^6 are never enumerated
    with pytest.raises(CapacityError, match="dimension limit 2000000"):
        TruncatedSpace(10 ** 6, 8, 8)
    for bad in ((0, 8, 8), (-(10 ** 6), 8, 8), (3, 0, 8)):
        with pytest.raises(ValueError):
            TruncatedSpace(*bad)
    assert TruncatedSpace(10, 40, 40).dimension == 66 * 41 * 41
    # the limit is read at call time
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 1000)
    with pytest.raises(CapacityError, match="dimension limit 1000"):
        TruncatedSpace(10, 40, 40)


def test_exchange_relabeling_is_a_permutation_conjugation():
    p = ModelParams(omega21=0.9, omega31=1.4, omega_a=1.1, omega_b=0.7,
                    g1=0.8, g2=0.5)
    states = _enumerated_states(3)
    index = {s: i for i, s in enumerate(states)}
    p_atom = np.array([index[(s[0], s[2], s[1])] for s in states])
    ca, cb = 3, 4
    h1 = build_hamiltonian(p, TruncatedSpace(3, ca, cb)).toarray()
    h2 = build_hamiltonian(_swap_params(p), TruncatedSpace(3, cb, ca)).toarray()
    # composite index (atom, ia, ib) -> (swapped atom, ib, ia)
    old = np.arange(h1.shape[0]).reshape(len(states), ca + 1, cb + 1)
    perm = np.empty((len(states), cb + 1, ca + 1), dtype=int)
    for i in range(len(states)):
        perm[p_atom[i]] = old[i].T
    perm = perm.reshape(-1)
    assert np.max(np.abs(h2 - h1[np.ix_(perm, perm)])) <= 1e-13


def test_exchange_relabeling_swaps_observables():
    p = ModelParams(omega21=1.0, omega31=1.3, omega_a=0.8, omega_b=1.1,
                    g1=0.9, g2=0.55)
    space = TruncatedSpace(3, 8, 8)
    res = solve_point(p, space)
    res_swapped = solve_point(_swap_params(p), space)
    assert abs(res.energy - res_swapped.energy) < 1e-10
    assert abs(res.photon_a - res_swapped.photon_b) < 1e-10
    assert abs(res.photon_b - res_swapped.photon_a) < 1e-10
    assert abs(res.pop2 - res_swapped.pop3) < 1e-10
    assert abs(res.parity_l - res_swapped.parity_r) < 1e-10


# ---------------------------------------------------------------------------
# parity structure

def test_parity_operators_square_to_identity_and_factorize():
    space = TruncatedSpace(2, 3, 4)
    pl, pr, pg = parity_operators(space)
    for op in (pl, pr, pg):
        assert op.shape == (space.dimension,)
        assert np.array_equal(op * op, np.ones(space.dimension))
    assert np.array_equal(pg, pl * pr)


def test_parity_commutes_with_hamiltonian():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        space = TruncatedSpace(n, int(rng.integers(2, 7)),
                               int(rng.integers(2, 7)))
        assert max(parity_commutator_norms(p, space)) <= 1e-10


# ---------------------------------------------------------------------------
# eigensolver

def test_decoupled_ground_state_is_the_vacuum():
    p = ModelParams()
    space = TruncatedSpace(4, 3, 3)
    h = build_hamiltonian(p, space)
    e0, vec = ground_state(h)
    # the vacuum sits at exactly zero; the Lanczos path must not skip
    # it even though the matrix annihilates that basis vector
    assert abs(e0) < 1e-12
    res = observables(space, vec, energy=e0)
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
        space = TruncatedSpace(n, int(rng.integers(3, 7)),
                               int(rng.integers(3, 7)))
        h = build_hamiltonian(p, space)
        e0, _ = ground_state(h)
        dense = np.linalg.eigvalsh(h.toarray())
        assert abs(e0 - dense[0]) < 1e-9 * max(1.0, abs(dense[0]))


def test_ground_state_is_seed_deterministic():
    p = ModelParams(omega31=1.7, g1=0.9, g2=0.6)
    space = TruncatedSpace(3, 8, 8)
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
    space = TruncatedSpace(4, 14, 4)
    h = build_hamiltonian(p, space)
    e0, e1, vec = lowest_two(h)
    dense = np.linalg.eigvalsh(h.toarray())
    assert abs(e0 - dense[0]) < 1e-9
    assert abs(e1 - dense[1]) < 1e-9
    assert e1 >= e0
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_operator_counts_and_applies_its_stored_entries():
    rng = np.random.default_rng(5)
    sector = TruncatedSpace(3, 4, 5, (1, -1))
    h = build_hamiltonian(ModelParams(omega31=1.4, g1=0.8, g2=0.5), sector)
    dense = h.toarray()
    # every hop is stored, and so is every diagonal entry, the zero ones too
    assert h.nnz == h.shape[0] + np.count_nonzero(dense - np.diag(np.diagonal(dense)))
    assert build_hamiltonian(ModelParams(omega31=1.4), sector).nnz == h.nnz
    for _ in range(3):
        x = rng.standard_normal(h.shape[0])
        assert np.max(np.abs(h @ x - dense @ x)) <= 1e-13


def test_lanczos_matches_dense_eigh_on_random_sectors():
    rng = np.random.default_rng(61)
    cases = 0
    for trial in range(60):
        p = _random_params(rng, *((0.0, 1.5), (1.5, 3.0))[trial % 2])
        if trial % 10 == 0:  # decoupled, with degenerate levels
            p = ModelParams(g1=0.0, g2=0.0)
        space = TruncatedSpace(int(rng.integers(2, 6)), int(rng.integers(3, 12)),
                               int(rng.integers(3, 12)))
        h = build_hamiltonian(p, replace(space, parities=PARITY_SECTORS[trial % 4]))
        if h.shape[0] <= exactdiag._DENSE_THRESHOLD:
            continue
        dense = np.linalg.eigvalsh(h.toarray())
        tol = 1e-10 * max(1.0, exactdiag._h_scale(h))
        k = 1 + trial % 2
        vals, vecs = exactdiag.eigsh(h, k=k, v0=rng.standard_normal(h.shape[0]), tol=tol)
        assert np.max(np.abs(vals - dense[:k])) <= tol, (trial, vals, dense[:k])
        # orthonormal to rounding: a basis that lost its orthogonality shows here
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-13, trial
        for value, vec in zip(vals, vecs.T):
            assert np.linalg.norm(h @ vec - value * vec) <= 2 * tol, trial
        cases += 1
    assert cases >= 40


def _arpack_lowest(h, k: int) -> np.ndarray:
    """scipy's ARPACK on the operator's stored entries, converged to 1e-12 relative."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh as arpack

    dim = h.shape[0]
    rows = np.concatenate([np.arange(dim), np.repeat(np.arange(dim), exactdiag.HOP_COLUMNS)])
    cols = np.concatenate([np.arange(dim), h.partners.ravel()])
    csr = sparse.csr_matrix((np.concatenate([h.diagonal, h.values.ravel()]), (rows, cols)),
                            shape=h.shape)
    return np.sort(arpack(csr, k=k, which="SA", tol=1e-12, v0=np.ones(dim),
                          return_eigenvectors=False))


@pytest.mark.parametrize("n_atoms, cutoffs, params", [
    (6, (16, 12), ModelParams(g1=0.9, g2=0.8)),
    (8, (12, 12), ModelParams(g1=0.75, g2=0.75)),  # the degenerate diagonal
    (8, (18, 10), ModelParams(omega31=1.7, g1=0.9, g2=0.76)),  # in the bistable wedge
    (10, (16, 10), ModelParams(omega31=1.7, g1=0.94, g2=0.8)),
])
def test_lanczos_matches_arpack_on_sectors(n_atoms, cutoffs, params):
    space = TruncatedSpace(n_atoms, *cutoffs)
    for left, right in ((1, 1), (1, -1)):
        h = build_hamiltonian(params, replace(space, parities=(left, right)))
        bound = 1e-8 * max(1.0, exactdiag._h_scale(h))
        expected = _arpack_lowest(h, 2)
        energy, vec = ground_state(h, tol=1e-8)
        assert abs(energy - expected[0]) <= bound, (left, right)
        assert np.linalg.norm(h @ vec - energy * vec) <= bound
        e0, e1, _ = lowest_two(h, tol=1e-8)
        assert abs(e0 - expected[0]) <= bound and abs(e1 - expected[1]) <= bound
        assert abs((e1 - e0) - (expected[1] - expected[0])) <= 2 * bound


def test_lanczos_started_on_an_eigenvector():
    # decoupled, every basis vector is an eigenvector: the first step breaks down
    h = build_hamiltonian(ModelParams(), TruncatedSpace(4, 3, 3, (1, 1)))
    levels = np.sort(h.diagonal)
    for start in (np.argmin(h.diagonal), np.argmax(h.diagonal)):
        v0 = np.zeros(h.shape[0])
        v0[start] = 1.0
        for k in (1, 2):
            vals, vecs = exactdiag.eigsh(h, k=k, v0=v0, tol=1e-12)
            assert np.max(np.abs(vals - levels[:k])) <= 1e-12, (start, k)
            assert np.linalg.norm(h @ vecs[:, 0]) <= 1e-12
    # coupled: a start on the ground vector or on an excited one still ends on the lowest
    h = build_hamiltonian(ModelParams(g1=0.9, g2=0.8), TruncatedSpace(3, 8, 8, (1, 1)))
    dense_vals, dense_vecs = np.linalg.eigh(h.toarray())
    tol = 1e-10 * max(1.0, exactdiag._h_scale(h))
    for start, k in ((0, 1), (0, 2), (2, 1), (2, 2)):
        vals, _ = exactdiag.eigsh(h, k=k, v0=dense_vecs[:, start], tol=tol)
        assert np.max(np.abs(vals - dense_vals[:k])) <= tol, (start, k)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_lanczos_restarts_rotated_in_column_blocks_match_dense_eigh(block, monkeypatch):
    # a restart rotates the basis LANCZOS_BLOCK columns at a time: blocks of
    # one column, of a few and of a quarter of the 211 states (the last two short)
    monkeypatch.setattr(exactdiag, "LANCZOS_BLOCK", block)
    h = build_hamiltonian(ModelParams(g1=0.9, g2=0.6), TruncatedSpace(3, 8, 8, (1, 1)))
    assert h.shape[0] > 3 * block
    dense = np.linalg.eigvalsh(h.toarray())
    tol = 1e-10 * max(1.0, exactdiag._h_scale(h))
    for k in (1, 2):
        operator = _CountingOperator(h)
        vals, vecs = exactdiag.eigsh(operator, k, exactdiag._seed_vector(h.shape[0], 0), tol)
        assert operator.matvecs > exactdiag.LANCZOS_BASIS  # the run restarted
        assert np.max(np.abs(vals - dense[:k])) <= tol, (block, k)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 1e-13
        for value, vec in zip(vals, vecs.T):
            assert np.linalg.norm(h @ vec - value * vec) <= 2 * tol


def test_a_lanczos_restart_allocates_a_column_block_not_a_basis():
    # on a diagonal operator a matvec allocates one vector, so the run's peak is
    # the basis (LANCZOS_BASIS + 1 vectors) and a few vectors more; a rotation of
    # the whole basis at once would add LANCZOS_KEEP more
    dim = 20_000

    class Diagonal:
        shape = (dim, dim)
        levels = np.concatenate([[0.9], np.linspace(1.0, 2.0, dim - 1)])

        def __matmul__(self, x):
            return self.levels * x

    operator = _CountingOperator(Diagonal())
    v0 = exactdiag._seed_vector(dim, 0)
    tracemalloc.start()
    try:
        vals, _ = exactdiag.eigsh(operator, 1, v0, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(vals[0] - 0.9) <= 1e-6 and operator.matvecs > exactdiag.LANCZOS_BASIS
    vector = 8 * dim
    assert peak <= (exactdiag.LANCZOS_BASIS + 1 + exactdiag.LANCZOS_KEEP / 2) * vector, peak / vector


def test_seed_vector_is_a_hash_of_the_seed_and_its_stream():
    # deterministic per (dimension, seed, stream) and of unit norm; any seed >= 0
    # is taken, 2**64 and beyond too, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim, seed in ((17, 0), (1000, 1), (300, 2 ** 64), (5, 2 ** 200 + 7)):
            v = exactdiag._seed_vector(dim, seed)
            assert v.shape == (dim,) and abs(np.linalg.norm(v) - 1.0) <= 1e-14
            np.testing.assert_array_equal(v, exactdiag._seed_vector(dim, seed))
        # the stream and every word of the seed count, a zero high word too
        vectors = [exactdiag._seed_vector(100, seed, stream) for seed, stream in
                   ((0, exactdiag._START), (0, exactdiag._RESTART), (3, exactdiag._RESTART),
                    (1, exactdiag._START), (2 ** 64, exactdiag._START),
                    (2 ** 64 + 1, exactdiag._START), (2 ** 128 + 1, exactdiag._START))]
    for a, b in itertools.combinations(vectors, 2):
        assert np.abs(a - b).max() > 0.1
    # counter-based: a longer vector begins with the shorter one's entries, up to the norm
    longer = exactdiag._seed_vector(400, 0)
    np.testing.assert_allclose(longer[:100] / np.linalg.norm(longer[:100]), vectors[0], rtol=1e-13)


def test_ground_state_through_a_linear_operator_wrapper(monkeypatch):
    # the benchmark's tracer hands eigsh a scipy LinearOperator that counts matvecs
    from scipy.sparse.linalg import LinearOperator

    h = build_hamiltonian(ModelParams(g1=0.9, g2=0.8),
                          TruncatedSpace(6, 20, 20, (1, 1)))
    energy, vec = ground_state(h, tol=1e-8)
    solve, matvecs = exactdiag.eigsh, []

    def wrapped(a, *args, **kwargs):
        def matvec(x):
            matvecs.append(1)
            return a @ x

        return solve(LinearOperator(a.shape, matvec=matvec, dtype=a.dtype), *args, **kwargs)

    monkeypatch.setattr(exactdiag, "eigsh", wrapped)
    assert ground_state(h, tol=1e-8) == (energy, pytest.approx(vec, abs=0, rel=0))
    assert len(matvecs) > 20  # more than one Lanczos cycle, all through the wrapper


class _CountingOperator:
    """``a`` seen through its shape and its products alone, counting the products."""

    def __init__(self, a):
        self.a, self.shape, self.matvecs = a, a.shape, 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.a @ x


def test_lanczos_reads_its_residuals_once_per_cycle(monkeypatch):
    # a run stops only at the end of a cycle, so on a space larger than the
    # basis it costs LANCZOS_BASIS matvecs plus LANCZOS_BASIS - LANCZOS_KEEP per
    # restart: seeded and warm ground solves across a growing sweep, and a point's
    # sector grounds and its two-level solve
    basis, keep = exactdiag.LANCZOS_BASIS, exactdiag.LANCZOS_KEEP
    runs, eigsh = [], exactdiag.eigsh

    def counted(a, *args):
        operator = _CountingOperator(a)
        result = eigsh(operator, *args)
        runs.append((a.shape[0], operator.matvecs))
        return result

    monkeypatch.setattr(exactdiag, "eigsh", counted)
    ed_sweep(ModelParams(), np.linspace(0.5, 1.0, 6), 0.75, 4)
    solve_point(ModelParams(g1=0.9, g2=0.6), TruncatedSpace(3, 8, 8))
    matvecs = [count for dim, count in runs if dim > basis]
    assert len(matvecs) >= 20
    assert all(count >= basis and (count - basis) % (basis - keep) == 0
               for count in matvecs), matvecs
    assert max(matvecs) > basis  # some runs restarted


# ---------------------------------------------------------------------------
# observables and cutoff management

def test_observables_against_dense_expectation_values():
    p = ModelParams(omega31=1.3, g1=0.85, g2=0.4)
    space = TruncatedSpace(2, 6, 5)
    h = build_hamiltonian(p, space)
    vals, vecs = np.linalg.eigh(h.toarray())
    # every observable is diagonal: its value on each basis vector, in
    # basis order (atomic state, then mode a, then mode b)
    names = ("photon_a", "photon_b", "pop2", "pop3", "parity_l", "parity_r", "parity_g")
    table = np.array([
        (ia / 2, ib / 2, n2 / 2, n3 / 2,
         (-1) ** (n3 + ia), (-1) ** (n2 + ib), (-1) ** (n2 + n3 + ia + ib))
        for _, n2, n3 in _enumerated_states(2) for ia in range(7) for ib in range(6)
    ], dtype=float)
    random = np.random.default_rng(3).standard_normal(space.dimension)
    for vec, energy in ((vecs[:, 0], float(vals[0])), (random / np.linalg.norm(random), 0.5)):
        res = observables(space, vec, energy=energy)
        assert res.energy == energy
        for name, expected in zip(names, vec ** 2 @ table):
            assert abs(getattr(res, name) - expected) < 1e-13, name


def test_converge_cutoffs_settles_immediately_when_decoupled():
    # the vacuum has no weight above n = 0: accepted at the floor (8, 8)
    # with no growth, then shrunk once to (2, 2), whose top two levels are 1
    # and 2; the vacuum is exact there too
    space, trace, _ = converge_cutoffs(ModelParams(), 3)
    assert (space.cutoff_a, space.cutoff_b) == (2, 2)
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in trace] == [(8, 8), (2, 2)]
    assert trace[0]["dimension"] > trace[1]["dimension"] == space.dimension
    for entry in trace:
        assert abs(entry["photon_a"]) < 1e-10
        assert abs(entry["energy"]) < 1e-9
        assert entry["weight_a"] < 1e-20 and entry["weight_b"] < 1e-20


def test_every_cutoff_search_starts_at_the_floor(monkeypatch):
    # the first truncation solved is (CUTOFF_FLOOR, CUTOFF_FLOOR), read at
    # call time, whatever the condensate
    for floor in (exactdiag.CUTOFF_FLOOR, 5):
        monkeypatch.setattr(exactdiag, "CUTOFF_FLOOR", floor)
        for p in (ModelParams(), ModelParams(g1=1.0, g2=0.75), ModelParams(g1=0.4, g2=1.1)):
            _, trace, _ = converge_cutoffs(p, 4)
            assert (trace[0]["cutoff_a"], trace[0]["cutoff_b"]) == (floor, floor), (floor, p)


def test_exactdiag_imports_nothing_from_meanfield():
    # the cutoffs come from the solved state alone, not from mean-field amplitudes
    tree = ast.parse(Path(exactdiag.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported and not any("meanfield" in name.split(".") for name in imported)


def test_converge_cutoffs_capacity_error_carries_trace(monkeypatch):
    # from a floor of (4, 4), mode a's tail weight fails and grows it; the
    # first growth step (to 6) fits under the limit, the second (to 9) does not
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 1000)
    monkeypatch.setattr(exactdiag, "CUTOFF_FLOOR", 4)
    with pytest.raises(CapacityError, match="dimension limit 1000") as err:
        converge_cutoffs(ModelParams(g1=0.9), 6)
    trace = err.value.trace
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in trace] == [(4, 4), (6, 4)]
    assert all(t["weight_a"] >= 1e-4 / exactdiag.TAIL_RATIO for t in trace)


def test_solve_point_with_gap():
    p = ModelParams(omega31=1.7, g1=0.8, g2=0.3)
    space = TruncatedSpace(2, 15, 10)
    res = solve_point(p, space)
    assert res.gap is not None and res.gap > 0.0
    assert res.cutoff_a >= 8 and res.cutoff_b >= 8
    # E0 from the two-level solve is the lowest of the sector ground solves
    grounds = [exactdiag._solve_sector(p, replace(space, parities=s), 1e-8, 0)
               for s in PARITY_SECTORS]
    assert abs(min(g.energy for g in grounds) - res.energy) < 1e-9


# ---------------------------------------------------------------------------
# parity sectors

def _sector_mask(space: TruncatedSpace, left: int, right: int) -> np.ndarray:
    """The sector's states among the whole-space basis, from the parity operators."""
    pl, pr, _ = parity_operators(space)
    return (pl == left) & (pr == right)


def test_sector_index_matches_an_enumeration_of_the_occupations():
    # independent of the module's hop table and parities: the basis runs over
    # the atomic states, then mode a's levels, then mode b's, so a state's
    # box index is its position in that product; its parities are computed
    # here, and so are the occupations the box and each block cache
    for n in range(1, 7):
        atomic = [(s[1], s[2]) for s in _enumerated_states(n)]
        for ca, cb in itertools.product(range(1, 9), repeat=2):
            occupations = np.array([(n2, n3, n_a, n_b) for (n2, n3), n_a, n_b
                                    in itertools.product(atomic, range(ca + 1), range(cb + 1))])
            states = [((-1) ** (n3 + n_a), (-1) ** (n2 + n_b)) for n2, n3, n_a, n_b in occupations]
            for parities in (None, *PARITY_SECTORS):
                expected = [i for i, state in enumerate(states) if parities in (None, state)]
                space = TruncatedSpace(n, ca, cb, parities)
                assert space.index.tolist() == expected, (n, ca, cb, parities)
                assert space.dimension == len(expected), (n, ca, cb, parities)
                assert np.array_equal(np.stack(space.occupations, axis=1),
                                      occupations[expected]), (n, ca, cb, parities)
                # both are computed once per value and read-only
                assert space.occupations is space.occupations and space.index is space.index
                assert not any(a.flags.writeable for a in (space.index, *space.occupations))


def _random_params(rng, g_low=0.0, g_high=1.5) -> ModelParams:
    return ModelParams(*rng.uniform(0.4, 2.0, 4), *rng.uniform(g_low, g_high, 2))


def test_sector_hamiltonian_is_the_whole_space_h_restricted():
    rng = np.random.default_rng(53)
    for trial in range(40):
        p = _random_params(rng)
        if trial % 4 == 0:
            p = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                            g1=0.0 if trial % 8 else p.g1, g2=0.0)
        space = TruncatedSpace(int(rng.integers(1, 6)),
                               int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        whole = build_hamiltonian(p, space).toarray()
        dimensions = 0
        for left, right in PARITY_SECTORS:
            sector = replace(space, parities=(left, right))
            mask = _sector_mask(space, left, right)
            block = build_hamiltonian(p, sector)
            assert sector.dimension == block.shape[0] == mask.sum()
            assert np.array_equal(block.toarray(), whole[np.ix_(mask, mask)]), (trial, left, right)
            dimensions += sector.dimension
        assert dimensions == space.dimension
    # parities are None or one of PARITY_SECTORS, and nothing else
    for bad in ((0, 1), (1, 2), (1,), (1, 1, 1), [1, 1], (True, -1.5), 1):
        with pytest.raises(ValueError, match="parities must be None or one of PARITY_SECTORS"):
            replace(space, parities=bad)


def _seeded_points(count: int, seed: int):
    """Small spaces with too-small cutoffs: generic, deep superradiant and g = 0 points."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = _random_params(rng, *((0.0, 1.5), (1.5, 3.0), (0.0, 3.0))[i % 3])
        if i % 3 == 2:
            g1, g2 = ((0.0, p.g2), (p.g1, 0.0), (0.0, 0.0))[i % 9 // 3]
            p = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b, g1=g1, g2=g2)
        space = TruncatedSpace(int(rng.integers(1, 5)),
                               int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        yield p, space


def test_solve_point_matches_the_dense_whole_space_spectrum():
    outside_even = 0
    for k, (p, space) in enumerate(_seeded_points(210, 8)):
        n = space.n_atoms
        dense = np.linalg.eigvalsh(build_hamiltonian(p, space).toarray())
        even = np.linalg.eigvalsh(build_hamiltonian(p, replace(space, parities=(1, 1))).toarray())
        outside_even += bool(even[0] > dense[0] + 1e-9)
        res = solve_point(p, space)
        assert abs(res.energy - dense[0]) <= 1e-9 * max(1.0, abs(dense[0])), (k, p, space)
        assert abs(res.gap - (dense[1] - dense[0])) <= 1e-9 * max(1.0, abs(dense[1])), (k, p)
        # the observables belong to the lowest sector's ground state
        assert abs(abs(res.parity_l) - 1.0) <= 1e-12 and abs(abs(res.parity_r) - 1.0) <= 1e-12
    # the set holds truncations whose ground state lies outside (+, +)
    assert outside_even >= 10


# fig4a runs the degenerate diagonal g2 = g1, fig4b the cut g2 = 0.75
FIXTURE_SWEEPS = {"fig4a": (np.linspace(0.4, 1.0, 13), None),
                  "fig4b": (np.linspace(0.5, 1.0, 21), 0.75)}


@pytest.mark.parametrize("n_atoms", [3, 4, 6])
@pytest.mark.parametrize("fixture", sorted(FIXTURE_SWEEPS))
def test_fixture_sweeps_match_whole_space_solves(fixture, n_atoms):
    g1, g2 = FIXTURE_SWEEPS[fixture]
    g2 = g1 if g2 is None else g2
    table = ed_sweep(ModelParams(), g1, g2, n_atoms)
    for i, (a, b) in enumerate(zip(table.g1, table.g2)):
        # each row against a cold solve on the whole truncation it reports
        space = TruncatedSpace(n_atoms, int(table.cutoff_a[i]), int(table.cutoff_b[i]))
        h = build_hamiltonian(ModelParams(g1=float(a), g2=float(b)), space)
        energy, vec = ground_state(h, tol=1e-8)
        whole = observables(space, vec, energy)
        assert abs(table.photon_a[i] - whole.photon_a) <= 1e-8, (fixture, n_atoms, i)
        assert abs(table.photon_b[i] - whole.photon_b) <= 1e-8, (fixture, n_atoms, i)


def test_warm_started_sweep_agrees_with_cold_solves():
    g1 = np.linspace(0.5, 1.0, 9)
    table = ed_sweep(ModelParams(), g1, 0.75, 4)
    for i, g in enumerate(g1):
        sector = TruncatedSpace(4, int(table.cutoff_a[i]), int(table.cutoff_b[i]), (1, 1))
        energy, vec = ground_state(build_hamiltonian(ModelParams(g1=g, g2=0.75), sector), tol=1e-8)
        cold = observables(sector, vec, energy)
        assert abs(table.photon_a[i] - cold.photon_a) <= 1e-8
        assert abs(table.photon_b[i] - cold.photon_b) <= 1e-8

    # a grown truncation starts from the smaller one's vector, zero-padded:
    # the padded vector is the same state
    p = ModelParams(g1=0.9, g2=0.75)
    small = TruncatedSpace(4, 10, 9, (1, 1))
    large = TruncatedSpace(4, 20, 18, (1, 1))
    energy, vec = ground_state(build_hamiltonian(p, small), tol=1e-8)
    padded = exactdiag._transfer(small, vec, large)
    assert np.linalg.norm(padded) == pytest.approx(1.0, abs=1e-14)
    for name in ("photon_a", "photon_b", "pop2", "pop3", "parity_l", "parity_r"):
        assert getattr(observables(large, padded, energy), name) == pytest.approx(
            getattr(observables(small, vec, energy), name), abs=1e-14)
    h_large = build_hamiltonian(p, large)
    assert float(padded @ (h_large @ padded)) == pytest.approx(energy, abs=1e-9)
    # a truncation only ever grows, so a vector is never moved to lower
    # cutoffs: the levels it would drop have no index there
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        exactdiag._transfer(large, padded, small)


def test_converge_cutoffs_refuses_a_truncation_with_its_ground_state_outside_even(monkeypatch):
    # at cutoffs (6, 6) the (+, -) block lies about 6.9e-4 below (+, +);
    # with tol = 50 the tail-weight bound is 0.5, above both weights (0.22),
    # and no shrink is allowed, so only the certificate keeps that
    # truncation out
    p, start = ModelParams(g1=2.5, g2=2.5), (6, 6)
    monkeypatch.setattr(exactdiag, "CUTOFF_FLOOR", 6)
    first = TruncatedSpace(3, *start)
    lowest = [np.linalg.eigvalsh(build_hamiltonian(p, replace(first, parities=s)).toarray())[0]
              for s in PARITY_SECTORS]
    assert min(lowest[1:]) < lowest[0] - 1e-4
    space, trace, _ = converge_cutoffs(p, 3, tol=50.0)
    assert (trace[0]["cutoff_a"], trace[0]["cutoff_b"]) == start
    assert max(trace[0]["weight_a"], trace[0]["weight_b"]) < 50.0 / exactdiag.TAIL_RATIO
    assert (space.cutoff_a, space.cutoff_b) != start
    assert len(trace) >= 2
    # on the accepted truncation (+, +) is lowest up to the solver's
    # eigenvalue tolerance, eig_tol times the scale of H
    dense = np.linalg.eigvalsh(build_hamiltonian(p, space).toarray())[0]
    h_even = build_hamiltonian(p, replace(space, parities=(1, 1)))
    even = np.linalg.eigvalsh(h_even.toarray())[0]
    assert even - dense <= 1e-8 * exactdiag._h_scale(h_even) < 1e-4

    # when the growth after the refusal hits the dimension limit, the
    # refusal carries the trace
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 500)
    with pytest.raises(CapacityError, match="dimension limit 500") as err:
        converge_cutoffs(p, 3, tol=50.0)
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in err.value.trace] == [start]


# ---------------------------------------------------------------------------
# tail-weight cutoffs against the doubling loop they replaced

CUTOFF_TOL = 1e-4  # converge_cutoffs' and ed_sweep's default


def _doubling_oracle(params: ModelParams, n_atoms: int, cutoffs: tuple[int, int],
                     tol: float):
    """The doubling loop converge_cutoffs used to run, from ``cutoffs``.

    (+, +) is solved cold and both cutoffs doubled until photon_a and
    photon_b settle within ``tol``.  Returns the photon numbers and the
    ground energy of the last, largest truncation, and the tail weights
    (top two Fock levels) of the first.
    """
    previous, weights = None, None
    while True:
        sector = TruncatedSpace(n_atoms, *cutoffs, (1, 1))
        energy, vec = ground_state(build_hamiltonian(params, sector), tol=1e-10)
        result = observables(sector, vec, energy)
        photons = np.array([result.photon_a, result.photon_b])
        if weights is None:
            weights = [m[-2:].sum() for m in exactdiag._marginals(sector, vec)]
        if previous is not None and np.all(np.abs(photons - previous) < tol):
            return photons, energy, weights
        previous = photons
        cutoffs = tuple(2 * c for c in cutoffs)


def _criterion_9_params(count: int):
    """The first ``count`` points that criterion 9 draws (its skipped spaces too)."""
    rng = np.random.default_rng(99)
    while count:
        n = int(rng.integers(2, 6))
        dimension = (n + 1) * (n + 2) // 2 * (int(rng.integers(3, 12)) + 1) \
            * (int(rng.integers(3, 12)) + 1)
        if dimension > 2000:
            continue
        yield n, ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
            g1=rng.uniform(0.0, 1.5), g2=rng.uniform(0.0, 1.5))
        count -= 1


# the four ED points of the point-query benchmark, at N = 5
QUERY_POINTS = [(5, ModelParams(g1=a, g2=b))
                for a, b in ((0.3, 0.3), (0.9, 0.6), (0.6, 0.9), (0.75, 0.75))]


@pytest.mark.parametrize("n_atoms, params", list(_criterion_9_params(4)) + QUERY_POINTS,
                         ids=[f"criterion-9-{i}" for i in range(4)]
                         + [f"query-{p.g1}-{p.g2}" for _, p in QUERY_POINTS])
def test_converged_cutoffs_meet_the_doubling_loop(n_atoms, params):
    space, trace, _ = converge_cutoffs(params, n_atoms, tol=CUTOFF_TOL)
    result = solve_point(params, space)
    photons, _, weights = _doubling_oracle(params, n_atoms, (space.cutoff_a, space.cutoff_b),
                                           CUTOFF_TOL / 10)
    assert max(weights) < CUTOFF_TOL / exactdiag.TAIL_RATIO
    assert abs(result.photon_a - photons[0]) <= CUTOFF_TOL / 10
    assert abs(result.photon_b - photons[1]) <= CUTOFF_TOL / 10
    accepted = [t for t in trace if (t["cutoff_a"], t["cutoff_b"]) == (space.cutoff_a,
                                                                        space.cutoff_b)]
    assert accepted and max(accepted[-1]["weight_a"], accepted[-1]["weight_b"]) < \
        CUTOFF_TOL / exactdiag.TAIL_RATIO


def _bistable_points() -> list[ModelParams]:
    """The mean-field bistable points of a 25 x 25 grid over fig2a's window
    (omega31 = 1.7, each coupling up to twice its bare threshold)."""
    g1, g2 = np.linspace(0.0, 1.30384048104053, 25), np.linspace(0.0, 1.0, 25)
    bistable = classify_arrays(1.0, 1.7, 1.0, 1.0, g1[:, None], g2[None, :]).bistable
    return [ModelParams(omega31=1.7, g1=float(g1[i]), g2=float(g2[j]))
            for i, j in zip(*np.nonzero(bistable))]


def _branch_covering_floor(params: ModelParams, n_atoms: int) -> int:
    """A square start that holds every physical mean-field branch in both
    modes: 6 N phi^2 + 10 at the largest squared field amplitude."""
    fields = [max(s.phi_a ** 2, s.phi_b ** 2) for s in stationary_branches(params) if s.physical]
    return math.ceil(6.0 * n_atoms * max(fields) + 10.0)


@pytest.mark.parametrize("n_atoms", [6, 8, 10])
def test_floor_start_holds_the_competing_condensates(n_atoms, monkeypatch):
    # where two condensates compete, a start too small for the losing well
    # could settle in the wrong one; the floor start must give the ground
    # state that a start holding every mean-field branch gives, and that
    # of the doubling loop from its own cutoffs
    points = _bistable_points()
    assert len(points) == 3
    for p in points:
        space, _, _ = converge_cutoffs(p, n_atoms)
        result = solve_point(p, space)
        with monkeypatch.context() as patch:
            start = _branch_covering_floor(p, n_atoms)
            patch.setattr(exactdiag, "CUTOFF_FLOOR", start)
            wide_space, trace, _ = converge_cutoffs(p, n_atoms)
        assert (trace[0]["cutoff_a"], trace[0]["cutoff_b"]) == (start, start)
        wide = solve_point(p, wide_space)
        photons, energy, _ = _doubling_oracle(p, n_atoms, (space.cutoff_a, space.cutoff_b),
                                              CUTOFF_TOL / 10)
        for reference in ((wide.photon_a, wide.photon_b, wide.energy), (*photons, energy)):
            assert abs(result.photon_a - reference[0]) <= CUTOFF_TOL / 10, (p, reference)
            assert abs(result.photon_b - reference[1]) <= CUTOFF_TOL / 10, (p, reference)
            assert abs(result.energy - reference[2]) / n_atoms <= CUTOFF_TOL / 100, (p, reference)


def test_every_sweep_row_holds_its_tail_weight():
    # fig4b's cut at N = 6: the first point (g1 = 0.5) needs little of mode
    # a, so the truncation converged there is too small for the last rows,
    # and only the check at every row grows it
    g1 = FIXTURE_SWEEPS["fig4b"][0]
    table = ed_sweep(ModelParams(), g1, 0.75, 6, cutoff_tol=CUTOFF_TOL)
    for i, g in enumerate(g1):
        cutoffs = (int(table.cutoff_a[i]), int(table.cutoff_b[i]))
        photons, _, weights = _doubling_oracle(ModelParams(g1=g, g2=0.75), 6, cutoffs,
                                               CUTOFF_TOL / 10)
        assert max(weights) < CUTOFF_TOL / exactdiag.TAIL_RATIO, (i, cutoffs, weights)
        assert abs(table.photon_a[i] - photons[0]) <= CUTOFF_TOL / 10, i
        assert abs(table.photon_b[i] - photons[1]) <= CUTOFF_TOL / 10, i
    first, _, _ = converge_cutoffs(ModelParams(g1=g1[0], g2=0.75), 6)
    assert (table.cutoff_a[0], table.cutoff_b[0]) == (first.cutoff_a, first.cutoff_b)
    assert table.cutoff_a[-1] > first.cutoff_a
    # and the last point's own truncation is too small for the first rows
    last, _, _ = converge_cutoffs(ModelParams(g1=g1[-1], g2=0.75), 6)
    assert table.cutoff_b[0] > last.cutoff_b


def test_sweep_resolves_every_row_when_its_last_growth_is_refused(monkeypatch):
    # N = 3 along g2 = 0.75 with tol = 20: the rows grow the truncation to
    # (12, 6), where the last row's (-, +) block lies about 1.2e-6 below
    # (+, +), twice the solver's error bound; the certificate grows it to
    # (18, 9), and every row is solved again there
    g1, p_last = np.linspace(0.3, 2.5, 6), ModelParams(g1=2.5, g2=0.75)
    refused = TruncatedSpace(3, 12, 6)
    blocks = [build_hamiltonian(p_last, replace(refused, parities=s)) for s in PARITY_SECTORS]
    lowest = [np.linalg.eigvalsh(h.toarray())[0] for h in blocks]
    assert lowest[2] < lowest[0] - 1e-8 * exactdiag._h_scale(blocks[2])
    space = TruncatedSpace(3, 18, 9)
    # the certificate alone, given (+, +)'s exact ground state, grows (12, 6) to
    # (18, 9) and returns the four sector solves there, (+, +) first
    even = exactdiag.SectorSolve(replace(refused, parities=(1, 1)), lowest[0],
                                 np.linalg.eigh(blocks[0].toarray())[1][:, 0],
                                 1e-8 * exactdiag._h_scale(blocks[0]))
    certified = exactdiag._hold_sector_order(p_last, even, 20.0, 1e-8, 0, [])
    assert [g.sector for g in certified] == [replace(space, parities=s) for s in PARITY_SECTORS]
    asked = []
    with monkeypatch.context() as patch:
        patch.setattr(exactdiag, "_hold_sector_order",
                      lambda params, even, *args: asked.append((params, even.sector))
                      or [even])
        uncertified = ed_sweep(ModelParams(), g1, 0.75, 3, cutoff_tol=20.0)
    assert (uncertified.cutoff_a[-1], uncertified.cutoff_b[-1]) == (12, 6)
    # the sweep asked about (12, 6) for the last row, the one that grew it last
    assert asked[-1] == (p_last, replace(refused, parities=(1, 1)))
    table = ed_sweep(ModelParams(), g1, 0.75, 3, cutoff_tol=20.0)
    assert set(zip(table.cutoff_a.tolist(), table.cutoff_b.tolist())) == {(18, 9)}
    dense = np.linalg.eigvalsh(build_hamiltonian(p_last, space).toarray())[0]
    h_even = build_hamiltonian(p_last, replace(space, parities=(1, 1)))
    assert np.linalg.eigvalsh(h_even.toarray())[0] - dense <= 1e-8 * exactdiag._h_scale(h_even)
    for i, g in enumerate(g1):
        sector = replace(space, parities=(1, 1))
        energy, vec = ground_state(build_hamiltonian(ModelParams(g1=g, g2=0.75), sector), tol=1e-8)
        cold = observables(sector, vec, energy)
        assert abs(table.photon_a[i] - cold.photon_a) <= 1e-8, i
        assert abs(table.photon_b[i] - cold.photon_b) <= 1e-8, i


def test_sweep_certificate_reuses_the_rows_even_solve(monkeypatch):
    # fig4b's cut at N = 6 grows its truncation; the certificate at the end
    # takes (+, +)'s energy from the warm solve of the row that grew it, so
    # at the truncation the sweep ends on it solves only the three other
    # sectors, one solve fewer than when it is handed (+, +)'s seed solve,
    # and it decides the same
    g1 = FIXTURE_SWEEPS["fig4b"][0]
    certify, build, solve = (exactdiag._hold_sector_order, exactdiag.build_hamiltonian,
                             exactdiag.ground_state)
    built, solves, certified = [], [], []
    monkeypatch.setattr(exactdiag, "build_hamiltonian",
                        lambda params, space: built.append(space) or build(params, space))
    monkeypatch.setattr(exactdiag, "ground_state",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))

    def recording(params, even, *args):
        before = len(built)
        grounds = certify(params, even, *args)
        certified.append((even.sector, grounds[0].sector, built[before:]))
        return grounds

    def seeded(params, even, tol, eig_tol, seed, *args):
        # the sweep's certificate (at a later row than the cutoff search's)
        # handed (+, +)'s seed solve in place of the row's warm one
        if params != g1_first:
            even = exactdiag._solve_sector(params, even.sector, eig_tol, seed)
        return certify(params, even, tol, eig_tol, seed, *args)

    g1_first = ModelParams(g1=g1[0], g2=0.75)
    tables, counts = [], []
    for certificate in (recording, seeded):
        monkeypatch.setattr(exactdiag, "_hold_sector_order", certificate)
        before = len(solves)
        tables.append(ed_sweep(ModelParams(), g1, 0.75, 6, cutoff_tol=CUTOFF_TOL))
        counts.append(len(solves) - before)
    assert tables[0].cutoff_a[-1] > tables[0].cutoff_a[0]  # the sweep grew
    even, accepted, sectors = certified[-1]
    assert (even.cutoff_a, even.cutoff_b) == (tables[0].cutoff_a[-1], tables[0].cutoff_b[-1])
    assert accepted == even == replace(even, parities=(1, 1))
    assert sectors == [replace(even, parities=s) for s in PARITY_SECTORS[1:]]
    assert counts[0] == counts[1] - 1
    for name in ("photon_a", "photon_b", "cutoff_a", "cutoff_b"):
        np.testing.assert_array_equal(getattr(tables[0], name), getattr(tables[1], name))


def test_lanczos_restarts_are_bounded(monkeypatch, capsys):
    h = build_hamiltonian(ModelParams(g1=0.9, g2=0.8),
                          TruncatedSpace(6, 30, 30, (1, 1)))
    ground_state(h, tol=1e-8)
    monkeypatch.setattr(exactdiag, "LANCZOS_MAXITER", 1)
    with pytest.raises(ConvergenceError, match="within LANCZOS_MAXITER = 1 restarts"):
        ground_state(h, tol=1e-8)
    assert cli_run(["ed", "--N", "6", "--g1", "0.9", "--g2", "0.8"]) == 3
    assert "LANCZOS_MAXITER = 1" in capsys.readouterr().err


def _even_block():
    """(+, +) of TruncatedSpace(3, 8, 8) at g1 = 0.9, g2 = 0.6: 200-odd states."""
    return build_hamiltonian(ModelParams(g1=0.9, g2=0.6),
                             TruncatedSpace(3, 8, 8, (1, 1)))


def test_a_missed_residual_is_a_convergence_error(monkeypatch, capsys):
    # one Lanczos run per solve: a pair that misses the acceptance bound is
    # refused with its residual and the bound, not solved again
    h = _even_block()
    bound = 1e-8 * max(1.0, exactdiag._h_scale(h))  # the acceptance bound at tol = 1e-8
    tolerances, eigsh = [], exactdiag.eigsh

    def degraded(a, k, v0, tol):  # every Ritz value raised by 1e-3, far above the bound
        tolerances.append(tol)
        values, vectors = eigsh(a, k, v0, tol)
        return values + 1e-3, vectors

    monkeypatch.setattr(exactdiag, "eigsh", degraded)
    with pytest.raises(ConvergenceError,
                       match=re.escape(f"above the acceptance bound {bound} ")) as refused:
        ground_state(h, tol=1e-8)
    assert tolerances == [bound * exactdiag.LANCZOS_STOP]
    assert refused.value.residual == pytest.approx(1e-3, rel=1e-3)
    assert f"residual {refused.value.residual} above" in str(refused.value)
    assert cli_run(["ed", "--N", "3", "--g1", "0.9", "--g2", "0.6", "--cutoff-a", "8",
                    "--cutoff-b", "8"]) == 3
    err = capsys.readouterr().err
    assert "did not converge" in err and "above the acceptance bound" in err


def test_ground_state_and_lowest_two_refuse_bad_settings_before_any_matvec(monkeypatch):
    # tol = inf would accept the start vector's Ritz values, and tol = nan or
    # a negative one would run every restart before giving up
    h = _even_block()
    assert h.shape[0] > exactdiag._DENSE_THRESHOLD

    def no_run(*args, **kwargs):
        raise AssertionError("Lanczos run with invalid settings")

    monkeypatch.setattr(exactdiag, "eigsh", no_run)
    for solve in (ground_state, lowest_two):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eigensolver tolerance tol must be finite"):
                solve(h, tol=bad)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            solve(h, seed=-1)


def _counted_solves(monkeypatch) -> list[str]:
    """The names of the sector and two-level solves made from here on, in order."""
    calls = []
    for name in ("ground_state", "lowest_two"):
        solve = getattr(exactdiag, name)
        monkeypatch.setattr(exactdiag, name, lambda *a, _name=name, _solve=solve, **k:
                            calls.append(_name) or _solve(*a, **k))
    return calls


def test_solve_point_reuses_the_certificate_solves(monkeypatch):
    # converge_cutoffs hands back its certificate's four sector solves on the
    # space it returns, (+, +) first; handed them, solve_point makes only its
    # two-level solve, and its result is the one it solves without them
    p = ModelParams(g1=0.9, g2=0.6)
    space, _, grounds = converge_cutoffs(p, 3)
    assert [g.sector for g in grounds] == [replace(space, parities=s) for s in PARITY_SECTORS]
    calls = _counted_solves(monkeypatch)
    reused = solve_point(p, space, grounds=grounds)
    assert calls == ["lowest_two"]
    del calls[:]
    assert solve_point(p, space) == reused
    assert calls == ["ground_state"] * 4 + ["lowest_two"]
    # only the sectors of ``space`` it is not handed are solved
    del calls[:]
    assert solve_point(p, space, grounds=grounds[1:]) == reused
    assert calls == ["ground_state", "lowest_two"]
    del calls[:]
    other = TruncatedSpace(3, space.cutoff_a + 1, space.cutoff_b)
    assert solve_point(p, other, grounds=grounds) == solve_point(p, other)
    assert calls == (["ground_state"] * 4 + ["lowest_two"]) * 2


def test_the_certificate_keeps_only_the_energies_of_the_other_sectors():
    # solve_point reads only the energies of the three sectors that are not
    # (+, +): each comes back with no vector, on a sector that caches nothing
    space, _, grounds = converge_cutoffs(ModelParams(g1=0.9, g2=0.6), 3)
    assert grounds[0].vector.shape == (grounds[0].sector.dimension,)
    for ground, parities in zip(grounds[1:], PARITY_SECTORS[1:]):
        assert ground.sector == replace(space, parities=parities)
        assert ground.vector is None and math.isfinite(ground.energy)
        assert not {"index", "occupations"} & set(vars(ground.sector))


def test_identical_ed_runs_do_identical_work(monkeypatch, tmp_path):
    # no solve outlives the run that made it: a second identical run in one
    # process solves as much as the first and writes the same bytes, and an
    # explicit-cutoff run on the truncation a converged run has just certified
    # solves all four sectors again
    calls = _counted_solves(monkeypatch)
    point = ["ed", "--N", "5", "--g1", "0.9", "--g2", "0.6"]
    counts, outputs = [], []
    for run in range(2):
        before, out = len(calls), tmp_path / f"run{run}.json"
        assert cli_run([*point, "--output", str(out)]) == 0
        counts.append(len(calls) - before)
        outputs.append(out.read_bytes())
    assert counts[0] == counts[1] > 5 and outputs[1] == outputs[0]
    converged = json.loads(outputs[0])
    del calls[:]
    assert cli_run([*point, "--cutoff-a", str(converged["cutoff_a"]), "--cutoff-b",
                    str(converged["cutoff_b"]), "--output", str(tmp_path / "cut.json")]) == 0
    assert calls == ["ground_state"] * 4 + ["lowest_two"]


def test_solver_settings_are_refused_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver called with invalid settings")

    monkeypatch.setattr(exactdiag, "ground_state", no_solve)
    monkeypatch.setattr(exactdiag, "lowest_two", no_solve)
    p = ModelParams(g1=0.6, g2=0.3)
    space = TruncatedSpace(2, 4, 4)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            converge_cutoffs(p, 2, tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance eig_tol must be finite"):
            converge_cutoffs(p, 2, eig_tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance tol must be finite"):
            solve_point(p, space, tol=bad)
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            ed_sweep(p, np.linspace(0.5, 1.0, 3), 0.3, 2, cutoff_tol=bad)
        # an empty sweep solves nothing, but refuses what a full one would
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            exactdiag.solve_sweep([], 3, tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance eig_tol must be finite"):
            exactdiag.solve_sweep([], 3, eig_tol=bad)
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            ed_sweep(p, [], 0.5, 3, cutoff_tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance eig_tol must be finite"):
            ed_sweep(p, [], 0.5, 3, eig_tol=bad)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        converge_cutoffs(p, 2, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        solve_point(p, space, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        exactdiag.solve_sweep([], 3, seed=-5)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ed_sweep(ModelParams(), [], 0.5, 3, seed=-2)
