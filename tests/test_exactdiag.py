import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from vdicke import exactdiag
from vdicke.cli import run as cli_run
from vdicke.errors import CapacityError, ConvergenceError
from vdicke.exactdiag import (
    PARITY_SECTORS,
    ParitySector,
    SymmetricBasis,
    TruncatedSpace,
    build_basis,
    build_hamiltonian,
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
from vdicke.scan import ed_sweep


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


def test_atomic_layout_is_the_basis_order():
    for n in range(1, 13):
        states = build_basis(n).states
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
    basis = build_basis(2)
    assert basis.states == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0),
        (1, 0, 1), (0, 1, 1),
        (0, 0, 2),
    )
    with pytest.raises(ValueError):
        build_basis(0)


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


def _symmetric_isometry(basis: SymmetricBasis) -> np.ndarray:
    """Columns: the normalized symmetric product states, in basis order."""
    index = {state: i for i, state in enumerate(basis.states)}
    iso = np.zeros((3 ** basis.n_atoms, basis.size))
    for row, levels in enumerate(itertools.product(range(3), repeat=basis.n_atoms)):
        iso[row, index[tuple(levels.count(level) for level in range(3))]] = 1.0
    return iso / np.linalg.norm(iso, axis=0)


def test_hamiltonian_matches_explicit_tensor_product():
    # project the explicit 3^N-atom Hamiltonian onto the symmetric sector
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        basis = build_basis(n)
        iso = _symmetric_isometry(basis)
        for trial in range(4):
            p = ModelParams(
                omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
                omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0),
                g1=0.0 if trial == 0 else rng.uniform(0.0, 1.5),
                g2=0.0 if trial in (0, 1) else rng.uniform(0.0, 1.5))
            ca, cb = (1, 1) if trial == 0 else (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            full_iso = np.kron(np.kron(iso, np.eye(ca + 1)), np.eye(cb + 1))
            projected = full_iso.T @ _explicit_hamiltonian(p, n, ca, cb) @ full_iso
            space = TruncatedSpace(basis, ca, cb)
            got = build_hamiltonian(p, space).toarray()
            assert np.max(np.abs(got - projected)) <= 1e-13, (n, trial, ca, cb)
            # each parity block is the projected H restricted to its states,
            # with the parities read off the basis enumeration itself
            occupations = np.array([(n2, n3, na, nb) for _, n2, n3 in basis.states
                                    for na in range(ca + 1) for nb in range(cb + 1)])
            n2, n3, na, nb = occupations.T
            for left, right in PARITY_SECTORS:
                mask = ((-1) ** (n3 + na) == left) & ((-1) ** (n2 + nb) == right)
                block = build_hamiltonian(p, ParitySector(space, left, right)).toarray()
                expected = projected[np.ix_(mask, mask)]
                assert block.shape == expected.shape
                assert np.max(np.abs(block - expected)) <= 1e-13, (n, trial, left, right)


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


def test_capacity_limit_raises_before_allocation(monkeypatch):
    space = TruncatedSpace(build_basis(10), 40, 40)
    # the dimension is checked before the basis is enumerated: a basis of
    # 5e11 states is never built
    with pytest.raises(CapacityError, match="dimension limit 2000000"):
        truncated_space(10 ** 6, 8, 8)
    for bad in ((0, 8, 8), (-(10 ** 6), 8, 8), (3, 0, 8)):
        with pytest.raises(ValueError):
            truncated_space(*bad)
    small = truncated_space(10, 40, 40)
    assert small.dimension == space.dimension == 66 * 41 * 41
    # the limit is read at call time
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 1000)
    with pytest.raises(CapacityError, match="dimension limit 1000"):
        build_hamiltonian(ModelParams(g1=0.7), space)
    with pytest.raises(CapacityError, match="dimension limit 1000"):
        truncated_space(10, 40, 40)


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
    space = TruncatedSpace(build_basis(2), 6, 5)
    h = build_hamiltonian(p, space)
    vals, vecs = np.linalg.eigh(h.toarray())
    # every observable is diagonal: its value on each basis vector, in
    # basis order (atomic state, then mode a, then mode b)
    names = ("photon_a", "photon_b", "pop2", "pop3", "parity_l", "parity_r", "parity_g")
    table = np.array([
        (ia / 2, ib / 2, n2 / 2, n3 / 2,
         (-1) ** (n3 + ia), (-1) ** (n2 + ib), (-1) ** (n2 + n3 + ia + ib))
        for _, n2, n3 in space.basis.states for ia in range(7) for ib in range(6)
    ], dtype=float)
    random = np.random.default_rng(3).standard_normal(space.dimension)
    for vec, energy in ((vecs[:, 0], float(vals[0])), (random / np.linalg.norm(random), 0.5)):
        res = observables(space, vec, energy=energy)
        assert res.energy == energy
        for name, expected in zip(names, vec ** 2 @ table):
            assert abs(getattr(res, name) - expected) < 1e-13, name


def test_default_cutoffs_grow_with_the_condensate():
    lo = default_cutoffs(ModelParams(), 10)
    hi = default_cutoffs(ModelParams(g1=1.0), 10)
    assert lo == (10, 10)
    assert hi[0] > lo[0]          # mode a must make room for the field
    assert hi[1] == lo[1]


def test_converge_cutoffs_settles_immediately_when_decoupled():
    # the vacuum has no weight above n = 0: accepted at the default (10, 10)
    # with no growth, then shrunk once to (2, 2), whose top two levels are 1
    # and 2; the vacuum is exact there too
    space, trace = converge_cutoffs(ModelParams(), 3)
    assert (space.cutoff_a, space.cutoff_b) == (2, 2)
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in trace] == [(10, 10), (2, 2)]
    assert trace[0]["dimension"] > trace[1]["dimension"] == space.dimension
    for entry in trace:
        assert abs(entry["photon_a"]) < 1e-10
        assert abs(entry["energy"]) < 1e-9
        assert entry["weight_a"] < 1e-20 and entry["weight_b"] < 1e-20


def test_converge_cutoffs_capacity_error_carries_trace(monkeypatch):
    # from (4, 4), mode a's tail weight fails and grows it; the first growth
    # step (to 6) fits under the limit, the second (to 9) does not
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 1000)
    with pytest.raises(CapacityError, match="dimension limit 1000") as err:
        converge_cutoffs(ModelParams(g1=0.9), 6, start=(4, 4))
    trace = err.value.trace
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in trace] == [(4, 4), (6, 4)]
    assert all(t["weight_a"] >= 1e-4 / exactdiag.TAIL_RATIO for t in trace)


def test_solve_point_with_gap():
    p = ModelParams(omega31=1.7, g1=0.8, g2=0.3)
    space = truncated_space(2, *default_cutoffs(p, 2))
    res = solve_point(p, 2, space, with_gap=True)
    assert res.gap is not None and res.gap > 0.0
    assert res.cutoff_a >= 8 and res.cutoff_b >= 8
    no_gap = solve_point(p, 2, space)
    assert no_gap.gap is None
    assert abs(no_gap.energy - res.energy) < 1e-9
    with pytest.raises(ValueError, match="holds 2 atoms"):
        solve_point(p, 3, space)


# ---------------------------------------------------------------------------
# parity sectors

def _sector_mask(space: TruncatedSpace, left: int, right: int) -> np.ndarray:
    """The sector's states among the whole-space basis, from the parity operators."""
    pl, pr, _ = parity_operators(space)
    return (pl.diagonal() == left) & (pr.diagonal() == right)


def _random_params(rng, g_low=0.0, g_high=1.5) -> ModelParams:
    return ModelParams(*rng.uniform(0.4, 2.0, 4), *rng.uniform(g_low, g_high, 2))


def test_sector_hamiltonian_is_the_whole_space_h_restricted():
    rng = np.random.default_rng(53)
    for trial in range(40):
        p = _random_params(rng)
        if trial % 4 == 0:
            p = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                            g1=0.0 if trial % 8 else p.g1, g2=0.0)
        space = TruncatedSpace(build_basis(int(rng.integers(1, 6))),
                               int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        whole = build_hamiltonian(p, space).toarray()
        dimensions = 0
        for left, right in PARITY_SECTORS:
            sector = ParitySector(space, left, right)
            mask = _sector_mask(space, left, right)
            block = build_hamiltonian(p, sector)
            assert sector.dimension == block.shape[0] == mask.sum()
            assert np.array_equal(block.toarray(), whole[np.ix_(mask, mask)]), (trial, left, right)
            dimensions += sector.dimension
        assert dimensions == space.dimension
    with pytest.raises(ValueError, match="must be"):
        ParitySector(space, 0, 1)


def _seeded_points(count: int, seed: int):
    """Small spaces with too-small cutoffs: generic, deep superradiant and g = 0 points."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = _random_params(rng, *((0.0, 1.5), (1.5, 3.0), (0.0, 3.0))[i % 3])
        if i % 3 == 2:
            g1, g2 = ((0.0, p.g2), (p.g1, 0.0), (0.0, 0.0))[i % 9 // 3]
            p = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b, g1=g1, g2=g2)
        space = TruncatedSpace(build_basis(int(rng.integers(1, 5))),
                               int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        yield p, space


def test_solve_point_matches_the_dense_whole_space_spectrum():
    outside_even = 0
    for k, (p, space) in enumerate(_seeded_points(210, 8)):
        n = space.basis.n_atoms
        dense = np.linalg.eigvalsh(build_hamiltonian(p, space).toarray())
        even = np.linalg.eigvalsh(build_hamiltonian(p, ParitySector(space, 1, 1)).toarray())
        outside_even += bool(even[0] > dense[0] + 1e-9)
        res = solve_point(p, n, space, with_gap=True)
        assert abs(res.energy - dense[0]) <= 1e-9 * max(1.0, abs(dense[0])), (k, p, space)
        assert abs(res.gap - (dense[1] - dense[0])) <= 1e-9 * max(1.0, abs(dense[1])), (k, p)
        # the observables belong to the lowest sector's ground state
        assert abs(abs(res.parity_l) - 1.0) <= 1e-12 and abs(abs(res.parity_r) - 1.0) <= 1e-12
        if k % 4 == 0:
            no_gap = solve_point(p, n, space)
            assert no_gap.gap is None
            assert abs(no_gap.energy - dense[0]) <= 1e-9 * max(1.0, abs(dense[0]))
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
    space = truncated_space(n_atoms, int(table.cutoff_a[0]), int(table.cutoff_b[0]))
    for i, (a, b) in enumerate(zip(table.g1, table.g2)):
        h = build_hamiltonian(ModelParams(g1=float(a), g2=float(b)), space)
        energy, vec = ground_state(h, tol=1e-8)
        whole = observables(space, vec, energy)
        assert abs(table.photon_a[i] - whole.photon_a) <= 1e-8, (fixture, n_atoms, i)
        assert abs(table.photon_b[i] - whole.photon_b) <= 1e-8, (fixture, n_atoms, i)


def test_warm_started_sweep_agrees_with_cold_solves():
    g1 = np.linspace(0.5, 1.0, 9)
    table = ed_sweep(ModelParams(), g1, 0.75, 4)
    sector = ParitySector(truncated_space(4, int(table.cutoff_a[0]), int(table.cutoff_b[0])), 1, 1)
    for i, g in enumerate(g1):
        energy, vec = ground_state(build_hamiltonian(ModelParams(g1=g, g2=0.75), sector), tol=1e-8)
        cold = observables(sector, vec, energy)
        assert abs(table.photon_a[i] - cold.photon_a) <= 1e-8
        assert abs(table.photon_b[i] - cold.photon_b) <= 1e-8

    # a grown truncation starts from the smaller one's vector, zero-padded:
    # the padded vector is the same state
    p = ModelParams(g1=0.9, g2=0.75)
    small = ParitySector(truncated_space(4, 10, 9), 1, 1)
    large = ParitySector(truncated_space(4, 20, 18), 1, 1)
    energy, vec = ground_state(build_hamiltonian(p, small), tol=1e-8)
    padded = exactdiag._transfer(small, vec, large)
    assert np.linalg.norm(padded) == pytest.approx(1.0, abs=1e-14)
    for name in ("photon_a", "photon_b", "pop2", "pop3", "parity_l", "parity_r"):
        assert getattr(observables(large, padded, energy), name) == pytest.approx(
            getattr(observables(small, vec, energy), name), abs=1e-14)
    h_large = build_hamiltonian(p, large)
    assert float(padded @ (h_large @ padded)) == pytest.approx(energy, abs=1e-9)
    # and moved back, the levels the smaller truncation drops are cut off:
    # the same vector again
    assert np.array_equal(exactdiag._transfer(large, padded, small), vec)


def test_converge_cutoffs_refuses_a_truncation_with_its_ground_state_outside_even(monkeypatch):
    # at cutoffs (3, 6) the (+, -) block lies about 3.5e-4 below (+, +);
    # with tol = 50 the tail-weight bound is 0.5, above both weights (0.46
    # and 0.28), and no shrink is allowed, so only the certificate keeps
    # that truncation out
    p, start = ModelParams(g1=2.5, g2=2.5), (3, 6)
    first = TruncatedSpace(build_basis(3), *start)
    lowest = [np.linalg.eigvalsh(build_hamiltonian(p, ParitySector(first, *s)).toarray())[0]
              for s in PARITY_SECTORS]
    assert min(lowest[1:]) < lowest[0] - 1e-4
    space, trace = converge_cutoffs(p, 3, start=start, tol=50.0)
    assert (trace[0]["cutoff_a"], trace[0]["cutoff_b"]) == start
    assert max(trace[0]["weight_a"], trace[0]["weight_b"]) < 50.0 / exactdiag.TAIL_RATIO
    assert (space.cutoff_a, space.cutoff_b) != start
    assert len(trace) >= 2
    # on the accepted truncation (+, +) is lowest up to the solver's
    # eigenvalue tolerance, eig_tol times the scale of H
    dense = np.linalg.eigvalsh(build_hamiltonian(p, space).toarray())[0]
    h_even = build_hamiltonian(p, ParitySector(space, 1, 1))
    even = np.linalg.eigvalsh(h_even.toarray())[0]
    assert even - dense <= 1e-8 * exactdiag._h_scale(h_even) < 1e-4

    # when the growth after the refusal hits the dimension limit, the
    # refusal carries the trace
    monkeypatch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", 500)
    with pytest.raises(CapacityError, match="dimension limit 500") as err:
        converge_cutoffs(p, 3, start=start, tol=50.0)
    assert [(t["cutoff_a"], t["cutoff_b"]) for t in err.value.trace] == [start]


# ---------------------------------------------------------------------------
# tail-weight cutoffs against the doubling loop they replaced

CUTOFF_TOL = 1e-4  # converge_cutoffs' and ed_sweep's default


def _doubling_oracle(params: ModelParams, n_atoms: int, cutoffs: tuple[int, int],
                     tol: float):
    """The doubling loop converge_cutoffs used to run, from ``cutoffs``.

    (+, +) is solved cold and both cutoffs doubled until photon_a and
    photon_b settle within ``tol``.  Returns the photon numbers of the last,
    largest truncation, and the tail weights (top two Fock levels) of
    the first.
    """
    previous, weights = None, None
    while True:
        sector = ParitySector(truncated_space(n_atoms, *cutoffs), 1, 1)
        energy, vec = ground_state(build_hamiltonian(params, sector), tol=1e-10)
        result = observables(sector, vec, energy)
        photons = np.array([result.photon_a, result.photon_b])
        if weights is None:
            weights = [m[-2:].sum() for m in exactdiag._marginals(sector, vec)]
        if previous is not None and np.all(np.abs(photons - previous) < tol):
            return photons, weights
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
    space, trace = converge_cutoffs(params, n_atoms, tol=CUTOFF_TOL)
    result = solve_point(params, n_atoms, space)
    photons, weights = _doubling_oracle(params, n_atoms, (space.cutoff_a, space.cutoff_b),
                                        CUTOFF_TOL / 10)
    assert max(weights) < CUTOFF_TOL / exactdiag.TAIL_RATIO
    assert abs(result.photon_a - photons[0]) <= CUTOFF_TOL / 10
    assert abs(result.photon_b - photons[1]) <= CUTOFF_TOL / 10
    accepted = [t for t in trace if (t["cutoff_a"], t["cutoff_b"]) == (space.cutoff_a,
                                                                        space.cutoff_b)]
    assert accepted and max(accepted[-1]["weight_a"], accepted[-1]["weight_b"]) < \
        CUTOFF_TOL / exactdiag.TAIL_RATIO


def test_every_sweep_row_holds_its_tail_weight():
    # fig4b's cut at N = 6: the widest point (g1 = 1) needs little of mode
    # b, so its shrunk truncation is too small for the first rows, and
    # only the check at every row grows it
    g1 = FIXTURE_SWEEPS["fig4b"][0]
    table = ed_sweep(ModelParams(), g1, 0.75, 6, cutoff_tol=CUTOFF_TOL)
    for i, g in enumerate(g1):
        cutoffs = (int(table.cutoff_a[i]), int(table.cutoff_b[i]))
        photons, weights = _doubling_oracle(ModelParams(g1=g, g2=0.75), 6, cutoffs,
                                            CUTOFF_TOL / 10)
        assert max(weights) < CUTOFF_TOL / exactdiag.TAIL_RATIO, (i, cutoffs, weights)
        assert abs(table.photon_a[i] - photons[0]) <= CUTOFF_TOL / 10, i
        assert abs(table.photon_b[i] - photons[1]) <= CUTOFF_TOL / 10, i
    widest = ModelParams(g1=1.0, g2=0.75)
    space, _ = converge_cutoffs(widest, 6, start=default_cutoffs(widest, 6))
    assert table.cutoff_b[0] > space.cutoff_b


def test_lanczos_restarts_are_bounded(monkeypatch, capsys):
    h = build_hamiltonian(ModelParams(g1=0.9, g2=0.8),
                          ParitySector(truncated_space(6, 30, 30), 1, 1))
    ground_state(h, tol=1e-8)
    monkeypatch.setattr(exactdiag, "LANCZOS_MAXITER", 1)
    exactdiag._sector_ground.cache_clear()  # the CLI run below must solve, not recall
    with pytest.raises(ConvergenceError, match="within LANCZOS_MAXITER = 1 restarts"):
        ground_state(h, tol=1e-8)
    assert cli_run(["ed", "--N", "6", "--g1", "0.9", "--g2", "0.8"]) == 3
    assert "LANCZOS_MAXITER = 1" in capsys.readouterr().err


def test_solve_point_reuses_the_certificate_solves(monkeypatch):
    exactdiag._sector_ground.cache_clear()
    p = ModelParams(g1=0.9, g2=0.6)
    space, _ = converge_cutoffs(p, 3)
    solves = []
    for name in ("ground_state", "lowest_two"):
        solve = getattr(exactdiag, name)
        monkeypatch.setattr(exactdiag, name,
                            lambda *a, _solve=solve, **k: solves.append(1) or _solve(*a, **k))
    reused = solve_point(p, 3, space, with_gap=True)
    assert len(solves) == 1  # the gap's lowest_two; the four sector grounds are reused
    # an equal truncation built afresh is the same key, so it reuses them too
    fresh = solve_point(p, 3, truncated_space(3, space.cutoff_a, space.cutoff_b), with_gap=True)
    assert len(solves) == 2
    assert reused == fresh
    # the memo holds one truncation's four sectors: converging a second
    # point evicts the first point's solves
    converge_cutoffs(replace(p, g1=0.3), 3)
    before = len(solves)
    assert solve_point(p, 3, space, with_gap=True) == reused
    assert len(solves) - before == 5
    # another seed or other params on the same space are solved afresh
    for params, seed in ((p, 1), (replace(p, g2=0.61), 0)):
        solve_point(p, 3, space)  # back in the memo
        before = len(solves)
        solve_point(params, 3, space, seed=seed)
        assert len(solves) - before == 4, (params, seed)
    # every caller shares the memoized vectors, so none may write to them
    grounds = exactdiag._sector_grounds(p, space, 1e-8, 1)
    assert not any(g.vector.flags.writeable for g in grounds)


def test_solver_settings_are_refused_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolver called with invalid settings")

    monkeypatch.setattr(exactdiag, "ground_state", no_solve)
    monkeypatch.setattr(exactdiag, "lowest_two", no_solve)
    p = ModelParams(g1=0.6, g2=0.3)
    space = truncated_space(2, 4, 4)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            converge_cutoffs(p, 2, tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance eig_tol must be finite"):
            converge_cutoffs(p, 2, eig_tol=bad)
        with pytest.raises(ValueError, match="eigensolver tolerance tol must be finite"):
            solve_point(p, 2, space, tol=bad)
        with pytest.raises(ValueError, match="photon-number tolerance tol must be finite"):
            ed_sweep(p, np.linspace(0.5, 1.0, 3), 0.3, 2, cutoff_tol=bad)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        converge_cutoffs(p, 2, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        solve_point(p, 2, space, seed=-1)
