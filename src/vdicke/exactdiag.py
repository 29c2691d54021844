"""Finite-N cross-checks in the permutation-symmetric sector.

The collective Hamiltonian only involves symmetric sums of single-atom
transition operators, so the ground state lives in the permutation
symmetric subspace.  A symmetric state of N three-level atoms is fixed
by the occupations (n1, n2, n3) of the levels, n1 + n2 + n3 = N, which
gives (N+1)(N+2)/2 states instead of 3^N.  In this sector the
collective operators act like bilinears of three Schwinger bosons:

    <.., n_m + 1, .., n_n - 1, ..| J_mn |n1, n2, n3> = sqrt((n_m + 1) n_n)

for m != n, and J_mm is diagonal with eigenvalue n_m.  Each bosonic
mode is truncated at a Fock cutoff; the full space is the tensor
product (symmetric sector) x (mode a) x (mode b), ordered with the mode
b index fastest.

All matrices are real sparse CSR.  The ground state comes from an
implicitly restarted Lanczos iteration with a seeded start vector and
an explicit residual acceptance test, falling back to dense
diagonalization for tiny spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import CapacityError, ConvergenceError
from .meanfield import stationary_branches
from .model import ModelParams

__all__ = [
    "SymmetricBasis",
    "TruncatedSpace",
    "GroundStateResult",
    "build_basis",
    "truncated_space",
    "collective_operator",
    "build_hamiltonian",
    "parity_operators",
    "parity_commutator_norms",
    "parity_check",
    "ground_state",
    "lowest_two",
    "observables",
    "default_cutoffs",
    "converge_cutoffs",
    "solve_point",
]

DEFAULT_DIM_LIMIT = 2_000_000
_DENSE_THRESHOLD = 16  # below this dimension just diagonalize densely


@dataclass(frozen=True)
class SymmetricBasis:
    """Occupation basis (n1, n2, n3) of the symmetric sector.

    States are ordered lexicographically in (n3, n2); n1 is implied.
    """

    n_atoms: int
    states: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class TruncatedSpace:
    """Symmetric sector tensor two Fock-truncated modes."""

    basis: SymmetricBasis
    cutoff_a: int
    cutoff_b: int

    def __post_init__(self):
        if self.cutoff_a < 1 or self.cutoff_b < 1:
            raise ValueError("boson cutoffs must be >= 1")

    @property
    def dimension(self) -> int:
        return self.basis.size * (self.cutoff_a + 1) * (self.cutoff_b + 1)


@dataclass(frozen=True)
class GroundStateResult:
    """Ground-state energy and scaled observables at one parameter point.

    photon_a/photon_b are <a'a>/N and <b'b>/N; pop2/pop3 the level
    occupations per atom; the parities are expectation values of the
    left, right, and global parity operators.  ``gap`` is the first
    excitation gap when requested, else None.
    """

    energy: float
    photon_a: float
    photon_b: float
    pop2: float
    pop3: float
    parity_l: float
    parity_r: float
    parity_g: float
    gap: float | None
    cutoff_a: int
    cutoff_b: int


def build_basis(n_atoms: int) -> SymmetricBasis:
    """Enumerate the symmetric sector for n_atoms three-level atoms."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    states = tuple(
        (n_atoms - n2 - n3, n2, n3)
        for n3 in range(n_atoms + 1)
        for n2 in range(n_atoms - n3 + 1)
    )
    return SymmetricBasis(n_atoms=n_atoms, states=states)


def truncated_space(n_atoms: int, cutoff_a: int, cutoff_b: int,
                    dim_limit: int = DEFAULT_DIM_LIMIT, trace=None) -> TruncatedSpace:
    """Symmetric sector tensor two truncated modes, bounded before enumeration.

    The dimension (N+1)(N+2)/2 * (cutoff_a+1) * (cutoff_b+1) is checked
    against ``dim_limit`` before the basis is built, so an oversized
    request raises CapacityError (carrying ``trace``) without allocating.
    """
    if n_atoms < 1 or cutoff_a < 1 or cutoff_b < 1:
        raise ValueError(f"n_atoms and both cutoffs must be >= 1, got "
                         f"{n_atoms}, {cutoff_a}, {cutoff_b}")
    dimension = (n_atoms + 1) * (n_atoms + 2) // 2 * (cutoff_a + 1) * (cutoff_b + 1)
    if dimension > dim_limit:
        raise CapacityError(
            f"space dimension {dimension} (N = {n_atoms}, cutoffs {cutoff_a} and "
            f"{cutoff_b}) exceeds the dimension limit {dim_limit}",
            trace=trace,
        )
    return TruncatedSpace(basis=build_basis(n_atoms), cutoff_a=cutoff_a, cutoff_b=cutoff_b)


def collective_operator(basis: SymmetricBasis, m: int, n: int) -> sparse.csr_matrix:
    """Collective transition operator J_mn = sum_j |m><n|_j on the symmetric sector."""
    if m not in (1, 2, 3) or n not in (1, 2, 3):
        raise ValueError("level indices must be 1, 2, or 3")
    size = basis.size
    if m == n:
        diag = np.array([state[m - 1] for state in basis.states], dtype=float)
        return sparse.diags(diag, format="csr")
    index = {state: i for i, state in enumerate(basis.states)}
    rows, cols, vals = [], [], []
    for i, state in enumerate(basis.states):
        occ = list(state)
        if occ[n - 1] == 0:
            continue
        amp = math.sqrt((occ[m - 1] + 1) * occ[n - 1])
        occ[m - 1] += 1
        occ[n - 1] -= 1
        rows.append(index[tuple(occ)])
        cols.append(i)
        vals.append(amp)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))


def _lowering(levels: int) -> sparse.csr_matrix:
    return sparse.diags(np.sqrt(np.arange(1.0, levels)), 1, format="csr")


def _kron3(a, b, c) -> sparse.csr_matrix:
    return sparse.kron(sparse.kron(a, b, format="coo"), c, format="csr")


def build_hamiltonian(params: ModelParams, space: TruncatedSpace,
                      dim_limit: int = DEFAULT_DIM_LIMIT) -> sparse.csr_matrix:
    """Assemble the collective Hamiltonian on the truncated space (real CSR)."""
    if space.dimension > dim_limit:
        raise CapacityError(
            f"space dimension {space.dimension} exceeds the limit {dim_limit}"
        )
    basis = space.basis
    n_atoms = basis.n_atoms
    na = space.cutoff_a + 1
    nb = space.cutoff_b + 1

    j22 = collective_operator(basis, 2, 2)
    j33 = collective_operator(basis, 3, 3)
    j13 = collective_operator(basis, 1, 3)
    j12 = collective_operator(basis, 1, 2)
    x13 = (j13 + j13.T).tocsr()
    x12 = (j12 + j12.T).tocsr()

    ident_atoms = sparse.identity(basis.size, format="csr")
    ident_a = sparse.identity(na, format="csr")
    ident_b = sparse.identity(nb, format="csr")
    num_a = sparse.diags(np.arange(na, dtype=float), format="csr")
    num_b = sparse.diags(np.arange(nb, dtype=float), format="csr")
    pos_a = _lowering(na)
    pos_a = (pos_a + pos_a.T).tocsr()
    pos_b = _lowering(nb)
    pos_b = (pos_b + pos_b.T).tocsr()

    scale = 1.0 / math.sqrt(n_atoms)
    h = (
        params.omega21 * _kron3(j22, ident_a, ident_b)
        + params.omega31 * _kron3(j33, ident_a, ident_b)
        + params.omega_a * _kron3(ident_atoms, num_a, ident_b)
        + params.omega_b * _kron3(ident_atoms, ident_a, num_b)
        + params.g1 * scale * _kron3(x13, pos_a, ident_b)
        + params.g2 * scale * _kron3(x12, ident_a, pos_b)
    )
    return h.tocsr()


def parity_operators(space: TruncatedSpace):
    """Diagonal parity operators (left, right, global) as sparse matrices.

    Left parity counts quanta in mode a plus level 3, right parity mode
    b plus level 2; the global parity is their product.
    """
    n2 = np.array([s[1] for s in space.basis.states], dtype=float)
    n3 = np.array([s[2] for s in space.basis.states], dtype=float)
    sign_a = (-1.0) ** np.arange(space.cutoff_a + 1)
    sign_b = (-1.0) ** np.arange(space.cutoff_b + 1)
    ones_a = np.ones(space.cutoff_a + 1)
    ones_b = np.ones(space.cutoff_b + 1)
    diag_l = np.kron((-1.0) ** n3, np.kron(sign_a, ones_b))
    diag_r = np.kron((-1.0) ** n2, np.kron(ones_a, sign_b))
    return (
        sparse.diags(diag_l, format="csr"),
        sparse.diags(diag_r, format="csr"),
        sparse.diags(diag_l * diag_r, format="csr"),
    )


def parity_commutator_norms(params: ModelParams, space: TruncatedSpace,
                            dim_limit: int = DEFAULT_DIM_LIMIT) -> tuple[float, float, float]:
    """Largest entry of [H, P] for each parity operator (left, right, global)."""
    h = build_hamiltonian(params, space, dim_limit=dim_limit)
    commutators = [h @ p - p @ h for p in parity_operators(space)]
    return tuple(float(np.abs(c.data).max()) if c.nnz else 0.0 for c in commutators)


def parity_check(params: ModelParams, space: TruncatedSpace,
                 dim_limit: int = DEFAULT_DIM_LIMIT) -> float:
    """Largest entry of [H, P] over the three parity operators."""
    return max(parity_commutator_norms(params, space, dim_limit=dim_limit))


def _seed_vector(dimension: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dimension)
    return v0 / np.linalg.norm(v0)


def _h_scale(h: sparse.csr_matrix) -> float:
    # Infinity norm: cheap, and an upper bound on the spectral radius.
    return float(np.abs(h).sum(axis=1).max())


def _eigsh_lowest(h: sparse.csr_matrix, k: int, tol: float, seed: int):
    """Lowest k eigenpairs with explicit residual acceptance and retries."""
    dim = h.shape[0]
    if dim <= max(_DENSE_THRESHOLD, k + 1):
        dense = np.asarray(h.todense())
        vals, vecs = np.linalg.eigh(dense)
        return vals[:k], vecs[:, :k]
    v0 = _seed_vector(dim, seed)
    scale = _h_scale(h)
    # Shift the spectrum strictly below zero before the Lanczos run.  An
    # eigenvalue at exactly 0 (the decoupled ground state, say) is
    # annihilated by the matvec and can be purged at restarts, making
    # ARPACK skip it; the shift is exact on eigenvalues and leaves the
    # eigenvectors untouched.
    sigma = scale + 1.0
    shifted = (h - sigma * sparse.identity(dim, format="csr")).tocsr()
    arpack_tol = max(tol * 1e-2, 1e-16)
    best_residual = math.inf
    for _ in range(3):
        try:
            vals, vecs = eigsh(shifted, k=k, which="SA", v0=v0, tol=arpack_tol,
                               maxiter=50 * dim)
            vals = vals + sigma
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Lanczos iteration failed to converge at dimension {dim}",
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        residual = max(
            float(np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i]))
            for i in range(k)
        )
        if residual <= tol * max(1.0, scale):
            return vals, vecs
        best_residual = min(best_residual, residual)
        arpack_tol *= 1e-3
    raise ConvergenceError(
        f"residual {best_residual} above {tol * max(1.0, scale)} after retries",
        residual=best_residual,
    )


def ground_state(h: sparse.csr_matrix, tol: float = 1e-10, seed: int = 0):
    """Lowest eigenpair (energy, normalized vector)."""
    vals, vecs = _eigsh_lowest(h, k=1, tol=tol, seed=seed)
    vec = vecs[:, 0]
    return float(vals[0]), vec / np.linalg.norm(vec)


def lowest_two(h: sparse.csr_matrix, tol: float = 1e-10, seed: int = 0):
    """Lowest two eigenvalues and the ground vector: (e0, e1, v0)."""
    vals, vecs = _eigsh_lowest(h, k=2, tol=tol, seed=seed)
    vec = vecs[:, 0]
    return float(vals[0]), float(vals[1]), vec / np.linalg.norm(vec)


def observables(params: ModelParams, space: TruncatedSpace, state: np.ndarray,
                energy: float, gap: float | None = None) -> GroundStateResult:
    """Scaled observables of a normalized state on the truncated space."""
    basis = space.basis
    n_atoms = basis.n_atoms
    na = space.cutoff_a + 1
    nb = space.cutoff_b + 1
    weights = np.abs(np.asarray(state).reshape(basis.size, na, nb)) ** 2

    n2 = np.array([s[1] for s in basis.states], dtype=float)
    n3 = np.array([s[2] for s in basis.states], dtype=float)
    counts_a = np.arange(na, dtype=float)
    counts_b = np.arange(nb, dtype=float)

    atom_weights = weights.sum(axis=(1, 2))
    mode_a_weights = weights.sum(axis=(0, 2))
    mode_b_weights = weights.sum(axis=(0, 1))

    photon_a = float(mode_a_weights @ counts_a) / n_atoms
    photon_b = float(mode_b_weights @ counts_b) / n_atoms
    pop2 = float(atom_weights @ n2) / n_atoms
    pop3 = float(atom_weights @ n3) / n_atoms

    sign_a = (-1.0) ** np.arange(na)
    sign_b = (-1.0) ** np.arange(nb)
    ab_weights = weights.sum(axis=2)  # (basis, mode a)
    ba_weights = weights.sum(axis=1)  # (basis, mode b)
    parity_l = float(((-1.0) ** n3) @ ab_weights @ sign_a)
    parity_r = float(((-1.0) ** n2) @ ba_weights @ sign_b)
    parity_g = float(np.einsum("bij,b,i,j->", weights, (-1.0) ** (n2 + n3), sign_a, sign_b))

    return GroundStateResult(
        energy=energy,
        photon_a=photon_a,
        photon_b=photon_b,
        pop2=pop2,
        pop3=pop3,
        parity_l=parity_l,
        parity_r=parity_r,
        parity_g=parity_g,
        gap=gap,
        cutoff_a=space.cutoff_a,
        cutoff_b=space.cutoff_b,
    )


def default_cutoffs(params: ModelParams, n_atoms: int) -> tuple[int, int]:
    """Cutoff heuristic from the mean-field mode amplitudes.

    Uses the largest squared amplitude over all physical stationary
    branches per mode, so competing condensates near a first-order
    boundary are both representable before convergence doubling.
    """
    branches = [s for s in stationary_branches(params) if s.physical]
    field_a = max((s.phi_a ** 2 for s in branches), default=0.0)
    field_b = max((s.phi_b ** 2 for s in branches), default=0.0)
    cutoff_a = max(8, math.ceil(6.0 * n_atoms * field_a + 10.0))
    cutoff_b = max(8, math.ceil(6.0 * n_atoms * field_b + 10.0))
    return cutoff_a, cutoff_b


def converge_cutoffs(params: ModelParams, n_atoms: int, start: tuple[int, int] | None = None,
                     tol: float = 1e-4, dim_limit: int = DEFAULT_DIM_LIMIT,
                     eig_tol: float = 1e-8, seed: int = 0):
    """Double the boson cutoffs until the photon numbers settle.

    Returns ``(space, trace)`` where ``space`` is the coarsest
    truncation whose photon_a and photon_b agree with the next doubling
    within ``tol``, and ``trace`` records every evaluation.  Raises
    CapacityError (with the trace attached) if the dimension limit is
    hit first.
    """
    cutoff_a, cutoff_b = start if start is not None else default_cutoffs(params, n_atoms)
    trace = []
    previous = None
    while True:
        space = truncated_space(n_atoms, cutoff_a, cutoff_b, dim_limit=dim_limit, trace=trace)
        h = build_hamiltonian(params, space, dim_limit=dim_limit)
        e0, vec = ground_state(h, tol=eig_tol, seed=seed)
        result = observables(params, space, vec, energy=e0)
        trace.append({
            "cutoff_a": cutoff_a,
            "cutoff_b": cutoff_b,
            "dimension": space.dimension,
            "energy": e0,
            "photon_a": result.photon_a,
            "photon_b": result.photon_b,
        })
        if previous is not None:
            prev_space, prev_result = previous
            if (abs(result.photon_a - prev_result.photon_a) < tol
                    and abs(result.photon_b - prev_result.photon_b) < tol):
                return prev_space, trace
        previous = (space, result)
        cutoff_a *= 2
        cutoff_b *= 2


def solve_point(params: ModelParams, n_atoms: int, space: TruncatedSpace | None = None,
                tol: float = 1e-8, seed: int = 0, with_gap: bool = False,
                dim_limit: int = DEFAULT_DIM_LIMIT) -> GroundStateResult:
    """Ground-state observables at one parameter point.

    Without an explicit space the default cutoff heuristic is used
    directly (no convergence doubling; see converge_cutoffs for that).
    """
    if space is None:
        space = truncated_space(n_atoms, *default_cutoffs(params, n_atoms), dim_limit=dim_limit)
    h = build_hamiltonian(params, space, dim_limit=dim_limit)
    if with_gap:
        e0, e1, vec = lowest_two(h, tol=tol, seed=seed)
        gap = e1 - e0
    else:
        e0, vec = ground_state(h, tol=tol, seed=seed)
        gap = None
    return observables(params, space, vec, energy=e0, gap=gap)
