"""Finite-N cross-checks in the permutation-symmetric sector.

The collective Hamiltonian only involves symmetric sums of single-atom
transition operators, so the ground state lives in the permutation
symmetric subspace.  A symmetric state of N three-level atoms is fixed
by the occupations (n1, n2, n3) of the levels, n1 + n2 + n3 = N, which
gives (N+1)(N+2)/2 states instead of 3^N.  In this sector the
collective operators act like bilinears of three Schwinger bosons:

    <.., n_m + 1, .., n_n - 1, ..| J_mn |n1, n2, n3> = sqrt((n_m + 1) n_n)

for m != n, and J_mm is diagonal with eigenvalue n_m.

Layout.  Each bosonic mode is truncated at a Fock cutoff, and a basis
vector is (n2, n3) x (n_a) x (n_b), with n1 = N - n2 - n3 implied and
the mode-b index fastest.  The atomic states run over n3, then n2, so
(n2, n3) sits at

    n3 (N + 1) - n3 (n3 - 1) / 2 + n2

and the basis index is (atomic index * (cutoff_a + 1) + n_a) *
(cutoff_b + 1) + n_b.  One helper, ``_occupations``, returns n2, n3,
n_a and n_b broadcastable over (atom, mode a, mode b) in that order; the
diagonal of H, the parity operators and the observables are all read
from it.  The two atomic hops J_13 + J_31 and J_12 + J_21 come from the
index formula, with amplitude sqrt(n1 (n_l + 1)) for an atom moving
from level 1 to level l, and each meets its mode's position operator in
one Kronecker product.

All matrices are real sparse CSR.  The ground state comes from an
implicitly restarted Lanczos iteration with a seeded start vector and
an explicit residual acceptance test, falling back to dense
diagonalization for tiny spaces.  Every space is checked against
DEFAULT_DIM_LIMIT, read at call time, before anything of its size is
allocated.
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
CUTOFF_FLOOR = 8  # smallest cutoff default_cutoffs returns
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


def _check_dimension(n_atoms: int, cutoff_a: int, cutoff_b: int, trace=None) -> None:
    dimension = (n_atoms + 1) * (n_atoms + 2) // 2 * (cutoff_a + 1) * (cutoff_b + 1)
    if dimension > DEFAULT_DIM_LIMIT:
        raise CapacityError(
            f"space dimension {dimension} (N = {n_atoms}, cutoffs {cutoff_a} and "
            f"{cutoff_b}) exceeds the dimension limit {DEFAULT_DIM_LIMIT}",
            trace=trace,
        )


def truncated_space(n_atoms: int, cutoff_a: int, cutoff_b: int, trace=None) -> TruncatedSpace:
    """Symmetric sector tensor two truncated modes, bounded before enumeration.

    The dimension (N+1)(N+2)/2 * (cutoff_a+1) * (cutoff_b+1) is checked
    against DEFAULT_DIM_LIMIT before the basis is built, so an oversized
    request raises CapacityError (carrying ``trace``) without allocating.
    """
    if n_atoms < 1 or cutoff_a < 1 or cutoff_b < 1:
        raise ValueError(f"n_atoms and both cutoffs must be >= 1, got "
                         f"{n_atoms}, {cutoff_a}, {cutoff_b}")
    _check_dimension(n_atoms, cutoff_a, cutoff_b, trace=trace)
    return TruncatedSpace(basis=build_basis(n_atoms), cutoff_a=cutoff_a, cutoff_b=cutoff_b)


def _atom_index(n_atoms: int, n2, n3):
    """Position of the atomic state (n2, n3) in SymmetricBasis order."""
    return n3 * (n_atoms + 1) - n3 * (n3 - 1) // 2 + n2


def _occupations(space: TruncatedSpace):
    """n2, n3, n_a and n_b of the basis, broadcastable over (atom, mode a, mode b).

    The shapes are (S, 1, 1), (S, 1, 1), (A, 1) and (B,) for S atomic
    states and A, B Fock levels; broadcast together, their C-order ravel
    runs along the basis index.
    """
    n_atoms = space.basis.n_atoms
    n3 = np.repeat(np.arange(n_atoms + 1), np.arange(n_atoms + 1, 0, -1))
    n2 = np.arange(n3.size) - _atom_index(n_atoms, 0, n3)
    return (n2[:, None, None], n3[:, None, None],
            np.arange(space.cutoff_a + 1)[:, None], np.arange(space.cutoff_b + 1))


def _level1_hop(n_atoms: int, n2: np.ndarray, n3: np.ndarray, level: int) -> sparse.csr_matrix:
    """J_1l + J_l1 on the atomic states (n2, n3), for level l = 2 or 3."""
    n1 = n_atoms - n2 - n3
    src = np.flatnonzero(n1 > 0)
    n_l = (n2 if level == 2 else n3)[src]
    dst = _atom_index(n_atoms, n2[src] + (level == 2), n3[src] + (level == 3))
    up = sparse.csr_matrix((np.sqrt(n1[src] * (n_l + 1)), (dst, src)),
                           shape=(n2.size, n2.size))
    return up + up.T


def _position(levels: int) -> sparse.csr_matrix:
    """a + a^dagger on a mode truncated to ``levels`` Fock states."""
    root = np.sqrt(np.arange(1.0, levels))
    return sparse.diags([root, root], [-1, 1], format="csr")


def build_hamiltonian(params: ModelParams, space: TruncatedSpace) -> sparse.csr_matrix:
    """Assemble the collective Hamiltonian on the truncated space (real CSR)."""
    n_atoms = space.basis.n_atoms
    _check_dimension(n_atoms, space.cutoff_a, space.cutoff_b)
    n2, n3, n_a, n_b = _occupations(space)
    diagonal = (params.omega21 * n2 + params.omega31 * n3
                + params.omega_a * n_a + params.omega_b * n_b)
    x13 = _level1_hop(n_atoms, n2[:, 0, 0], n3[:, 0, 0], level=3)
    x12 = _level1_hop(n_atoms, n2[:, 0, 0], n3[:, 0, 0], level=2)
    na, nb = space.cutoff_a + 1, space.cutoff_b + 1
    pos_a = sparse.kron(_position(na), sparse.identity(nb), format="csr")
    pos_b = sparse.kron(sparse.identity(na), _position(nb), format="csr")
    scale = 1.0 / math.sqrt(n_atoms)
    return (sparse.diags(diagonal.ravel(), format="csr")
            + params.g1 * scale * sparse.kron(x13, pos_a, format="csr")
            + params.g2 * scale * sparse.kron(x12, pos_b, format="csr"))


def _parities(n2, n3, n_a, n_b):
    """Left, right and global parity of the occupations from _occupations.

    Left parity counts quanta in mode a plus level 3, right parity mode
    b plus level 2; the global parity is their product.
    """
    left = (-1.0) ** (n3 + n_a)
    right = (-1.0) ** (n2 + n_b)
    return left, right, left * right


def parity_operators(space: TruncatedSpace):
    """Diagonal parity operators (left, right, global) as sparse matrices."""
    parities = np.broadcast_arrays(*_parities(*_occupations(space)))
    return tuple(sparse.diags(p.ravel(), format="csr") for p in parities)


def parity_commutator_norms(params: ModelParams,
                            space: TruncatedSpace) -> tuple[float, float, float]:
    """Largest entry of [H, P] for each parity operator (left, right, global)."""
    h = build_hamiltonian(params, space)
    commutators = [h @ p - p @ h for p in parity_operators(space)]
    return tuple(float(np.abs(c.data).max()) if c.nnz else 0.0 for c in commutators)


def parity_check(params: ModelParams, space: TruncatedSpace) -> float:
    """Largest entry of [H, P] over the three parity operators."""
    return max(parity_commutator_norms(params, space))


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


def observables(space: TruncatedSpace, state: np.ndarray, energy: float,
                gap: float | None = None) -> GroundStateResult:
    """Scaled observables of a normalized state on the truncated space."""
    n_atoms = space.basis.n_atoms
    n2, n3, n_a, n_b = _occupations(space)
    weights = np.abs(np.asarray(state).reshape(n2.size, n_a.size, n_b.size)) ** 2

    def mean(values) -> float:
        return float(np.sum(weights * values))

    parity_l, parity_r, parity_g = (mean(p) for p in _parities(n2, n3, n_a, n_b))
    return GroundStateResult(
        energy=energy,
        photon_a=mean(n_a) / n_atoms,
        photon_b=mean(n_b) / n_atoms,
        pop2=mean(n2) / n_atoms,
        pop3=mean(n3) / n_atoms,
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
    boundary are both representable before convergence doubling.  Never
    below CUTOFF_FLOOR.
    """
    branches = [s for s in stationary_branches(params) if s.physical]
    field_a = max((s.phi_a ** 2 for s in branches), default=0.0)
    field_b = max((s.phi_b ** 2 for s in branches), default=0.0)
    cutoff_a = max(CUTOFF_FLOOR, math.ceil(6.0 * n_atoms * field_a + 10.0))
    cutoff_b = max(CUTOFF_FLOOR, math.ceil(6.0 * n_atoms * field_b + 10.0))
    return cutoff_a, cutoff_b


def converge_cutoffs(params: ModelParams, n_atoms: int, start: tuple[int, int] | None = None,
                     tol: float = 1e-4, eig_tol: float = 1e-8, seed: int = 0):
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
        space = truncated_space(n_atoms, cutoff_a, cutoff_b, trace=trace)
        h = build_hamiltonian(params, space)
        e0, vec = ground_state(h, tol=eig_tol, seed=seed)
        result = observables(space, vec, energy=e0)
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


def solve_point(params: ModelParams, n_atoms: int, space: TruncatedSpace,
                tol: float = 1e-8, seed: int = 0, with_gap: bool = False) -> GroundStateResult:
    """Ground-state observables of n_atoms atoms at one parameter point on ``space``."""
    if space.basis.n_atoms != n_atoms:
        raise ValueError(f"space holds {space.basis.n_atoms} atoms, not {n_atoms}")
    h = build_hamiltonian(params, space)
    if with_gap:
        e0, e1, vec = lowest_two(h, tol=tol, seed=seed)
        gap = e1 - e0
    else:
        e0, vec = ground_state(h, tol=tol, seed=seed)
        gap = None
    return observables(space, vec, energy=e0, gap=gap)
