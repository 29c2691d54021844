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
(cutoff_b + 1) + n_b.  A TruncatedSpace is every basis index and a
ParitySector an ascending subset of them; ``_occupations`` reads n2, n3,
n_a and n_b of any such set back from the index formula, and the
diagonal of H, the parity operators and the observables all come from
it.  ``build_hamiltonian`` assembles H on either kind of space the same
way, by index arithmetic and no Kronecker products: each atomic hop J_1l
+ J_l1 (amplitude sqrt(n1 (n_l + 1)) for an atom moving from level 1 to
level l) meets its mode's a + a^dagger, and the destination index is
looked up in the space's own.  The whole-space matrix is parity-check's
operator; the solves only ever build sector blocks.

Parity sectors.  The left parity (-1)^(n3 + n_a) and the right parity
(-1)^(n2 + n_b) both commute with H, so H splits exactly into four
blocks, one per ParitySector (left, right) in {+1, -1}^2.  A sector is
the ascending array of the whole-space basis indices of its states,
``ParitySector.index``, so it keeps the whole-space order; its
occupations are read back from the index formula, and a whole-space
index maps into the sector by a binary search in ``index``.

Solves.  The ground state comes from an implicitly restarted Lanczos
iteration with an explicit residual acceptance test, falling back to
dense diagonalization for tiny spaces.  A solve starts from a given
vector when one is passed (the previous sweep point, or the previous
truncation's ground vector moved onto the new cutoffs), and otherwise
from a vector drawn from ``seed``; ARPACK gets at most LANCZOS_MAXITER
restarts.

Cutoffs.  A truncation holds a ground state when, for each mode, the
state's marginal Fock weight in the mode's top two levels (its tail
weight) is below cutoff_tol / TAIL_RATIO.  The weight is read from the
vector already solved; photon numbers move by about ten times it.

 * ``converge_cutoffs`` solves (+, +) at ``default_cutoffs``, grows any
   mode whose tail weight is too large, shrinks once to the smallest
   cutoffs the marginals allow (growing again only if the shrunk
   truncation's own weights fail), and then certifies the truncation it
   accepts: none of the other three sectors may have its ground energy
   below the (+, +) one by more than the solver's tolerance.
   Perron-Frobenius does not fix which block is lowest, and on a
   too-small truncation deep in a superradiant phase it can be (+, -)
   or (-, +); such a truncation is not accepted and both modes grow.
 * ``hold_tail`` is the growth step alone, for a state already solved:
   ``scan.ed_sweep`` applies it at every sweep point.
 * ``solve_point`` is exact on any space: E0 is the lowest of the four
   sector ground energies, the observables are those of that sector's
   ground state, and E1 is the lower of that sector's second level and
   the lowest ground energy of the other three.

A sector solved from the ``seed`` vector is a pure function of (params,
sector, tol, seed), so those solves are memoized, one truncation's four
sectors at a time.  converge_cutoffs solves (+, +) from the seed at
``default_cutoffs`` and again at the shrunk cutoffs, so the certificate
reuses the (+, +) solve of the truncation it checks (unless that grew
in ``hold_tail``), and solve_point on the truncation just certified (or
any equal one) reuses the certificate's four.

Every space is checked against DEFAULT_DIM_LIMIT, read at call time,
before anything of its size is allocated; the limit applies to the
whole truncated space, of which a sector is about a quarter.

scipy is imported inside the functions that build or solve matrices, not
here: the CLI imports this module, and scipy's import time would be most
of every mean-field command's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConvergenceError
from .meanfield import stationary_branches
from .model import ModelParams

__all__ = [
    "PARITY_SECTORS",
    "SymmetricBasis",
    "TruncatedSpace",
    "ParitySector",
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
    "hold_tail",
    "solve_point",
]

DEFAULT_DIM_LIMIT = 2_000_000
CUTOFF_FLOOR = 8  # smallest cutoff default_cutoffs returns
LANCZOS_MAXITER = 1000  # ARPACK restarts allowed per eigsh call
PARITY_SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (left, right) parities
_DENSE_THRESHOLD = 16  # below this dimension just diagonalize densely
TAIL_LEVELS = 2  # a mode's tail weight is its marginal weight in its top two Fock levels
TAIL_RATIO = 100.0  # tail-weight bound = cutoff_tol / TAIL_RATIO; photon error is ~10x the weight
SHRINK_MARGIN = 10.0  # a shrink keeps the new top two levels plus the cut ones under bound / this
GROWTH = 1.5  # factor one growth step applies to a cutoff


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
    def shape(self) -> tuple[int, int, int]:
        """(atomic states, mode-a levels, mode-b levels); the basis index runs over it in C order."""
        return self.basis.size, self.cutoff_a + 1, self.cutoff_b + 1

    @property
    def dimension(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class ParitySector:
    """The block of ``space`` with left parity ``left`` and right parity ``right``."""

    space: TruncatedSpace
    left: int
    right: int

    def __post_init__(self):
        if self.left not in (1, -1) or self.right not in (1, -1):
            raise ValueError(f"parities must be +1 or -1, got {self.left}, {self.right}")

    @cached_property
    def index(self) -> np.ndarray:
        """Whole-space basis indices of the sector's states, ascending and read-only."""
        left, right, _ = _parities(*_occupations(*_indexed(self.space)))
        index = np.flatnonzero((left == self.left) & (right == self.right))
        index.flags.writeable = False
        return index

    @property
    def dimension(self) -> int:
        return self.index.size


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


def _atomic_states(n_atoms: int):
    """n2 and n3 of every atomic state, in SymmetricBasis order."""
    n3 = np.repeat(np.arange(n_atoms + 1), np.arange(n_atoms + 1, 0, -1))
    return np.arange(n3.size) - _atom_index(n_atoms, 0, n3), n3


def _indexed(space) -> tuple[TruncatedSpace, np.ndarray]:
    """The truncation a TruncatedSpace or ParitySector lives in, and its
    ascending whole-space basis indices (all of them for a TruncatedSpace)."""
    if isinstance(space, ParitySector):
        return space.space, space.index
    return space, np.arange(space.dimension)


def _occupations(truncation: TruncatedSpace, index: np.ndarray):
    """n2, n3, n_a and n_b of the basis states ``index`` of ``truncation``, in that order."""
    atom, n_a, n_b = np.unravel_index(index, truncation.shape)
    n2, n3 = _atomic_states(truncation.basis.n_atoms)
    return n2[atom], n3[atom], n_a, n_b


def build_hamiltonian(params: ModelParams, space) -> sparse.csr_matrix:
    """Assemble the collective Hamiltonian (real CSR) on a TruncatedSpace or one ParitySector.

    Both are a set of whole-space basis indices, and H is assembled on
    them alone, in their order: a ParitySector's block is, entry for
    entry, the whole-space H restricted to it.  Every hop moves an atom
    from level 1 to level l (3 with mode a, 2 with mode b) and the mode by
    one quantum, which keeps both parities; it is listed once from its
    source state and mirrored.
    """
    from scipy import sparse
    truncation, index = _indexed(space)
    n_atoms = truncation.basis.n_atoms
    _check_dimension(n_atoms, truncation.cutoff_a, truncation.cutoff_b)
    n2, n3, n_a, n_b = _occupations(truncation, index)
    n1 = n_atoms - n2 - n3
    diagonal = (params.omega21 * n2 + params.omega31 * n3
                + params.omega_a * n_a + params.omega_b * n_b)
    rows, cols, values = [], [], []
    scale = 1.0 / math.sqrt(n_atoms)
    src = np.flatnonzero(n1 > 0)
    for coupling, level, mode, cutoff in ((params.g1, 3, n_a, truncation.cutoff_a),
                                          (params.g2, 2, n_b, truncation.cutoff_b)):
        n_l = (n2 if level == 2 else n3)[src]
        dst_atom = _atom_index(n_atoms, n2[src] + (level == 2), n3[src] + (level == 3))
        atomic = np.sqrt(n1[src] * (n_l + 1))
        for step in (-1, 1):
            moved = mode[src] + step
            keep = (moved >= 0) & (moved <= cutoff)
            from_state, moved = src[keep], moved[keep]
            dst_a, dst_b = (moved, n_b[from_state]) if level == 3 else (n_a[from_state], moved)
            dst = np.ravel_multi_index((dst_atom[keep], dst_a, dst_b), truncation.shape)
            rows.append(np.searchsorted(index, dst))
            cols.append(from_state)
            values.append(coupling * scale
                          * (atomic[keep] * np.sqrt(np.maximum(mode[from_state], moved))))
    rows, cols, values = (np.concatenate(part) for part in (rows, cols, values))
    states = np.arange(index.size)
    return sparse.csr_matrix(
        (np.concatenate([diagonal, values, values]),
         (np.concatenate([states, rows, cols]), np.concatenate([states, cols, rows]))),
        shape=(index.size, index.size))


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
    from scipy import sparse
    parities = _parities(*_occupations(*_indexed(space)))
    return tuple(sparse.diags(p, format="csr") for p in parities)


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


def eigsh(*args, **kwargs):
    """scipy's ``eigsh``, imported on the first call.

    ``_eigsh_lowest`` looks this name up at every call, so a replacement
    bound here (a counting pass-through, say) sees every ARPACK run.
    """
    from scipy.sparse.linalg import eigsh
    return eigsh(*args, **kwargs)


def _eigsh_lowest(h: sparse.csr_matrix, k: int, tol: float, seed: int,
                  start: np.ndarray | None = None):
    """Lowest k eigenpairs with explicit residual acceptance and retries."""
    from scipy import sparse
    from scipy.sparse.linalg import ArpackNoConvergence
    dim = h.shape[0]
    if dim <= max(_DENSE_THRESHOLD, k + 1):
        dense = np.asarray(h.todense())
        vals, vecs = np.linalg.eigh(dense)
        return vals[:k], vecs[:, :k]
    v0 = _seed_vector(dim, seed) if start is None else np.asarray(start, dtype=float)
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
                               maxiter=LANCZOS_MAXITER)
            vals = vals + sigma
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"Lanczos iteration did not converge within LANCZOS_MAXITER = "
                f"{LANCZOS_MAXITER} restarts at dimension {dim}",
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


def ground_state(h: sparse.csr_matrix, tol: float = 1e-10, seed: int = 0,
                 start: np.ndarray | None = None):
    """Lowest eigenpair (energy, normalized vector).

    The Lanczos run starts from ``start`` when given (it need not be
    normalized), else from a vector drawn from ``seed``.
    """
    vals, vecs = _eigsh_lowest(h, k=1, tol=tol, seed=seed, start=start)
    vec = vecs[:, 0]
    return float(vals[0]), vec / np.linalg.norm(vec)


def lowest_two(h: sparse.csr_matrix, tol: float = 1e-10, seed: int = 0):
    """Lowest two eigenvalues and the ground vector: (e0, e1, v0)."""
    vals, vecs = _eigsh_lowest(h, k=2, tol=tol, seed=seed)
    vec = vecs[:, 0]
    return float(vals[0]), float(vals[1]), vec / np.linalg.norm(vec)


def observables(space, state: np.ndarray, energy: float,
                gap: float | None = None) -> GroundStateResult:
    """Scaled observables of a normalized state on a TruncatedSpace or one ParitySector."""
    truncation, index = _indexed(space)
    n_atoms = truncation.basis.n_atoms
    n2, n3, n_a, n_b = _occupations(truncation, index)
    weights = np.abs(np.asarray(state)) ** 2

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
        cutoff_a=truncation.cutoff_a,
        cutoff_b=truncation.cutoff_b,
    )


def default_cutoffs(params: ModelParams, n_atoms: int) -> tuple[int, int]:
    """Cutoff heuristic from the mean-field mode amplitudes.

    Uses the largest squared amplitude over all physical stationary
    branches per mode, so competing condensates near a first-order
    boundary are both representable in the first solve, from which
    converge_cutoffs shrinks.  Never below CUTOFF_FLOOR.
    """
    branches = [s for s in stationary_branches(params) if s.physical]
    field_a = max((s.phi_a ** 2 for s in branches), default=0.0)
    field_b = max((s.phi_b ** 2 for s in branches), default=0.0)
    cutoff_a = max(CUTOFF_FLOOR, math.ceil(6.0 * n_atoms * field_a + 10.0))
    cutoff_b = max(CUTOFF_FLOOR, math.ceil(6.0 * n_atoms * field_b + 10.0))
    return cutoff_a, cutoff_b


def _transfer(sector: ParitySector, state: np.ndarray, target: ParitySector) -> np.ndarray:
    """``state`` on ``sector`` as a vector on ``target`` (same atoms and parities).

    Levels that ``target`` adds are zero-padded and levels it drops are
    cut off, so the vector is the same state wherever both cutoffs hold.
    """
    atom, n_a, n_b = np.unravel_index(sector.index, sector.space.shape)
    keep = (n_a <= target.space.cutoff_a) & (n_b <= target.space.cutoff_b)
    moved = np.zeros(target.dimension)
    moved[np.searchsorted(target.index, np.ravel_multi_index(
        (atom[keep], n_a[keep], n_b[keep]), target.space.shape))] = state[keep]
    return moved


def _marginals(sector: ParitySector, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's Fock distribution in ``state``: weights of levels 0..cutoff, for a and for b."""
    _, n_a, n_b = np.unravel_index(sector.index, sector.space.shape)
    weights = np.square(state)
    return (np.bincount(n_a, weights, sector.space.cutoff_a + 1),
            np.bincount(n_b, weights, sector.space.cutoff_b + 1))


def _shrunk(marginal: np.ndarray, bound: float) -> int:
    """The smallest cutoff whose top two levels and every level above hold at most
    ``bound / SHRINK_MARGIN`` of ``marginal``, and never above its own cutoff."""
    beyond = np.cumsum(marginal[::-1])[::-1]  # beyond[n]: the weight of levels n and up
    above = int(np.count_nonzero(beyond > bound / SHRINK_MARGIN))
    return min(marginal.size - 1, above + TAIL_LEVELS - 1)


def hold_tail(params: ModelParams, sector: ParitySector, energy: float, state: np.ndarray,
              tol: float = 1e-4, eig_tol: float = 1e-8, trace: list | None = None):
    """Grow a (+, +) sector until each mode's tail weight is below tol / TAIL_RATIO.

    ``state`` is the ground state of H on ``sector``, of energy ``energy``,
    solved to ``eig_tol``.  A mode whose weight in its top two Fock levels
    reaches the bound grows by the factor GROWTH, the other keeps its
    cutoff, and the grown sector is solved from ``state`` zero-padded;
    this repeats until both weights pass.  Returns ``(sector, energy,
    state)``, unchanged when they pass at once.  Each truncation checked
    is appended to ``trace`` when one is given; CapacityError (carrying
    it) is raised if growth passes the dimension limit.
    """
    bound = tol / TAIL_RATIO
    while True:
        marginals = _marginals(sector, state)
        weights = [float(m[-TAIL_LEVELS:].sum()) for m in marginals]
        if trace is not None:
            result = observables(sector, state, energy)
            trace.append({"cutoff_a": result.cutoff_a, "cutoff_b": result.cutoff_b,
                          "dimension": sector.space.dimension, "energy": energy,
                          "photon_a": result.photon_a, "photon_b": result.photon_b,
                          "weight_a": weights[0], "weight_b": weights[1]})
        if max(weights) < bound:
            return sector, energy, state
        cutoffs = [math.ceil(GROWTH * (m.size - 1)) if w >= bound else m.size - 1
                   for m, w in zip(marginals, weights)]
        grown = ParitySector(truncated_space(sector.space.basis.n_atoms, *cutoffs, trace=trace),
                             1, 1)
        energy, state = ground_state(build_hamiltonian(params, grown), tol=eig_tol,
                                     start=_transfer(sector, state, grown))
        sector = grown


class _SectorGround(NamedTuple):
    """One parity sector's ground state, solved from the ``seed`` vector."""

    sector: ParitySector
    energy: float
    vector: np.ndarray  # read-only: the memo hands it to every caller
    error: float  # the bound the residual test puts on ``energy``: tol times H's scale


@lru_cache(maxsize=len(PARITY_SECTORS))
def _sector_ground(params: ModelParams, sector: ParitySector, tol: float,
                   seed: int) -> _SectorGround:
    h = build_hamiltonian(params, sector)
    energy, vector = ground_state(h, tol=tol, seed=seed)
    vector.flags.writeable = False
    return _SectorGround(sector, energy, vector, tol * max(1.0, _h_scale(h)))


def _sector_grounds(params: ModelParams, space: TruncatedSpace, tol: float,
                    seed: int) -> list[_SectorGround]:
    """The ground state of every parity sector of ``space``, in PARITY_SECTORS order."""
    return [_sector_ground(params, ParitySector(space, left, right), tol, seed)
            for left, right in PARITY_SECTORS]


def _check_solver_settings(seed: int, tolerances: dict[str, float]) -> None:
    """Refuse tolerances that are not finite and positive, and negative seeds, before solving."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def converge_cutoffs(params: ModelParams, n_atoms: int, start: tuple[int, int] | None = None,
                     tol: float = 1e-4, eig_tol: float = 1e-8, seed: int = 0):
    """The boson cutoffs that hold the ground state: each mode's tail weight below tol / TAIL_RATIO.

    The (+, +) sector is solved at ``start`` (default: ``default_cutoffs``)
    from the ``seed`` vector and grown by ``hold_tail`` until both tail
    weights pass.  It is then shrunk once, to the smallest cutoffs its
    marginals allow, solved there from the ``seed`` vector and held by
    ``hold_tail`` again, which keeps it when its own weights pass.  Last,
    the certificate: no other parity sector's ground energy may lie below
    the (+, +) one by more than its solve's error bound, or both modes
    grow by GROWTH, are solved there from the seed, and the tail check
    and certificate run again.  Each (+, +) seed solve is memoized, so the
    certificate reuses it.  Returns ``(space, trace)``, where ``trace``
    records every truncation solved, with its tail weights.  Raises
    ValueError for a tolerance that is not finite and positive or a
    negative seed, and CapacityError (with the trace attached) if the
    dimension limit is hit first.
    """
    _check_solver_settings(seed, {"photon-number tolerance tol": tol,
                                  "eigensolver tolerance eig_tol": eig_tol})
    trace = []

    def held(cutoffs):
        even = _sector_ground(params, ParitySector(truncated_space(n_atoms, *cutoffs, trace=trace),
                                                   1, 1), eig_tol, seed)
        return hold_tail(params, even.sector, even.energy, even.vector, tol, eig_tol, trace)

    sector, _, state = held(start if start is not None else default_cutoffs(params, n_atoms))
    cutoffs = [_shrunk(m, tol / TAIL_RATIO) for m in _marginals(sector, state)]
    while True:
        if cutoffs != [sector.space.cutoff_a, sector.space.cutoff_b]:
            sector, _, state = held(cutoffs)
        even, *others = _sector_grounds(params, sector.space, eig_tol, seed)
        if not any(g.energy < even.energy - g.error for g in others):
            return sector.space, trace
        cutoffs = [math.ceil(GROWTH * c) for c in (sector.space.cutoff_a, sector.space.cutoff_b)]


def solve_point(params: ModelParams, n_atoms: int, space: TruncatedSpace,
                tol: float = 1e-8, seed: int = 0, with_gap: bool = False) -> GroundStateResult:
    """Ground-state observables of n_atoms atoms at one parameter point on ``space``.

    Exact on any truncation: every parity sector is solved from the
    ``seed`` vector, E0 is the lowest sector ground energy and the
    observables are that sector's.  With ``with_gap``, E1 is the lower
    of that sector's second level and the other sectors' ground energies.
    Raises ValueError for a ``tol`` that is not finite and positive or
    a negative seed.
    """
    _check_solver_settings(seed, {"eigensolver tolerance tol": tol})
    if space.basis.n_atoms != n_atoms:
        raise ValueError(f"space holds {space.basis.n_atoms} atoms, not {n_atoms}")
    grounds = _sector_grounds(params, space, tol, seed)
    lowest = min(grounds, key=lambda g: g.energy)
    e0, vec, gap = lowest.energy, lowest.vector, None
    if with_gap:
        e0, e1, vec = lowest_two(build_hamiltonian(params, lowest.sector), tol=tol, seed=seed)
        gap = min([e1] + [g.energy for g in grounds if g is not lowest]) - e0
    return observables(lowest.sector, vec, energy=e0, gap=gap)
