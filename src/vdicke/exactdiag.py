"""Finite-N cross-checks in the permutation-symmetric sector.

The collective Hamiltonian only involves symmetric sums of single-atom
transition operators, so the ground state lives in the permutation
symmetric subspace.  A symmetric state of N three-level atoms is fixed
by the occupations (n1, n2, n3) of the levels, n1 + n2 + n3 = N, which
gives (N+1)(N+2)/2 states instead of 3^N.  In this sector the
collective operators act like bilinears of three Schwinger bosons:

    <.., n_m + 1, .., n_n - 1, ..| J_mn |n1, n2, n3> = sqrt((n_m + 1) n_n)

for m != n, and J_mm is diagonal with eigenvalue n_m.

Layout.  A TruncatedSpace is the value (N, cutoff_a, cutoff_b), each
mode truncated at its Fock cutoff.  A basis state is (n2, n3, n_a, n_b),
n1 = N - n2 - n3 implied; the atomic states run over n3, then n2, so
(n2, n3) sits at n3 (N + 1) - n3 (n3 - 1) / 2 + n2, and the basis index
runs over (atomic state, n_a, n_b) in C order.  No state is stored:
``_occupations`` maps the ascending basis indices of a TruncatedSpace (all
of them) or a ParitySector to their occupations, and ``_basis_index``
maps occupations back.  ``_HOPS`` is the one hop table: g1 takes an atom
from level 1 to 3 with mode a, g2 from 1 to 2 with mode b, each with a
photon down or up.  ``build_hamiltonian`` walks it in one loop on a space
or a sector; the whole-space H is parity-check's operator, and the solves
only ever build sector blocks.

Parity sectors.  A hop keeps the parity of its level's and its mode's
quanta, so the table's two (level, mode) pairs give the left parity
(-1)^(n3 + n_a) and the right one (-1)^(n2 + n_b), and H splits into four
blocks, one per ParitySector (left, right) in {+1, -1}^2.  Its ascending
whole-space basis indices, ``ParitySector.index``, are enumerated from
those pairs without reading a state outside it; a whole-space index maps
into a sector by a binary search.

Solves.  H is a ``Hamiltonian``: its diagonal and, per row, one partner
column for each hop term and direction (ELL layout), applied by a
gather.  The ground state comes from one thick-restart Lanczos run
(``eigsh``), which reads its Ritz residuals once per restart cycle and
stops once they are LANCZOS_STOP of the acceptance bound tol * max(1,
|H|), |H| the scale of H, read once per H; an explicit residual test
against the bound then accepts the pairs or raises ConvergenceError.
Tiny spaces are diagonalized densely.  A solve starts from a given
vector when one is passed (the previous sweep point, or the previous
truncation's ground vector moved onto the new cutoffs), and otherwise
from a vector drawn from ``seed``; a Lanczos run gets at most
LANCZOS_MAXITER restarts.

Cutoffs.  A truncation holds a ground state when, for each mode, the
state's marginal Fock weight in the mode's top two levels (its tail
weight) is below cutoff_tol / TAIL_RATIO.  The weight is read from the
vector already solved; photon numbers move by about ten times it.

 * ``_hold_tail`` solves (+, +) on one truncation and grows it until
   both weights pass.
 * ``_hold_sector_order`` is the one certificate: no other sector's
   ground energy may lie below the (+, +) one, which its caller has
   just solved and hands it, by more than the solver's tolerance, or
   both modes grow.  Perron-Frobenius does not fix which block is
   lowest; on a too-small truncation deep in a superradiant phase it can
   be (+, -) or (-, +).
 * ``converge_cutoffs`` holds the tail from (CUTOFF_FLOOR, CUTOFF_FLOOR),
   shrinks once to the smallest cutoffs the marginals allow, holds the
   tail there, and certifies the result.
 * ``solve_sweep`` converges at a sweep's first point and holds the tail
   at every point, warm from the previous one's vector, on one shared
   truncation; if it grew, the truncation is certified for the point
   that grew it last, and when that grows it every point is solved again.
 * ``solve_point`` is exact on any space: E0 is the lowest of the four
   sector ground energies, the observables are those of that sector's
   ground state, and E1 is the lower of that sector's second level and
   the lowest ground energy of the other three.

A sector solved from the ``seed`` vector is a pure function of (params,
sector, tol, seed), so those solves are memoized, one truncation's four
sectors at a time: solve_point on a truncation just certified (or an
equal one) reuses the certificate's three solves, and it and a sweep's
first point reuse (+, +)'s when ``_hold_tail`` accepted it ungrown.

A TruncatedSpace checks itself when it is constructed: N and both
cutoffs must be at least 1 (ValueError), and its dimension at most
DEFAULT_DIM_LIMIT, read at call time (CapacityError), before any array
of its size is allocated.  The limit applies to the whole truncated
space, of which a sector is about a quarter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConvergenceError
from .model import ModelParams

__all__ = [
    "PARITY_SECTORS",
    "TruncatedSpace",
    "ParitySector",
    "GroundStateResult",
    "Hamiltonian",
    "build_hamiltonian",
    "parity_operators",
    "parity_commutator_norms",
    "ground_state",
    "lowest_two",
    "observables",
    "converge_cutoffs",
    "solve_sweep",
    "solve_point",
]

DEFAULT_DIM_LIMIT = 2_000_000
CUTOFF_FLOOR = 8  # every cutoff search starts at (CUTOFF_FLOOR, CUTOFF_FLOOR)
LANCZOS_MAXITER = 1000  # restarts allowed per eigsh call
LANCZOS_BASIS = 20  # Lanczos vectors held before a restart
LANCZOS_KEEP = 10  # Ritz vectors a restart keeps
LANCZOS_STOP = 1e-3  # a Lanczos run stops at this share of the acceptance bound
_REORTHOGONALISE = 1 / math.sqrt(2)  # beta below this share of |a v|: orthogonalise twice
_BREAKDOWN = 1e-12  # beta at most this share of |a v|: the basis spans an invariant subspace
PARITY_SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (left, right) parities
_DENSE_THRESHOLD = 16  # below this dimension just diagonalize densely
TAIL_LEVELS = 2  # a mode's tail weight is its marginal weight in its top two Fock levels
TAIL_RATIO = 100.0  # tail-weight bound = cutoff_tol / TAIL_RATIO; photon error is ~10x the weight
SHRINK_MARGIN = 10.0  # a shrink keeps the new top two levels plus the cut ones under bound / this
GROWTH = 1.5  # factor one growth step applies to a cutoff


@dataclass(frozen=True)
class TruncatedSpace:
    """The symmetric sector of ``n_atoms`` atoms tensor two Fock-truncated modes.

    Construction refuses an atom number or a cutoff below 1 (ValueError)
    and a dimension above DEFAULT_DIM_LIMIT, read at call time
    (CapacityError); it allocates nothing of the space's size.
    """

    n_atoms: int
    cutoff_a: int
    cutoff_b: int

    def __post_init__(self):
        if min(self.n_atoms, self.cutoff_a, self.cutoff_b) < 1:
            raise ValueError(f"n_atoms and both cutoffs must be >= 1, got "
                             f"{self.n_atoms}, {self.cutoff_a}, {self.cutoff_b}")
        if self.dimension > DEFAULT_DIM_LIMIT:
            raise CapacityError(
                f"space dimension {self.dimension} (N = {self.n_atoms}, cutoffs "
                f"{self.cutoff_a} and {self.cutoff_b}) exceeds the dimension limit "
                f"{DEFAULT_DIM_LIMIT}",
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        """(atomic states, mode-a levels, mode-b levels); the basis index runs over it in C order."""
        return (self.n_atoms + 1) * (self.n_atoms + 2) // 2, self.cutoff_a + 1, self.cutoff_b + 1

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
        index = _enumerate(self.space, (self.left, self.right))
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
    excitation gap from solve_point, None from a sweep.
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


def _atom_index(n_atoms: int, n2, n3):
    """Position of the atomic state (n2, n3) when the states run over n3, then n2."""
    return n3 * (n_atoms + 1) - n3 * (n3 - 1) // 2 + n2


def _atomic_states(n_atoms: int):
    """n2 and n3 of every atomic state, in the order of _atom_index."""
    n3 = np.repeat(np.arange(n_atoms + 1), np.arange(n_atoms + 1, 0, -1))
    return np.arange(n3.size) - _atom_index(n_atoms, 0, n3), n3


# The hop terms (coupling, level, mode, step): an atom moves from level 1 to ``level``
# and ``mode`` by ``step`` quanta.  Level and mode are positions in (n2, n3, n_a, n_b),
# and the mode's levels run along axis mode - 1 of TruncatedSpace.shape; the two
# (level, mode) pairs count the quanta of the left, then the right parity.
_HOPS = (("g1", 1, 2, -1), ("g1", 1, 2, 1), ("g2", 0, 3, -1), ("g2", 0, 3, 1))
_PARITY_PAIRS = tuple(dict.fromkeys((level, mode) for _, level, mode, _ in _HOPS))
HOP_COLUMNS = 2 * len(_HOPS)  # each term fills one partner column per direction
_ROW_SUM = np.ones(HOP_COLUMNS)


def _enumerate(truncation: TruncatedSpace, parities=None) -> np.ndarray:
    """Ascending whole-space basis indices of ``truncation``, all of them or those of
    its sector of (left, right) ``parities``: the one maker of a space's index set.  A
    sector reads no state outside it: each prefix, an atomic state and then an (atomic
    state, n_a) pair, takes every second level of the next mode in _PARITY_PAIRS (which
    lists mode a, then b, as the layout does) from the first level that matches.
    """
    if parities is None:
        return np.arange(truncation.dimension)
    atomic = _atomic_states(truncation.n_atoms)
    index = owner = np.arange(truncation.shape[0])  # owner: each prefix's atomic state
    for (level, mode), parity in zip(_PARITY_PAIRS, parities):
        levels = truncation.shape[mode - 1]
        first = (atomic[level][owner] + (parity < 0)) % 2
        counts = (levels - first + 1) // 2
        starts = np.cumsum(counts) - counts
        owner = np.repeat(owner, counts)
        index = np.repeat(index * levels + first - 2 * starts, counts) + 2 * np.arange(owner.size)
    return index


def _occupations(space):
    """The truncation a TruncatedSpace or ParitySector lives in, its ascending
    whole-space basis indices, and n2, n3, n_a and n_b of each of those states."""
    truncation, index = ((space.space, space.index) if isinstance(space, ParitySector)
                         else (space, _enumerate(space)))
    atom, n_a, n_b = np.unravel_index(index, truncation.shape)
    n2, n3 = _atomic_states(truncation.n_atoms)
    return truncation, index, (n2[atom], n3[atom], n_a, n_b)


def _basis_index(truncation: TruncatedSpace, n2, n3, n_a, n_b):
    """Whole-space basis index of the occupations, the inverse of _occupations;
    ValueError for a mode level outside the truncation."""
    return np.ravel_multi_index((_atom_index(truncation.n_atoms, n2, n3), n_a, n_b),
                                truncation.shape)


def _h_scale(h: Hamiltonian) -> float:
    # Infinity norm: cheap, and an upper bound on the spectral radius.  A solve reads
    # it first, once per H (Hamiltonian.scale caches it); the Lanczos norms square it,
    # so an overflowing square is refused.
    scale = float((np.abs(h.diagonal) + np.abs(h.values).sum(axis=1)).max())
    if scale * scale == math.inf:
        raise OverflowError(f"the scale of H, {scale:.6g}, squared overflows a float")
    return scale


class Hamiltonian:
    """A real symmetric H: its diagonal plus, per row, HOP_COLUMNS off-diagonal
    entries in ELL layout.

    Row i holds ``values[i, c]`` at column ``partners[i, c]``; an absent
    entry is a zero pointing at row i itself.  ``nnz`` counts the stored
    entries as a sparse matrix would: every diagonal entry and each hop.
    """

    dtype = np.dtype(np.float64)
    scale = cached_property(_h_scale)  # read by the solve and by the memo's error bound

    def __init__(self, diagonal: np.ndarray, partners: np.ndarray, values: np.ndarray,
                 hops: int):
        self.diagonal, self.partners, self.values = diagonal, partners, values
        self.shape = (diagonal.size, diagonal.size)
        self.nnz = diagonal.size + hops

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # mode="clip" skips take's bounds check, as every partner is a row index;
        # a product with ones sums the rows faster than einsum or sum(axis=1)
        gathered = x.take(self.partners, mode="clip")
        gathered *= self.values
        return gathered @ _ROW_SUM + self.diagonal * x

    def toarray(self) -> np.ndarray:
        dense = np.diag(self.diagonal)
        np.add.at(dense, (np.arange(self.shape[0])[:, None], self.partners), self.values)
        return dense


def build_hamiltonian(params: ModelParams, space) -> Hamiltonian:
    """Assemble the collective Hamiltonian on a TruncatedSpace or one ParitySector.

    H is assembled on the space's basis indices alone, in their order, so a
    sector's block is the whole-space H restricted to it.  Each _HOPS term
    maps its sources, the states with an atom in level 1, one to one onto
    their destinations: one partner column for it, one for its mirror.
    """
    truncation, index, occupations = _occupations(space)
    n2, n3, n_a, n_b = occupations
    n1 = truncation.n_atoms - n2 - n3
    diagonal = (params.omega21 * n2 + params.omega31 * n3
                + params.omega_a * n_a + params.omega_b * n_b)
    partners = np.repeat(np.arange(index.size)[:, None], HOP_COLUMNS, axis=1)
    values = np.zeros((index.size, HOP_COLUMNS))
    hops, scale = 0, 1.0 / math.sqrt(truncation.n_atoms)
    src = np.flatnonzero(n1 > 0)
    source, n1 = [n[src] for n in occupations], n1[src]
    # The destination's atomic state, (n2, n3) with the term's level raised by one,
    # depends on the term's level alone: one index per level.
    raised, atoms = {}, {}
    for level in dict.fromkeys(level for _, level, _, _ in _HOPS):
        atomic = source[:2]
        atomic[level] = raised[level] = source[level] + 1
        atoms[level] = _atom_index(truncation.n_atoms, *atomic)
    for column, (coupling, level, mode, step) in zip(range(0, HOP_COLUMNS, 2), _HOPS):
        moved = source[mode] + step
        photons = source[2:]
        photons[mode - 2] = moved.clip(0, truncation.shape[mode - 1] - 1)
        keep = photons[mode - 2] == moved  # a hop off the truncation is dropped
        from_state = src[keep]
        dst = np.searchsorted(index, np.ravel_multi_index((atoms[level], *photons),
                                                          truncation.shape)[keep])
        value = getattr(params, coupling) * scale * (
            np.sqrt(n1 * raised[level]) * np.sqrt(np.maximum(source[mode], moved)))[keep]
        partners[from_state, column], values[from_state, column] = dst, value
        partners[dst, column + 1], values[dst, column + 1] = from_state, value
        hops += 2 * from_state.size
    return Hamiltonian(diagonal, partners, values, hops)


def _parities(occupations):
    """Left, right and global parity of the occupations from _occupations, integer
    arrays of +-1: the quanta of each _PARITY_PAIRS level and mode, then their product."""
    left, right = (1 - 2 * ((occupations[level] + occupations[mode]) % 2)
                   for level, mode in _PARITY_PAIRS)
    return left, right, left * right


def parity_operators(space: TruncatedSpace):
    """The diagonals of the parity operators (left, right, global): arrays of +-1."""
    return _parities(_occupations(space)[2])


def parity_commutator_norms(params: ModelParams,
                            space: TruncatedSpace) -> tuple[float, float, float]:
    """Largest entry of [H, P] for each parity operator (left, right, global).

    P is diagonal, so [H, P]_ij = H_ij (p_j - p_i): read from H's stored entries.
    """
    h = build_hamiltonian(params, space)
    return tuple(float(np.abs(h.values * (p[h.partners] - p[:, None])).max())
                 for p in parity_operators(space))


def _seed_vector(dimension: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dimension)
    return v0 / np.linalg.norm(v0)


def eigsh(a, k: int, v0: np.ndarray, tol: float):
    """The k lowest eigenpairs of a real symmetric ``a``: thick-restart Lanczos.

    Only ``a.shape`` and ``a @ x`` are used.  A cycle fills the basis to
    LANCZOS_BASIS vectors, each orthogonalised against all earlier ones,
    and then reads the Ritz residuals beta |s_last| of the k lowest Ritz
    pairs once; the run stops when all are at most ``tol`` (an absolute
    bound on |a x - theta x|).  Otherwise the basis restarts from its
    LANCZOS_KEEP lowest Ritz vectors and the residual direction (Wu and
    Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)), so a run on a space
    larger than the basis costs LANCZOS_BASIS + r (LANCZOS_BASIS -
    LANCZOS_KEEP) matvecs after r restarts.  When beta vanishes the basis
    spans an invariant subspace: the run goes on from a random vector
    orthogonal to it, and as the residuals are read only at the end of the
    cycle, a start on an excited eigenvector is not taken for the lowest.
    Returns ``(values, vectors)``, ascending, one vector per column;
    ConvergenceError after LANCZOS_MAXITER restarts, read at call time.
    """
    dim = a.shape[0]
    size = min(LANCZOS_BASIS, dim)
    keep = min(LANCZOS_KEEP, size - 1)
    if not 1 <= k <= keep:
        raise ValueError(f"k must lie in 1..{keep} at dimension {dim}, got {k}")
    basis = np.empty((size + 1, dim))
    basis[0] = v0 / np.linalg.norm(v0)
    projected = np.zeros((size, size))
    rng = np.random.default_rng(0)
    first = 0
    for _restart in range(LANCZOS_MAXITER + 1):
        for j in range(first, size):
            v, known = basis[j], basis[:j + 1]
            w = a @ v
            norm = math.sqrt(w @ w)  # |a v|
            projected[j, j] = alpha = float(v @ w)
            w -= alpha * v  # the recurrence, then every earlier vector
            w -= projected[j, :j] @ basis[:j] if j == first else projected[j, j - 1] * basis[j - 1]
            for _pass in range(2):  # a second pass only when the first cancels
                before = math.sqrt(w @ w)
                w -= (known @ w) @ known
                beta = math.sqrt(w @ w)
                if beta >= _REORTHOGONALISE * before:
                    break
            if beta <= _BREAKDOWN * norm:  # the basis spans an invariant subspace
                beta = 0.0
                if j + 1 < dim:
                    w = rng.standard_normal(dim)
                    for _pass in range(2):
                        w -= (known @ w) @ known
                    w /= np.linalg.norm(w)
            else:
                w /= beta
            basis[j + 1] = w
            if j + 1 < size:
                projected[j, j + 1] = projected[j + 1, j] = beta
        ritz, vectors = np.linalg.eigh(projected)
        residual = float(beta * np.abs(vectors[-1, :k]).max())
        if residual <= tol:
            return ritz[:k], (vectors[:, :k].T @ basis[:size]).T
        # restart from the lowest Ritz vectors and the residual direction
        basis[:keep] = vectors[:, :keep].T @ basis[:size]
        basis[keep] = basis[size]
        projected[:] = 0.0
        projected[np.arange(keep), np.arange(keep)] = ritz[:keep]
        projected[keep, :keep] = projected[:keep, keep] = beta * vectors[-1, :keep]
        first = keep
    raise ConvergenceError(f"Lanczos iteration did not converge within LANCZOS_MAXITER = "
                           f"{LANCZOS_MAXITER} restarts at dimension {dim}", residual=residual)


def _acceptance_bound(h: Hamiltonian, tol: float) -> float:
    """The bound a solve's residual test puts on |h x - theta x| and on theta."""
    return tol * max(1.0, h.scale)


def _eigsh_lowest(h: Hamiltonian, k: int, tol: float, seed: int,
                  start: np.ndarray | None = None):
    """Lowest k eigenpairs: ``tol`` and ``seed`` are checked before any matvec, then one
    Lanczos run is accepted by an explicit residual test or refused (ConvergenceError
    naming the residual and the bound); tiny spaces are diagonalized densely."""
    _check_solver_settings(seed, {"eigensolver tolerance tol": tol})
    dim, bound = h.shape[0], _acceptance_bound(h, tol)
    if dim <= max(_DENSE_THRESHOLD, k + 1):
        vals, vecs = np.linalg.eigh(h.toarray())
        return vals[:k], vecs[:, :k]
    v0 = _seed_vector(dim, seed) if start is None else start
    vals, vecs = eigsh(h, k, v0, bound * LANCZOS_STOP)
    residual = max(float(np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i]))
                   for i in range(k))
    if residual > bound:
        raise ConvergenceError(f"Lanczos residual {residual} above the acceptance bound "
                               f"{bound} at dimension {dim}", residual=residual)
    return vals, vecs


def ground_state(h: Hamiltonian, tol: float = 1e-10, seed: int = 0,
                 start: np.ndarray | None = None):
    """Lowest eigenpair (energy, normalized vector).

    The Lanczos run starts from ``start`` when given (it need not be
    normalized), else from a vector drawn from ``seed``.  Raises
    ValueError for a ``tol`` that is not finite and positive or a
    negative seed.
    """
    vals, vecs = _eigsh_lowest(h, k=1, tol=tol, seed=seed, start=start)
    vec = vecs[:, 0]
    return float(vals[0]), vec / np.linalg.norm(vec)


def lowest_two(h: Hamiltonian, tol: float = 1e-10, seed: int = 0):
    """Lowest two eigenvalues and the ground vector: (e0, e1, v0); refuses ``tol``
    and ``seed`` as ground_state does."""
    vals, vecs = _eigsh_lowest(h, k=2, tol=tol, seed=seed)
    vec = vecs[:, 0]
    return float(vals[0]), float(vals[1]), vec / np.linalg.norm(vec)


def observables(space, state: np.ndarray, energy: float,
                gap: float | None = None) -> GroundStateResult:
    """Scaled observables of a normalized state on a TruncatedSpace or one ParitySector."""
    truncation, _, occupations = _occupations(space)
    weights = np.abs(np.asarray(state)) ** 2
    pop2, pop3, photon_a, photon_b = (float(np.sum(weights * n)) / truncation.n_atoms
                                      for n in occupations)
    parities = (float(np.sum(weights * p)) for p in _parities(occupations))
    return GroundStateResult(energy, photon_a, photon_b, pop2, pop3, *parities, gap,
                             truncation.cutoff_a, truncation.cutoff_b)


def _transfer(sector: ParitySector, state: np.ndarray, target: ParitySector) -> np.ndarray:
    """``state`` on ``sector`` zero-padded to ``target``: the same atoms and
    parities, and no cutoff lower (a lower one raises ValueError)."""
    moved = np.zeros(target.dimension)
    moved[np.searchsorted(target.index,
                          _basis_index(target.space, *_occupations(sector)[2]))] = state
    return moved


def _marginals(sector: ParitySector, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's Fock distribution in ``state``: weights of levels 0..cutoff, for a and for b."""
    _, _, (_, _, n_a, n_b) = _occupations(sector)
    weights = np.square(state)
    return (np.bincount(n_a, weights, sector.space.cutoff_a + 1),
            np.bincount(n_b, weights, sector.space.cutoff_b + 1))


def _shrunk(marginal: np.ndarray, bound: float) -> int:
    """The smallest cutoff whose top two levels and every level above hold at most
    ``bound / SHRINK_MARGIN`` of ``marginal``, and never above its own cutoff."""
    beyond = np.cumsum(marginal[::-1])[::-1]  # beyond[n]: the weight of levels n and up
    above = int(np.count_nonzero(beyond > bound / SHRINK_MARGIN))
    return min(marginal.size - 1, above + TAIL_LEVELS - 1)


def _even_sector(n_atoms: int, cutoffs) -> ParitySector:
    """(+, +) at ``cutoffs``; CapacityError past the dimension limit."""
    return ParitySector(TruncatedSpace(n_atoms, *cutoffs), 1, 1)


def _hold_tail(params: ModelParams, sector: ParitySector, start: np.ndarray | None,
               tol: float, eig_tol: float, seed: int, trace: list):
    """Solve a (+, +) sector and grow it until each mode's tail weight is below tol / TAIL_RATIO.

    H is solved to ``eig_tol`` from ``start``, or from the ``seed`` vector
    (memoized) when it is None.  A mode whose top two Fock levels weigh at
    least the bound grows by GROWTH, and the grown sector is solved from the
    state zero-padded, until both weights pass.  Returns ``(sector, energy,
    state)``, ``sector`` itself if they pass at once.  Each truncation
    checked is appended to ``trace``.
    """
    bound = tol / TAIL_RATIO
    while True:
        if start is None:
            _, energy, state, _ = _sector_ground(params, sector, eig_tol, seed)
        else:
            energy, state = ground_state(build_hamiltonian(params, sector), eig_tol, start=start)
        marginals = _marginals(sector, state)
        weights = [float(m[-TAIL_LEVELS:].sum()) for m in marginals]
        # photon numbers per atom, from the marginals
        photons = [float(m @ np.arange(m.size)) / sector.space.n_atoms for m in marginals]
        trace.append({"cutoff_a": sector.space.cutoff_a, "cutoff_b": sector.space.cutoff_b,
                      "dimension": sector.space.dimension, "energy": energy,
                      "photon_a": photons[0], "photon_b": photons[1],
                      "weight_a": weights[0], "weight_b": weights[1]})
        if max(weights) < bound:
            return sector, energy, state
        grown = _even_sector(sector.space.n_atoms,
                             [math.ceil(GROWTH * (m.size - 1)) if w >= bound else m.size - 1
                              for m, w in zip(marginals, weights)])
        sector, start = grown, _transfer(sector, state, grown)


class _SectorGround(NamedTuple):
    """One parity sector's ground state, solved from the ``seed`` vector."""

    sector: ParitySector
    energy: float
    vector: np.ndarray  # read-only: the memo hands it to every caller
    error: float  # the bound the residual test puts on ``energy``: _acceptance_bound


@lru_cache(maxsize=len(PARITY_SECTORS))
def _sector_ground(params: ModelParams, sector: ParitySector, tol: float,
                   seed: int) -> _SectorGround:
    h = build_hamiltonian(params, sector)
    error = _acceptance_bound(h, tol)  # before the solve: it refuses an H it cannot represent
    energy, vector = ground_state(h, tol=tol, seed=seed)
    vector.flags.writeable = False
    return _SectorGround(sector, energy, vector, error)


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


def _hold_sector_order(params: ModelParams, space: TruncatedSpace, even_energy: float,
                       tol: float, eig_tol: float, seed: int, trace: list) -> TruncatedSpace:
    """The certificate: grow ``space`` until (+, +), whose ground energy there
    is ``even_energy``, holds the lowest.  The other sectors are solved from
    the ``seed`` vector (memoized); ``trace`` as in _hold_tail.
    """
    while True:
        others = [_sector_ground(params, ParitySector(space, left, right), eig_tol, seed)
                  for left, right in PARITY_SECTORS[1:]]
        if not any(g.energy < even_energy - g.error for g in others):
            return space
        grown = _even_sector(space.n_atoms, [math.ceil(GROWTH * c) for c in
                                             (space.cutoff_a, space.cutoff_b)])
        sector, even_energy, _ = _hold_tail(params, grown, None, tol, eig_tol, seed, trace)
        space = sector.space


def converge_cutoffs(params: ModelParams, n_atoms: int, tol: float = 1e-4, eig_tol: float = 1e-8,
                     seed: int = 0):
    """The boson cutoffs that hold the ground state: each mode's tail weight below tol / TAIL_RATIO.

    ``_hold_tail`` solves (+, +) from the ``seed`` vector at (CUTOFF_FLOOR,
    CUTOFF_FLOOR), read at call time, and grows it; the truncation is then
    shrunk once, to the smallest cutoffs its marginals allow, held again,
    and certified by ``_hold_sector_order``.  Returns ``(space, trace)``,
    ``trace`` recording every truncation solved with its tail weights.
    Raises ValueError for a tolerance that is not finite and positive or a
    negative seed, and CapacityError (with the trace) past the dimension limit.
    """
    _check_solver_settings(seed, {"photon-number tolerance tol": tol,
                                  "eigensolver tolerance eig_tol": eig_tol})
    trace = []
    try:
        sector, energy, state = _hold_tail(
            params, _even_sector(n_atoms, (CUTOFF_FLOOR, CUTOFF_FLOOR)), None, tol, eig_tol,
            seed, trace)
        cutoffs = [_shrunk(m, tol / TAIL_RATIO) for m in _marginals(sector, state)]
        if cutoffs != [sector.space.cutoff_a, sector.space.cutoff_b]:
            sector, energy, _ = _hold_tail(params, _even_sector(n_atoms, cutoffs), None, tol,
                                           eig_tol, seed, trace)
        return _hold_sector_order(params, sector.space, energy, tol, eig_tol, seed, trace), trace
    except CapacityError as exc:
        exc.trace = list(trace)
        raise


def solve_sweep(points: list[ModelParams], n_atoms: int, tol: float = 1e-4,
                eig_tol: float = 1e-8, seed: int = 0) -> list[GroundStateResult]:
    """(+, +) ground-state observables of n_atoms atoms at each of ``points``,
    on one truncation grown and certified as the module docstring says; each
    result carries its cutoffs.  Raises as converge_cutoffs does; a
    CapacityError from a later point names that point's couplings and carries
    the truncations it solved.  No points give no results, once the solver
    settings pass and n_atoms passes the check at (CUTOFF_FLOOR, CUTOFF_FLOOR).
    """
    if not points:
        _check_solver_settings(seed, {"photon-number tolerance tol": tol,
                                      "eigensolver tolerance eig_tol": eig_tol})
        TruncatedSpace(n_atoms, CUTOFF_FLOOR, CUTOFF_FLOOR)
        return []
    space, _ = converge_cutoffs(points[0], n_atoms, tol, eig_tol, seed)
    try:
        while True:
            sector, state, grew, results = ParitySector(space, 1, 1), None, None, []
            for row, params in enumerate(points):
                trace = []
                held, energy, state = _hold_tail(params, sector, state, tol, eig_tol, seed,
                                                 trace)
                if held != sector:
                    sector, grew = held, row
                results.append(observables(sector, state, energy))
            if grew is None:
                return results
            row, trace = grew, []
            space = _hold_sector_order(points[grew], sector.space, results[grew].energy, tol,
                                       eig_tol, seed, trace)
            if space == sector.space:
                return results
    except CapacityError as exc:
        raise CapacityError(f"{exc} at the sweep point g1 = {points[row].g1:.6g}, "
                            f"g2 = {points[row].g2:.6g}", trace) from exc


def solve_point(params: ModelParams, space: TruncatedSpace, tol: float = 1e-8,
                seed: int = 0) -> GroundStateResult:
    """Ground-state observables and the first excitation gap at one parameter point on ``space``.

    Exact on any truncation: every parity sector is solved from the
    ``seed`` vector, and the one with the lowest ground energy is solved
    for its two lowest levels, which give E0 and the observables; E1 is
    the lower of its second level and the other sectors' ground energies.
    Raises ValueError for a ``tol`` that is not finite and positive or
    a negative seed.
    """
    _check_solver_settings(seed, {"eigensolver tolerance tol": tol})
    grounds = _sector_grounds(params, space, tol, seed)
    lowest = min(grounds, key=lambda g: g.energy)
    e0, e1, vec = lowest_two(build_hamiltonian(params, lowest.sector), tol=tol, seed=seed)
    gap = min([e1] + [g.energy for g in grounds if g is not lowest]) - e0
    return observables(lowest.sector, vec, energy=e0, gap=gap)
