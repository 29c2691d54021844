"""Finite-N cross-checks in the permutation-symmetric sector.

The collective Hamiltonian only involves symmetric sums of single-atom
transition operators, so the ground state lives in the permutation
symmetric subspace.  A symmetric state of N three-level atoms is fixed
by the occupations (n1, n2, n3) of the levels, n1 + n2 + n3 = N, which
gives (N+1)(N+2)/2 states instead of 3^N.  In this sector the
collective operators act like bilinears of three Schwinger bosons:

    <.., n_m + 1, .., n_n - 1, ..| J_mn |n1, n2, n3> = sqrt((n_m + 1) n_n)

for m != n, and J_mm is diagonal with eigenvalue n_m.

Layout.  The box of (N, cutoff_a, cutoff_b) holds every state with each
mode truncated at its Fock cutoff.  A basis state is (n2, n3, n_a, n_b),
n1 = N - n2 - n3 implied; the atomic states run over n3, then n2, so
(n2, n3) sits at n3 (N + 1) - n3 (n3 - 1) / 2 + n2, and the box index
runs over (atomic state, n_a, n_b) in C order.  A TruncatedSpace is the
box or one of its parity blocks, and each value caches, read-only, the
ascending box indices of its states (``index``) and their occupations
(``occupations``); ``_basis_index`` maps occupations back.  ``_HOPS`` is
the one hop table: g1 takes an atom from level 1 to 3 with mode a, g2
from 1 to 2 with mode b, each with a photon down or up.
``build_hamiltonian`` walks it in one loop on any space; the box's H is
parity-check's operator, and the solves only ever build blocks.

Parity sectors.  A hop keeps the parity of its level's and its mode's
quanta, so the table's two (level, mode) pairs give the left parity
(-1)^(n3 + n_a) and the right one (-1)^(n2 + n_b), and H splits into four
blocks, one per (left, right) in PARITY_SECTORS, a TruncatedSpace with
those ``parities``.  A block's index is enumerated from those pairs
without reading a state outside it; a box index maps into a block by a
binary search.

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
from ``_seed_vector``, a counter-based SplitMix64 hash of ``seed``, so a
solve loads no random-number generator; a Lanczos run gets at most
LANCZOS_MAXITER restarts, and rotates its basis at a restart
LANCZOS_BLOCK columns at a time.

Cutoffs.  A truncation holds a ground state when, for each mode, the
state's marginal Fock weight in the mode's top two levels (its tail
weight) is below cutoff_tol / TAIL_RATIO.  The weight is read from the
vector already solved; photon numbers move by about ten times it.

 * ``_hold_tail`` takes a solved (+, +) sector and grows it until both
   weights pass.
 * ``_hold_sector_order`` is the one certificate: no other sector's
   ground energy may lie below the (+, +) one, which its caller has
   just solved and hands it, by more than the solver's tolerance, or
   both modes grow.  Perron-Frobenius does not fix which block is
   lowest; on a too-small truncation deep in a superradiant phase it can
   be (+, -) or (-, +).  It returns the four SectorSolves it certified,
   the three besides (+, +) with their energies alone: no vector, and a
   sector that caches no index or occupations.
 * ``converge_cutoffs`` holds the tail from (CUTOFF_FLOOR, CUTOFF_FLOOR),
   shrinks once to the smallest cutoffs the marginals allow, holds the
   tail there, and certifies the result.
 * ``solve_sweep`` converges at a sweep's first point, takes its (+, +)
   solve from the certificate, and holds the tail at every point, warm
   from the previous one's vector, on one shared truncation; if it grew,
   the truncation is certified for the point that grew it last, and
   when that grows it every point is solved again.
 * ``solve_point`` is exact on any space: E0 is the lowest of the four
   sector ground energies, the observables are those of that sector's
   ground state, and E1 is the lower of that sector's second level and
   the lowest ground energy of the other three.  It solves only the
   sectors it is not handed: after converge_cutoffs, none.

A TruncatedSpace checks itself when it is constructed: N and both
cutoffs must be at least 1 and its parities None or one of PARITY_SECTORS
(ValueError), and its box's dimension at most DEFAULT_DIM_LIMIT, read at
call time (CapacityError), before any array of its size is allocated.
The limit applies to the box, of which a block is about a quarter.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConvergenceError
from .model import ModelParams

__all__ = [
    "PARITY_SECTORS",
    "TruncatedSpace",
    "GroundStateResult",
    "SectorSolve",
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
LANCZOS_BLOCK = 4096  # columns a restart rotates at a time
_START, _RESTART = 0, 1  # _seed_vector's streams: start vectors, invariant-subspace restarts
_GOLDEN, _MASK64 = 0x9E3779B97F4A7C15, 2 ** 64 - 1  # SplitMix64's increment, and 64 bits
PARITY_SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (left, right) parities
_DENSE_THRESHOLD = 16  # below this dimension just diagonalize densely
TAIL_LEVELS = 2  # a mode's tail weight is its marginal weight in its top two Fock levels
TAIL_RATIO = 100.0  # tail-weight bound = cutoff_tol / TAIL_RATIO; photon error is ~10x the weight
SHRINK_MARGIN = 10.0  # a shrink keeps the new top two levels plus the cut ones under bound / this
GROWTH = 1.5  # factor one growth step applies to a cutoff


@dataclass(frozen=True)
class TruncatedSpace:
    """The symmetric sector of ``n_atoms`` atoms tensor two Fock-truncated modes: the
    whole box when ``parities`` is None, else its block of (left, right) ``parities``.

    Construction refuses an atom number or a cutoff below 1 and parities
    that are not None or one of PARITY_SECTORS (ValueError), and a box
    above DEFAULT_DIM_LIMIT, read at call time (CapacityError); it
    allocates nothing of the box's size.
    """

    n_atoms: int
    cutoff_a: int
    cutoff_b: int
    parities: tuple[int, int] | None = None

    def __post_init__(self):
        if min(self.n_atoms, self.cutoff_a, self.cutoff_b) < 1:
            raise ValueError(f"n_atoms and both cutoffs must be >= 1, got "
                             f"{self.n_atoms}, {self.cutoff_a}, {self.cutoff_b}")
        if self.parities not in (None, *PARITY_SECTORS):
            raise ValueError(f"parities must be None or one of PARITY_SECTORS "
                             f"{PARITY_SECTORS}, got {self.parities!r}")
        box = math.prod(self.shape)
        if box > DEFAULT_DIM_LIMIT:
            raise CapacityError(
                f"space dimension {box} (N = {self.n_atoms}, cutoffs "
                f"{self.cutoff_a} and {self.cutoff_b}) exceeds the dimension limit "
                f"{DEFAULT_DIM_LIMIT}",
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        """(atomic states, mode-a levels, mode-b levels); the box index runs over it in C order."""
        return (self.n_atoms + 1) * (self.n_atoms + 2) // 2, self.cutoff_a + 1, self.cutoff_b + 1

    @property
    def dimension(self) -> int:
        """The number of states: the box's, or the block's ``index.size``."""
        return math.prod(self.shape) if self.parities is None else self.index.size

    @cached_property
    def index(self) -> np.ndarray:
        """Box basis indices of the states, ascending and read-only."""
        index = np.arange(self.dimension) if self.parities is None else _enumerate(self)
        index.flags.writeable = False
        return index

    @cached_property
    def occupations(self) -> tuple[np.ndarray, ...]:
        """n2, n3, n_a and n_b of each state, in ``index`` order: read-only int32, as
        every count, and build_hamiltonian's products of two, is below the box's size."""
        atom, n_a, n_b = np.unravel_index(self.index, self.shape)
        n2, n3 = _atomic_states(self.n_atoms)
        occupations = tuple(n.astype(np.int32) for n in (n2[atom], n3[atom], n_a, n_b))
        for n in occupations:
            n.flags.writeable = False
        return occupations


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


def _enumerate(block: TruncatedSpace) -> np.ndarray:
    """Ascending box basis indices of a block, read without a state outside it: each
    prefix, an atomic state and then an (atomic state, n_a) pair, takes every second
    level of the next mode in _PARITY_PAIRS (which lists mode a, then b, as the layout
    does) from the first level that matches.
    """
    atomic = _atomic_states(block.n_atoms)
    index = owner = np.arange(block.shape[0])  # owner: each prefix's atomic state
    for (level, mode), parity in zip(_PARITY_PAIRS, block.parities):
        levels = block.shape[mode - 1]
        first = (atomic[level][owner] + (parity < 0)) % 2
        counts = (levels - first + 1) // 2
        starts = np.cumsum(counts) - counts
        owner = np.repeat(owner, counts)
        index = np.repeat(index * levels + first - 2 * starts, counts) + 2 * np.arange(owner.size)
    return index


def _basis_index(space: TruncatedSpace, n2, n3, n_a, n_b):
    """Box basis index of the occupations, the inverse of ``space.occupations``;
    ValueError for a mode level outside the cutoffs."""
    return np.ravel_multi_index((_atom_index(space.n_atoms, n2, n3), n_a, n_b), space.shape)


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
    scale = cached_property(_h_scale)  # read by each acceptance bound on this H

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


def build_hamiltonian(params: ModelParams, space: TruncatedSpace) -> Hamiltonian:
    """Assemble the collective Hamiltonian on a box or one of its parity blocks.

    H is assembled on the space's basis indices alone, in their order, so a
    block is the box's H restricted to it.  Each _HOPS term maps its
    sources, the states with an atom in level 1, one to one onto their
    destinations: one partner column for it, one for its mirror.
    """
    index, occupations = space.index, space.occupations
    n2, n3, n_a, n_b = occupations
    n1 = space.n_atoms - n2 - n3
    diagonal = (params.omega21 * n2 + params.omega31 * n3
                + params.omega_a * n_a + params.omega_b * n_b)
    partners = np.repeat(np.arange(index.size)[:, None], HOP_COLUMNS, axis=1)
    values = np.zeros((index.size, HOP_COLUMNS))
    hops, scale = 0, 1.0 / math.sqrt(space.n_atoms)
    src = np.flatnonzero(n1 > 0)
    source, n1 = [n[src] for n in occupations], n1[src]
    # The destination's atomic state, (n2, n3) with the term's level raised by one,
    # depends on the term's level alone: one index per level.
    raised, atoms = {}, {}
    for level in dict.fromkeys(level for _, level, _, _ in _HOPS):
        atomic = source[:2]
        atomic[level] = raised[level] = source[level] + 1
        atoms[level] = _atom_index(space.n_atoms, *atomic)
    for column, (coupling, level, mode, step) in zip(range(0, HOP_COLUMNS, 2), _HOPS):
        moved = source[mode] + step
        photons = source[2:]
        photons[mode - 2] = moved.clip(0, space.shape[mode - 1] - 1)
        keep = photons[mode - 2] == moved  # a hop off the truncation is dropped
        from_state = src[keep]
        dst = np.searchsorted(index, np.ravel_multi_index((atoms[level], *photons),
                                                          space.shape)[keep])
        value = getattr(params, coupling) * scale * (
            np.sqrt(n1 * raised[level]) * np.sqrt(np.maximum(source[mode], moved)))[keep]
        partners[from_state, column], values[from_state, column] = dst, value
        partners[dst, column + 1], values[dst, column + 1] = from_state, value
        hops += 2 * from_state.size
    return Hamiltonian(diagonal, partners, values, hops)


def _parities(occupations):
    """Left, right and global parity of a space's occupations, integer arrays of
    +-1: the quanta of each _PARITY_PAIRS level and mode, then their product."""
    left, right = (1 - 2 * ((occupations[level] + occupations[mode]) % 2)
                   for level, mode in _PARITY_PAIRS)
    return left, right, left * right


def parity_operators(space: TruncatedSpace):
    """The diagonals of the parity operators (left, right, global): arrays of +-1."""
    return _parities(space.occupations)


def parity_commutator_norms(params: ModelParams,
                            space: TruncatedSpace) -> tuple[float, float, float]:
    """Largest entry of [H, P] for each parity operator (left, right, global).

    P is diagonal, so [H, P]_ij = H_ij (p_j - p_i): read from H's stored entries.
    """
    h = build_hamiltonian(params, space)
    return tuple(float(np.abs(h.values * (p[h.partners] - p[:, None])).max())
                 for p in parity_operators(space))


def _splitmix(z):
    """SplitMix64's output function, on a uint64 array or a Python int below 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _seed_vector(dimension: int, seed: int, stream: int = _START) -> np.ndarray:
    """A unit vector hashed from (seed, stream): entry i is uniform in [-1/2, 1/2),
    SplitMix64's output i + 1 from a key that absorbs the stream and then each
    64-bit word of the seed, one SplitMix64 step per word, so any seed >= 0 is
    taken and a zero high word still moves the key (seeds 1 and 2**64 differ).
    The key is a Python int, and only the uint64 arrays wrap."""
    key, seed = _splitmix(stream), operator.index(seed)
    while True:
        key = _splitmix(((key + _GOLDEN) & _MASK64) ^ (seed & _MASK64))
        seed >>= 64
        if not seed:
            break
    z = np.arange(1, dimension + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += key
    v0 = (_splitmix(z) >> 11) * 2.0 ** -53 - 0.5
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
    LANCZOS_KEEP) matvecs after r restarts.  A restart rotates the basis
    LANCZOS_BLOCK columns at a time, so it allocates LANCZOS_KEEP x
    LANCZOS_BLOCK floats, not LANCZOS_KEEP x dim.  When beta vanishes the
    basis spans an invariant subspace: the run goes on from the next vector
    of _seed_vector's restart stream (seeds 0, 1, ... in each run), made
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
    first = draws = 0
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
                    w = _seed_vector(dim, draws, _RESTART)
                    draws += 1
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
        rotation = vectors[:, :keep].T
        for start in range(0, dim, LANCZOS_BLOCK):
            columns = slice(start, start + LANCZOS_BLOCK)
            basis[:keep, columns] = rotation @ basis[:size, columns]
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


def observables(space: TruncatedSpace, state: np.ndarray, energy: float,
                gap: float | None = None) -> GroundStateResult:
    """Scaled observables of a normalized state on a box or one of its parity blocks."""
    weights = np.abs(np.asarray(state)) ** 2
    pop2, pop3, photon_a, photon_b = (float(np.sum(weights * n)) / space.n_atoms
                                      for n in space.occupations)
    parities = (float(np.sum(weights * p)) for p in _parities(space.occupations))
    return GroundStateResult(energy, photon_a, photon_b, pop2, pop3, *parities, gap,
                             space.cutoff_a, space.cutoff_b)


def _transfer(sector: TruncatedSpace, state: np.ndarray, target: TruncatedSpace) -> np.ndarray:
    """``state`` on ``sector`` zero-padded to ``target``: the same atoms and
    parities, and no cutoff lower (a lower one raises ValueError)."""
    moved = np.zeros(target.dimension)
    moved[np.searchsorted(target.index, _basis_index(target, *sector.occupations))] = state
    return moved


def _marginals(sector: TruncatedSpace, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mode's Fock distribution in ``state``: weights of levels 0..cutoff, for a and for b."""
    weights = np.square(state)
    return tuple(np.bincount(n, weights, levels)
                 for n, levels in zip(sector.occupations[2:], sector.shape[1:]))


def _shrunk(marginal: np.ndarray, bound: float) -> int:
    """The smallest cutoff whose top two levels and every level above hold at most
    ``bound / SHRINK_MARGIN`` of ``marginal``, and never above its own cutoff."""
    beyond = np.cumsum(marginal[::-1])[::-1]  # beyond[n]: the weight of levels n and up
    above = int(np.count_nonzero(beyond > bound / SHRINK_MARGIN))
    return min(marginal.size - 1, above + TAIL_LEVELS - 1)


def _even_sector(n_atoms: int, cutoffs, trace: list) -> TruncatedSpace:
    """(+, +) at ``cutoffs``; past the dimension limit, a CapacityError that
    carries ``trace``, the truncations solved before it."""
    try:
        return TruncatedSpace(n_atoms, *cutoffs, parities=(1, 1))
    except CapacityError as exc:
        raise CapacityError(str(exc), trace) from exc


class SectorSolve(NamedTuple):
    """One sector's ground state, and ``error``, the bound its residual test put on the energy;
    ``vector`` is None where only the energy is kept."""

    sector: TruncatedSpace
    energy: float
    vector: np.ndarray | None
    error: float


def _solve_sector(params: ModelParams, sector: TruncatedSpace, tol: float, seed: int = 0,
                  start: np.ndarray | None = None) -> SectorSolve:
    """The ground state of ``sector`` to ``tol``, from ``start`` or else the ``seed`` vector."""
    h = build_hamiltonian(params, sector)
    error = _acceptance_bound(h, tol)  # before the solve: it refuses an H it cannot represent
    return SectorSolve(sector, *ground_state(h, tol, seed, start), error)


def _hold_tail(params: ModelParams, ground: SectorSolve, tol: float, eig_tol: float,
               trace: list) -> SectorSolve:
    """Grow a solved (+, +) sector until each mode's tail weight is below tol / TAIL_RATIO.

    A mode whose top two Fock levels weigh at least the bound grows by
    GROWTH, and the grown sector is solved to ``eig_tol`` from the state
    zero-padded, until both weights pass.  Returns the solve that passes,
    ``ground`` itself if it passes at once.  Each truncation checked is
    appended to ``trace``.
    """
    bound = tol / TAIL_RATIO
    while True:
        sector = ground.sector
        marginals = _marginals(sector, ground.vector)
        weights = [float(m[-TAIL_LEVELS:].sum()) for m in marginals]
        # photon numbers per atom, from the marginals
        photons = [float(m @ np.arange(m.size)) / sector.n_atoms for m in marginals]
        trace.append({"cutoff_a": sector.cutoff_a, "cutoff_b": sector.cutoff_b,
                      "dimension": math.prod(sector.shape), "energy": ground.energy,
                      "photon_a": photons[0], "photon_b": photons[1],
                      "weight_a": weights[0], "weight_b": weights[1]})
        if max(weights) < bound:
            return ground
        grown = _even_sector(sector.n_atoms,
                             [math.ceil(GROWTH * (m.size - 1)) if w >= bound else m.size - 1
                              for m, w in zip(marginals, weights)], trace)
        ground = _solve_sector(params, grown, eig_tol, start=_transfer(sector, ground.vector, grown))


def _check_solver_settings(seed: int, tolerances: dict[str, float]) -> None:
    """Refuse tolerances that are not finite and positive, and negative seeds, before solving."""
    for name, value in tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _energy_only(solve: SectorSolve) -> SectorSolve:
    """``solve`` with no vector, on an equal sector that has cached nothing yet."""
    return solve._replace(sector=replace(solve.sector), vector=None)


def _hold_sector_order(params: ModelParams, even: SectorSolve, tol: float, eig_tol: float,
                       seed: int, trace: list) -> list[SectorSolve]:
    """The certificate: grow ``even``'s truncation until (+, +), solved there as ``even``,
    holds the lowest ground energy; every other solve starts from the ``seed`` vector
    and ``trace`` is as in _hold_tail.  Returns the four SectorSolves on the truncation
    certified, in PARITY_SECTORS order: (+, +) first, the solve accepted.  The other
    three keep only their energies: each is released of its vector, and of its
    sector's cached index and occupations, as soon as it is solved."""
    while True:
        sector = even.sector
        grounds = [even] + [_energy_only(_solve_sector(params, replace(sector, parities=parities),
                                                       eig_tol, seed))
                            for parities in PARITY_SECTORS[1:]]
        if not any(g.energy < even.energy - g.error for g in grounds[1:]):
            return grounds
        grown = _even_sector(sector.n_atoms, [math.ceil(GROWTH * c) for c in
                                              (sector.cutoff_a, sector.cutoff_b)], trace)
        even = _hold_tail(params, _solve_sector(params, grown, eig_tol, seed), tol, eig_tol, trace)


def converge_cutoffs(params: ModelParams, n_atoms: int, tol: float = 1e-4, eig_tol: float = 1e-8,
                     seed: int = 0):
    """The boson cutoffs that hold the ground state: each mode's tail weight below tol / TAIL_RATIO.

    ``_hold_tail`` holds (+, +) solved from the ``seed`` vector at (CUTOFF_FLOOR,
    CUTOFF_FLOOR), read at call time; the truncation is then shrunk once, to
    the smallest cutoffs its marginals allow, held again, and certified by
    ``_hold_sector_order``.  Returns ``(space, trace, grounds)``: ``trace``
    records every truncation solved with its tail weights, ``grounds`` the
    certificate's SectorSolves.  Raises ValueError for a tolerance that is not
    finite and positive or a negative seed, and CapacityError (with the trace)
    past the dimension limit.
    """
    _check_solver_settings(seed, {"photon-number tolerance tol": tol,
                                  "eigensolver tolerance eig_tol": eig_tol})
    trace = []
    floor = _even_sector(n_atoms, (CUTOFF_FLOOR, CUTOFF_FLOOR), trace)
    even = _hold_tail(params, _solve_sector(params, floor, eig_tol, seed), tol, eig_tol, trace)
    cutoffs = [_shrunk(m, tol / TAIL_RATIO) for m in _marginals(even.sector, even.vector)]
    if cutoffs != [even.sector.cutoff_a, even.sector.cutoff_b]:
        shrunk = _even_sector(n_atoms, cutoffs, trace)
        even = _hold_tail(params, _solve_sector(params, shrunk, eig_tol, seed), tol, eig_tol, trace)
    grounds = _hold_sector_order(params, even, tol, eig_tol, seed, trace)
    return replace(grounds[0].sector, parities=None), trace, grounds


def solve_sweep(points: list[ModelParams], n_atoms: int, tol: float = 1e-4,
                eig_tol: float = 1e-8, seed: int = 0) -> list[GroundStateResult]:
    """(+, +) ground-state observables of n_atoms atoms at each of ``points``,
    on one truncation grown and certified as the module docstring says; each
    result carries its cutoffs.  Raises as converge_cutoffs does; a
    CapacityError names the point whose truncation grew past the limit and
    carries the truncations solved for it: the first point's cutoff search,
    or a later point's growth.  No points give no results, once the solver
    settings pass and n_atoms passes the check at (CUTOFF_FLOOR, CUTOFF_FLOOR).
    """
    if not points:
        _check_solver_settings(seed, {"photon-number tolerance tol": tol,
                                      "eigensolver tolerance eig_tol": eig_tol})
        TruncatedSpace(n_atoms, CUTOFF_FLOOR, CUTOFF_FLOOR)
        return []
    row = 0
    try:
        ground = converge_cutoffs(points[0], n_atoms, tol, eig_tol, seed)[2][0]
        while True:
            sector, grew, results = ground.sector, None, []
            for row, params in enumerate(points):
                if row:
                    ground = _solve_sector(params, sector, eig_tol, start=ground.vector)
                ground = _hold_tail(params, ground, tol, eig_tol, [])
                if ground.sector != sector:
                    sector, grew = ground.sector, (row, ground)
                results.append(observables(sector, ground.vector, ground.energy))
            if grew is None:
                return results
            row, even = grew
            certified = _hold_sector_order(points[row], even, tol, eig_tol, seed, [])[0].sector
            if certified == sector:
                return results
            ground = _solve_sector(points[0], certified, eig_tol, seed)
    except CapacityError as exc:
        raise CapacityError(f"{exc} at the sweep point g1 = {points[row].g1:.6g}, "
                            f"g2 = {points[row].g2:.6g}", exc.trace) from exc


def solve_point(params: ModelParams, space: TruncatedSpace, tol: float = 1e-8,
                seed: int = 0, grounds: list[SectorSolve] | None = None) -> GroundStateResult:
    """Ground-state observables and the first excitation gap at one parameter point on ``space``.

    Exact on any truncation: every parity sector not in ``grounds`` (such as
    converge_cutoffs' at the same params, tol and seed) is solved from the
    ``seed`` vector, and the one with the lowest ground energy is solved for
    its two lowest levels, which give E0 and the observables; E1 is the lower
    of its second level and the other sectors' ground energies.  Raises
    ValueError for a ``tol`` that is not finite and positive or a negative seed.
    """
    _check_solver_settings(seed, {"eigensolver tolerance tol": tol})
    handed = {g.sector: g for g in grounds or ()}
    grounds = [handed.get(sector) or _solve_sector(params, sector, tol, seed)
               for sector in (replace(space, parities=parities) for parities in PARITY_SECTORS)]
    lowest = min(grounds, key=lambda g: g.energy)
    e0, e1, vec = lowest_two(build_hamiltonian(params, lowest.sector), tol=tol, seed=seed)
    gap = min([e1] + [g.energy for g in grounds if g is not lowest]) - e0
    return observables(lowest.sector, vec, energy=e0, gap=gap)
