"""Phase-diagram sweeps, boundary traces, and sweep CSV output.

Everything here is a thin, deterministic driver over the closed-form
classification: each grid or sweep is one call of
:func:`vdicke.meanfield.classify_arrays`, returned as a
:class:`SweepTable` of flat columns, row-major (g1 outer, g2 inner).
:func:`write_sweep_csv` streams a table to CSV in a fixed column order,
one chunk of rows at a time.  Boundary curves are sampled from the
closed-form thresholds of :mod:`vdicke.model` (checked against the
fluctuation zero mode in the tests).  A sweep takes a base
:class:`~vdicke.model.ModelParams` plus coupling arrays.  A coupling
range is checked by :func:`sweep_values` (finite bounds, 0 <= start <
end, at most MAX_GRID_POINTS points) before it is allocated; the drivers
check the arrays they are given (every coupling finite and >= 0, and a
phase diagram of at most MAX_GRID_POINTS points before it classifies).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import exactdiag
from .errors import DomainError
from .meanfield import PHASES, PhaseArrays, classify_arrays
from .model import (
    ModelParams,
    PhaseLabel,
    critical_g1,
    critical_g2,
    renormalized_critical_g1,
    renormalized_critical_g2,
)

__all__ = [
    "MAX_GRID_POINTS",
    "SweepTable",
    "SweepRecord",
    "sweep_values",
    "BOUNDARY_KINDS",
    "phase_diagram",
    "trace_boundary",
    "overlap_area",
    "line_cut",
    "ed_sweep",
    "write_sweep_csv",
    "read_records_csv",
    "records_to_csv_text",
]

# Largest number of points one grid or sweep may have (a 1000 x 1000 grid).
MAX_GRID_POINTS = 1_000_000
# Rows formatted per write; bounds the CSV text held in memory at once.
CSV_CHUNK_ROWS = 10_000

CSV_COLUMNS = ("g1", "g2", "phase", "psi2", "psi3", "phi_a", "phi_b", "energy", "bistable")
ED_COLUMNS = ("photon_a", "photon_b", "n_atoms", "cutoff_a", "cutoff_b")

# Boundary kind -> (coupling sampled as the abscissa, closed form of the boundary).
_BOUNDARIES = {
    "gtilde_c1": ("g2", renormalized_critical_g1),
    "gtilde_c2": ("g1", renormalized_critical_g2),
    "normal_left": ("g2", critical_g1),
    "normal_right": ("g1", critical_g2),
}
BOUNDARY_KINDS = tuple(_BOUNDARIES)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Classified points as flat columns: the kernel's output at (g1, g2), plus
    the finite-N columns of an ED sweep (all None for a mean-field one)."""

    g1: np.ndarray
    g2: np.ndarray
    phases: PhaseArrays
    photon_a: np.ndarray | None = None
    photon_b: np.ndarray | None = None
    n_atoms: np.ndarray | None = None
    cutoff_a: np.ndarray | None = None
    cutoff_b: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.g1)


@dataclass(frozen=True)
class SweepRecord:
    """One row of a sweep CSV, as read back by :func:`read_records_csv`."""

    g1: float
    g2: float
    phase: PhaseLabel
    psi2: float
    psi3: float
    phi_a: float
    phi_b: float
    energy: float
    bistable: bool
    photon_a: float | None = None
    photon_b: float | None = None
    n_atoms: int | None = None
    cutoff_a: int | None = None
    cutoff_b: int | None = None


def _check_size(points: int, what: str) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {points} points, above the limit of "
                         f"{MAX_GRID_POINTS} (MAX_GRID_POINTS)")


def sweep_values(lo: float, hi: float, steps: int, what: str) -> np.ndarray:
    """``steps`` evenly spaced couplings from lo to hi, validated before allocation:
    finite, 0 <= lo < hi, 2 <= steps <= MAX_GRID_POINTS."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2 for the {what}, got {steps}")
    _check_size(steps, what)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} bounds must be finite, got {lo} to {hi}")
    if not lo < hi:
        raise ValueError(f"{what} range must satisfy start < end, got {lo} to {hi}")
    if lo < 0.0:
        raise ValueError(f"{what} range must start at a coupling >= 0, got {lo}")
    return np.linspace(lo, hi, steps)


def _classified(base: ModelParams, g1, g2) -> SweepTable:
    """Classify broadcast coupling arrays at base's frequencies in one call, C order.

    Raises ValueError unless every coupling is finite and >= 0.
    """
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    for name, values in (("g1", g1), ("g2", g2)):
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ValueError(f"{name} couplings must be finite and >= 0")
    result = classify_arrays(base.omega21, base.omega31, base.omega_a, base.omega_b, g1, g2)
    shape = result.phase.shape
    return SweepTable(np.broadcast_to(g1, shape).ravel(), np.broadcast_to(g2, shape).ravel(),
                      PhaseArrays(*(column.ravel() for column in result)))


def phase_diagram(base: ModelParams, g1, g2) -> SweepTable:
    """Classify the outer product of two coupling axes, row-major (g1 outer, g2 inner).

    Raises ValueError for a grid of more than MAX_GRID_POINTS points.
    """
    g1, g2 = np.ravel(g1), np.ravel(g2)
    _check_size(g1.size * g2.size, f"grid of {g1.size} x {g2.size}")
    return _classified(base, g1[:, None], g2[None, :])


def trace_boundary(which: str, base: ModelParams, lo: float, hi: float,
                   steps: int) -> list[tuple[float, float]]:
    """Sample one phase boundary as (abscissa, critical coupling) pairs.

    The closed form is evaluated at every sample.  For ``gtilde_c2``
    the abscissa is g1 (>= critical_g1 required); for ``gtilde_c1`` it
    is g2; the two normal-state boundaries are constants sampled
    against the opposite coupling.
    """
    if which not in _BOUNDARIES:
        raise ValueError(f"unknown boundary kind {which!r}; expected one of {BOUNDARY_KINDS}")
    axis, closed_form = _BOUNDARIES[which]
    abscissas = sweep_values(lo, hi, steps, "boundary trace").tolist()
    return [(x, closed_form(replace(base, **{axis: x}))) for x in abscissas]


def overlap_area(base: ModelParams, ratio: float, resolution: int = 100) -> float:
    """Fraction of the window [g_c1, 2g_c1] x [g_c2, 2g_c2] that is bistable.

    ``ratio`` scales omega31 = ratio * omega21 on top of the base
    frequencies; it must be >= 1.  The window is sampled on a
    resolution x resolution grid whose corners sit exactly on the
    thresholds, so the degenerate diagonal is hit exactly at ratio 1.
    """
    if ratio < 1.0:
        raise DomainError(f"ratio must be >= 1, got {ratio}")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    _check_size(resolution * resolution, f"overlap window of {resolution} x {resolution}")
    params0 = replace(base, omega31=ratio * base.omega21)
    gc1 = critical_g1(params0)
    gc2 = critical_g2(params0)
    g1s = np.linspace(gc1, 2.0 * gc1, resolution)
    g2s = np.linspace(gc2, 2.0 * gc2, resolution)
    result = classify_arrays(params0.omega21, params0.omega31, params0.omega_a,
                             params0.omega_b, g1s[:, None], g2s[None, :])
    flagged = int(np.count_nonzero(result.bistable))
    return flagged / float(resolution * resolution)


def ed_sweep(base: ModelParams, g1, g2, n_atoms: int, cutoff_tol: float = 1e-4,
             eig_tol: float = 1e-8, seed: int = 0) -> SweepTable:
    """Classify each (g1, g2) point at base's frequencies and attach finite-N observables.

    ``g1`` and ``g2`` are coupling arrays broadcast to one sweep (a
    scalar holds that coupling fixed).  Cutoffs are converged at the
    most demanding sweep point (largest default cutoffs), where the
    ground state is also certified to lie in the (+, +) parity sector
    (see exactdiag.converge_cutoffs).  Each point is solved on (+, +),
    the first from ``seed`` and every later one from the previous point's
    ground vector, and its tail weight is checked: where a mode's weight
    reaches cutoff_tol / exactdiag.TAIL_RATIO, the shared truncation grows
    (exactdiag.hold_tail) and stays grown for the points after it.  Each
    row reports the cutoffs it was solved at.
    """
    # No truncation tried below is smaller than this one, so an atom
    # number too large for the dimension limit is refused before any
    # per-point work.
    exactdiag.truncated_space(n_atoms, exactdiag.CUTOFF_FLOOR, exactdiag.CUTOFF_FLOOR)
    table = _classified(base, g1, g2)
    sweep = [replace(base, g1=a, g2=b) for a, b in zip(table.g1.tolist(), table.g2.tolist())]
    defaults = [exactdiag.default_cutoffs(p, n_atoms) for p in sweep]
    widest = max(range(len(sweep)), key=lambda i: defaults[i][0] * defaults[i][1])
    space, _ = exactdiag.converge_cutoffs(
        sweep[widest], n_atoms, start=defaults[widest], tol=cutoff_tol,
        eig_tol=eig_tol, seed=seed,
    )
    sector = exactdiag.ParitySector(space, 1, 1)
    rows = len(sweep)
    photon_a, photon_b = np.empty(rows), np.empty(rows)
    cutoff_a, cutoff_b = np.empty(rows, dtype=int), np.empty(rows, dtype=int)
    state = None
    for i, params in enumerate(sweep):
        h = exactdiag.build_hamiltonian(params, sector)
        energy, state = exactdiag.ground_state(h, tol=eig_tol, seed=seed, start=state)
        sector, energy, state = exactdiag.hold_tail(params, sector, energy, state,
                                                    tol=cutoff_tol, eig_tol=eig_tol)
        result = exactdiag.observables(sector, state, energy)
        photon_a[i], photon_b[i] = result.photon_a, result.photon_b
        cutoff_a[i], cutoff_b[i] = result.cutoff_a, result.cutoff_b
    return replace(table, photon_a=photon_a, photon_b=photon_b,
                   n_atoms=np.full(rows, n_atoms), cutoff_a=cutoff_a, cutoff_b=cutoff_b)


def line_cut(base: ModelParams, g1, g2) -> SweepTable:
    """Classify the points of a line: ``g1`` and ``g2`` broadcast to one
    sweep, a scalar holding that coupling fixed (mean field; :func:`ed_sweep`
    adds finite-N data)."""
    return _classified(base, g1, g2)


# ---------------------------------------------------------------------------
# Sweep CSV

_PHASE_TEXT = np.array([label.value for label in PHASES], dtype=object)
_ROW = "%.12g,%.12g,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%s"
_ED_ROW = ",%.12g,%.12g,%d,%d,%d"
# Column -> parser of its CSV text, where it is not float.
_PARSERS = {"phase": PhaseLabel, "bistable": "true".__eq__, "n_atoms": int, "cutoff_a": int,
            "cutoff_b": int}


def write_sweep_csv(table: SweepTable, stream) -> None:
    """Write the table as CSV (floats to 12 significant digits, flags true/false),
    CSV_CHUNK_ROWS rows per write; the finite-N columns follow when present."""
    p = table.phases
    columns = [table.g1, table.g2, p.phase, p.psi2, p.psi3, p.phi_a, p.phi_b, p.energy,
               p.bistable]
    header, row = CSV_COLUMNS, _ROW
    if table.n_atoms is not None:
        columns += [table.photon_a, table.photon_b, table.n_atoms, table.cutoff_a,
                    table.cutoff_b]
        header, row = header + ED_COLUMNS, row + _ED_ROW
    row += "\n"
    stream.write(",".join(header) + "\n")
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        chunk = [column[start:start + CSV_CHUNK_ROWS] for column in columns]
        chunk[2] = _PHASE_TEXT[chunk[2]]
        chunk[8] = np.where(chunk[8], "true", "false")
        stream.write("".join([row % cells for cells in zip(*(c.tolist() for c in chunk))]))


def records_to_csv_text(records: list[SweepRecord]) -> str:
    """The CSV text of records, as read_records_csv returns them, by write_sweep_csv."""
    names = CSV_COLUMNS + (ED_COLUMNS if records and records[0].n_atoms is not None else ())
    cols = {name: np.array([getattr(r, name) for r in records]) for name in names}
    codes = np.array([PHASES.index(label) for label in cols.pop("phase")], dtype=np.int8)
    # Records carry neither psi1 nor the valley flag; both follow from
    # the columns they do carry, as in classify_arrays.  psi1 is never
    # written, so a square that overflows (clamped to 0 here) is harmless.
    with np.errstate(over="ignore"):
        psi1 = np.sqrt(np.maximum(0.0, 1.0 - np.square(cols["psi2"]) - np.square(cols["psi3"])))
    phases = PhaseArrays(phase=codes, psi1=psi1, degenerate_valley=codes == 3,
                         **{name: cols.pop(name) for name in CSV_COLUMNS[3:]})
    buffer = io.StringIO()
    write_sweep_csv(SweepTable(cols.pop("g1"), cols.pop("g2"), phases, **cols), buffer)
    return buffer.getvalue()


def read_records_csv(stream) -> list[SweepRecord]:
    """Parse sweep CSV written by :func:`write_sweep_csv`, one record per row."""
    out = []
    for row in csv.DictReader(stream):
        names = CSV_COLUMNS + (ED_COLUMNS if row.get("photon_a") else ())
        out.append(SweepRecord(**{name: _PARSERS.get(name, float)(row[name]) for name in names}))
    return out
