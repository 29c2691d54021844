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

CSV_COLUMNS = ("g1", "g2") + PhaseArrays._fields
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


def _couplings(g1, g2) -> tuple[np.ndarray, np.ndarray]:
    """g1 and g2 as float arrays; ValueError unless every coupling is finite and >= 0."""
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    for name, values in (("g1", g1), ("g2", g2)):
        if not np.all(np.isfinite(values) & (values >= 0.0)):
            raise ValueError(f"{name} couplings must be finite and >= 0")
    return g1, g2


def _classified(base: ModelParams, g1, g2) -> SweepTable:
    """Classify broadcast coupling arrays at base's frequencies in one call, C order.

    Raises as _couplings does.
    """
    g1, g2 = _couplings(g1, g2)
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
    scalar holds that coupling fixed).  exactdiag.solve_sweep solves the
    points on one truncation: converged and certified at the first point,
    grown where a later point's tail weight needs it, and certified again
    for the point that grew it last, every point being solved again if
    that grows it.  Each row reports the cutoffs it was solved at.
    """
    # No truncation below is smaller: an atom number too large for the
    # dimension limit is refused here, before any per-point work.
    exactdiag.TruncatedSpace(n_atoms, exactdiag.CUTOFF_FLOOR, exactdiag.CUTOFF_FLOOR)
    g1, g2 = (g.ravel() for g in np.broadcast_arrays(*_couplings(g1, g2)))
    sweep = [replace(base, g1=a, g2=b) for a, b in zip(g1.tolist(), g2.tolist())]
    results = exactdiag.solve_sweep(sweep, n_atoms, cutoff_tol, eig_tol, seed)
    # classified after the solves, so an H too large to represent is refused as such
    table = _classified(base, g1, g2)
    columns = {name: np.array([getattr(r, name) for r in results])
               for name in ("photon_a", "photon_b", "cutoff_a", "cutoff_b")}
    return replace(table, n_atoms=np.full(len(sweep), n_atoms), **columns)


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
    columns = [table.g1, table.g2, *table.phases]
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
    """The CSV text of records, as read_records_csv returns them, by write_sweep_csv.

    A record holds every written column, so the table is the records' own
    columns, with each phase label as its code into PHASES.
    """
    names = CSV_COLUMNS + (ED_COLUMNS if records and records[0].n_atoms is not None else ())
    cols = {name: np.array([getattr(r, name) for r in records]) for name in names}
    codes = np.array([PHASES.index(label) for label in cols.pop("phase")], dtype=np.int8)
    phases = PhaseArrays(codes, *(cols.pop(name) for name in CSV_COLUMNS[3:]))
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
