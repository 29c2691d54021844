"""Phase-diagram sweeps, boundary traces, and structured record output.

Everything here is a thin, deterministic driver over the closed-form
classification: each grid or sweep is one call of
:func:`vdicke.meanfield.classify_arrays`, records come out in row-major
order (g1 outer, g2 inner), boundary curves are sampled from the
closed-form thresholds of :mod:`vdicke.model` (checked against the
fluctuation zero mode in the tests), and records serialize to a fixed
CSV column order that round-trips through :func:`read_records_csv`.
Every grid axis and sweep is a coupling range with finite bounds,
0 <= start < end, and at most MAX_GRID_POINTS points in all, checked
before anything is allocated.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import exactdiag
from .errors import DomainError
from .meanfield import PHASES, classify_arrays
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
    "GridSpec",
    "SweepRecord",
    "sweep_values",
    "BOUNDARY_KINDS",
    "phase_diagram",
    "trace_boundary",
    "overlap_area",
    "line_cut",
    "ed_sweep",
    "write_records_csv",
    "read_records_csv",
    "records_to_csv_text",
]

# Largest number of points one grid or sweep may have (a 1000 x 1000 grid).
MAX_GRID_POINTS = 1_000_000

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


@dataclass(frozen=True)
class GridSpec:
    """Rectangular coupling grid over a fixed set of frequencies."""

    base: ModelParams
    g1_min: float
    g1_max: float
    g2_min: float
    g2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        _check_range(self.g1_min, self.g1_max, self.n1, "grid g1 axis")
        _check_range(self.g2_min, self.g2_max, self.n2, "grid g2 axis")
        _check_size(self.n1 * self.n2, f"grid of {self.n1} x {self.n2}")

    def g1_values(self) -> np.ndarray:
        return np.linspace(self.g1_min, self.g1_max, self.n1)

    def g2_values(self) -> np.ndarray:
        return np.linspace(self.g2_min, self.g2_max, self.n2)


@dataclass(frozen=True)
class SweepRecord:
    """One classified grid or sweep point, optionally with finite-N data."""

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

    @property
    def has_finite_n(self) -> bool:
        return self.n_atoms is not None


def _check_size(points: int, what: str) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {points} points, above the limit of "
                         f"{MAX_GRID_POINTS} (MAX_GRID_POINTS)")


def _check_range(lo: float, hi: float, steps: int, what: str) -> None:
    """A coupling range: finite, 0 <= lo < hi, 2 <= steps <= MAX_GRID_POINTS."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2 for the {what}, got {steps}")
    _check_size(steps, what)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} bounds must be finite, got {lo} to {hi}")
    if not lo < hi:
        raise ValueError(f"{what} range must satisfy start < end, got {lo} to {hi}")
    if lo < 0.0:
        raise ValueError(f"{what} range must start at a coupling >= 0, got {lo}")


def sweep_values(lo: float, hi: float, steps: int, what: str) -> np.ndarray:
    """``steps`` evenly spaced couplings from lo to hi, validated before allocation."""
    _check_range(lo, hi, steps, what)
    return np.linspace(lo, hi, steps)


def _classified_records(omega21, omega31, omega_a, omega_b, g1, g2) -> list[SweepRecord]:
    """Classify broadcast arrays in one call; one record per point, C order."""
    result = classify_arrays(omega21, omega31, omega_a, omega_b, g1, g2)
    shape = result.phase.shape
    columns = [np.broadcast_to(g1, shape), np.broadcast_to(g2, shape), result.phase,
               result.psi2, result.psi3, result.phi_a, result.phi_b, result.energy,
               result.bistable]
    return [
        SweepRecord(g1=a, g2=b, phase=PHASES[code], psi2=p2, psi3=p3, phi_a=fa,
                    phi_b=fb, energy=e, bistable=flag)
        for a, b, code, p2, p3, fa, fb, e, flag in zip(*(c.ravel().tolist() for c in columns))
    ]


def phase_diagram(grid: GridSpec) -> list[SweepRecord]:
    """Classify every grid point, row-major (g1 outer, g2 inner)."""
    b = grid.base
    return _classified_records(b.omega21, b.omega31, b.omega_a, b.omega_b,
                               grid.g1_values()[:, None], grid.g2_values()[None, :])


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


def ed_sweep(sweep: list[ModelParams], n_atoms: int, cutoff_tol: float = 1e-4,
             eig_tol: float = 1e-8, seed: int = 0) -> list[SweepRecord]:
    """Classify each point and attach finite-N observables.

    Cutoffs are converged once at the most demanding sweep point
    (largest default cutoffs) and that single truncation is reused
    across the sweep, keeping the truncation error uniform along it.
    """
    # No truncation tried below is smaller than this one, so an atom
    # number too large for the dimension limit is refused before any
    # per-point work.
    exactdiag.truncated_space(n_atoms, exactdiag.CUTOFF_FLOOR, exactdiag.CUTOFF_FLOOR)
    records = _classified_records(*np.array([astuple(p) for p in sweep]).T)
    defaults = [exactdiag.default_cutoffs(p, n_atoms) for p in sweep]
    widest = max(range(len(sweep)), key=lambda i: defaults[i][0] * defaults[i][1])
    space, _ = exactdiag.converge_cutoffs(
        sweep[widest], n_atoms, start=defaults[widest], tol=cutoff_tol,
        eig_tol=eig_tol, seed=seed,
    )
    out = []
    for params, record in zip(sweep, records):
        result = exactdiag.solve_point(params, n_atoms, space=space, tol=eig_tol, seed=seed)
        out.append(replace(
            record,
            photon_a=result.photon_a,
            photon_b=result.photon_b,
            n_atoms=n_atoms,
            cutoff_a=space.cutoff_a,
            cutoff_b=space.cutoff_b,
        ))
    return out


def line_cut(base: ModelParams, g2: float, g1_min: float, g1_max: float,
             steps: int) -> list[SweepRecord]:
    """Sweep g1 at fixed g2 (mean field; :func:`ed_sweep` adds finite-N data)."""
    g1s = sweep_values(g1_min, g1_max, steps, "line cut")
    return _classified_records(base.omega21, base.omega31, base.omega_a, base.omega_b,
                               g1s, float(g2))


# ---------------------------------------------------------------------------
# Record serialization


def _format_float(value: float) -> str:
    return f"{value:.12g}"


def write_records_csv(records: list[SweepRecord], stream) -> None:
    """Write records with the fixed column order (12 significant digits)."""
    with_ed = bool(records) and records[0].has_finite_n
    columns = CSV_COLUMNS + ED_COLUMNS if with_ed else CSV_COLUMNS
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        row = [
            _format_float(r.g1),
            _format_float(r.g2),
            r.phase.value,
            _format_float(r.psi2),
            _format_float(r.psi3),
            _format_float(r.phi_a),
            _format_float(r.phi_b),
            _format_float(r.energy),
            "true" if r.bistable else "false",
        ]
        if with_ed:
            row.extend([
                _format_float(r.photon_a),
                _format_float(r.photon_b),
                str(r.n_atoms),
                str(r.cutoff_a),
                str(r.cutoff_b),
            ])
        writer.writerow(row)


def records_to_csv_text(records: list[SweepRecord]) -> str:
    buffer = io.StringIO()
    write_records_csv(records, buffer)
    return buffer.getvalue()


def read_records_csv(stream) -> list[SweepRecord]:
    """Parse records written by :func:`write_records_csv`."""
    reader = csv.DictReader(stream)
    out = []
    for row in reader:
        kwargs = dict(
            g1=float(row["g1"]),
            g2=float(row["g2"]),
            phase=PhaseLabel(row["phase"]),
            psi2=float(row["psi2"]),
            psi3=float(row["psi3"]),
            phi_a=float(row["phi_a"]),
            phi_b=float(row["phi_b"]),
            energy=float(row["energy"]),
            bistable=row["bistable"] == "true",
        )
        if "photon_a" in row and row.get("photon_a") not in (None, ""):
            kwargs.update(
                photon_a=float(row["photon_a"]),
                photon_b=float(row["photon_b"]),
                n_atoms=int(row["n_atoms"]),
                cutoff_a=int(row["cutoff_a"]),
                cutoff_b=int(row["cutoff_b"]),
            )
        out.append(SweepRecord(**kwargs))
    return out
