"""Phase structure workbench for the two-mode V-type Dicke model.

Mean-field order parameters and phase classification, quadratic
fluctuation spectra with closed-form critical couplings, finite-N
exact-diagonalization cross-checks in the permutation-symmetric
sector, and deterministic sweep drivers with CSV/JSON output.
"""

import os

# One BLAS thread unless the user asks for more: the finite-N solves are
# too small to gain from threads, and their last printed digit would
# otherwise depend on the thread count.  OpenBLAS reads this once, when
# numpy first loads it, so it is set before any numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BracketError, CapacityError, ConvergenceError, DomainError
from .fluctuations import (
    FluctuationSpectrum,
    QuadraticBosonForm,
    critical_coupling_by_zero_mode,
    diagonalize,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from .meanfield import (
    MeanFieldSolution,
    brute_force_minimize,
    classify,
    classify_arrays,
    energy,
    gradient,
    on_degenerate_line,
    stationary_branches,
)
from .model import (
    ModelParams,
    PhaseLabel,
    alpha_beta,
    critical_g1,
    critical_g2,
    mu_left,
    mu_right,
    renormalized_critical_g1,
    renormalized_critical_g2,
)
from .scan import (
    SweepRecord,
    SweepTable,
    ed_sweep,
    line_cut,
    overlap_area,
    phase_diagram,
    read_records_csv,
    trace_boundary,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CapacityError",
    "ConvergenceError",
    "DomainError",
    "FluctuationSpectrum",
    "MeanFieldSolution",
    "ModelParams",
    "PhaseLabel",
    "QuadraticBosonForm",
    "SweepRecord",
    "SweepTable",
    "alpha_beta",
    "brute_force_minimize",
    "classify",
    "classify_arrays",
    "critical_coupling_by_zero_mode",
    "critical_g1",
    "critical_g2",
    "diagonalize",
    "ed_sweep",
    "energy",
    "gradient",
    "left_branch_form",
    "line_cut",
    "mu_left",
    "mu_right",
    "normal_phase_forms",
    "on_degenerate_line",
    "overlap_area",
    "phase_diagram",
    "read_records_csv",
    "renormalized_critical_g1",
    "renormalized_critical_g2",
    "right_branch_form",
    "stationary_branches",
    "trace_boundary",
    "write_sweep_csv",
]
