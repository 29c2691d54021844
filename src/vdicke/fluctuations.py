"""Quadratic fluctuation forms and their Bogoliubov eigenfrequencies.

Fluctuations about any mean-field branch split into independent
two-mode blocks of the form

    h = w1 * c'c + w2 * d'd + lam * (c' + c)(d' + d),

whose excitation energies follow in closed form,

    eps_pm^2 = ( w1^2 + w2^2 +- sqrt((w1^2 - w2^2)^2 + 16 lam^2 w1 w2) ) / 2.

The lower branch crosses zero at lam_c = sqrt(w1*w2)/2; beyond that the
squared frequency goes negative and the block is dynamically unstable.
The tests check this closed form against a numerically independent
route: the eigenvalues of the 4x4 symplectic dynamical matrix in the
quadrature representation.

About the normal state the two blocks carry the bare frequencies and
couplings of the two branches.  About a one-branch condensate the other
branch's block keeps its mode frequency but acquires a shifted
transition frequency and a dressed coupling; its zero mode reproduces
the renormalized critical coupling of :mod:`vdicke.model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError
from .model import ModelParams, condensed_mu_left

__all__ = [
    "QuadraticBosonForm",
    "FluctuationSpectrum",
    "diagonalize",
    "normal_phase_forms",
    "right_branch_form",
    "left_branch_form",
    "critical_coupling_by_zero_mode",
]

@dataclass(frozen=True)
class QuadraticBosonForm:
    """Two bosonic modes with a position-position bilinear coupling."""

    freq1: float
    freq2: float
    coupling: float

    def __post_init__(self):
        if self.freq1 <= 0.0 or self.freq2 <= 0.0:
            raise ValueError("mode frequencies of a quadratic form must be positive")


@dataclass(frozen=True)
class FluctuationSpectrum:
    """Eigenfrequencies of one quadratic form.

    ``eps_minus_sq`` keeps the raw squared lower frequency; it is the
    quantity that changes sign at a phase boundary, and it is negative
    exactly when ``stable`` is False (eps_minus is then reported as 0).
    """

    eps_minus: float
    eps_plus: float
    stable: bool
    eps_minus_sq: float


def diagonalize(form: QuadraticBosonForm) -> FluctuationSpectrum:
    """Eigenfrequencies of one two-mode block, from the closed form; OverflowError naming
    the block where a square or a squared frequency is past the float range."""
    try:
        w1sq = form.freq1 ** 2  # ** on a float raises OverflowError where x * x is inf
        w2sq = form.freq2 ** 2
        root = math.sqrt((w1sq - w2sq) ** 2 + 16.0 * form.coupling ** 2 * form.freq1 * form.freq2)
        lo_sq, hi_sq = 0.5 * (w1sq + w2sq - root), 0.5 * (w1sq + w2sq + root)
        if not (math.isfinite(lo_sq) and math.isfinite(hi_sq)):
            raise OverflowError
    except OverflowError as exc:
        raise OverflowError(f"the fluctuation block overflows a float: freq1 = {form.freq1!r}, "
                            f"freq2 = {form.freq2!r}, coupling = {form.coupling!r}") from exc
    scale = max(1.0, abs(hi_sq))
    stable = lo_sq >= -1e-12 * scale
    eps_minus = math.sqrt(lo_sq) if lo_sq > 0.0 else 0.0
    return FluctuationSpectrum(
        eps_minus=eps_minus,
        eps_plus=math.sqrt(hi_sq),
        stable=stable,
        eps_minus_sq=lo_sq,
    )


def normal_phase_forms(params: ModelParams) -> tuple[QuadraticBosonForm, QuadraticBosonForm]:
    """Fluctuation blocks about the normal state: (left, right)."""
    return tuple(QuadraticBosonForm(p.omega_a, p.omega31, p.g1) for p in (params, params.mirrored()))


def right_branch_form(params: ModelParams) -> QuadraticBosonForm:
    """Right-branch block about the left condensate (requires g1 >= critical_g1).

    The transition frequency is shifted up by the condensate's depletion
    of the shared ground level and the coupling is dressed:

        freq2 = omega21 + omega31*(1 - mu_l)/(2*mu_l),
        coupling = g2 * sqrt((1 + mu_l)/2).
    """
    mu = condensed_mu_left(params)
    shifted = params.omega21 + params.omega31 * (1.0 - mu) / (2.0 * mu)
    dressed = params.g2 * math.sqrt((1.0 + mu) / 2.0)
    return QuadraticBosonForm(params.omega_b, shifted, dressed)


def left_branch_form(params: ModelParams) -> QuadraticBosonForm:
    """Left-branch block about the right condensate: right_branch_form on the
    mirrored model, whose domain check (g2 >= critical_g2) it inherits."""
    return right_branch_form(params.mirrored())


def critical_coupling_by_zero_mode(form_family, bracket, tol: float = 1e-12) -> float:
    """Root of eps_minus^2(g) = 0 over a coupling bracket, by bracketing secant (Illinois).

    ``form_family`` maps a coupling value to a QuadraticBosonForm.  The
    bracket must straddle the sign change; otherwise BracketError.  Each
    step replaces one end by the secant point (the midpoint, should that
    round onto an end), halving the value kept at an end that survives
    twice in a row.  It stops on an exact zero, at a bracket no wider
    than ``tol`` or after 200 steps, and returns the bracket's midpoint,
    accurate to well below 1e-10 absolute.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    f_lo = diagonalize(form_family(lo)).eps_minus_sq
    f_hi = diagonalize(form_family(hi)).eps_minus_sq
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"eps_minus^2 has the same sign at both bracket ends ({f_lo}, {f_hi})"
        )
    kept = 0  # -1 after the low end was kept, +1 after the high end
    for _ in range(200):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = diagonalize(form_family(x)).eps_minus_sq
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, f_x
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, f_x
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)
