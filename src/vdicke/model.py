"""Model parameters and closed-form critical couplings.

An ensemble of N identical three-level systems couples to two bosonic
modes in a V configuration.  Mode a (frequency ``omega_a``) drives the
transition between the shared ground level 1 and level 3; together they
form the *left* branch with coupling ``g1``.  Mode b (``omega_b``)
drives 1 <-> 2 and forms the *right* branch with coupling ``g2``.  The
ground level is the energy reference, so only the transition
frequencies ``omega21`` and ``omega31`` enter.  Everything is quoted in
units of omega21 unless stated otherwise.

Each branch alone is a standard Dicke model with a superradiant
threshold at sqrt(omega_mode * omega_transition) / 2.  Once one branch
condenses it depletes the shared ground level, which stiffens the other
branch: its effective transition frequency grows and its threshold
moves up.  Those shifted thresholds are the renormalized critical
couplings computed here; they reduce to the bare ones exactly at the
bare threshold of the condensed branch and grow without bound deep in
its condensed phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "ModelParams",
    "PhaseLabel",
    "critical_g1",
    "critical_g2",
    "mu_left",
    "mu_right",
    "condensed_mu_left",
    "renormalized_critical_g1",
    "renormalized_critical_g2",
    "alpha_beta",
]


class PhaseLabel(Enum):
    """Ground-state phase of the mean-field energy surface."""

    NORMAL = "Normal"
    LEFT_SR = "LeftSR"
    RIGHT_SR = "RightSR"
    LEFT_RIGHT_SR = "LeftRightSR"


@dataclass(frozen=True)
class ModelParams:
    """Frequencies and collective couplings, all in units of omega21.

    omega21, omega31 : transition frequencies of levels 2 and 3 above
        the shared ground level (both > 0).
    omega_a, omega_b : mode frequencies (both > 0).
    g1, g2 : collective couplings of the left (1<->3, mode a) and right
        (1<->2, mode b) branches (both >= 0).
    """

    omega21: float = 1.0
    omega31: float = 1.0
    omega_a: float = 1.0
    omega_b: float = 1.0
    g1: float = 0.0
    g2: float = 0.0

    def __post_init__(self):
        for name in ("omega21", "omega31", "omega_a", "omega_b"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        for name in ("g1", "g2"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be a nonnegative finite number, got {value!r}")

    def mirrored(self) -> ModelParams:
        """The model with its branches exchanged: omega21<->omega31, omega_a<->omega_b, g1<->g2.

        This maps LeftSR onto RightSR, so every right-branch closed form
        is its left-branch twin evaluated on the mirrored model.
        """
        return ModelParams(self.omega31, self.omega21, self.omega_b, self.omega_a, self.g2, self.g1)


def critical_g1(params: ModelParams) -> float:
    """Bare superradiant threshold of the left branch, sqrt(omega_a*omega31)/2."""
    return 0.5 * math.sqrt(params.omega_a * params.omega31)


def critical_g2(params: ModelParams) -> float:
    """Bare superradiant threshold of the right branch, sqrt(omega_b*omega21)/2."""
    return critical_g1(params.mirrored())


def mu_left(params: ModelParams) -> float:
    """Squared ratio of the left bare threshold to the actual coupling.

    mu_l = (g_c1 / g1)^2.  Values <= 1 mean the left branch is at or
    beyond its bare threshold.  DomainError at g1 = 0, OverflowError past the float range.
    """
    gc1 = critical_g1(params)
    if params.g1 == 0.0:
        raise DomainError(f"(g_c / g)^2 is undefined at a coupling of 0 (threshold {gc1!r})")
    ratio = gc1 / params.g1
    if math.isinf(ratio):  # a float quotient overflows to inf; only its square would raise
        raise OverflowError(f"(g_c / g)^2 overflows at a coupling of {params.g1!r}")
    return ratio ** 2


def mu_right(params: ModelParams) -> float:
    """Squared ratio of the right bare threshold to the actual coupling:
    mu_left on the mirrored model, whose domain check it inherits."""
    return mu_left(params.mirrored())


def condensed_mu_left(params: ModelParams) -> float:
    """mu_left of a condensed left branch: the one place that refuses g1 < critical_g1."""
    if params.g1 < critical_g1(params):
        raise DomainError(f"the renormalized threshold needs a condensed branch: its coupling "
                          f"{params.g1!r} is below its threshold {critical_g1(params)!r}")
    return mu_left(params)


def renormalized_critical_g2(params: ModelParams) -> float:
    """Right-branch threshold when the left branch is condensed.

    Requires g1 >= critical_g1.  Equals critical_g2 exactly at
    g1 = critical_g1 and tends to g1*sqrt(omega_b/omega_a) for
    g1 -> infinity.
    """
    mu = condensed_mu_left(params)
    inner = 2.0 * params.omega21 * params.omega_b + params.omega31 * params.omega_b * (1.0 - mu) / mu
    return 0.5 * math.sqrt(1.0 / (1.0 + mu)) * math.sqrt(inner)


def renormalized_critical_g1(params: ModelParams) -> float:
    """Left-branch threshold when the right branch is condensed: renormalized_critical_g2
    on the mirrored model, whose domain check (g2 >= critical_g2) it inherits."""
    return renormalized_critical_g2(params.mirrored())


def alpha_beta(params: ModelParams) -> tuple[float, float]:
    """Branch energy scales alpha = 4*g1^2/omega_a and beta = 4*g2^2/omega_b.

    Equivalently alpha = omega31/mu_left and beta = omega21/mu_right
    (checked in the tests).  The locus alpha = beta (with omega21 =
    omega31) carries the fully degenerate mixed phase.  Requires g1,
    g2 > 0, where the mu-based form is defined.
    """
    if params.g1 <= 0.0 or params.g2 <= 0.0:
        raise DomainError("alpha_beta requires g1 > 0 and g2 > 0")
    return 4.0 * params.g1 ** 2 / params.omega_a, 4.0 * params.g2 ** 2 / params.omega_b
