"""Exact mean-field reference, independent of the package's branch logic.

With s2 = psi2^2 and s3 = psi3^2 the scaled energy per atom is a
quadratic on the triangle s2, s3 >= 0, s2 + s3 <= 1:

    E = (w21 - b) s2 + (w31 - a) s3 + b s2^2 + a s3^2 + (a + b) s2 s3,
    a = 4 g1^2 / omega_a,  b = 4 g2^2 / omega_b.

On the edge s2 + s3 = 1 the interaction terms vanish and E is linear, so
the global minimum is the least of: the three vertices, the minimum of
each of the two other edges, and the interior stationary point.  The
Hessian [[2b, a+b], [a+b, 2a]] has determinant -(a-b)^2 <= 0, so the
interior point is never lower than the boundary; it is kept as a
candidate only so the enumeration is complete.

Thresholds come from the same quadratic: a branch condenses where the
slope of E along its own axis at the origin turns negative, and a
condensed branch loses stability against the other where the slope
transverse to its edge minimum turns negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NORMAL, LEFT, RIGHT, MIXED = "Normal", "LeftSR", "RightSR", "LeftRightSR"


@dataclass(frozen=True)
class Point:
    omega21: float
    omega31: float
    omega_a: float
    omega_b: float
    g1: float
    g2: float

    @property
    def a(self) -> float:
        return 4.0 * self.g1 ** 2 / self.omega_a

    @property
    def b(self) -> float:
        return 4.0 * self.g2 ** 2 / self.omega_b


def energy(p: Point, s2: float, s3: float) -> float:
    a, b = p.a, p.b
    return ((p.omega21 - b) * s2 + (p.omega31 - a) * s3
            + b * s2 * s2 + a * s3 * s3 + (a + b) * s2 * s3)


def candidates(p: Point) -> list[tuple[float, float, float]]:
    """Feasible KKT candidates as (energy, s2, s3)."""
    a, b = p.a, p.b
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    if a > 0.0:
        s3 = (a - p.omega31) / (2.0 * a)
        if 0.0 < s3 < 1.0:
            points.append((0.0, s3))
    if b > 0.0:
        s2 = (b - p.omega21) / (2.0 * b)
        if 0.0 < s2 < 1.0:
            points.append((s2, 0.0))
    det = 4.0 * a * b - (a + b) ** 2
    if det != 0.0:
        r2, r3 = b - p.omega21, a - p.omega31
        s2 = (2.0 * a * r2 - (a + b) * r3) / det
        s3 = (2.0 * b * r3 - (a + b) * r2) / det
        if s2 > 0.0 and s3 > 0.0 and s2 + s3 < 1.0:
            points.append((s2, s3))
    return [(energy(p, s2, s3), s2, s3) for s2, s3 in points]


def minimum(p: Point) -> float:
    return min(c[0] for c in candidates(p))


def label_of(psi2: float, psi3: float) -> str:
    if psi2 == 0.0 and psi3 == 0.0:
        return NORMAL
    if psi2 == 0.0:
        return LEFT
    if psi3 == 0.0:
        return RIGHT
    return MIXED


def solution_error(p: Point, phase: str, psi2: float, psi3: float, reported_energy: float,
                   tol: float) -> str | None:
    """Why a reported minimum is wrong, or None if it is the global minimum.

    The reported amplitudes must lie in the disc, attain the exact
    global minimum within ``tol`` (scaled by max(1, |E|)), match the
    reported energy, and carry the label of their support.
    """
    s2, s3 = psi2 * psi2, psi3 * psi3
    if s2 + s3 > 1.0 + 1e-12:
        return f"amplitudes outside the disc: psi2={psi2!r} psi3={psi3!r}"
    best = minimum(p)
    scale = max(1.0, abs(best))
    at_point = energy(p, s2, s3)
    if abs(at_point - best) > tol * scale:
        return f"energy at reported amplitudes {at_point!r} vs exact minimum {best!r}"
    if abs(reported_energy - best) > tol * scale:
        return f"reported energy {reported_energy!r} vs exact minimum {best!r}"
    if phase != label_of(psi2, psi3):
        return f"label {phase} does not match amplitudes psi2={psi2!r} psi3={psi3!r}"
    return None


def is_valid_point(p: Point, phase: str, psi2: float, psi3: float,
                   reported_energy: float, tol: float) -> bool:
    """True when a reported solution is a point of the surface, minimum or not.

    Valid: inside the disc, reported energy equal to the energy at the
    reported amplitudes within ``tol`` (scaled as in solution_error),
    label matching its support.  A minimizer that stops in the wrong
    well or short of the bottom gives a valid point above the minimum;
    a wrong energy or a mislabel is not valid.
    """
    s2, s3 = psi2 * psi2, psi3 * psi3
    scale = max(1.0, abs(minimum(p)))
    return (s2 + s3 <= 1.0 + 1e-12
            and abs(reported_energy - energy(p, s2, s3)) <= tol * scale
            and phase == label_of(psi2, psi3))


def bare_thresholds(p: Point) -> tuple[float, float]:
    """(g1, g2) where dE/ds3 and dE/ds2 at the origin change sign."""
    return 0.5 * math.sqrt(p.omega_a * p.omega31), 0.5 * math.sqrt(p.omega_b * p.omega21)


def renormalized_g2(p: Point) -> float:
    """g2 at which the left edge minimum turns unstable along s2 (g1 above threshold).

    At (0, s3*) with s3* = (a - w31) / (2a) the slope along s2 is
    w21 - b (1 - s3*) + a s3*, which vanishes at b = (w21 + a s3*) / (1 - s3*).
    """
    a = p.a
    s3 = (a - p.omega31) / (2.0 * a)
    b = (p.omega21 + a * s3) / (1.0 - s3)
    return 0.5 * math.sqrt(p.omega_b * b)


def renormalized_g1(p: Point) -> float:
    """Mirror of :func:`renormalized_g2` for the right edge minimum."""
    b = p.b
    s2 = (b - p.omega21) / (2.0 * b)
    a = (p.omega31 + b * s2) / (1.0 - s2)
    return 0.5 * math.sqrt(p.omega_a * a)
