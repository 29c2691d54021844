"""Mean-field energy surface, stationary branches, and phase classification.

In the thermodynamic limit the atomic levels 2 and 3 and the two modes
acquire coherent amplitudes psi2, psi3 (real, per atom) and phi_a,
phi_b (real, per sqrt(atom)).  Minimizing over the mode amplitudes
first gives the elimination relations

    phi_a = -2*g1*psi1*psi3/omega_a,   phi_b = -2*g2*psi1*psi2/omega_b,

with psi1 = sqrt(1 - psi2^2 - psi3^2) >= 0 (gauge choice), and leaves
the scaled ground-state energy per atom over the unit disc:

    E(psi2, psi3) = omega21*psi2^2 + omega31*psi3^2
                    - (4*g1^2/omega_a) * psi1^2 * psi3^2
                    - (4*g2^2/omega_b) * psi1^2 * psi2^2.

Its stationary points fall into four families: the normal state
(psi2 = psi3 = 0), one-branch condensates (left: psi3 != 0, right:
psi2 != 0), a fully mixed family that exists only on the degenerate
line alpha = beta with omega21 = omega31 (where the energy has a
continuous valley psi2^2 + psi3^2 = const), and a generic mixed
stationary point off that line which is never a minimum and is kept
for diagnostics only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ModelParams, PhaseLabel, alpha_beta

__all__ = [
    "MeanFieldSolution",
    "energy",
    "gradient",
    "on_degenerate_line",
    "stationary_branches",
    "PhaseArrays",
    "PHASES",
    "classify_arrays",
    "classify",
    "brute_force_minimize",
]

# Tolerance for sitting on the degenerate line alpha = beta (relative).
DEGENERATE_LINE_RTOL = 1e-9
# Exact-tie tolerance between left and right condensate energies.
ENERGY_TIE_TOL = 1e-12
# Squared-amplitude threshold below which the oracle calls a component zero.
_ORACLE_AMP_SQ_TOL = 1e-5
# brute_force_minimize's local search: points per axis of each window, the
# factor the window shrinks by per level, and the half-width it stops at.
# Covering condition: shrink * (points - 1) / 2 >= 1 (here 1.25), so each
# window spans at least one spacing of the previous one on either side of
# its best point, and no point between the previous one's neighbours is skipped.
_REFINE_POINTS = 21
_REFINE_SHRINK = 0.125
_REFINE_STOP = 1e-10

# The six fields of a ModelParams in order, as a shallow tuple (dataclasses.astuple
# deep-copies, some forty times slower).
_FIELDS = operator.attrgetter(*(field.name for field in fields(ModelParams)))

_FOUR_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))

_DEGENERACY = {
    PhaseLabel.NORMAL: 1,
    PhaseLabel.LEFT_SR: 2,
    PhaseLabel.RIGHT_SR: 2,
    PhaseLabel.LEFT_RIGHT_SR: 4,
}


@dataclass(frozen=True)
class MeanFieldSolution:
    """One stationary point of the mean-field energy surface.

    ``degeneracy`` counts the sign-related copies of the solution
    (1, 2, or 4).  ``bistable`` flags points where both one-branch
    condensates exist and are locally stable, so the reported label is
    selected by a (possibly tiny) energy difference.  ``physical`` is
    False only for the generic mixed stationary point, which is never a
    minimum.  ``degenerate_valley`` marks the fully degenerate line,
    where a continuous valley of minima connects the reported solution
    to every other weight split between the two branches.
    """

    psi1: float
    psi2: float
    psi3: float
    phi_a: float
    phi_b: float
    energy: float
    phase: PhaseLabel
    bistable: bool = False
    degeneracy: int = 1
    physical: bool = True
    degenerate_valley: bool = False


def energy(params: ModelParams, psi2, psi3):
    """Scaled ground-state energy per atom at (psi2, psi3).

    Accepts scalars or numpy arrays.  Raises DomainError when
    psi2^2 + psi3^2 exceeds 1 (beyond roundoff).
    """
    psi2 = np.asarray(psi2, dtype=float)
    psi3 = np.asarray(psi3, dtype=float)
    total = psi2 ** 2 + psi3 ** 2
    if np.any(total > 1.0 + 1e-12):
        raise DomainError("psi2^2 + psi3^2 must not exceed 1")
    value = _energy_raw(params, psi2, psi3)
    if value.ndim == 0:
        return float(value)
    return value


def _energy_raw(params: ModelParams, psi2, psi3):
    # No domain check; callers guarantee psi2^2 + psi3^2 <= 1.
    a = 4.0 * params.g1 ** 2 / params.omega_a
    b = 4.0 * params.g2 ** 2 / params.omega_b
    s2 = psi2 ** 2
    s3 = psi3 ** 2
    psi1_sq = 1.0 - s2 - s3
    return (
        params.omega21 * s2
        + params.omega31 * s3
        - a * psi1_sq * s3
        - b * psi1_sq * s2
    )


def gradient(params: ModelParams, psi2, psi3):
    """Analytic gradient of :func:`energy` with respect to (psi2, psi3).

    gradient = (2*psi2*bracket2, 2*psi3*bracket3) with

        bracket2 = omega21 + a*psi3^2 + b*psi2^2 - b*psi1^2
        bracket3 = omega31 + b*psi2^2 + a*psi3^2 - a*psi1^2

    and a = 4*g1^2/omega_a, b = 4*g2^2/omega_b; stationarity needs each
    bracket or its amplitude to vanish.
    """
    a = 4.0 * params.g1 ** 2 / params.omega_a
    b = 4.0 * params.g2 ** 2 / params.omega_b
    psi2, psi3 = np.asarray(psi2, dtype=float), np.asarray(psi3, dtype=float)
    s2, s3 = psi2 ** 2, psi3 ** 2
    psi1_sq = 1.0 - s2 - s3
    g2c = 2.0 * psi2 * (params.omega21 + a * s3 + b * s2 - b * psi1_sq)
    g3c = 2.0 * psi3 * (params.omega31 + b * s2 + a * s3 - a * psi1_sq)
    if g2c.ndim == 0:
        return float(g2c), float(g3c)
    return g2c, g3c


def _solution(params, psi2, psi3, phase, *, energy_value=None, physical=True,
              bistable=False, degenerate_valley=False):
    # x * x rounds as np.square does, so entries match classify_arrays bitwise.
    psi1 = math.sqrt(max(0.0, 1.0 - psi2 * psi2 - psi3 * psi3))
    if energy_value is None:
        energy_value = energy(params, psi2, psi3)
    return MeanFieldSolution(
        psi1=psi1,
        psi2=float(psi2),
        psi3=float(psi3),
        phi_a=-2.0 * params.g1 * psi1 * psi3 / params.omega_a,
        phi_b=-2.0 * params.g2 * psi1 * psi2 / params.omega_b,
        energy=float(energy_value),
        phase=phase,
        bistable=bistable,
        degeneracy=_DEGENERACY[phase],
        physical=physical,
        degenerate_valley=degenerate_valley,
    )


def on_degenerate_line(params: ModelParams) -> bool:
    """True when alpha = beta and omega21 = omega31 (relative 1e-9), g1, g2 > 0.

    Both conditions are needed for the fully mixed stationary family to
    exist; on the line they imply mu_left = mu_right.
    """
    return bool(_branch_table(*_FIELDS(params)).degenerate)


def _generic_mixed_square(params: ModelParams) -> float:
    """psi2^2 of the generic mixed stationary point (alpha != beta); its
    psi3^2 is this on the mirrored model."""
    alpha, beta = alpha_beta(params)
    return (2.0 * alpha * (params.omega21 - beta)
            - (params.omega31 - alpha) * (alpha + beta)) / (alpha - beta) ** 2


def stationary_branches(params: ModelParams) -> list[MeanFieldSolution]:
    """Every stationary point of the energy surface at these parameters.

    Sign-related copies are returned as separate entries, positive sign
    first; the positive copy of the winning branch equals
    :func:`classify` field for field.  The generic mixed point (present
    only off the degenerate line, and only when its squared amplitudes
    are admissible) is flagged physical=False: it is a saddle and never
    wins the classification.
    """
    t = _branch_table(*_FIELDS(params))
    bistable = bool(t.bistable)

    def copies(psi2, psi3, phase, energy_value, signs, **flags):
        return [_solution(params, s2 * psi2, s3 * psi3, phase, energy_value=energy_value,
                          bistable=bistable, **flags) for s2, s3 in signs]

    out = copies(0.0, 0.0, PhaseLabel.NORMAL, 0.0, [(1.0, 1.0)])
    if t.has_left:
        out += copies(0.0, float(t.psi3_left), PhaseLabel.LEFT_SR, float(t.e_left),
                      [(1.0, 1.0), (1.0, -1.0)])
    if t.has_right:
        out += copies(float(t.psi2_right), 0.0, PhaseLabel.RIGHT_SR, float(t.e_right),
                      [(1.0, 1.0), (-1.0, 1.0)])
    if t.valley:
        # Symmetric split of the degenerate valley: psi2^2 = psi3^2 = (1-mu)/4.
        out += copies(float(t.psi2_valley), float(t.psi3_valley), PhaseLabel.LEFT_RIGHT_SR,
                      float(t.e_left), _FOUR_SIGNS, degenerate_valley=True)
    elif not t.degenerate and params.g1 > 0.0 and params.g2 > 0.0:
        alpha, beta = alpha_beta(params)
        if abs(alpha - beta) > DEGENERATE_LINE_RTOL * max(alpha, beta):
            s2, s3 = _generic_mixed_square(params), _generic_mixed_square(params.mirrored())
            if s2 > 1e-12 and s3 > 1e-12 and s2 + s3 <= 1.0 + 1e-12:
                out += copies(math.sqrt(s2), math.sqrt(min(s3, 1.0 - s2)),
                              PhaseLabel.LEFT_RIGHT_SR, None, _FOUR_SIGNS, physical=False)
    return out


PHASES = tuple(PhaseLabel)  # phase code -> label: Normal, LeftSR, RightSR, LeftRightSR


class PhaseArrays(NamedTuple):
    """Global minima over an array of points: exactly the mean-field columns a sweep
    writes, in CSV order.  ``phase`` holds codes into PHASES; code 3 (LeftRightSR)
    is the degenerate valley, and psi1 follows from psi2 and psi3."""

    phase: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    phi_a: np.ndarray
    phi_b: np.ndarray
    energy: np.ndarray
    bistable: np.ndarray


class _BranchTable(NamedTuple):
    """Closed forms of every branch at broadcast points (see _branch_table)."""

    has_left: np.ndarray
    has_right: np.ndarray
    degenerate: np.ndarray
    valley: np.ndarray
    mul: np.ndarray
    mur: np.ndarray
    gt1: np.ndarray
    gt2: np.ndarray
    e_left: np.ndarray
    e_right: np.ndarray
    psi3_left: np.ndarray
    psi2_right: np.ndarray
    psi2_valley: np.ndarray
    psi3_valley: np.ndarray
    tie: np.ndarray
    bistable: np.ndarray


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _branch_table(omega21, omega31, omega_a, omega_b, g1, g2) -> _BranchTable:
    """Existence, energy and positive-sign amplitudes of each branch.

    Arguments follow the field order of ModelParams.  A condensate
    exists from its bare threshold on (``has_left``, ``has_right``);
    its energy is +inf where it does not.  ``degenerate`` marks the
    line alpha = beta with omega21 = omega31, and ``valley`` the part of
    it beyond threshold, where the balanced split is a minimum.  ``tie``
    marks an exact left/right energy tie below zero; ``bistable``
    either such a tie or two competing, locally stable condensates.
    OverflowError, as in _refuse_overflow, at a point past the float range.
    """
    w21, w31, wa, wb, g1, g2 = (np.asarray(v, dtype=float)
                                for v in (omega21, omega31, omega_a, omega_b, g1, g2))
    # The right branch is the left one with the two branches' arguments swapped.
    has_left, mul, alpha, e_left, gt2, psi3_left, psi3_valley = _condensate(w31, wa, g1, w21, wb)
    has_right, mur, beta, e_right, gt1, psi2_right, psi2_valley = _condensate(w21, wb, g2, w31, wa)
    _refuse_overflow(alpha, beta)
    degenerate = ((g1 > 0.0) & (g2 > 0.0)
                  & (np.abs(alpha - beta) <= DEGENERATE_LINE_RTOL * np.maximum(alpha, beta))
                  & (np.abs(w21 - w31) <= DEGENERATE_LINE_RTOL * np.maximum(w21, w31)))
    # mul = mur on the line, but they can round an ulp apart at threshold;
    # requiring both keeps the valley symmetric under the branch exchange.
    valley = degenerate & (np.maximum(mul, mur) < 1.0)

    tie = (has_left & has_right & (np.abs(e_left - e_right) <= ENERGY_TIE_TOL)
           & (np.minimum(e_left, e_right) < 0.0))
    # Both condensates exist and each is strictly stable against the
    # other: g2 below the renormalized threshold gt2(g1), and mirrored.
    # These are the positivity conditions of the mean-field Hessian
    # transverse to each condensate.  The degenerate valley is one
    # connected ground manifold, not a pair of competing minima.
    both_stable = has_left & has_right & (g2 < gt2) & (g1 < gt1)
    bistable = ~valley & (tie | (~degenerate & both_stable))
    return _BranchTable(has_left, has_right, degenerate, valley, mul, mur, gt1, gt2, e_left,
                        e_right, psi3_left, psi2_right, psi2_valley, psi3_valley, tie, bistable)


def _refuse_overflow(alpha, beta) -> None:
    """The one overflow rule of the closed forms and the oracle: OverflowError where
    alpha + beta (broadcast), the scale of the energy surface, is past the float
    range, naming alpha and beta at the first such point."""
    with np.errstate(over="ignore"):
        over = np.isinf(np.add(alpha, beta))
    if over.any():
        alpha, beta, over = np.broadcast_arrays(alpha, beta, over)
        first = np.argmax(over)
        raise OverflowError(f"the mean-field energy surface overflows a float: alpha = 4 g1^2 / "
                            f"omega_a = {float(alpha.flat[first])!r}, beta = 4 g2^2 / omega_b = "
                            f"{float(beta.flat[first])!r}")


def _condensate(w, w_mode, g, w_other, w_mode_other):
    """The left branch's condensate closed forms at broadcast points.

    For a branch of transition frequency w, mode frequency w_mode and
    coupling g, the other branch's being w_other and w_mode_other, returns
    (exists, mu, alpha, energy (+inf where it does not exist), the other
    branch's renormalized threshold, amplitude, valley amplitude).  Where
    g is 0, mu is infinite and the rest inf or nan, and near 0 they
    overflow (hence _branch_table's errstate); every use is masked by
    ``exists`` or the degenerate-line test.  Squares use np.square, which
    rounds alike for one point and for many (** on numpy scalars goes
    through C pow, which can differ by one ulp).
    """
    gc = 0.5 * np.sqrt(w_mode * w)
    exists = g >= gc
    mu = np.square(gc / g)
    energy = np.where(exists, -w * np.square(1.0 - mu) / (4.0 * mu), np.inf)
    threshold = 0.5 * np.sqrt(1.0 / (1.0 + mu)) * np.sqrt(
        2.0 * w_other * w_mode_other + w * w_mode_other * (1.0 - mu) / mu)
    return (exists, mu, 4.0 * np.square(g) / w_mode, energy, threshold,
            np.sqrt(np.maximum(0.0, (1.0 - mu) / 2.0)), np.sqrt(np.maximum(0.0, 1.0 - mu)) / 2.0)


def classify_arrays(omega21, omega31, omega_a, omega_b, g1, g2) -> PhaseArrays:
    """Global minimum of the energy surface at every point of broadcast arrays.

    Arguments follow the field order of ModelParams and must satisfy its
    constraints.  The canonical representative is the positive-sign copy
    of the winning branch.  On the degenerate line with mu < 1 it is the
    symmetric mixed split (any other valley point has the same energy).
    Off the line, an exact left/right tie (|dE| <= 1e-12) is resolved
    toward the larger total excitation psi2^2 + psi3^2, the one with the
    smaller mu, and flagged bistable.  psi1 enters phi_a and phi_b but is
    not returned (:func:`classify` reports it).  OverflowError where alpha +
    beta is past the float range, as :func:`brute_force_minimize` refuses it.
    """
    w21, w31, wa, wb, g1, g2 = (np.asarray(v, dtype=float)
                                for v in (omega21, omega31, omega_a, omega_b, g1, g2))
    t = _branch_table(w21, w31, wa, wb, g1, g2)
    valley = t.valley
    left = np.where(t.tie, t.mul < t.mur, (t.e_left < t.e_right) & (t.e_left < 0.0))
    right = np.where(t.tie, t.mul >= t.mur, ~left & (t.e_right <= t.e_left) & (t.e_right < 0.0))

    # Every output depends on all six inputs, so each has their broadcast shape.
    phase = np.where(valley, 3, np.where(left, 1, np.where(right, 2, 0))).astype(np.int8)
    psi2 = np.where(valley, t.psi2_valley, np.where(right, t.psi2_right, 0.0))
    psi3 = np.where(valley, t.psi3_valley, np.where(left, t.psi3_left, 0.0))
    energy_value = np.where(valley | left, t.e_left, np.where(right, t.e_right, 0.0))
    psi1 = np.sqrt(np.maximum(0.0, 1.0 - np.square(psi2) - np.square(psi3)))
    phi_a = -2.0 * g1 * psi1 * psi3 / wa
    phi_b = -2.0 * g2 * psi1 * psi2 / wb
    return PhaseArrays(phase, psi2, psi3, phi_a, phi_b, energy_value, t.bistable)


def classify(params: ModelParams) -> MeanFieldSolution:
    """Global minimum of the energy surface: :func:`classify_arrays` at one point."""
    r = classify_arrays(*_FIELDS(params))
    phase = PHASES[int(r.phase)]
    return _solution(params, float(r.psi2), float(r.psi3), phase, energy_value=r.energy,
                     bistable=bool(r.bistable),
                     degenerate_valley=phase is PhaseLabel.LEFT_RIGHT_SR)


# ---------------------------------------------------------------------------
# Brute-force oracle


def _mesh_energies(params: ModelParams, xs: np.ndarray) -> np.ndarray:
    """The energy on the square mesh xs x xs (psi2 along rows, psi3 along columns).

    _energy_raw multiplied out in the squares s2, s3,

        E = (a + b) s2 s3 + [(omega21 - b) s2 + b s2^2] + [(omega31 - a) s3 + a s3^2],

    is one (n, 3) @ (3, n) product: rows [(a + b) s2, (omega21 - b) s2 + b s2^2, 1]
    against columns [s3, 1, (omega31 - a) s3 + a s3^2].  Row 0 and column 0
    hold the axes' energies exactly, as one of their terms is 0.

    No point off the unit disc can be the minimum, so none is masked.  With
    h = 1/(n - 1), such a point (i, j) has i^2 + j^2 >= (n - 1)^2 + 1, so s2,
    s3 and the excess s2 + s3 - 1 are each >= h^2, and

        E = omega21 s2 + omega31 s3 + (a s3 + b s2)(s2 + s3 - 1) >= h^2 (omega21 + omega31) > 0,

    while the origin holds exactly 0.  The product rounds within a few ulps of
    max(omega21, omega31, a, b); where a (b) is large enough for that to
    matter, a >= 2 omega31 (b >= 2 omega21), its well lies below -a/16 (-b/16).
    """
    a = 4.0 * params.g1 ** 2 / params.omega_a
    b = 4.0 * params.g2 ** 2 / params.omega_b
    sq = xs ** 2
    quartic, ones = np.square(sq), np.ones_like(sq)
    rows = np.stack(((a + b) * sq, (params.omega21 - b) * sq + b * quartic, ones), axis=1)
    columns = np.stack((sq, ones, (params.omega31 - a) * sq + a * quartic))
    return rows @ columns


def brute_force_minimize(params: ModelParams, resolution: int = 400) -> MeanFieldSolution:
    """Locate the global minimum by dense grid search plus local refinement.

    The surface is even in each amplitude, so only psi2, psi3 >= 0 is
    sampled, on a resolution x resolution grid of the square [0, 1]^2 that
    holds both axes exactly; its points off the disc never win, so it needs
    no mask (see _mesh_energies).  The origin, the best cell overall and
    the best cell on each axis start one batched shrinking-window search
    (_refine_all): windows of _REFINE_POINTS per axis, each _REFINE_SHRINK
    as wide as the last, down to a half-width of _REFINE_STOP (1e-10) in
    position, which pins the energy far below the 1e-8 contract; the
    lowest start wins, the earliest on a tie.  Nothing here uses the
    closed-form branches, so it serves as their oracle.  It judges phase,
    amplitudes and energy only: ``bistable`` stays False, since whether a
    second well is locally stable is the closed forms' call, not a grid
    search's.  OverflowError where alpha + beta, the scale of the surface,
    is past the float range.
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    # g * g, unlike g ** 2, overflows to inf rather than raising
    alpha, beta = (4.0 * g * g / omega for g, omega in ((params.g1, params.omega_a),
                                                        (params.g2, params.omega_b)))
    _refuse_overflow(alpha, beta)
    xs = np.linspace(0.0, 1.0, resolution)
    values = _mesh_energies(params, xs)

    # The axes hold the one-branch phases, so nearly degenerate wells on
    # and off them are all polished and compared; on an exact tie (the
    # degenerate valley) the earlier start wins.
    i2, i3 = np.unravel_index(np.argmin(values), values.shape)
    starts = dict.fromkeys([(0.0, 0.0), (xs[i2], xs[i3]), (xs[np.argmin(values[:, 0])], 0.0),
                            (0.0, xs[np.argmin(values[0])])])
    energies, b2s, b3s = _refine_all(params, np.array(list(starts)).T, 2.0 * (xs[1] - xs[0]))
    best = int(np.argmin(energies))

    # Canonical signs: the surface is even in each amplitude separately.
    b2, b3 = abs(float(b2s[best])), abs(float(b3s[best]))
    s2, s3 = b2 ** 2, b3 ** 2
    if s2 < _ORACLE_AMP_SQ_TOL and s3 < _ORACLE_AMP_SQ_TOL:
        label = PhaseLabel.NORMAL
        b2 = b3 = 0.0
    elif s3 >= _ORACLE_AMP_SQ_TOL > s2:
        label = PhaseLabel.LEFT_SR
        b2 = 0.0
    elif s2 >= _ORACLE_AMP_SQ_TOL > s3:
        label = PhaseLabel.RIGHT_SR
        b3 = 0.0
    else:
        label = PhaseLabel.LEFT_RIGHT_SR
    return _solution(params, b2, b3, label)


def _refine_all(params: ModelParams, centers: np.ndarray, window: float):
    """Shrinking-window search from each column of ``centers`` (psi2 row, psi3 row), at once.

    Each level lays a _REFINE_POINTS-square window of half-width w on
    every start's best point and moves it to the window's lowest point
    inside the disc (the first in psi2-major order on a tie) only when
    that is strictly lower; w shrinks by _REFINE_SHRINK down to
    _REFINE_STOP.  A window's axes are np.linspace(c - w, c + w) by
    linspace's own arithmetic, and the energy is evaluated on broadcast
    (start, psi2, 1) x (start, 1, psi3) blocks.  Returns (energies, psi2,
    psi3), one entry per start.
    """
    best = _energy_raw(params, centers[0], centers[1])
    rows = np.arange(centers.shape[1])
    steps = np.arange(_REFINE_POINTS, dtype=float)
    w = window
    while w > _REFINE_STOP:
        low, high = centers - w, centers + w
        axes = steps * ((high - low) / (_REFINE_POINTS - 1))[..., None] + low[..., None]
        axes[..., -1] = high
        p2, p3 = axes[0][:, :, None], axes[1][:, None, :]
        vals = np.where(p2 ** 2 + p3 ** 2 <= 1.0, _energy_raw(params, p2, p3), np.inf)
        flat = vals.reshape(rows.size, -1).argmin(axis=1)
        i2, i3 = np.divmod(flat, _REFINE_POINTS)
        lowest = vals[rows, i2, i3]
        moved = lowest < best
        best = np.where(moved, lowest, best)
        centers = np.where(moved, (axes[0, rows, i2], axes[1, rows, i3]), centers)
        w *= _REFINE_SHRINK
    return best, centers[0], centers[1]
