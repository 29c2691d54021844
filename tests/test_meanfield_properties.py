"""Property tests of the mean-field closed forms.

The ground energy is concave and non-increasing in (g1, g2): for fixed
order parameters the energy is affine in the couplings, and flipping a
field's sign makes each coupling term non-positive.  The minimum over
order parameters is therefore jointly concave and non-increasing in
(g1, g2) >= 0, across the first-order boundaries and the degenerate line
alike.

Exchanging levels 2<->3, modes a<->b and g1<->g2 relabels the left branch
as the right one, so classification commutes with that exchange.  And a
condensate only stiffens the other branch the deeper it is, so each
renormalized threshold is non-decreasing in the condensed coupling.

Each coupling enters the energy as -(4 g^2 / omega) psi1^2 psi^2 with
psi1^2 psi^2 <= 1/4, so the ground energy is Lipschitz in it, with
constant 2 g / omega: continuous across every threshold and first-order
crossing, though the order parameters jump there.

The brute-force oracle's mesh evaluates the energy multiplied out in
the squared amplitudes; it must agree with the surface itself.  It
covers the whole square [0, 1]^2, since the energy is positive off the
unit disc and 0 at the origin: masking the points off the disc changes
none of its minima.
"""

import math
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke import meanfield  # noqa: E402
from vdicke.meanfield import (  # noqa: E402
    _energy_raw,
    _mesh_energies,
    brute_force_minimize,
    classify,
    classify_arrays,
)
from vdicke.model import (  # noqa: E402
    ModelParams,
    PhaseLabel,
    critical_g1,
    critical_g2,
    renormalized_critical_g1,
    renormalized_critical_g2,
)

REL_TOL = 1e-12

# couplings drawn near 0 overflow the masked branch quantities; the
# kernel must keep that silent
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def coupling_pairs(draw):
    """Frequencies in [0.4, 2] and two coupling points in [0, 3 g_c] per axis.

    Half the draws sit on omega31 = omega21, where some points are put on
    the degenerate ray g2 = g1 sqrt(omega_b / omega_a) and the two
    condensates tie.
    """
    w21, w31, wa, wb = (draw(st.floats(0.4, 2.0)) for _ in range(4))
    degenerate = draw(st.booleans())
    if degenerate:
        w31 = w21
    gc1, gc2 = 0.5 * math.sqrt(wa * w31), 0.5 * math.sqrt(wb * w21)

    def point():
        g1 = draw(st.floats(0.0, 3.0 * gc1))
        if degenerate and draw(st.booleans()):
            return g1, g1 * math.sqrt(wb / wa)
        return g1, draw(st.floats(0.0, 3.0 * gc2))

    return (w21, w31, wa, wb), np.array([point(), point()])


def _energies(freqs, couplings):
    return classify_arrays(*freqs, couplings[:, 0], couplings[:, 1]).energy


@settings(max_examples=400, deadline=None)
@given(coupling_pairs())
def test_ground_energy_is_midpoint_concave(case):
    freqs, (x, y) = case
    e_x, e_y, e_mid = _energies(freqs, np.array([x, y, 0.5 * (x + y)]))
    tol = REL_TOL * (1.0 + max(abs(e_x), abs(e_y), abs(e_mid)))
    assert e_mid >= 0.5 * (e_x + e_y) - tol, (freqs, x, y)


@settings(max_examples=400, deadline=None)
@given(coupling_pairs())
def test_ground_energy_is_non_increasing_in_each_coupling(case):
    freqs, (x, y) = case
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    e_lo, e_x, e_y, e_hi = _energies(freqs, np.array([lo, x, y, hi]))
    tol = REL_TOL * (1.0 + max(abs(e_lo), abs(e_hi)))
    for step in ((e_lo, e_x), (e_x, e_hi), (e_lo, e_y), (e_y, e_hi)):
        assert step[1] <= step[0] + tol, (freqs, x, y)


_MIRROR_PHASE = {PhaseLabel.NORMAL: PhaseLabel.NORMAL, PhaseLabel.LEFT_SR: PhaseLabel.RIGHT_SR,
                 PhaseLabel.RIGHT_SR: PhaseLabel.LEFT_SR,
                 PhaseLabel.LEFT_RIGHT_SR: PhaseLabel.LEFT_RIGHT_SR}


def _bits(solution):
    return tuple(x.hex() if isinstance(x, float) else x for x in astuple(solution))


@settings(max_examples=1000, deadline=None)
@given(coupling_pairs())
def test_classify_commutes_with_the_branch_exchange(case):
    (w21, w31, wa, wb), ((g1, g2), _) = case
    picked = classify(ModelParams(w21, w31, wa, wb, g1, g2))
    swapped = classify(ModelParams(w31, w21, wb, wa, g2, g1))
    mirrored = replace(swapped, psi2=swapped.psi3, psi3=swapped.psi2, phi_a=swapped.phi_b,
                       phi_b=swapped.phi_a, phase=_MIRROR_PHASE[swapped.phase])
    if not (picked.degenerate_valley or mirrored.degenerate_valley):
        assert _bits(picked) == _bits(mirrored), case
        return
    # on the valley the two sides round psi1 and the valley energy
    # (e_left of one model, e_right of the other) differently
    assert (picked.phase, picked.bistable, picked.degeneracy, picked.degenerate_valley) == \
        (mirrored.phase, mirrored.bistable, mirrored.degeneracy, mirrored.degenerate_valley), case
    for x, y in zip(astuple(picked)[:6], astuple(mirrored)[:6]):
        assert abs(x - y) <= REL_TOL * max(1.0, abs(y)), case


@st.composite
def condensed_pairs(draw):
    """Frequencies in [0.4, 2], a branch, and two of its couplings in [g_c, 10 g_c].

    The other coupling stays 0: the renormalized threshold does not depend on it.
    """
    w21, w31, wa, wb = (draw(st.floats(0.4, 2.0)) for _ in range(4))
    base, left = ModelParams(w21, w31, wa, wb), draw(st.booleans())
    gc = critical_g1(base) if left else critical_g2(base)
    lo, hi = sorted(draw(st.floats(gc, 10.0 * gc)) for _ in range(2))
    return base, left, lo, hi


@settings(max_examples=400, deadline=None)
@given(condensed_pairs())
def test_renormalized_thresholds_grow_with_the_condensed_coupling(case):
    base, left, lo, hi = case
    if left:
        threshold, axis, bare = renormalized_critical_g2, "g1", critical_g2(base)
    else:
        threshold, axis, bare = renormalized_critical_g1, "g2", critical_g1(base)
    at_lo = threshold(replace(base, **{axis: lo}))
    at_hi = threshold(replace(base, **{axis: hi}))
    assert at_lo >= bare * (1.0 - REL_TOL), case
    assert at_hi >= at_lo * (1.0 - REL_TOL), case


@st.composite
def threshold_lines(draw):
    """Frequencies in [0.4, 2], a phase boundary, the coupling crossing it and a half-step h.

    Returns (frequencies, couplings at the crossing, axis crossed, h), the
    axis 0 for g1 and 1 for g2.  The boundaries: each bare threshold (the
    other coupling in [0, 3 g_c]), each renormalized one (the condensed
    coupling in [g_c, 3 g_c]) and the first-order crossing, where the two
    condensates tie.
    """
    w21, w31, wa, wb = (draw(st.floats(0.4, 2.0)) for _ in range(4))
    base = ModelParams(w21, w31, wa, wb)
    gc1, gc2 = critical_g1(base), critical_g2(base)
    kind = draw(st.sampled_from(["bare g1", "bare g2", "renormalized g1", "renormalized g2",
                                 "first order"]))
    if kind == "bare g1":
        g, axis = (gc1, draw(st.floats(0.0, 3.0 * gc2))), 0
    elif kind == "bare g2":
        g, axis = (draw(st.floats(0.0, 3.0 * gc1)), gc2), 1
    elif kind == "renormalized g1":
        g2 = draw(st.floats(gc2, 3.0 * gc2))
        g, axis = (renormalized_critical_g1(replace(base, g2=g2)), g2), 0
    elif kind == "renormalized g2":
        g1 = draw(st.floats(gc1, 3.0 * gc1))
        g, axis = (g1, renormalized_critical_g2(replace(base, g1=g1))), 1
    else:
        # equal condensate energies (a - w31)^2 / a = (b - w21)^2 / b, b > w21
        g1 = draw(st.floats(1.01 * gc1, 3.0 * gc1))
        a = 4.0 * g1 ** 2 / wa
        c = (a - w31) ** 2 / a
        b = 0.5 * (2.0 * w21 + c + math.sqrt((2.0 * w21 + c) ** 2 - 4.0 * w21 ** 2))
        g, axis = (g1, 0.5 * math.sqrt(b * wb)), draw(st.sampled_from([0, 1]))
    return (w21, w31, wa, wb), g, axis, 10.0 ** draw(st.floats(-9.0, -3.0))


@settings(max_examples=600, deadline=None)
@given(threshold_lines())
def test_ground_energy_is_continuous_across_phase_boundaries(case):
    freqs, g, axis, h = case
    couplings = np.array([g, g])
    couplings[:, axis] += (-h, h)
    e_below, e_above = _energies(freqs, couplings)
    lipschitz = 2.0 * (g[axis] + h) / freqs[2 + axis]  # 2 g / omega_a for g1, omega_b for g2
    tol = REL_TOL * (1.0 + max(abs(e_below), abs(e_above)))
    assert abs(e_above - e_below) <= lipschitz * 2.0 * h + tol, case


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(0.3, 2.5)] * 4, *[st.floats(0.0, 2.0)] * 2),
       st.sampled_from([100, 400]))
def test_oracle_mesh_is_the_energy_surface(point, resolution):
    params = ModelParams(*point)
    xs = np.linspace(0.0, 1.0, resolution)
    values = _mesh_energies(params, xs)
    p2, p3 = np.meshgrid(xs, xs, indexing="ij")
    inside = p2 ** 2 + p3 ** 2 <= 1.0
    assert values[0, 0] == 0.0 and np.all(values[~inside] > 0.0)
    # a few ulps of the largest term, each at most max(omega21, omega31, a, b)
    a, b = 4.0 * params.g1 ** 2 / params.omega_a, 4.0 * params.g2 ** 2 / params.omega_b
    bound = 8.0 * np.finfo(float).eps * max(params.omega21, params.omega31, a, b)
    error = np.abs(values[inside] - _energy_raw(params, p2[inside], p3[inside]))
    assert error.max() <= bound, point


def _masked_mesh_energies(params, xs):
    """The mesh with every point off the disc set to +inf, as the oracle once searched it."""
    sq = xs ** 2
    return _mesh_energies(params, xs) + np.where(np.add.outer(sq, sq) <= 1.0, 0.0, np.inf)


def _argmins(values):
    return np.argmin(values), np.argmin(values[:, 0]), np.argmin(values[0])


_LOG_UNIFORM = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_LOG_UNIFORM] * 4, *[st.one_of(st.just(0.0), _LOG_UNIFORM)] * 2),
       st.sampled_from([100, 400]))
def test_the_disc_mask_changes_no_oracle_result(point, resolution):
    params = ModelParams(*point)
    xs = np.linspace(0.0, 1.0, resolution)
    assert _argmins(_mesh_energies(params, xs)) == _argmins(_masked_mesh_energies(params, xs))
    with mock.patch.object(meanfield, "_mesh_energies", _masked_mesh_energies):
        masked = brute_force_minimize(params, resolution)
    assert brute_force_minimize(params, resolution) == masked, point
