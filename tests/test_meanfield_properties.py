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
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke.meanfield import classify, classify_arrays  # noqa: E402
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
