"""Property test: the mean-field ground energy is concave and non-increasing in (g1, g2).

For fixed order parameters the energy is affine in the couplings, and
flipping a field's sign makes each coupling term non-positive.  The
minimum over order parameters is therefore jointly concave and
non-increasing in (g1, g2) >= 0, across the first-order boundaries and
the degenerate line alike.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke.meanfield import classify_arrays  # noqa: E402

REL_TOL = 1e-12


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
