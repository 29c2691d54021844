import math

import numpy as np
import pytest

from vdicke.errors import DomainError
from vdicke.fluctuations import right_branch_form
from vdicke.model import (
    ModelParams,
    PhaseLabel,
    alpha_beta,
    condensed_mu_left,
    critical_g1,
    critical_g2,
    mu_left,
    mu_right,
    renormalized_critical_g1,
    renormalized_critical_g2,
)

# Frozen reference values (independently computed, 64-bit).
GC1_AT_W31_1P7 = 0.6519202405202649       # sqrt(1.7)/2
MU_L_AT_075 = 0.7555555555555555          # (gc1/0.75)^2 at omega31=1.7
GTILDE_C2_UNIT_G1_1 = 1.0                 # all omegas 1, g1 = 1


def test_phase_labels_are_the_four_documented_strings():
    assert [p.value for p in PhaseLabel] == [
        "Normal", "LeftSR", "RightSR", "LeftRightSR",
    ]


def test_params_defaults_and_immutability():
    p = ModelParams()
    assert p.omega21 == p.omega31 == p.omega_a == p.omega_b == 1.0
    assert p.g1 == p.g2 == 0.0
    with pytest.raises(Exception):
        p.g1 = 0.3  # frozen dataclass


@pytest.mark.parametrize("field", ["omega21", "omega31", "omega_a", "omega_b"])
def test_nonpositive_frequencies_rejected_with_field_name(field):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError) as err:
            ModelParams(**{field: bad})
        assert field in str(err.value)


@pytest.mark.parametrize("field", ["g1", "g2"])
def test_negative_couplings_rejected(field):
    with pytest.raises(ValueError) as err:
        ModelParams(**{field: -0.1})
    assert field in str(err.value)
    ModelParams(**{field: 0.0})  # zero coupling is fine


def test_bare_thresholds_closed_form():
    p = ModelParams(omega31=1.7)
    assert math.isclose(critical_g1(p), GC1_AT_W31_1P7, rel_tol=0, abs_tol=1e-15)
    assert critical_g2(p) == 0.5
    q = ModelParams(omega21=2.0, omega31=3.0, omega_a=0.5, omega_b=4.0)
    assert math.isclose(critical_g1(q), 0.5 * math.sqrt(0.5 * 3.0), rel_tol=1e-15)
    assert math.isclose(critical_g2(q), 0.5 * math.sqrt(4.0 * 2.0), rel_tol=1e-15)


def test_mu_ratios():
    p = ModelParams(omega31=1.7, g1=0.75, g2=0.75)
    assert math.isclose(mu_left(p), MU_L_AT_075, rel_tol=1e-14)
    assert math.isclose(mu_right(p), (0.5 / 0.75) ** 2, rel_tol=1e-14)
    # mu = 1 exactly at threshold
    at = ModelParams(omega31=1.7, g1=critical_g1(p))
    assert math.isclose(mu_left(at), 1.0, rel_tol=1e-14)


def test_mu_undefined_at_zero_coupling():
    p = ModelParams()
    with pytest.raises(DomainError):
        mu_left(p)
    with pytest.raises(DomainError):
        mu_right(p)


@pytest.mark.parametrize("g", [1e-200, 5e-324])
def test_mu_overflows_alike_whether_the_ratio_or_its_square_does(g):
    # 0.5 / 5e-324 overflows in the division, 0.5 / 1e-200 only in the square
    for closed_form, params in ((mu_left, ModelParams(g1=g)), (mu_right, ModelParams(g2=g))):
        with pytest.raises(OverflowError):
            closed_form(params)


def test_renormalized_threshold_frozen_value():
    p = ModelParams(g1=1.0)
    assert math.isclose(renormalized_critical_g2(p), GTILDE_C2_UNIT_G1_1,
                        rel_tol=0, abs_tol=1e-14)


def test_renormalized_threshold_equals_bare_at_onset():
    # When the left condensate barely exists it does not yet shift the
    # right threshold: gtilde_c2(g1 = g_c1) == g_c2, and mirrored.
    for p in (ModelParams(omega31=1.7), ModelParams(omega21=0.8, omega_b=1.3),
              ModelParams(omega21=2.0, omega31=0.4, omega_a=1.9, omega_b=0.7)):
        left_on = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                              g1=critical_g1(p), g2=0.0)
        assert math.isclose(renormalized_critical_g2(left_on), critical_g2(p),
                            rel_tol=1e-12)
        right_on = ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                               g1=0.0, g2=critical_g2(p))
        assert math.isclose(renormalized_critical_g1(right_on), critical_g1(p),
                            rel_tol=1e-12)


def test_renormalized_threshold_monotone_and_asymptotic():
    p0 = ModelParams(omega21=1.1, omega31=0.9, omega_a=1.4, omega_b=0.6)
    gc1 = critical_g1(p0)
    prev = None
    for i in range(1000):
        g1 = gc1 * (1.0 + 3.0 * (i + 1) / 1000.0)
        val = renormalized_critical_g2(ModelParams(
            p0.omega21, p0.omega31, p0.omega_a, p0.omega_b, g1=g1))
        if prev is not None:
            assert val > prev, f"gtilde_c2 not increasing at g1={g1}"
        prev = val
    # deep superradiant regime: boundary approaches the ray g2/g1 = sqrt(wb/wa)
    far = renormalized_critical_g2(ModelParams(
        p0.omega21, p0.omega31, p0.omega_a, p0.omega_b, g1=100.0))
    assert abs(far / 100.0 - math.sqrt(p0.omega_b / p0.omega_a)) < 1e-3


def test_renormalized_threshold_needs_condensed_branch():
    p = ModelParams(g1=0.3)  # below g_c1 = 0.5
    with pytest.raises(DomainError):
        renormalized_critical_g2(p)
    with pytest.raises(DomainError):
        renormalized_critical_g1(ModelParams(g2=0.1))


def test_condensed_mu_left_is_the_one_domain_rule():
    # both closed forms about the left condensate refuse exactly as it does
    below = ModelParams(g1=math.nextafter(0.5, 0.0))  # g_c1 = 0.5
    with pytest.raises(DomainError) as refused:
        condensed_mu_left(below)
    for form in (renormalized_critical_g2, right_branch_form):
        with pytest.raises(DomainError) as caught:
            form(below)
        assert str(caught.value) == str(refused.value)
    at = ModelParams(g1=0.5)
    assert condensed_mu_left(at) == mu_left(at) == 1.0


def test_alpha_beta_values_and_internal_agreement():
    p = ModelParams(omega31=1.7, omega_a=1.3, omega_b=0.7, g1=0.9, g2=0.4)
    a, b = alpha_beta(p)
    assert math.isclose(a, 4.0 * 0.9 ** 2 / 1.3, rel_tol=1e-14)
    assert math.isclose(b, 4.0 * 0.4 ** 2 / 0.7, rel_tol=1e-14)
    # the mu-based route is undefined at zero coupling
    with pytest.raises(DomainError):
        alpha_beta(ModelParams(g1=0.5))
    # alpha = omega31/mu_left and beta = omega21/mu_right
    rng = np.random.default_rng(17)
    for _ in range(200):
        q = ModelParams(*rng.uniform(0.3, 2.5, 4), *rng.uniform(0.01, 3.0, 2))
        a, b = alpha_beta(q)
        assert math.isclose(a, q.omega31 / mu_left(q), rel_tol=1e-12)
        assert math.isclose(b, q.omega21 / mu_right(q), rel_tol=1e-12)
