import math
import re
from dataclasses import replace

import numpy as np
import pytest

from vdicke.errors import BracketError, DomainError
from vdicke.fluctuations import (
    FluctuationSpectrum,
    QuadraticBosonForm,
    critical_coupling_by_zero_mode,
    diagonalize,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from vdicke.model import (
    ModelParams,
    critical_g1,
    critical_g2,
    renormalized_critical_g1,
    renormalized_critical_g2,
)

# two coupled unit oscillators at lambda = 1/4: polaritons at
# sqrt(1/2) and sqrt(3/2)
EPS_MINUS_REF = 0.7071067811865476
EPS_PLUS_REF = 1.224744871391589


def test_two_coupled_oscillators_frozen_values():
    spec = diagonalize(QuadraticBosonForm(1.0, 1.0, 0.25))
    assert math.isclose(spec.eps_minus, EPS_MINUS_REF, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(spec.eps_plus, EPS_PLUS_REF, rel_tol=0, abs_tol=1e-15)
    assert spec.stable


def test_decoupled_form_returns_bare_frequencies():
    spec = diagonalize(QuadraticBosonForm(0.6, 1.9, 0.0))
    assert math.isclose(spec.eps_minus, 0.6, rel_tol=1e-15)
    assert math.isclose(spec.eps_plus, 1.9, rel_tol=1e-15)


def test_zero_mode_exactly_at_half_geometric_mean():
    w1, w2 = 0.8, 1.3
    lam_c = 0.5 * math.sqrt(w1 * w2)
    spec = diagonalize(QuadraticBosonForm(w1, w2, lam_c))
    assert abs(spec.eps_minus) < 1e-7  # eps^2 vanishes to ~1e-15
    assert spec.eps_minus_sq == pytest.approx(0.0, abs=1e-14)
    assert spec.stable


def test_beyond_critical_coupling_is_unstable():
    spec = diagonalize(QuadraticBosonForm(1.0, 1.0, 0.51))
    assert not spec.stable
    assert spec.eps_minus == 0.0   # reported as soft
    assert spec.eps_minus_sq < 0.0


def test_form_requires_positive_frequencies():
    with pytest.raises(ValueError):
        QuadraticBosonForm(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        QuadraticBosonForm(1.0, -0.2, 0.1)


def _symplectic_squares(form):
    # Quadratures z = (x1, x2, p1, p2): the potential block carries the
    # coupling, the kinetic block is diagonal, and the motion is
    # z' = K z with K = [[0, T], [-V, 0]].  Eigenvalues of K come in
    # pairs +-i*eps, so -lambda^2 recovers the squared frequencies
    # whatever their sign.
    w1, w2, lam = form.freq1, form.freq2, form.coupling
    v = np.array([[w1, 2.0 * lam], [2.0 * lam, w2]])
    t = np.diag([w1, w2])
    zeros = np.zeros((2, 2))
    k = np.block([[zeros, t], [-v, zeros]])
    eigenvalues = np.linalg.eigvals(k)
    squares = np.sort(np.real(-eigenvalues ** 2))
    return 0.5 * (squares[0] + squares[1]), 0.5 * (squares[2] + squares[3])


def test_closed_form_agrees_with_symplectic_route():
    # couplings up to 3 lam_c, the bracket the zero-mode bisections use,
    # so unstable forms are checked as well as stable ones
    rng = np.random.default_rng(11)
    for _ in range(1000):
        w1 = rng.uniform(0.05, 3.0)
        w2 = rng.uniform(0.05, 3.0)
        lam_c = 0.5 * math.sqrt(w1 * w2)
        lam = rng.uniform(0.0, 3.0) * lam_c
        form = QuadraticBosonForm(w1, w2, lam)
        spec = diagonalize(form)
        lo, hi = _symplectic_squares(form)
        scale = max(1.0, abs(hi))
        assert abs(spec.eps_minus_sq - lo) < 1e-10 * scale
        assert abs(spec.eps_plus ** 2 - hi) < 1e-10 * scale
        if abs(lam - lam_c) > 1e-9 * lam_c:
            assert spec.stable == (lam < lam_c)


def test_normal_phase_forms_decouple_into_the_two_branches():
    p = ModelParams(omega21=0.9, omega31=1.7, omega_a=1.2, omega_b=0.8,
                    g1=0.31, g2=0.27)
    fa, fb = normal_phase_forms(p)
    assert (fa.freq1, fa.freq2, fa.coupling) == (1.2, 1.7, 0.31)
    assert (fb.freq1, fb.freq2, fb.coupling) == (0.8, 0.9, 0.27)


def test_right_branch_form_frozen_point():
    # left condensate at twice threshold (mu_l = 1/4) stiffens the
    # right-branch atomic frequency to 1 + 1.7*3/2 = 3.55 and rescales
    # the drive by sqrt(5/8)
    p = ModelParams(omega31=1.7, g1=2.0 * critical_g1(ModelParams(omega31=1.7)),
                    g2=0.5)
    form = right_branch_form(p)
    assert math.isclose(form.freq1, 1.0, rel_tol=1e-15)
    assert math.isclose(form.freq2, 3.55, rel_tol=1e-12)
    assert math.isclose(form.coupling, 0.39528470752104744, rel_tol=1e-12)


def test_branch_forms_require_their_condensate():
    with pytest.raises(DomainError):
        right_branch_form(ModelParams(g1=0.3, g2=0.2))
    with pytest.raises(DomainError):
        left_branch_form(ModelParams(g1=0.3, g2=0.2))


def test_zero_mode_of_branch_form_reproduces_renormalized_threshold():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p0 = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0))
        g1 = critical_g1(p0) * rng.uniform(1.05, 3.0)
        base = ModelParams(p0.omega21, p0.omega31, p0.omega_a, p0.omega_b, g1=g1)
        target = renormalized_critical_g2(base)

        def family(g2, base=base):
            return right_branch_form(ModelParams(
                base.omega21, base.omega31, base.omega_a, base.omega_b,
                g1=base.g1, g2=g2))

        found = critical_coupling_by_zero_mode(family, (0.2 * target, 3.0 * target))
        assert abs(found - target) < 1e-8 * max(1.0, target)


def test_zero_mode_of_left_form_mirrors():
    base = ModelParams(omega21=1.4, omega31=0.7, omega_a=0.9, omega_b=1.6,
                       g2=1.1)
    target = renormalized_critical_g1(base)

    def family(g1):
        return left_branch_form(ModelParams(
            base.omega21, base.omega31, base.omega_a, base.omega_b,
            g1=g1, g2=base.g2))

    found = critical_coupling_by_zero_mode(family, (0.2 * target, 3.0 * target))
    assert abs(found - target) < 1e-8


def test_bisection_rejects_bracket_without_sign_change():
    def family(lam):
        return QuadraticBosonForm(1.0, 1.0, lam)

    with pytest.raises(BracketError):
        critical_coupling_by_zero_mode(family, (0.01, 0.1))  # both stable
    with pytest.raises(BracketError):
        critical_coupling_by_zero_mode(family, (0.75, 0.25))  # lo > hi


def test_zero_mode_root_returns_exact_zeros():
    # at w1 = w2 = 1, eps_minus^2 = 1 - 2 lam exactly: zero at 1/2
    def family(lam):
        return QuadraticBosonForm(1.0, 1.0, lam)

    assert critical_coupling_by_zero_mode(family, (0.5, 0.9)) == 0.5
    assert critical_coupling_by_zero_mode(family, (0.1, 0.5)) == 0.5
    # the first secant point of (1/4, 3/4) is the root itself
    assert critical_coupling_by_zero_mode(family, (0.25, 0.75)) == 0.5


def _bisection_root(form_family, bracket, tol=1e-12):
    """Plain bisection of eps_minus^2 over a sign-change bracket: the secant's oracle."""
    lo, hi = bracket
    f_lo = diagonalize(form_family(lo)).eps_minus_sq
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = diagonalize(form_family(mid)).eps_minus_sq
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def _criterion_2_families():
    """Acceptance criterion 2's 100 draws: (form family, closed-form root), two per draw."""
    rng = np.random.default_rng(2024)
    out = []
    for draw in range(100):
        base = ModelParams(
            omega21=rng.uniform(0.4, 2.0), omega31=rng.uniform(0.4, 2.0),
            omega_a=rng.uniform(0.4, 2.0), omega_b=rng.uniform(0.4, 2.0))
        if draw % 2 == 0:
            out.append((lambda g, b=base: normal_phase_forms(replace(b, g1=g))[0],
                        critical_g1(base)))
            p = replace(base, g1=critical_g1(base) * rng.uniform(1.02, 3.0))
            out.append((lambda g, p=p: right_branch_form(replace(p, g2=g)),
                        renormalized_critical_g2(p)))
        else:
            out.append((lambda g, b=base: normal_phase_forms(replace(b, g2=g))[1],
                        critical_g2(base)))
            p = replace(base, g2=critical_g2(base) * rng.uniform(1.02, 3.0))
            out.append((lambda g, p=p: left_branch_form(replace(p, g1=g)),
                        renormalized_critical_g1(p)))
    return out


def test_secant_root_matches_bisection_in_few_evaluations():
    for family, target in _criterion_2_families():
        calls = []

        def counted(g, family=family):
            calls.append(g)
            return family(g)

        bracket = (0.2 * target, 3.0 * target)
        found = critical_coupling_by_zero_mode(counted, bracket)
        assert abs(found - _bisection_root(family, bracket)) <= 1e-10, target
        assert len(calls) <= 30, (target, len(calls))


def test_spectrum_record_fields():
    spec = diagonalize(QuadraticBosonForm(1.0, 2.0, 0.3))
    assert isinstance(spec, FluctuationSpectrum)
    assert spec.eps_minus <= spec.eps_plus
    assert spec.eps_minus_sq == pytest.approx(spec.eps_minus ** 2, abs=1e-14)


@pytest.mark.parametrize("form", [
    QuadraticBosonForm(1.0, 1.0, 1e155),    # the coupling's square overflows
    QuadraticBosonForm(1e155, 1.0, 0.5),    # a frequency's square overflows
    QuadraticBosonForm(1.0, 2e200, 0.5),
    QuadraticBosonForm(1.0, 1.0, 1e154),    # every square is finite, the root is not
    QuadraticBosonForm(1e154, 1e154, 0.0),  # the roots are finite, a squared frequency is not
])
def test_diagonalize_names_the_block_that_overflows(form):
    # ** on a float raised OverflowError(34, 'Numerical result out of range'),
    # and a squared frequency past the range came out as inf
    with pytest.raises(OverflowError, match=re.escape(
            f"the fluctuation block overflows a float: freq1 = {form.freq1!r}, "
            f"freq2 = {form.freq2!r}, coupling = {form.coupling!r}")):
        diagonalize(form)
