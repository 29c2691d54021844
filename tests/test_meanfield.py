import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdicke import meanfield
from vdicke.errors import DomainError
from vdicke.meanfield import (
    _REFINE_POINTS,
    _REFINE_SHRINK,
    _REFINE_STOP,
    PHASES,
    MeanFieldSolution,
    _branch_table,
    _energy_raw,
    _mesh_energies,
    _refine_all,
    brute_force_minimize,
    classify,
    classify_arrays,
    energy,
    gradient,
    on_degenerate_line,
    stationary_branches,
)
from vdicke.model import (
    ModelParams,
    PhaseLabel,
    critical_g1,
    critical_g2,
    mu_left,
    mu_right,
    renormalized_critical_g1,
    renormalized_critical_g2,
)
from vdicke.scan import phase_diagram

# ---------------------------------------------------------------------------
# frozen single-branch reference point: all omegas 1, g1 = 1 (mu_l = 1/4)
LEFT_PSI3 = 0.6123724356957945            # sqrt(3/8)
LEFT_PHI_A = 0.9682458365518541           # 2*g1*psi1*psi3, psi1^2 = 5/8
LEFT_ENERGY = -0.5625                     # -(1 - 1/4)^2 / (4 * 1/4)

# frozen balanced point: all omegas 1, g1 = g2 = 1 (continuous valley)
BAL_PSI = 0.4330127018922193              # sqrt(3/16)
BAL_PHI = 0.6846531968814576

# both condensates carry E = -121/3600 exactly at this asymmetric point
TIE_PARAMS = ModelParams(omega31=1.7, g1=0.75, g2=0.60)
TIE_ENERGY = -121.0 / 3600.0


def _random_params(rng):
    return ModelParams(
        omega21=rng.uniform(0.3, 2.5),
        omega31=rng.uniform(0.3, 2.5),
        omega_a=rng.uniform(0.3, 2.5),
        omega_b=rng.uniform(0.3, 2.5),
        g1=rng.uniform(0.0, 2.0),
        g2=rng.uniform(0.0, 2.0),
    )


def test_energy_zero_at_origin_and_known_value():
    p = ModelParams(g1=1.0)
    assert energy(p, 0.0, 0.0) == 0.0
    assert math.isclose(energy(p, 0.0, LEFT_PSI3), LEFT_ENERGY, abs_tol=1e-15)


def test_energy_accepts_arrays():
    p = ModelParams(omega31=1.3, g1=0.8, g2=0.6)
    psi2 = np.linspace(-0.5, 0.5, 7)
    psi3 = np.linspace(-0.4, 0.6, 7)
    vals = energy(p, psi2, psi3)
    assert vals.shape == (7,)
    for k in range(7):
        assert math.isclose(vals[k], energy(p, float(psi2[k]), float(psi3[k])),
                            rel_tol=1e-14, abs_tol=1e-15)


def test_energy_rejects_points_outside_the_disc():
    with pytest.raises(DomainError):
        energy(ModelParams(), 0.9, 0.9)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-7
    for _ in range(1000):
        p = _random_params(rng)
        # stay well inside the disc so the FD stencil never leaves it
        r = rng.uniform(0.0, 0.9)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        psi2, psi3 = r * math.cos(theta), r * math.sin(theta)
        g2_, g3_ = gradient(p, psi2, psi3)
        fd2 = (energy(p, psi2 + h, psi3) - energy(p, psi2 - h, psi3)) / (2 * h)
        fd3 = (energy(p, psi2, psi3 + h) - energy(p, psi2, psi3 - h)) / (2 * h)
        scale = max(1.0, abs(g2_), abs(g3_))
        assert abs(g2_ - fd2) < 1e-6 * scale
        assert abs(g3_ - fd3) < 1e-6 * scale


def test_left_branch_frozen_values():
    p = ModelParams(g1=1.0)
    sol = classify(p)
    assert sol.phase is PhaseLabel.LEFT_SR
    assert math.isclose(sol.psi3, LEFT_PSI3, abs_tol=1e-15)
    assert sol.psi2 == 0.0
    assert math.isclose(abs(sol.phi_a), LEFT_PHI_A, abs_tol=1e-14)
    assert sol.phi_b == 0.0
    assert math.isclose(sol.energy, LEFT_ENERGY, abs_tol=1e-15)
    assert sol.degeneracy == 2
    assert not sol.bistable


def test_right_branch_mirror():
    sol = classify(ModelParams(g2=1.0))
    assert sol.phase is PhaseLabel.RIGHT_SR
    assert math.isclose(sol.psi2, LEFT_PSI3, abs_tol=1e-15)
    assert sol.psi3 == 0.0
    assert math.isclose(abs(sol.phi_b), LEFT_PHI_A, abs_tol=1e-14)


def test_normal_phase_below_both_thresholds():
    sol = classify(ModelParams(g1=0.3, g2=0.45))
    assert sol.phase is PhaseLabel.NORMAL
    assert sol.energy == 0.0
    assert sol.psi2 == sol.psi3 == 0.0
    assert sol.psi1 == 1.0


def test_balanced_valley_frozen_values():
    p = ModelParams(g1=1.0, g2=1.0)
    assert on_degenerate_line(p)
    sol = classify(p)
    assert sol.phase is PhaseLabel.LEFT_RIGHT_SR
    assert math.isclose(sol.psi2, BAL_PSI, abs_tol=1e-15)
    assert math.isclose(sol.psi3, BAL_PSI, abs_tol=1e-15)
    assert math.isclose(abs(sol.phi_a), BAL_PHI, abs_tol=1e-14)
    assert math.isclose(abs(sol.phi_b), BAL_PHI, abs_tol=1e-14)
    assert sol.degenerate_valley
    assert sol.degeneracy == 4
    assert not sol.bistable  # a valley is degenerate, not bistable


def test_degenerate_line_needs_matched_atomic_frequencies():
    # alpha = beta alone is not enough: with omega21 != omega31 the
    # candidate balanced point is not even stationary.
    p = ModelParams(omega21=1.0, omega31=1.3, omega_a=1.0, omega_b=1.0,
                    g1=1.0, g2=1.0)
    assert not on_degenerate_line(p)
    labels = {s.phase for s in stationary_branches(p) if s.physical}
    assert PhaseLabel.LEFT_RIGHT_SR not in labels


def test_generic_mixed_stationary_point_is_never_the_minimum():
    # admissible interior saddles are rare (about 0.3% of draws), so
    # sample widely and check every one we hit
    rng = np.random.default_rng(21)
    seen = 0
    for _ in range(4000):
        p = _random_params(rng)
        branches = stationary_branches(p)
        mixed = [s for s in branches if not s.physical]
        for s in mixed:
            seen += 1
            assert s.phase is PhaseLabel.LEFT_RIGHT_SR
            g = gradient(p, s.psi2, s.psi3)
            assert max(abs(g[0]), abs(g[1])) < 1e-9
            winner = classify(p)
            assert winner.energy <= s.energy + 1e-12
    assert seen > 0, "sampling never produced the generic mixed branch"


def test_branch_solutions_satisfy_invariants():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = _random_params(rng)
        for s in stationary_branches(p):
            norm = s.psi1 ** 2 + s.psi2 ** 2 + s.psi3 ** 2
            assert abs(norm - 1.0) <= 1e-12
            assert s.psi1 >= 0.0
            # cavity amplitudes come from eliminating the linear terms
            assert abs(s.phi_a + 2 * p.g1 * s.psi1 * s.psi3 / p.omega_a) <= 1e-12
            assert abs(s.phi_b + 2 * p.g2 * s.psi1 * s.psi2 / p.omega_b) <= 1e-12
            g = gradient(p, s.psi2, s.psi3)
            assert max(abs(g[0]), abs(g[1])) <= 1e-10
            assert math.isclose(s.energy, energy(p, s.psi2, s.psi3),
                                rel_tol=1e-12, abs_tol=1e-12)


def test_sign_degeneracy_of_condensed_branches():
    p = ModelParams(omega31=1.7, g1=0.9)
    branches = [s for s in stationary_branches(p)
                if s.phase is PhaseLabel.LEFT_SR]
    assert len(branches) == 2
    assert branches[0].psi3 == -branches[1].psi3
    assert branches[0].phi_a == -branches[1].phi_a
    assert branches[0].energy == branches[1].energy


def test_exact_energy_tie_is_flagged_bistable():
    sol = classify(TIE_PARAMS)
    e_left = [s.energy for s in stationary_branches(TIE_PARAMS)
              if s.phase is PhaseLabel.LEFT_SR][0]
    e_right = [s.energy for s in stationary_branches(TIE_PARAMS)
               if s.phase is PhaseLabel.RIGHT_SR][0]
    assert e_left == e_right  # bitwise tie in binary64
    assert abs(e_left - TIE_ENERGY) < 1e-15
    assert sol.bistable
    # tie resolves toward the more deeply condensed branch (smaller mu)
    assert sol.phase is PhaseLabel.RIGHT_SR


def test_bistable_requires_local_stability_of_both():
    # g2 above the renormalized threshold: the left well has turned
    # into a saddle, so only one minimum remains
    p = ModelParams(omega31=1.7, g1=0.75, g2=0.65)
    sol = classify(p)
    assert sol.phase is PhaseLabel.RIGHT_SR
    assert not sol.bistable
    # on the first-order coexistence curve both wells are locally
    # stable (point sits strictly inside the hysteresis wedge)
    q = ModelParams(omega31=1.7, g1=1.0, g2=0.8643)
    assert classify(q).bistable
    # with matched atomic frequencies the wedge has zero width: no
    # off-diagonal point is ever bistable
    for g1, g2 in ((0.55, 0.95), (0.62, 0.60), (0.9, 0.7)):
        assert not classify(ModelParams(g1=g1, g2=g2)).bistable


def test_classification_matches_brute_force_on_a_spot_grid():
    # coarse but deterministic sample across all four phases
    pts = [
        ModelParams(g1=0.2, g2=0.2),
        ModelParams(g1=0.9, g2=0.3),
        ModelParams(g1=0.3, g2=0.9),
        ModelParams(g1=1.0, g2=1.0),
        ModelParams(omega31=1.7, g1=0.75, g2=0.70),
        ModelParams(omega31=1.7, g1=0.75, g2=0.45),
    ]
    for p in pts:
        picked = classify(p)
        oracle = brute_force_minimize(p, resolution=240)
        assert oracle.phase is picked.phase, f"label mismatch at {p}"
        assert abs(oracle.energy - picked.energy) < 1e-6
        if picked.degenerate_valley:
            # the minimum is a flat valley: only the total condensate
            # weight is pinned down
            total_o = oracle.psi2 ** 2 + oracle.psi3 ** 2
            total_p = picked.psi2 ** 2 + picked.psi3 ** 2
            assert abs(total_o - total_p) < 1e-5
        else:
            assert abs(oracle.psi2 ** 2 - picked.psi2 ** 2) < 1e-5
            assert abs(oracle.psi3 ** 2 - picked.psi3 ** 2) < 1e-5



def test_brute_force_needs_no_closed_form_branch(monkeypatch):
    # the oracle checks the closed-form branches, so it must find classify's
    # minimum with the branch table refusing every call; it judges phase,
    # amplitudes and energy only, so a bistable point is not flagged
    p = ModelParams(omega31=1.7, g1=1.0, g2=0.8643)
    picked = classify(p)
    assert picked.bistable

    def refuse(*args):
        raise AssertionError("brute_force_minimize read the closed-form branch table")

    monkeypatch.setattr(meanfield, "_branch_table", refuse)
    oracle = brute_force_minimize(p, resolution=240)
    assert oracle.phase is picked.phase
    assert abs(oracle.energy - picked.energy) < 1e-8
    assert abs(oracle.psi2 ** 2 - picked.psi2 ** 2) < 1e-5
    assert abs(oracle.psi3 ** 2 - picked.psi3 ** 2) < 1e-5
    assert not oracle.bistable


@pytest.mark.parametrize("couplings, alpha, beta", [
    ({"g1": 1e154}, "inf", "0.0"), ({"g2": 1e154}, "0.0", "inf"),
    ({"g1": 1e155}, "inf", "0.0"), ({"g2": 1e155}, "0.0", "inf"),
    ({"g1": 5e153, "g2": 5e153}, "1e+308", "1e+308"),
])
def test_brute_force_refuses_a_surface_past_the_float_range(couplings, alpha, beta):
    # at 1e154 a scale 4 g^2 / omega is inf while g^2 is finite (the oracle
    # returned a Normal point with energy nan); at 1e155 g^2 itself is past
    # the range (a bare OverflowError from g ** 2); at 5e153 each scale is
    # finite but their sum, the surface's scale, is not (a wrong minimum)
    with pytest.raises(OverflowError, match=re.escape(
            f"alpha = 4 g1^2 / omega_a = {alpha}, beta = 4 g2^2 / omega_b = {beta}")):
        brute_force_minimize(ModelParams(**couplings))


# Points where a grid without the axes stopped the oracle off an axis, 1e-6
# to 5e-6 above a one-branch minimum, labelled LeftRightSR: the true phase
# is RightSR at the first and LeftSR at the other two.
@pytest.mark.parametrize("point", [
    (1.8308173521822475, 1.775756044074734, 1.2540033503923809, 1.00391064104882,
     1.0639572009970089, 0.9617067629425554),
    (1.4440597704195528, 1.5997353125058775, 1.387126407280196, 1.1196716186999884,
     1.2467235286201706, 1.090556185867843),
    (1.7731504868506125, 1.717617868550911, 0.6032949764318088, 1.2969915500341938,
     0.8774525872774462, 1.2964625441473883),
])
def test_brute_force_keeps_its_contract_on_the_axes(point):
    e_min, labels = _exact_minimum(point)
    oracle = brute_force_minimize(ModelParams(*point), resolution=400)
    assert abs(oracle.energy - e_min) <= 1e-8
    assert oracle.phase in labels and oracle.phase is not PhaseLabel.LEFT_RIGHT_SR


@st.composite
def _query_points(draw):
    """Frequencies in [0.4, 2] and couplings in [0, 2 g_c], drawn as the point queries are."""
    w21, w31, wa, wb = (draw(st.floats(0.4, 2.0)) for _ in range(4))
    return (w21, w31, wa, wb, draw(st.floats(0.0, math.sqrt(wa * w31))),
            draw(st.floats(0.0, math.sqrt(wb * w21))))


@settings(max_examples=300, deadline=None)
@given(_query_points())
def test_brute_force_keeps_its_contract_on_query_points(point):
    # the window geometry (_REFINE_POINTS, _REFINE_SHRINK) must still reach
    # the exact minimum to the 1e-8 contract, in the right well
    e_min, labels = _exact_minimum(point)
    oracle = brute_force_minimize(ModelParams(*point), resolution=400)
    assert abs(oracle.energy - e_min) <= 1e-8 * max(1.0, abs(e_min)), point
    assert oracle.phase in labels, (point, oracle.phase, labels)


def _criterion_1_points(every: int = 1):
    """Acceptance criterion 1's two 50 x 50 coupling grids, every ``every``-th point."""
    points = [replace(base, g1=float(g1), g2=float(g2))
              for base in (ModelParams(), ModelParams(omega31=1.7))
              for g1 in np.linspace(0.0, 2.0 * critical_g1(base), 50)
              for g2 in np.linspace(0.0, 2.0 * critical_g2(base), 50)]
    return points[::every]


def _refine(params, start, window):
    """One start's shrinking-window search, one window at a time: the batched search's oracle."""
    c2, c3 = start
    best = (float(_energy_raw(params, np.asarray(c2), np.asarray(c3))), c2, c3)
    w = window
    while w > _REFINE_STOP:
        g2s = np.linspace(best[1] - w, best[1] + w, _REFINE_POINTS)
        g3s = np.linspace(best[2] - w, best[2] + w, _REFINE_POINTS)
        p2, p3 = np.meshgrid(g2s, g3s, indexing="ij")
        inside = p2 ** 2 + p3 ** 2 <= 1.0
        if np.any(inside):
            vals = np.full(p2.shape, np.inf)
            vals[inside] = _energy_raw(params, p2[inside], p3[inside])
            flat = np.argmin(vals)
            if vals.flat[flat] < best[0]:
                best = (float(vals.flat[flat]), float(p2.flat[flat]), float(p3.flat[flat]))
        w *= _REFINE_SHRINK
    return best


def test_batched_refinement_is_the_one_start_search():
    # brute_force_minimize's four starts, plus two on the disc's rim,
    # where the windows are cut by it
    xs = np.linspace(0.0, 1.0, 400)
    window = 2.0 * (xs[1] - xs[0])
    for p in _criterion_1_points(every=23):
        values = _mesh_energies(p, xs)
        i2, i3 = np.unravel_index(np.argmin(values), values.shape)
        starts = [(0.0, 0.0), (xs[i2], xs[i3]), (xs[np.argmin(values[:, 0])], 0.0),
                  (0.0, xs[np.argmin(values[0])]), (1.0, 0.0), (0.6, 0.8)]
        batched = _refine_all(p, np.array(starts).T, window)
        for k, start in enumerate(starts):
            one = _refine(p, start, window)
            assert tuple(float(column[k]).hex() for column in batched) == \
                tuple(x.hex() for x in one), (p, start)


def _assert_kkt(params):
    """classify's minimum is a stationary point, and no physical branch lies lower."""
    picked = classify(params)
    bound = KKT_TOL * max(1.0, abs(picked.energy))
    assert max(abs(g) for g in gradient(params, picked.psi2, picked.psi3)) <= bound, params
    assert all(s.energy >= picked.energy for s in stationary_branches(params) if s.physical), \
        params


def test_classify_meets_kkt_on_the_criterion_1_grids():
    for p in _criterion_1_points():
        _assert_kkt(p)


def test_brute_force_guards_resolution():
    with pytest.raises(ValueError):
        brute_force_minimize(ModelParams(), resolution=50)


def test_solution_record_is_frozen():
    sol = classify(ModelParams(g1=1.0))
    assert isinstance(sol, MeanFieldSolution)
    with pytest.raises(Exception):
        sol.energy = 0.0


# ---------------------------------------------------------------------------
# Exact reference, sharing no code with the classification: in
# (s2, s3) = (psi2^2, psi3^2) the energy is a quadratic on the triangle
# s2, s3 >= 0, s2 + s3 <= 1, so its global minimum is one of a few KKT
# candidates.  On the edge s2 + s3 = 1 (psi1 = 0) it is linear, so that
# edge contributes only its vertices.

KKT_TOL = 1e-12


def _quadratic(p, s2, s3):
    w21, w31, wa, wb, g1, g2 = p
    a = 4.0 * g1 ** 2 / wa
    b = 4.0 * g2 ** 2 / wb
    return (w21 - b) * s2 + (w31 - a) * s3 + b * s2 ** 2 + a * s3 ** 2 + (a + b) * s2 * s3


def _kkt_candidates(p):
    w21, w31, wa, wb, g1, g2 = p
    a = 4.0 * g1 ** 2 / wa
    b = 4.0 * g2 ** 2 / wb
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    if b > w21:
        points.append(((b - w21) / (2.0 * b), 0.0))
    if a > w31:
        points.append((0.0, (a - w31) / (2.0 * a)))
    det = 4.0 * a * b - (a + b) ** 2
    if det != 0.0:
        s2 = (2.0 * a * (b - w21) - (a + b) * (a - w31)) / det
        s3 = (2.0 * b * (a - w31) - (a + b) * (b - w21)) / det
        if s2 > 0.0 and s3 > 0.0 and s2 + s3 <= 1.0:
            points.append((s2, s3))
    return [(s2, s3, _quadratic(p, s2, s3)) for s2, s3 in points]


def _support(s2, s3):
    return PHASES[int(s3 > 0.0) + 2 * int(s2 > 0.0)]


def _exact_minimum(p):
    """Least energy, and the labels of every minimiser within KKT_TOL."""
    candidates = _kkt_candidates(p)
    e_min = min(e for _, _, e in candidates)
    near = [(s2, s3) for s2, s3, e in candidates if e <= e_min + KKT_TOL]
    labels = {_support(s2, s3) for s2, s3 in near}
    right = [s2 for s2, s3 in near if s3 == 0.0 and s2 > 0.0]
    left = [s3 for s2, s3 in near if s2 == 0.0 and s3 > 0.0]
    # Two tied one-branch minima joined by a flat segment: the
    # degenerate valley, where every mixed split is a minimiser too.
    if right and left and _quadratic(p, right[0] / 2, left[0] / 2) <= e_min + KKT_TOL:
        labels.add(PhaseLabel.LEFT_RIGHT_SR)
    return e_min, labels


def _reference_points():
    """Seeded points: generic, degenerate ray, exact ties, g = 0 edges, thresholds."""
    rng = np.random.default_rng(2024)
    rows = [(1.0, 1.7, 1.0, 1.0, 0.75, 0.60), (1.0, 1.0, 1.0, 1.0, 0.5, 0.5),
            (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 0.0, 0.0)]
    kinds = ["named"] * len(rows)
    for i in range(2500):
        w21, w31, wa, wb = rng.uniform(0.3, 2.5, 4)
        g1, g2 = rng.uniform(0.0, 2.0, 2)
        gc1, gc2 = 0.5 * math.sqrt(wa * w31), 0.5 * math.sqrt(wb * w21)
        kind = ("generic", "ray", "tie", "zero", "threshold")[i % 5]
        if kind == "ray":
            w31, g2 = w21, g1 * math.sqrt(wb / wa)
        elif kind == "tie":
            # equal condensate energies (a - w31)^2/a = (b - w21)^2/b
            g1 = gc1 * rng.uniform(1.01, 3.0)
            a = 4.0 * g1 ** 2 / wa
            c = (a - w31) ** 2 / a
            b = 0.5 * (2.0 * w21 + c + math.sqrt((2.0 * w21 + c) ** 2 - 4.0 * w21 ** 2))
            g2 = 0.5 * math.sqrt(b * wb)
        elif kind == "zero":
            g1, g2 = ((0.0, g2), (g1, 0.0), (0.0, 0.0))[rng.integers(3)]
        elif kind == "threshold":
            g1, g2 = ((gc1, g2), (g1, gc2), (gc1, gc2))[rng.integers(3)]
        rows.append((w21, w31, wa, wb, g1, g2))
        kinds.append(kind)
    return np.array(rows), kinds


def test_classify_arrays_attains_the_exact_minimum():
    points, kinds = _reference_points()
    result = classify_arrays(*points.T)
    assert result.phase.shape == (len(points),)
    for k, (p, kind) in enumerate(zip(points, kinds)):
        e_min, labels = _exact_minimum(p)
        label = PHASES[result.phase[k]]
        assert abs(result.energy[k] - e_min) <= KKT_TOL, f"energy at {p}"
        assert label in labels, f"{label} at {p}, exact minimisers {labels}"
        # the reported amplitudes carry the reported energy and label
        psi2, psi3 = result.psi2[k], result.psi3[k]
        assert abs(energy(ModelParams(*p), psi2, psi3) - result.energy[k]) <= KKT_TOL
        assert _support(psi2 ** 2, psi3 ** 2) is label
        if kind == "tie":
            assert result.bistable[k], f"tie at {p} not flagged bistable"
        if kind == "ray" and result.phase[k] == 3:  # the degenerate valley
            assert label is PhaseLabel.LEFT_RIGHT_SR and not result.bistable[k]


def test_classify_arrays_broadcasts_frequencies_and_couplings():
    g1s = np.linspace(0.0, 1.4, 6)[:, None]
    g2s = np.linspace(0.0, 1.2, 5)[None, :]
    grid = classify_arrays(1.0, 1.7, 0.9, 1.2, g1s, g2s)
    assert grid.energy.shape == (6, 5)
    rows = classify_arrays(np.full((6, 1), 1.0), 1.7, 0.9, np.full(5, 1.2), g1s, g2s)
    for field in grid._fields:
        np.testing.assert_array_equal(getattr(rows, field), getattr(grid, field))


@pytest.mark.parametrize("base", [ModelParams(), ModelParams(omega31=1.7, omega_a=0.8)])
def test_phase_diagram_records_equal_scalar_classify(base):
    axis = np.linspace(0.0, 1.4, 15)
    table = phase_diagram(base, axis, axis)
    assert len(table) == 15 * 15
    p = table.phases
    for i, (g1, g2) in enumerate(zip(table.g1.tolist(), table.g2.tolist())):
        s = classify(replace(base, g1=g1, g2=g2))
        assert (PHASES[p.phase[i]], p.psi2[i], p.psi3[i], p.phi_a[i], p.phi_b[i], p.energy[i],
                p.bistable[i]) == \
            (s.phase, s.psi2, s.psi3, s.phi_a, s.phi_b, s.energy, s.bistable)


def test_classify_is_the_positive_copy_of_its_branch():
    # classify and stationary_branches read one branch table, so the
    # winner's positive-sign entry must match bit for bit
    points, _ = _reference_points()
    for p in points:
        params = ModelParams(*p)
        picked = classify(params)
        entry = next(s for s in stationary_branches(params)
                     if s.physical and s.phase is picked.phase and s.psi2 >= 0.0 and s.psi3 >= 0.0)
        assert entry == picked, f"at {params}"


def _close(x, y):
    return abs(x - y) <= 1e-12 * max(1.0, abs(y))


def test_kernel_thresholds_match_model_scalars():
    points, _ = _reference_points()
    table = _branch_table(*points.T)
    for k, p in enumerate(points):
        params = ModelParams(*p)
        if params.g1 > 0.0:
            mu = mu_left(params)
            assert _close(table.mul[k], mu)
            if table.has_left[k]:
                assert _close(table.e_left[k], -params.omega31 * (1.0 - mu) ** 2 / (4.0 * mu))
                assert _close(table.gt2[k], renormalized_critical_g2(params))
        if params.g2 > 0.0:
            mu = mu_right(params)
            assert _close(table.mur[k], mu)
            if table.has_right[k]:
                assert _close(table.e_right[k], -params.omega21 * (1.0 - mu) ** 2 / (4.0 * mu))
                assert _close(table.gt1[k], renormalized_critical_g1(params))
        assert table.has_left[k] == (params.g1 >= critical_g1(params))
        assert table.has_right[k] == (params.g2 >= critical_g2(params))


_MIRROR = {PhaseLabel.NORMAL: PhaseLabel.NORMAL, PhaseLabel.LEFT_SR: PhaseLabel.RIGHT_SR,
           PhaseLabel.RIGHT_SR: PhaseLabel.LEFT_SR,
           PhaseLabel.LEFT_RIGHT_SR: PhaseLabel.LEFT_RIGHT_SR}


def _branch_key(s):
    return (s.phase.value, s.physical, math.copysign(1.0, s.psi2), math.copysign(1.0, s.psi3))


def test_exchange_symmetry_mirrors_the_branch_list():
    # swapping levels 2<->3 with modes a<->b and g1<->g2 relabels left as
    # right; on the degenerate line the valley energy is e_left on one
    # side and e_right on the other, equal only to roundoff
    points, _ = _reference_points()
    for p in points:
        params = ModelParams(*p)
        w21, w31, wa, wb, g1, g2 = p
        swapped = ModelParams(w31, w21, wb, wa, g2, g1)
        mirrored = [replace(s, psi2=s.psi3, psi3=s.psi2, phi_a=s.phi_b, phi_b=s.phi_a,
                            phase=_MIRROR[s.phase]) for s in stationary_branches(swapped)]
        branches = sorted(stationary_branches(params), key=_branch_key)
        mirrored.sort(key=_branch_key)
        assert [_branch_key(s) for s in branches] == [_branch_key(s) for s in mirrored], \
            f"at {params}"
        for a, b in zip(branches, mirrored):
            assert (a.bistable, a.degeneracy, a.degenerate_valley) == \
                (b.bistable, b.degeneracy, b.degenerate_valley)
            for x, y in zip(astuple(a)[:6], astuple(b)[:6]):
                assert _close(x, y), f"{a} vs {b}"


def test_valley_at_threshold_commutes_with_the_exchange():
    # omega21 = omega31 an ulp below 2 puts g1 = 0.5 at its threshold on the
    # degenerate line, where mu_left and mu_right round an ulp apart: whether
    # the valley is reached must not depend on which branch is called left
    w, g2 = 1.9999999999999998, 0.5 * math.sqrt(3.0)
    picked = classify(ModelParams(w, w, 0.5, 1.5, 0.5, g2))
    swapped = classify(ModelParams(w, w, 1.5, 0.5, g2, 0.5))
    assert picked.phase is _MIRROR[swapped.phase]
    assert (picked.bistable, picked.degenerate_valley) == \
        (swapped.bistable, swapped.degenerate_valley)
