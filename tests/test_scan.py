import io
from dataclasses import replace

import numpy as np
import pytest

from vdicke.errors import DomainError
from vdicke.fluctuations import (
    critical_coupling_by_zero_mode,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from vdicke.model import ModelParams, PhaseLabel, critical_g1, critical_g2
from vdicke.scan import (
    CSV_COLUMNS,
    MAX_GRID_POINTS,
    GridSpec,
    SweepRecord,
    ed_sweep,
    line_cut,
    overlap_area,
    phase_diagram,
    read_records_csv,
    records_to_csv_text,
    trace_boundary,
    write_records_csv,
)

BASE = ModelParams(omega31=1.7)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(BASE, 0.0, 1.0, 0.0, 1.0, n1=1, n2=10)
    with pytest.raises(ValueError):
        GridSpec(BASE, 0.5, 0.5, 0.0, 1.0, n1=10, n2=10)
    with pytest.raises(ValueError):
        GridSpec(BASE, -0.1, 1.0, 0.0, 1.0, n1=10, n2=10)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(BASE, 0.0, 1.0, 0.0, float("inf"), n1=10, n2=10)
    with pytest.raises(ValueError, match="finite"):
        line_cut(BASE, g2=0.3, g1_min=float("nan"), g1_max=1.0, steps=3)
    with pytest.raises(ValueError, match="coupling >= 0"):
        line_cut(BASE, g2=0.3, g1_min=-0.5, g1_max=0.5, steps=3)
    grid = GridSpec(BASE, 0.0, 1.0, 0.0, 0.5, n1=3, n2=5)
    assert list(grid.g1_values()) == [0.0, 0.5, 1.0]
    assert len(grid.g2_values()) == 5


def test_phase_diagram_row_major_and_corner_labels():
    grid = GridSpec(ModelParams(), 0.0, 1.0, 0.0, 1.0, n1=3, n2=3)
    records = phase_diagram(grid)
    assert len(records) == 9
    # row-major: g1 varies slowest
    assert [r.g1 for r in records] == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    by_point = {(r.g1, r.g2): r.phase for r in records}
    assert by_point[(0.0, 0.0)] is PhaseLabel.NORMAL
    assert by_point[(1.0, 0.0)] is PhaseLabel.LEFT_SR
    assert by_point[(0.0, 1.0)] is PhaseLabel.RIGHT_SR
    assert by_point[(1.0, 1.0)] is PhaseLabel.LEFT_RIGHT_SR


def test_grid_sizes_are_bounded_before_allocation():
    # none of these sizes could be allocated; each is refused first
    huge = 10 ** 9
    GridSpec(BASE, 0.0, 1.0, 0.0, 1.0, n1=1000, n2=MAX_GRID_POINTS // 1000)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        GridSpec(BASE, 0.0, 1.0, 0.0, 1.0, n1=huge, n2=huge)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        GridSpec(BASE, 0.0, 1.0, 0.0, 1.0, n1=1001, n2=MAX_GRID_POINTS // 1000)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        overlap_area(ModelParams(), 1.2, resolution=huge)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        line_cut(BASE, g2=0.3, g1_min=0.4, g1_max=1.0, steps=huge)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        trace_boundary("normal_right", BASE, 0.0, 0.4, steps=huge)


# Boundary kind -> (abscissa coupling, fluctuation block whose zero mode
# marks the boundary, as a function of the params and the probed coupling).
_ZERO_MODES = {
    "gtilde_c1": ("g2", lambda p, g: left_branch_form(replace(p, g1=g))),
    "gtilde_c2": ("g1", lambda p, g: right_branch_form(replace(p, g2=g))),
    "normal_left": ("g2", lambda p, g: normal_phase_forms(replace(p, g1=g))[0]),
    "normal_right": ("g1", lambda p, g: normal_phase_forms(replace(p, g2=g))[1]),
}


def test_trace_boundary_endpoints_and_crosscheck():
    gc1 = critical_g1(BASE)
    # the renormalized boundary leaves the quadruple point at the bare
    # threshold pair
    pairs = trace_boundary("gtilde_c2", BASE, gc1, 2.0 * gc1, steps=9)
    assert len(pairs) == 9
    assert pairs[0][0] == gc1
    assert abs(pairs[0][1] - critical_g2(BASE)) < 1e-10
    values = [v for _, v in pairs]
    assert values == sorted(values)  # monotone in g1
    flat = trace_boundary("normal_right", BASE, 0.0, 0.4, steps=3)
    assert all(abs(v - critical_g2(BASE)) < 1e-15 for _, v in flat)

    # every closed form against the fluctuation zero mode, located by
    # bisection over the 0.2x-3x bracket; the renormalized boundaries
    # start at the bare threshold of the condensed branch
    rng = np.random.default_rng(31)
    for _ in range(20):
        base = ModelParams(*rng.uniform(0.4, 2.0, 4))
        starts = {"g1": critical_g1(base), "g2": critical_g2(base)}
        for which, (axis, block) in _ZERO_MODES.items():
            lo = starts[axis] if which.startswith("gtilde") else 0.0
            for x, value in trace_boundary(which, base, lo, lo + 2.0, steps=5):
                params = replace(base, **{axis: x})
                located = critical_coupling_by_zero_mode(
                    lambda g, params=params, block=block: block(params, g),
                    (0.2 * value, 3.0 * value))
                assert abs(located - value) <= 1e-8, f"{which} at {params}"


def test_trace_boundary_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_boundary("no_such_boundary", BASE, 0.7, 1.0, steps=5)
    with pytest.raises(ValueError):
        trace_boundary("gtilde_c2", BASE, 1.0, 0.7, steps=5)
    with pytest.raises(ValueError):
        trace_boundary("gtilde_c2", BASE, 0.7, 1.0, steps=1)


def test_overlap_area_vanishes_on_the_symmetric_point():
    assert overlap_area(ModelParams(), 1.0, resolution=40) == 0.0


def test_overlap_area_grows_with_frequency_ratio():
    a_low = overlap_area(ModelParams(), 1.2, resolution=40)
    a_high = overlap_area(ModelParams(), 1.7, resolution=40)
    assert 0.0 < a_low <= a_high
    assert a_high < 1.0


def test_overlap_area_rejects_inverted_ratio():
    with pytest.raises(DomainError):
        overlap_area(ModelParams(), 0.9)
    with pytest.raises(ValueError):
        overlap_area(ModelParams(), 1.2, resolution=1)


def test_line_cut_mean_field_only():
    records = line_cut(BASE, g2=0.3, g1_min=0.4, g1_max=1.0, steps=7)
    assert len(records) == 7
    assert all(r.g2 == 0.3 for r in records)
    assert not any(r.has_finite_n for r in records)
    phases = [r.phase for r in records]
    assert phases[0] is PhaseLabel.NORMAL
    assert phases[-1] is PhaseLabel.LEFT_SR


def test_ed_sweep_reuses_one_truncation():
    sweep = [ModelParams(g1=g, g2=0.2) for g in (0.3, 0.6, 0.9)]
    records = ed_sweep(sweep, n_atoms=2, cutoff_tol=1e-3)
    assert len(records) == 3
    cuts = {(r.cutoff_a, r.cutoff_b) for r in records}
    assert len(cuts) == 1
    assert all(r.n_atoms == 2 for r in records)
    # finite N smooths the transition but the trend must hold
    assert records[0].photon_a < records[-1].photon_a


# ---------------------------------------------------------------------------
# CSV round trip

def _sample_records():
    recs = line_cut(BASE, g2=0.55, g1_min=0.5, g1_max=0.9, steps=5)
    recs_ed = ed_sweep([ModelParams(g1=g1, g2=0.2) for g1 in (0.3, 0.5, 0.7)], n_atoms=2)
    return recs, recs_ed


def test_csv_header_and_formatting():
    recs, recs_ed = _sample_records()
    text = records_to_csv_text(recs)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(recs)
    row = lines[1].split(",")
    assert row[2] in ("Normal", "LeftSR", "RightSR", "LeftRightSR")
    assert row[8] in ("true", "false")
    # finite-N output grows the header, same leading columns
    text_ed = records_to_csv_text(recs_ed)
    header_ed = text_ed.strip().split("\n")[0]
    assert header_ed.startswith(",".join(CSV_COLUMNS))
    assert header_ed.endswith("photon_a,photon_b,n_atoms,cutoff_a,cutoff_b")


def test_csv_round_trip_is_lossless():
    for recs in _sample_records():
        buf = io.StringIO()
        write_records_csv(recs, buf)
        back = read_records_csv(io.StringIO(buf.getvalue()))
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert b.phase is a.phase
            assert b.bistable == a.bistable
            assert b.n_atoms == a.n_atoms
            for field in ("g1", "g2", "psi2", "psi3", "phi_a", "phi_b",
                          "energy", "photon_a", "photon_b"):
                va, vb = getattr(a, field), getattr(b, field)
                if va is None:
                    assert vb is None
                else:
                    # 12 significant digits survive the round trip
                    assert vb == pytest.approx(va, rel=1e-11, abs=1e-11)


def test_twelve_significant_digits_in_csv():
    rec = SweepRecord(g1=1 / 3, g2=2 / 3, phase=PhaseLabel.NORMAL,
                      psi2=0.0, psi3=0.0, phi_a=0.0, phi_b=0.0,
                      energy=-1.2345678901234567e-5, bistable=False)
    text = records_to_csv_text([rec])
    assert "0.333333333333" in text
    assert "-1.23456789012e-05" in text
