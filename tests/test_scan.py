import io
from dataclasses import replace

import numpy as np
import pytest

from vdicke import exactdiag, scan
from vdicke.errors import CapacityError, DomainError
from vdicke.fluctuations import (
    critical_coupling_by_zero_mode,
    left_branch_form,
    normal_phase_forms,
    right_branch_form,
)
from vdicke.meanfield import PHASES, PhaseArrays, classify_arrays
from vdicke.model import ModelParams, PhaseLabel, critical_g1, critical_g2
from vdicke.scan import (
    CSV_COLUMNS,
    ED_COLUMNS,
    MAX_GRID_POINTS,
    SweepRecord,
    ed_sweep,
    line_cut,
    overlap_area,
    phase_diagram,
    read_records_csv,
    records_to_csv_text,
    sweep_values,
    trace_boundary,
    write_sweep_csv,
)

BASE = ModelParams(omega31=1.7)


def test_sweep_values_validation():
    with pytest.raises(ValueError, match="steps must be >= 2"):
        sweep_values(0.0, 1.0, 1, "grid g1 axis")
    with pytest.raises(ValueError, match="start < end"):
        sweep_values(0.5, 0.5, 10, "grid g1 axis")
    with pytest.raises(ValueError, match="coupling >= 0"):
        sweep_values(-0.1, 1.0, 10, "grid g1 axis")
    with pytest.raises(ValueError, match="grid g2 axis bounds must be finite"):
        sweep_values(0.0, float("inf"), 10, "grid g2 axis")
    with pytest.raises(ValueError, match="line cut bounds must be finite"):
        sweep_values(float("nan"), 1.0, 3, "line cut")
    assert sweep_values(0.0, 1.0, 3, "grid g1 axis").tolist() == [0.0, 0.5, 1.0]
    assert sweep_values(0.0, 0.5, 5, "grid g2 axis").tolist() == np.linspace(0.0, 0.5, 5).tolist()


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_sweeps_refuse_couplings_outside_the_model(bad, monkeypatch):
    # every driver refuses the coupling before classifying or solving anything
    def no_kernel(*args):
        raise AssertionError("classify_arrays called with a refused coupling")

    monkeypatch.setattr(scan, "classify_arrays", no_kernel)
    axis = np.array([0.0, 0.5, bad])
    with pytest.raises(ValueError, match="g1 couplings must be finite and >= 0"):
        phase_diagram(BASE, axis, [0.1, 0.2])
    with pytest.raises(ValueError, match="g2 couplings must be finite and >= 0"):
        phase_diagram(BASE, [0.1, 0.2], axis)
    with pytest.raises(ValueError, match="g1 couplings must be finite and >= 0"):
        line_cut(BASE, axis, 0.3)
    with pytest.raises(ValueError, match="g2 couplings must be finite and >= 0"):
        line_cut(BASE, [0.4, 0.5], bad)
    with pytest.raises(ValueError, match="g1 couplings must be finite and >= 0"):
        ed_sweep(ModelParams(), axis, 0.2, n_atoms=2)
    with pytest.raises(ValueError, match="g2 couplings must be finite and >= 0"):
        ed_sweep(ModelParams(), [0.3, 0.5], bad, n_atoms=2)


def test_phase_diagram_row_major_and_corner_labels():
    axis = sweep_values(0.0, 1.0, 3, "grid axis")
    table = phase_diagram(ModelParams(), axis, axis)
    assert len(table) == 9
    # row-major: g1 varies slowest
    assert table.g1.tolist() == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert table.g2.tolist() == [0.0, 0.5, 1.0] * 3
    assert all(column.shape == (9,) for column in table.phases)
    by_point = {(a, b): PHASES[code] for a, b, code in
                zip(table.g1.tolist(), table.g2.tolist(), table.phases.phase.tolist())}
    assert by_point[(0.0, 0.0)] is PhaseLabel.NORMAL
    assert by_point[(1.0, 0.0)] is PhaseLabel.LEFT_SR
    assert by_point[(0.0, 1.0)] is PhaseLabel.RIGHT_SR
    assert by_point[(1.0, 1.0)] is PhaseLabel.LEFT_RIGHT_SR


def test_grid_sizes_are_bounded_before_allocation(monkeypatch):
    # none of these sizes could be allocated; each is refused first
    huge = 10 ** 9
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        sweep_values(0.0, 1.0, huge, "grid g1 axis")
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        overlap_area(ModelParams(), 1.2, resolution=huge)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        trace_boundary("normal_right", BASE, 0.0, 0.4, steps=huge)
    # a grid of two admissible axes is refused before it is classified;
    # one at the limit reaches the kernel
    class Classified(Exception):
        pass

    def kernel(*args):
        raise Classified

    monkeypatch.setattr(scan, "classify_arrays", kernel)
    with pytest.raises(ValueError, match="grid of 1001 x 1000 has 1001000 points"):
        phase_diagram(BASE, np.zeros(1001), np.zeros(MAX_GRID_POINTS // 1000))
    with pytest.raises(Classified):
        phase_diagram(BASE, np.zeros(1000), np.zeros(MAX_GRID_POINTS // 1000))


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
    table = line_cut(BASE, np.linspace(0.4, 1.0, 7), 0.3)
    assert len(table) == 7
    assert table.g1.tolist() == np.linspace(0.4, 1.0, 7).tolist()
    assert all(g == 0.3 for g in table.g2.tolist())
    assert all(getattr(table, name) is None for name in ED_COLUMNS)
    phases = [PHASES[code] for code in table.phases.phase]
    assert phases[0] is PhaseLabel.NORMAL
    assert phases[-1] is PhaseLabel.LEFT_SR


@pytest.fixture(scope="module")
def ed_table():
    return ed_sweep(ModelParams(), [0.3, 0.5, 0.7], 0.2, n_atoms=2)


def test_ed_sweep_reuses_one_truncation():
    table = ed_sweep(ModelParams(), [0.3, 0.6, 0.9], 0.2, n_atoms=2, cutoff_tol=1e-3)
    assert len(table) == 3
    assert table.g2.tolist() == [0.2] * 3
    # the rows share one truncation, which grows where a row needs more
    # and never shrinks
    for cutoffs in (table.cutoff_a, table.cutoff_b):
        assert np.all(np.diff(cutoffs) >= 0)
    assert table.cutoff_a[-1] > table.cutoff_a[0]
    assert table.n_atoms.tolist() == [2, 2, 2]
    # finite N smooths the transition but the trend must hold
    assert table.photon_a[0] < table.photon_a[-1]
    # the mean-field columns are the kernel's at the same points
    for got, want in zip(table.phases, classify_arrays(1.0, 1.0, 1.0, 1.0, table.g1, 0.2)):
        np.testing.assert_array_equal(got, want)


def test_empty_sweeps_give_empty_results():
    # as line_cut does: no points, no rows, and the CSV is the header alone
    assert exactdiag.solve_sweep([], 4) == []
    table = ed_sweep(ModelParams(), [], 0.5, 4)
    assert len(table) == 0 and len(line_cut(ModelParams(), [], 0.5)) == 0
    buffer = io.StringIO()
    write_sweep_csv(table, buffer)
    assert buffer.getvalue() == ",".join(CSV_COLUMNS + ED_COLUMNS) + "\n"
    assert len(CSV_COLUMNS + ED_COLUMNS) == 14
    # an atom number too large for the dimension limit is still refused
    with pytest.raises(CapacityError, match="dimension limit"):
        exactdiag.solve_sweep([], 10 ** 6)
    with pytest.raises(CapacityError, match="dimension limit"):
        ed_sweep(ModelParams(), [], 0.5, 10 ** 6)


# ---------------------------------------------------------------------------
# CSV round trip

def _csv(table) -> str:
    buffer = io.StringIO()
    write_sweep_csv(table, buffer)
    return buffer.getvalue()


def _rowwise_csv(table) -> str:
    """The sweep CSV rule applied one value at a time, as an independent oracle."""
    p = table.phases
    columns = [table.g1, table.g2, p.phase, p.psi2, p.psi3, p.phi_a, p.phi_b, p.energy,
               p.bistable]
    header = CSV_COLUMNS
    if table.n_atoms is not None:
        columns += [table.photon_a, table.photon_b, table.n_atoms, table.cutoff_a,
                    table.cutoff_b]
        header += ED_COLUMNS
    lines = [",".join(header)]
    for values in zip(*(c.tolist() for c in columns)):
        cells = [f"{v:.12g}" for v in values]
        cells[2] = PHASES[values[2]].value
        cells[8] = "true" if values[8] else "false"
        cells[11:] = [str(v) for v in values[11:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_writer_output_is_independent_of_chunk_size(monkeypatch, ed_table):
    tables = {
        "phase_diagram": phase_diagram(BASE, np.linspace(0.0, 1.4, 9),
                                       np.linspace(0.0, 1.2, 13)),
        "line_cut": line_cut(BASE, np.linspace(0.5, 0.9, 23), 0.55),
        "ed_sweep": ed_table,
    }
    expected = {name: _rowwise_csv(table) for name, table in tables.items()}
    for chunk in (1, 7, 118, scan.CSV_CHUNK_ROWS):
        monkeypatch.setattr(scan, "CSV_CHUNK_ROWS", chunk)
        for name, table in tables.items():
            assert _csv(table) == expected[name], f"{name} at chunk size {chunk}"
            assert records_to_csv_text(read_records_csv(io.StringIO(expected[name]))) == \
                expected[name]


def test_csv_header_and_formatting(ed_table):
    table = line_cut(BASE, np.linspace(0.5, 0.9, 5), 0.55)
    text = _csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(table)
    row = lines[1].split(",")
    assert row[2] in ("Normal", "LeftSR", "RightSR", "LeftRightSR")
    assert row[8] in ("true", "false")
    # finite-N output grows the header, same leading columns
    text_ed = _csv(ed_table)
    header_ed = text_ed.strip().split("\n")[0]
    assert header_ed.startswith(",".join(CSV_COLUMNS))
    assert header_ed.endswith("photon_a,photon_b,n_atoms,cutoff_a,cutoff_b")


def test_the_kernel_returns_exactly_the_written_columns():
    # the mean-field CSV schema, spelled out: the kernel's fields are its
    # columns after (g1, g2), in order, so the two cannot drift apart
    assert CSV_COLUMNS == ("g1", "g2", "phase", "psi2", "psi3", "phi_a", "phi_b", "energy",
                           "bistable")
    assert PhaseArrays._fields == CSV_COLUMNS[2:]
    table = phase_diagram(BASE, np.linspace(0.0, 1.4, 5), np.linspace(0.0, 1.2, 4))
    header, *rows = _csv(table).splitlines()
    assert header.split(",") == list(CSV_COLUMNS) and len(rows) == len(table) == 20
    for i, row in enumerate(rows):
        cells = dict(zip(CSV_COLUMNS, row.split(",")))
        assert cells.pop("phase") == PHASES[table.phases.phase[i]].value
        assert cells.pop("bistable") == ("true" if table.phases.bistable[i] else "false")
        columns = {"g1": table.g1, "g2": table.g2, **table.phases._asdict()}
        assert cells == {name: f"{columns[name][i]:.12g}" for name in cells}


def test_csv_round_trip_is_lossless(ed_table):
    line = line_cut(BASE, np.linspace(0.5, 0.9, 5), 0.55)
    for table in (line, ed_table):
        back = read_records_csv(io.StringIO(_csv(table)))
        assert len(back) == len(table)
        p = table.phases
        for i, b in enumerate(back):
            assert b.phase is PHASES[p.phase[i]]
            assert b.bistable == bool(p.bistable[i])
            if table.n_atoms is None:
                assert (b.n_atoms, b.photon_a, b.photon_b) == (None, None, None)
                continue
            assert b.n_atoms == table.n_atoms[i]
            assert (b.cutoff_a, b.cutoff_b) == (table.cutoff_a[i], table.cutoff_b[i])
            for name in ("photon_a", "photon_b"):
                assert getattr(b, name) == pytest.approx(getattr(table, name)[i],
                                                         rel=1e-11, abs=1e-11)
        for name, column in (("g1", table.g1), ("g2", table.g2), ("psi2", p.psi2),
                             ("psi3", p.psi3), ("phi_a", p.phi_a), ("phi_b", p.phi_b),
                             ("energy", p.energy)):
            # 12 significant digits survive the round trip
            got = [getattr(b, name) for b in back]
            assert got == pytest.approx(column.tolist(), rel=1e-11, abs=1e-11)


def test_twelve_significant_digits_in_csv():
    rec = SweepRecord(g1=1 / 3, g2=2 / 3, phase=PhaseLabel.NORMAL,
                      psi2=0.0, psi3=0.0, phi_a=0.0, phi_b=0.0,
                      energy=-1.2345678901234567e-5, bistable=False)
    text = records_to_csv_text([rec])
    assert "0.333333333333" in text
    assert "-1.23456789012e-05" in text
    assert records_to_csv_text([]) == ",".join(CSV_COLUMNS) + "\n"
