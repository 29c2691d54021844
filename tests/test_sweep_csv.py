"""Property test: sweep CSV text survives read_records_csv and records_to_csv_text."""

import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke.meanfield import PHASES, PhaseArrays  # noqa: E402
from vdicke.scan import (  # noqa: E402
    ED_COLUMNS,
    SweepTable,
    read_records_csv,
    records_to_csv_text,
    write_sweep_csv,
)

# Finite floats, with signed zeros and subnormals drawn on purpose.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072e-308]),
)
_FLOAT_FIELDS = ("psi2", "psi3", "phi_a", "phi_b", "energy")


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 12))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=rows, max_size=rows)))

    codes = column(st.integers(0, len(PHASES) - 1)).astype(np.int8)
    phases = PhaseArrays(
        phase=codes, **{name: column(_FLOATS).astype(float) for name in _FLOAT_FIELDS},
        bistable=column(st.booleans()).astype(bool),
    )
    finite_n = {}
    # A header-only file carries no records to say it had finite-N columns,
    # so an empty table round-trips only without them.
    if rows and draw(st.booleans()):
        finite_n = {
            "photon_a": column(_FLOATS).astype(float),
            "photon_b": column(_FLOATS).astype(float),
            "n_atoms": column(st.integers(1, 10 ** 6)).astype(int),
            "cutoff_a": column(st.integers(1, 10 ** 4)).astype(int),
            "cutoff_b": column(st.integers(1, 10 ** 4)).astype(int),
        }
    return SweepTable(column(_FLOATS).astype(float), column(_FLOATS).astype(float), phases,
                      **finite_n)


def _same_to_twelve_digits(got: float, want: float) -> bool:
    return (math.copysign(1.0, got) == math.copysign(1.0, want)
            and math.isclose(got, want, rel_tol=1e-11, abs_tol=5e-324))


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_text_round_trips(table):
    buffer = io.StringIO()
    write_sweep_csv(table, buffer)
    text = buffer.getvalue()
    records = read_records_csv(io.StringIO(text))
    assert records_to_csv_text(records) == text
    assert len(records) == len(table)
    p = table.phases
    for i, r in enumerate(records):
        assert r.phase is PHASES[p.phase[i]]
        assert r.bistable is bool(p.bistable[i])
        for name, column in [("g1", table.g1), ("g2", table.g2)] + \
                [(name, getattr(p, name)) for name in _FLOAT_FIELDS]:
            assert _same_to_twelve_digits(getattr(r, name), float(column[i])), name
        if table.n_atoms is None:
            assert all(getattr(r, name) is None for name in ED_COLUMNS)
            continue
        for name in ("photon_a", "photon_b"):
            assert _same_to_twelve_digits(getattr(r, name), float(getattr(table, name)[i]))
        for name in ("n_atoms", "cutoff_a", "cutoff_b"):
            assert getattr(r, name) == getattr(table, name)[i]
