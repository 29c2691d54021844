"""Property tests of the finite-N space.

A TruncatedSpace is the value (N, cutoff_a, cutoff_b) and checks itself
when constructed: its shape is (N+1)(N+2)/2 atomic states by the two
modes' Fock levels, a value below 1 is a ValueError, and a dimension
above DEFAULT_DIM_LIMIT, read at call time, is a CapacityError.  Neither
check enumerates a basis index: ``_enumerate``, which every index array
of a space or a sector comes from, is patched to fail here.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke import exactdiag  # noqa: E402
from vdicke.errors import CapacityError  # noqa: E402
from vdicke.exactdiag import TruncatedSpace  # noqa: E402


def _no_allocation(space, parities=None):
    raise AssertionError(f"_enumerate({space}, {parities}) called while constructing a space")


@given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300), st.integers(-3, 3))
def test_construction_refuses_exactly_above_the_limit(n_atoms, cutoff_a, cutoff_b, slack):
    dimension = (n_atoms + 1) * (n_atoms + 2) // 2 * (cutoff_a + 1) * (cutoff_b + 1)
    limit = dimension + slack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactdiag, "_enumerate", _no_allocation)
        patch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", limit)
        if dimension > limit:
            with pytest.raises(CapacityError, match=f"^space dimension {dimension} .* "
                                                    f"exceeds the dimension limit {limit}$"):
                TruncatedSpace(n_atoms, cutoff_a, cutoff_b)
        else:
            space = TruncatedSpace(n_atoms, cutoff_a, cutoff_b)
            assert space.shape == ((n_atoms + 1) * (n_atoms + 2) // 2, cutoff_a + 1, cutoff_b + 1)
            assert space.dimension == dimension
            assert space == TruncatedSpace(n_atoms, cutoff_a, cutoff_b)


@given(st.lists(st.integers(1, 10 ** 9), min_size=3, max_size=3), st.integers(0, 2),
       st.integers(-10 ** 9, 0))
def test_any_value_below_one_is_refused(values, position, bad):
    # before the dimension check: the other two values may be far too large
    values[position] = bad
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactdiag, "_enumerate", _no_allocation)
        with pytest.raises(ValueError, match="n_atoms and both cutoffs must be >= 1"):
            TruncatedSpace(*values)


def test_sector_enumeration_is_guarded():
    # the guard above covers sectors too: a sector's index comes from _enumerate
    space = TruncatedSpace(2, 3, 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactdiag, "_enumerate", _no_allocation)
        with pytest.raises(AssertionError, match=r"_enumerate\(.*, \(1, 1\)\) called"):
            exactdiag.ParitySector(space, 1, 1).index
