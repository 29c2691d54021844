"""Property tests of the finite-N space.

A TruncatedSpace is the value (N, cutoff_a, cutoff_b, parities) and
checks itself when constructed: its box's shape is (N+1)(N+2)/2 atomic
states by the two modes' Fock levels, a value below 1 is a ValueError,
and a box above DEFAULT_DIM_LIMIT, read at call time, is a CapacityError,
for the box and each of its parity blocks alike.  Neither check builds a
basis index: ``TruncatedSpace.index``, which every array of a space's
size comes from (the box's range and a block's ``_enumerate``), is
patched to fail here.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke import exactdiag  # noqa: E402
from vdicke.errors import CapacityError  # noqa: E402
from vdicke.exactdiag import PARITY_SECTORS, TruncatedSpace  # noqa: E402
from vdicke.model import ModelParams  # noqa: E402


@property
def _no_allocation(space):
    raise AssertionError(f"the index of {space} built while constructing a space")


@given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300), st.integers(-3, 3),
       st.sampled_from((None, *PARITY_SECTORS)))
def test_construction_refuses_exactly_above_the_limit(n_atoms, cutoff_a, cutoff_b, slack,
                                                      parities):
    dimension = (n_atoms + 1) * (n_atoms + 2) // 2 * (cutoff_a + 1) * (cutoff_b + 1)
    limit = dimension + slack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncatedSpace, "index", _no_allocation)
        patch.setattr(exactdiag, "DEFAULT_DIM_LIMIT", limit)
        if dimension > limit:
            with pytest.raises(CapacityError, match=f"^space dimension {dimension} .* "
                                                    f"exceeds the dimension limit {limit}$"):
                TruncatedSpace(n_atoms, cutoff_a, cutoff_b, parities)
        else:
            space = TruncatedSpace(n_atoms, cutoff_a, cutoff_b, parities)
            assert space.shape == ((n_atoms + 1) * (n_atoms + 2) // 2, cutoff_a + 1, cutoff_b + 1)
            if parities is None:  # a block's dimension is its index's size
                assert space.dimension == dimension
            assert space == TruncatedSpace(n_atoms, cutoff_a, cutoff_b, parities)


@given(st.lists(st.integers(1, 10 ** 9), min_size=3, max_size=3), st.integers(0, 2),
       st.integers(-10 ** 9, 0))
def test_any_value_below_one_is_refused(values, position, bad):
    # before the dimension check: the other two values may be far too large
    values[position] = bad
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncatedSpace, "index", _no_allocation)
        with pytest.raises(ValueError, match="n_atoms and both cutoffs must be >= 1"):
            TruncatedSpace(*values)


def test_sector_enumeration_is_guarded():
    # every array of a space's size comes from its index: the guard above
    # trips on the box and on each block, whatever reads them
    for parities in (None, *PARITY_SECTORS):
        space = TruncatedSpace(2, 3, 4, parities)
        reads = [lambda: space.index, lambda: space.occupations,
                 lambda: exactdiag.build_hamiltonian(ModelParams(), space)]
        if parities is not None:
            reads.append(lambda: space.dimension)
        for read in reads:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(TruncatedSpace, "index", _no_allocation)
                with pytest.raises(AssertionError,
                                   match=f"^the index of {re.escape(repr(space))} built"):
                    read()
