"""Property tests of the mirrored twins and of the CLI fields that read them.

Each right-branch closed form is its left twin evaluated on
ModelParams.mirrored(), and inherits that twin's domain check: it raises
exactly where the left form raises on the mirrored model and otherwise
returns the same bits.  The CLI reads those checks rather than testing
thresholds of its own, so a `critical` or `spectrum` field is null
exactly where its closed form raises.  Couplings are drawn at 0, below,
at and above their bare threshold, the threshold's neighbouring floats
included.
"""

import contextlib
import io
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from vdicke.cli import run  # noqa: E402
from vdicke.fluctuations import left_branch_form, right_branch_form  # noqa: E402
from vdicke.model import (  # noqa: E402
    ModelParams,
    critical_g1,
    critical_g2,
    mu_left,
    mu_right,
    renormalized_critical_g1,
    renormalized_critical_g2,
)

# (right-branch twin, its left form, subcommand, the twin's field, the left form's field)
TWINS = (
    (mu_right, mu_left, "critical", "mu_right", "mu_left"),
    (renormalized_critical_g1, renormalized_critical_g2, "critical", "gtilde_c1", "gtilde_c2"),
    (left_branch_form, right_branch_form, "spectrum", "left_branch_renormalized",
     "right_branch_renormalized"),
)


def _coupling(draw, threshold: float) -> float:
    kind = draw(st.sampled_from(["zero", "below", "at", "above"]))
    if kind == "zero":
        return 0.0
    if kind == "at":
        return threshold
    if kind == "below":
        return draw(st.one_of(st.just(math.nextafter(threshold, 0.0)),
                              st.floats(0.0, threshold, exclude_max=True)))
    return draw(st.one_of(st.just(math.nextafter(threshold, math.inf)),
                          st.floats(threshold, 4.0 * threshold, exclude_min=True)))


@st.composite
def model_params(draw):
    """Frequencies in [0.4, 2]; each coupling at 0, below, at or above its bare threshold."""
    p = ModelParams(*(draw(st.floats(0.4, 2.0)) for _ in range(4)))
    return ModelParams(p.omega21, p.omega31, p.omega_a, p.omega_b,
                       _coupling(draw, critical_g1(p)), _coupling(draw, critical_g2(p)))


def _outcome(closed_form, params: ModelParams) -> str:
    """The exception type raised, or the exact repr of the value (bits, sign of 0 included)."""
    try:
        return repr(closed_form(params))
    except (ArithmeticError, ValueError) as exc:  # DomainError is a ValueError
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(model_params())
def test_each_twin_raises_and_returns_as_its_left_form_on_the_mirror(params):
    for twin, left, *_ in TWINS:
        assert _outcome(twin, params) == _outcome(left, params.mirrored()), twin.__name__


def _fields(command: str, params: ModelParams) -> dict:
    argv = [command] + [f"--{name.replace('_', '-')}={getattr(params, name)!r}"
                        for name in ("omega21", "omega31", "omega_a", "omega_b", "g1", "g2")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(argv) == 0, err.getvalue()
    return json.loads(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(model_params())
def test_a_cli_field_is_null_exactly_where_its_closed_form_raises(params):
    payloads = {command: _fields(command, params) for command in ("critical", "spectrum")}
    for twin, left, command, twin_field, left_field in TWINS:
        for closed_form, field in ((twin, twin_field), (left, left_field)):
            try:
                value = closed_form(params)
            except (ArithmeticError, ValueError):
                value = None
            got = payloads[command][field]
            assert (got is None) == (value is None), (field, got, value)
            if isinstance(value, float):
                assert got == float(f"{value:.12g}"), field
