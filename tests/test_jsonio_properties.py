"""Property tests for the strict JSON writer.

``jsonio.dumps`` writes the text of ``json.dumps`` of the payload with every
non-finite float mapped to None, sorted, indented by 2 and strict, and
raises ``TypeError`` where ``json.dumps`` does.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmr.jsonio import dumps

from helpers import reference_finite_or_null

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "a\"b", "\x00\x1f\x7f\n\t", "é", "ü\"☃", "\U0001f600", "\ud800", ""]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300]),
    STRINGS,
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=40,
)


def _reference(payload):
    return json.dumps(reference_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False)


@PROPERTY
@given(PAYLOADS)
def test_dumps_writes_the_reference_text(payload):
    assert dumps(payload) == _reference(payload)


@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, np.bool_(True), object()])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [v], lambda v: {"a": (1, v)}])
def test_dumps_refuses_what_json_refuses(bad, wrap):
    with pytest.raises(TypeError):
        _reference(wrap(bad))
    with pytest.raises(TypeError):
        dumps(wrap(bad))


def test_dumps_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError):
        dumps({"a": {1: 2}})
