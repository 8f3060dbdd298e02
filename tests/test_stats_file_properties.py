"""Property test for the ``mvmr estimate --stats`` file.

Whatever JSON a statistics file holds, ``mvmr estimate`` ends with exit
code 0, 2 (a malformed file or statistics the constructor refuses), 3
(non-identifiable) or 4 (numerical failure); no other exception escapes.
The payloads drawn range from arbitrary JSON to near-valid statistics:
matrices of the right shape whose entries may be huge, non-finite,
booleans, strings or nested values, LD matrices that are singular,
asymmetric or indefinite, and optional keys of any type.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmr import cli

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
UNIT = st.floats(-1.0, 1.0)
ENTRY = st.one_of(UNIT, st.integers(-2, 2), st.floats(), SCALARS)


def _matrix(rows, cols, entry):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _damaged(draw, rows):
    """``rows`` with, now and then, an entry or two replaced by any ``ENTRY``."""
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(ENTRY)
    return rows


@st.composite
def _correlation(draw, L):
    """The correlation matrix of L drawn vectors in R^3 (singular when L = 4)."""
    vectors = np.array(draw(_matrix(L, 3, UNIT))) + np.eye(L, 3)
    with np.errstate(invalid="ignore"):  # a zero vector gives a NaN row, which must exit 2
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    r = vectors @ vectors.T
    np.fill_diagonal(r, 1.0)
    return _damaged(draw, ((r + r.T) / 2.0).tolist())


@st.composite
def _statistics(draw):
    L = draw(st.integers(1, 4))
    K = draw(st.integers(1, L))
    payload = {
        "sigma_EX": _damaged(draw, draw(_matrix(L, K, UNIT))),
        "sigma_EY": _damaged(draw, draw(_matrix(1, L, UNIT)))[0],
        "sigma_EE": draw(_correlation(L)),
    }
    for key, valid in (
        ("n_outcome", st.integers(-1, 10**6)),
        ("n_exposure", st.integers(-1, 10**6)),
        ("exposure_names", st.lists(st.text(max_size=3), min_size=K, max_size=K)),
        ("instrument_names", st.lists(st.text(max_size=3), min_size=L, max_size=L)),
    ):
        if draw(st.booleans()):
            payload[key] = draw(st.one_of(valid, valid, valid, JSON))
    replaced = draw(st.sampled_from([None] * 4 + ["sigma_EX", "sigma_EY", "sigma_EE", "bogus"]))
    if replaced is not None:
        payload[replaced] = draw(JSON)
    return payload


@PROPERTY
@given(st.one_of(_statistics(), _statistics(), _statistics(), JSON))
def test_estimate_exits_with_a_documented_code(payload):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "stats.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", "--stats", path, "--estimators", "ls,gmm,twmr"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
