"""Property test for the ``mvmr estimate --diagram`` file.

Whatever text a diagram file holds, ``mvmr estimate --diagram F
--instruments I --exposures X --outcome Y`` ends with exit code 0, 2 (a
malformed diagram or arguments), 3 (non-identifiable) or 4 (numerical
failure); no other exception escapes.  The files drawn range from
arbitrary text to near-valid diagrams of ``edge``, ``bicov`` and ``var``
lines over a few node names, with values that may be huge, non-finite,
zero, negative or not numbers, lines that are malformed, duplicated or
commented out, cycles and self loops; the node arguments may name
unknown, repeated or missing nodes.
"""

import contextlib
import io
import os
import tempfile

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

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
NODES = ("E1", "E2", "X1", "X2", "Y", "Z")
NAME = st.one_of(st.sampled_from(NODES), st.sampled_from(NODES), TEXT)
VALUE = st.one_of(
    st.floats(-1.0, 1.0).map(repr),
    st.floats(-1.0, 1.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "0", "-0", "1e-320"]),
    TEXT,
)


@st.composite
def _line(draw):
    kind = draw(st.sampled_from(["edge", "edge", "edge", "bicov", "var", "comment", "other"]))
    a, b, value = draw(NAME), draw(NAME), draw(VALUE)
    if kind == "edge":
        return f"edge {a} -> {b} {value}"
    if kind == "bicov":
        return f"bicov {a} <-> {b} {value}"
    if kind == "var":
        return f"var {a} {value}"
    if kind == "comment":
        return f"# {a} {value}"
    return draw(TEXT)


@st.composite
def _diagram(draw):
    """Edges from earlier to later ``NODES``, bidirected pairs and error
    variances, mostly in range, with now and then a line or two replaced
    by any ``_line`` or repeated."""
    lines = []
    for i, a in enumerate(NODES):
        for b in NODES[i + 1:]:
            if draw(st.integers(0, 2)) == 0:
                lines.append(f"edge {a} -> {b} {draw(st.floats(-0.6, 0.6))!r}")
            if draw(st.integers(0, 6)) == 0:
                lines.append(f"bicov {a} <-> {b} {draw(st.floats(-0.5, 0.5))!r}")
        if draw(st.integers(0, 4)) == 0:
            lines.append(f"var {a} {draw(st.floats(0.1, 2.0))!r}")
    for _ in range(draw(st.sampled_from([0] * 4 + [1, 2]))):
        damage = draw(_line())
        if lines and draw(st.booleans()):
            lines[draw(st.integers(0, len(lines) - 1))] = damage
        else:
            lines.append(damage)
    if lines and draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    return "\n".join(lines)


def _nodes(draw):
    return ",".join(draw(st.lists(NAME, max_size=3)))


@st.composite
def _arguments(draw):
    """Instruments, exposures and outcome: mostly a square or an
    over-identified set, else any node names."""
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from([("E1,E2", "X1,X2", "Y"), ("E1", "X1", "Y"), ("E1,E2,Z", "X1,X2", "Y"), ("E1,E2", "X1", "Y")]))
    return _nodes(draw), _nodes(draw), draw(NAME)


@PROPERTY
@given(st.one_of(_diagram(), _diagram(), _diagram(), TEXT), _arguments())
def test_estimate_diagram_exits_with_a_documented_code(text, arguments):
    instruments, exposures, outcome = arguments
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "diagram.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["estimate", "--diagram", path, "--instruments", instruments, "--exposures", exposures, "--outcome", outcome, "--estimators", "ls,gmm,twmr"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
