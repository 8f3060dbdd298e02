"""Property tests for the summary-file readers.

Whatever text (or bytes) an eQTL, GWAS or LD file holds, reading it either
returns a result or raises ``SummaryFormatError``, which the command line
reports with exit code 2; no other exception escapes.  The eQTL and GWAS
readers return the records of ``helpers.reference_read_tsv``, or raise its
error with the same message and line.
"""

import importlib.resources as resources
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvmr import loci
from mvmr.errors import SummaryFormatError

from helpers import reference_build_eqtl, reference_build_gwas, reference_read_tsv

FIXTURES = resources.files("mvmr").joinpath("data", "fixtures")
EQTL_HEADER = [name for name, _ in loci._EQTL_SCHEMA]
GWAS_HEADER = [name for name, _ in loci._GWAS_SCHEMA]

PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-0", "0", "1", "1.0", "0.5", "1e-9", "0x10", "1_0", "", " ", '"']),
)
TOKENS = st.one_of(NUMBERS, st.text(max_size=6))


def _table(header, width, row=None):
    """Tab-separated text under ``header``: rows of about ``width`` tokens,
    or rows drawn from ``row``."""
    if row is None:
        row = st.one_of(st.lists(TOKENS, min_size=width, max_size=width), st.lists(TOKENS, max_size=width + 2))
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    return st.tuples(st.lists(row, max_size=8), newline).map(
        lambda drawn: drawn[1].join(["\t".join(header)] + ["\t".join(r) for r in drawn[0]]) + drawn[1]
    )


EDGES = st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0", "1", "2", "-1", "1.5"])


def _record_row(schema):
    """Rows whose fields mostly convert under ``schema``: about one field in
    ten is a non-finite or out-of-range number instead, and one in ten any
    token."""
    def field(conv):
        if conv is int:
            good = st.integers(-(10**12), 10**12).map(str)
        elif conv is str:
            good = st.text(st.characters(blacklist_characters="\t\r\n"), max_size=6)
        else:
            good = st.floats(0.0, 1.0).map(repr)
        return st.integers(0, 9).flatmap(lambda k: (TOKENS, EDGES)[k] if k < 2 else good)

    return st.tuples(*(field(conv) for _, conv in schema))


@st.composite
def _ld_text(draw):
    """An LD file: a header of ids, then rows of entries near a unit-diagonal symmetric matrix."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from(["rs1", "rs2", "rs3", "rs4", "rs5"]), min_size=n, max_size=n))
    r = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    rows = [["1.0" if i == j else repr(r[min(i, j) * n + max(i, j)]) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):  # damage a few entries, rows or the row count
        i = draw(st.integers(0, n - 1))
        action = draw(st.sampled_from(["entry", "drop", "extra", "row"]))
        if action == "entry" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(TOKENS)
        elif action == "drop":
            rows[i] = rows[i][:-1]
        elif action == "extra":
            rows[i] = rows[i] + [draw(NUMBERS)]
        else:
            rows.insert(i, draw(st.lists(NUMBERS, max_size=n + 1)))
    blank = st.sampled_from(["", " ", "\t"])
    lines = [draw(blank) for _ in range(draw(st.integers(0, 1)))] + [" ".join(ids)]
    lines += [draw(st.sampled_from([" ", "\t", "  "])).join(row) for row in rows]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _contents(structured):
    """File bytes: structured text, arbitrary text, or arbitrary bytes."""
    return st.one_of(
        structured.map(str.encode),
        st.text().map(str.encode),
        st.binary(max_size=64),
    )


def _write(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _returns_or_format_error(read, *files):
    with tempfile.TemporaryDirectory() as directory:
        paths = [_write(directory, f"file{i}", data) for i, data in enumerate(files)]
        try:
            read(*paths)
        except SummaryFormatError:
            pass


@PROPERTY
@given(_contents(_ld_text()))
def test_read_ld(data):
    _returns_or_format_error(loci._read_ld, data)


@PROPERTY
@given(_contents(_table(EQTL_HEADER, 9)))
def test_read_eqtl_tsv(data):
    _returns_or_format_error(
        lambda path: loci._read_tsv(path, EQTL_HEADER, loci._EQTL_SCHEMA, loci._build_eqtl), data
    )


@PROPERTY
@given(_contents(_table(GWAS_HEADER, 7)))
def test_read_gwas_tsv(data):
    _returns_or_format_error(
        lambda path: loci._read_tsv(path, GWAS_HEADER, loci._GWAS_SCHEMA, loci._build_gwas), data
    )


@PROPERTY
@given(
    st.one_of(st.just(FIXTURES.joinpath("eqtl.tsv").read_bytes()), _contents(_table(EQTL_HEADER, 9))),
    st.one_of(st.just(FIXTURES.joinpath("gwas.tsv").read_bytes()), _contents(_table(GWAS_HEADER, 7))),
    st.one_of(st.just(FIXTURES.joinpath("ld.txt").read_bytes()), _contents(_ld_text())),
)
def test_load_summaries(eqtl, gwas, ld):
    _returns_or_format_error(loci.load_summaries, eqtl, gwas, ld)


def _read_or_error(read, data):
    """``(reprs, None)`` of the records ``read(path)`` returns for a file
    holding ``data``, or ``(None, (message, line))`` of the
    ``SummaryFormatError`` it raised.  A record's ``repr`` tells 5 from 5.0
    and 0.0 from -0.0."""
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "table.tsv", data)
        try:
            return [repr(record) for record in read(path)], None
        except SummaryFormatError as exc:
            return None, (str(exc).replace(path, "<path>"), exc.line)


def _same_as_reference(header, schema, builder, reference_builder, data):
    new = _read_or_error(lambda path: loci._read_tsv(path, header, schema, builder), data)
    old = _read_or_error(lambda path: reference_read_tsv(path, header, schema, reference_builder), data)
    assert new == old


@PROPERTY
@given(st.one_of(_contents(_table(EQTL_HEADER, 9)), _table(EQTL_HEADER, 9, _record_row(loci._EQTL_SCHEMA)).map(str.encode)))
def test_eqtl_rows_as_the_reference_reader_reads_them(data):
    _same_as_reference(EQTL_HEADER, loci._EQTL_SCHEMA, loci._build_eqtl, reference_build_eqtl, data)


@PROPERTY
@given(st.one_of(_contents(_table(GWAS_HEADER, 7)), _table(GWAS_HEADER, 7, _record_row(loci._GWAS_SCHEMA)).map(str.encode)))
def test_gwas_rows_as_the_reference_reader_reads_them(data):
    _same_as_reference(GWAS_HEADER, loci._GWAS_SCHEMA, loci._build_gwas, reference_build_gwas, data)
