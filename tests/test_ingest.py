"""Columnar ingest against the row-walk reference in ``oracles.ingest_rows``.

On success both must give the same arrays, labels, catalog and ingest
report; on failure, the same ``InputError`` text.
"""

import codecs
import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwrd import (
    EffectSpec,
    InputError,
    PanelSchema,
    ThresholdRule,
    apply_effect,
    default_scenario,
    generate_panel,
    ingest_panel,
)
from pwrd import panel as panel_module
from pwrd.panel import IDENTITY_SCHEMA

from oracles import ingest_rows
from test_fuzz import FUZZ, panel_csv

ARRAYS = (
    "unit", "cluster", "block", "treatment", "cohort", "grade", "year", "outcome", "tested_in",
    "unit_labels", "cluster_labels", "block_labels", "group_ids",
)
HEADER = "unit,cluster,treatment,cohort,grade,year,outcome\n"
REQUIRED = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome")
SCHEMAS = {
    "identity": IDENTITY_SCHEMA,
    "covariate": PanelSchema(columns=dict(IDENTITY_SCHEMA.columns), covariates=("x",)),
    "rule": PanelSchema(
        columns={c: c for c in REQUIRED},
        tested_in_rule=ThresholdRule(score_column="x", cutoffs={g: 0.0 for g in range(3, 9)}),
    ),
}


def _outcome(read, source):
    try:
        return read(source)
    except InputError as exc:
        return str(exc)


def assert_same_ingest(make_source, schema=IDENTITY_SCHEMA):
    """Ingest two fresh copies of one source, by the library and by the reference."""
    got = _outcome(lambda s: ingest_panel(s, schema), make_source())
    want = _outcome(lambda s: ingest_rows(s, schema), make_source())
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    assert_same_panel(got, want)
    return got


def assert_same_panel(got, want):
    """Equal arrays and dtypes, labels, covariates, catalog and ingest report."""
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.covariates.keys() == want.covariates.keys()
    for name, values in got.covariates.items():
        assert np.array_equal(values, want.covariates[name]), name
    assert got.catalog == want.catalog
    assert got.ingest_report == want.ingest_report


def _text(text, newline):
    return lambda: io.StringIO(text, newline=newline)


@FUZZ
@given(
    text=panel_csv(),
    schema=st.sampled_from(sorted(SCHEMAS)),
    chunk=st.sampled_from([1, 2, 3, 4096]),
    newline=st.sampled_from(["", "\n"]),
)
def test_matches_row_walk_on_fuzzed_csv(text, schema, chunk, newline):
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        assert_same_ingest(_text(text, newline), SCHEMAS[schema])


def test_repeated_header_name_last_wins():
    text = HEADER.replace("outcome", "outcome,outcome") + "a,s1,1,1,3,1,1.5,2.5\nb,s2,0,1,3,1,,7\n"
    p = assert_same_ingest(_text(text, ""))
    assert p.outcome.tolist() == [2.5, 7.0]
    assert p.ingest_report.dropped_rows == ()


def test_blank_lines_do_not_count_as_rows():
    text = HEADER + "\n" + "a,s1,1,1,3,1,1.5\n\n\n" + "b,s2,0,1,3,x,2\n"
    assert assert_same_ingest(_text(text, "")) == (
        "could not parse input: row 3: invalid literal for int() with base 10: 'x'"
    )


def test_short_and_long_rows():
    long_row = HEADER + "a,s1,1,1,3,1,1.5,extra,more\nb,s2,0,1,3,1,2\n"
    assert assert_same_ingest(_text(long_row, "")).n_obs == 2
    short_row = HEADER + "a,s1,1,1,3,1,1.5\nb,s2,0\n"
    assert assert_same_ingest(_text(short_row, "")) == "row 3: missing column 'outcome'"
    # a blank outcome drops the row before its other fields are read
    short_blank = HEADER.replace("unit,", "outcome,unit,", 1).replace(",outcome\n", "\n")
    short_blank += "1.5,a,s1,1,1,3,1\n ,b\n"
    p = assert_same_ingest(_text(short_blank, ""))
    assert p.ingest_report.dropped_rows == ((3, "missing outcome"),)


def test_whitespace_around_labels_and_numbers_is_stripped():
    text = HEADER + " a , s1 , 1 ,1, 3,\t1 , 1.5 \nb,s2,0,1,3,1,2\n"
    p = assert_same_ingest(_text(text, ""))
    assert p.unit_labels.tolist() == ["a", "b"] and p.cluster_labels.tolist() == ["s1", "s2"]
    assert p.outcome.tolist() == [1.5, 2.0]


def test_parse_errors_stop_at_eight():
    text = HEADER + "".join(f"u{i},s1,1,1,3,1,bad{i}\n" for i in range(10))
    message = assert_same_ingest(_text(text, ""))
    assert message.startswith("could not parse input: row 2: ")
    assert message.count("; row ") == 7 and "bad7" in message and "bad8" not in message


@pytest.mark.parametrize("chunk", [1, 4096])
def test_missing_column_after_parse_errors(chunk):
    text = HEADER + "a,s1,1,1,3,1,oops\nb,s2,0,1,3,1,2\nc,s2\n"
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        assert assert_same_ingest(_text(text, "")) == "row 4: missing column 'outcome'"


@pytest.mark.parametrize("chunk", [1, 4096])
def test_an_unparsable_outcome_is_its_rows_first_failure(chunk):
    # the outcome is checked first, also against a bad or missing later field
    text = HEADER.replace("unit,", "unit,outcome,", 1).replace(",outcome\n", "\n")
    want = "could not parse input: row 2: could not convert string to float: 'abc'"
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        for row in ("u0,abc,c0,,1,3,1\n", "u0,abc,c0\n"):
            assert assert_same_ingest(_text(text + row + "u1,2.5,c1,1,1,3,1\n", "")) == want


def test_integer_beyond_int64():
    text = HEADER + "a,s1,1,1,3,1,1.5\nb,s2,0,99999999999999999999,3,1,2\n"
    assert assert_same_ingest(_text(text, "")) == (
        "column 'cohort' beyond the 64-bit integer range: rows [3]"
    )


def test_read_error_names_the_line_dict_reader_names():
    # an unclosed quote runs past the field size limit; blank lines come first
    text = HEADER + "a,s1,1,1,3,1,1.5\n\n\n" + '"' + "x" * (csv.field_size_limit() + 10)
    message = assert_same_ingest(_text(text, ""))
    assert message == "panel input, line 3: field larger than field limit (131072)"
    # the rows read before the error are checked first
    text = HEADER + "a,s1\n" + '"' + "x" * (csv.field_size_limit() + 10)
    assert assert_same_ingest(_text(text, "")) == "row 2: missing column 'outcome'"


# The tokenizer splits plain chunks (no quote, no carriage return, no
# blank line, every line of the header's width) on commas and hands the
# first chunk that is not plain, and the rest of the text, to csv.reader.
# Each case below comes after at least one full plain chunk of rows.
CHUNKS = [1, 2, 3, 4096]


def _plain_rows(n, prefix="u"):
    """``n`` valid rows of plain text; clusters c0 to c3 alternate arms."""
    return "".join(f"{prefix}{i},c{i % 4},{i % 2},1,3,1,{i / 8}\n" for i in range(n))


HANDOFFS = {
    "quoted comma": '"u,x",c1,1,1,3,1,2.5\n' + _plain_rows(3, "v"),
    "quoted newline": '"u\nx",c1,1,1,3,1,2.5\n' + _plain_rows(3, "v"),
    "crlf": _plain_rows(3, "v").replace("\n", "\r\n"),
    "unclosed quote": '"' + "x" * (csv.field_size_limit() + 10),
    "blank lines": "\n\n" + _plain_rows(3, "v"),
    "long row": "w,c1,1,1,3,1,2.5,extra\n" + _plain_rows(3, "v"),
}


@pytest.mark.parametrize("case", sorted(HANDOFFS))
@pytest.mark.parametrize("chunk", CHUNKS)
def test_handoff_to_csv_reader_after_plain_chunks(case, chunk):
    text = HEADER + _plain_rows(chunk + 1) + HANDOFFS[case]
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(_text(text, ""))
    if case == "unclosed quote":
        line = chunk + 2  # the last row read whole, as csv.DictReader counts
        assert got == f"panel input, line {line}: field larger than field limit (131072)"
        return
    extra = {"quoted comma": {"u,x"}, "quoted newline": {"u\nx"}, "long row": {"w"}}
    units = {f"u{i}" for i in range(chunk + 1)} | {"v0", "v1", "v2"} | extra.get(case, set())
    assert set(got.unit_labels.tolist()) == units and got.n_obs == len(units)


@pytest.mark.parametrize("quoted", ["", '"q,x",c1,1,1,3,1,2.5\n'])
@pytest.mark.parametrize("early", ["", "a,s1\n"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_undecodable_byte_after_plain_chunks(chunk, early, quoted):
    # more than the 8 KiB a text stream decodes at once comes before the
    # byte, so the rows before it reach the parser; with a quoted row, the
    # chunk the byte cuts short at 4096 is the first that is not plain
    text = HEADER + early + _plain_rows(chunk + 1) + quoted + _plain_rows(600, "v")
    data = text.encode() + b"\xff,c1,1,1,3,1,2\n"
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(
            lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        )
    if early:  # the rows before it are checked first
        assert got == "row 2: missing column 'outcome'"
    else:
        assert got == "panel input is not UTF-8 text: invalid start byte"


# Each case below sits inside one chunk, after at least one full plain
# chunk: the whole-chunk check must decide it line by line.
@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_short_and_a_long_line_in_one_chunk(chunk):
    # the comma counts even out over the chunk, but not line by line
    header = HEADER.replace("\n", ",note\n")
    rows = _plain_rows(chunk).replace("\n", ",n\n")
    rows += "w,c1,1,1,3,1,2.5\n" + "x,c2,0,1,3,1,3.5,n,extra\n" + _plain_rows(2, "v")
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(_text(header + rows, ""))
    assert {"w", "x"} <= set(got.unit_labels.tolist()) and got.n_obs == chunk + 4


LIMIT = 40  # a field size limit small enough to reach in a test
ROW_END = ",c1,1,1,3,1,2.5\n"


@pytest.mark.parametrize("fill", ["w", "é", "日", "\U0001f600"])
@pytest.mark.parametrize("length", [LIMIT, LIMIT + 1, 2 * LIMIT], ids=["at", "over", "field over"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_line_at_and_over_the_field_size_limit(chunk, length, fill):
    # the limit counts characters; a line over it goes to csv.reader, which
    # refuses only a field over it
    line = fill * (length - len(ROW_END)) + ROW_END
    text = HEADER + _plain_rows(chunk) + line + _plain_rows(2, "v")
    saved = csv.field_size_limit(LIMIT)
    try:
        with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
            got = assert_same_ingest(_text(text, ""))
    finally:
        csv.field_size_limit(saved)
    if length == 2 * LIMIT:  # named by the last line read whole, as csv.DictReader counts
        assert got == f"panel input, line {chunk + 1}: field larger than field limit ({LIMIT})"
    else:
        assert got.n_obs == chunk + 3


@pytest.mark.parametrize("fill", ["w", "é", "\U0001f600", "\ud800"])
def test_the_plain_check_counts_characters(fill):
    limit = csv.field_size_limit()
    header = HEADER.rstrip("\n").split(",")
    at = fill * (limit - len(ROW_END)) + ROW_END
    assert panel_module._is_plain(at + "u,c1,1,1,3,1,2.5", 2, limit, header)
    assert not panel_module._is_plain(fill + at, 1, limit, header)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_blank_line_inside_a_chunk(chunk):
    text = HEADER + _plain_rows(chunk) + _plain_rows(1, "v") + "\n" + _plain_rows(2, "w")
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(_text(text, ""))
        assert got.n_obs == chunk + 3
        # one column, where a blank line has the header's width: it is no row
        text = "outcome\n" + " \n" * chunk + "\n" + "2.5\n"
        got = assert_same_ingest(_text(text, ""))
    assert got == f"row {chunk + 2}: missing column 'unit'"


@pytest.mark.parametrize("label", ["é", "日本", "\U0001f600", "a\ud800"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_non_ascii_labels_in_plain_chunks(chunk, label):
    # a lone surrogate reaches the check as it is from a StringIO
    text = HEADER + _plain_rows(chunk) + _plain_rows(3, label)
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(_text(text, ""))
    assert {f"{label}{i}" for i in range(3)} <= set(got.unit_labels.tolist())


@pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\x1c", "\xa0", "\u3000"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_whitespace_around_labels_in_a_plain_chunk(chunk, space):
    # plain, so split on commas, but the labels and the outcome are still stripped
    row = f"{space}w{space},{space}c1,1,1,3,1,{space}2.5{space}\n"
    blank = f"x,c2,0,1,3,1,{space}\n"  # a whitespace outcome is missing
    text = HEADER + _plain_rows(chunk) + row + blank + _plain_rows(2, "v")
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        got = assert_same_ingest(_text(text, ""))
    assert "w" in got.unit_labels.tolist() and "c1" in got.cluster_labels.tolist()
    assert got.ingest_report.dropped_rows == ((chunk + 3, "missing outcome"),)


def test_labels_equal_but_for_trailing_nuls_are_one_label():
    # a <U array drops trailing NULs, and its width counts them
    text = HEADER + "a,s1,1,1,3,1,1.5\na\x00,s1,1,1,3,2,2.5\n"
    p = assert_same_ingest(_text(text, ""))
    assert p.unit_labels.tolist() == ["a"] and p.unit_labels.dtype == np.dtype("<U2")
    assert p.unit.tolist() == [0, 0]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_refused_rows_leave_no_label(chunk):
    dropped = HEADER + "a,s1,1,1,3,1,1.5\nghost,s9,0,1,3,1,\nb,s2,0,1,3,1,2\n"
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        p = assert_same_ingest(_text(dropped, ""))
        assert p.ingest_report.dropped_rows == ((3, "missing outcome"),)
        assert p.unit_labels.tolist() == ["a", "b"] and p.cluster_labels.tolist() == ["s1", "s2"]
        unparsable = HEADER + "a,s1,1,1,3,1,1.5\nghost,s9,x,1,3,1,2\n"
        assert assert_same_ingest(_text(unparsable, "")) == (
            "could not parse input: row 3: invalid literal for int() with base 10: 'x'"
        )
        # nothing of a refused ingest carries over to the next one
        assert ingest_panel(io.StringIO(dropped, newline="")).unit_labels.tolist() == ["a", "b"]


@st.composite
def quoted_or_crlf_csv(draw):
    """``panel_csv`` text with some fields quoted, or CRLF line ends from some line on."""
    lines = draw(panel_csv()).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = '"' + fields[j].replace('"', '""') + '"'
        lines[i] = ",".join(fields)
    crlf = draw(st.integers(0, len(lines)))
    ends = ["\n" if i < crlf else "\r\n" for i in range(len(lines) - 1)] + [""]
    return "".join(line + end for line, end in zip(lines, ends))


@FUZZ
@given(
    text=quoted_or_crlf_csv(),
    schema=st.sampled_from(sorted(SCHEMAS)),
    chunk=st.sampled_from(CHUNKS),
    newline=st.sampled_from(["", "\n"]),
)
def test_matches_row_walk_on_quoted_or_crlf_csv(text, schema, chunk, newline):
    with mock.patch.object(panel_module, "_CHUNK_ROWS", chunk):
        assert_same_ingest(_text(text, newline), SCHEMAS[schema])


COLUMNS = ("unit", "cluster", "block", "treatment", "cohort", "grade", "year", "tested_in")


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_round_trip_of_a_benchmark_sized_panel(line_end):
    # 52 clusters of the default design, 9,984 rows: split on commas with
    # LF line ends, read by csv.reader with CRLF
    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    written = apply_effect(generate_panel(sc, 0), sc.effect, 0)
    buf = io.StringIO()
    written.to_csv(buf)
    assert '"' not in buf.getvalue() and "\r" not in buf.getvalue()  # plain throughout
    text = buf.getvalue().replace("\n", line_end)
    read = ingest_panel(io.StringIO(text, newline=""))
    assert read.n_obs == 9984
    for name in (*COLUMNS, "outcome", "group_ids"):
        a, b = getattr(read, name), getattr(written, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name, prefix, width in (("unit", "u", 7), ("cluster", "c", 4), ("block", "b", 4)):
        labels = getattr(read, f"{name}_labels")
        n = int(getattr(written, name).max()) + 1
        assert labels.tolist() == [f"{prefix}{code:0{width}d}" for code in range(n)], name
    assert read.catalog == written.catalog
    assert read.ingest_report == panel_module.IngestReport(9984, 9984)


def test_a_byte_order_mark_is_not_part_of_the_header(tmp_path):
    text = HEADER.replace("outcome", "outcome,tested_in") + "a,s1,1,1,3,1,1.5,0\nb,s2,0,1,3,1,2,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
    got = ingest_panel(marked)
    assert got.n_obs == 2 and got.tested_in is not None
    assert_same_panel(got, ingest_panel(plain))
