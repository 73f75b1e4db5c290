"""Columnar ingest against the row-walk reference in ``oracles.ingest_rows``.

On success both must give the same arrays, labels, catalog and ingest
report; on failure, the same ``InputError`` text.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwrd import InputError, PanelSchema, ThresholdRule, ingest_panel
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
    return got


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

