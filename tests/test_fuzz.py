"""Fuzz the command line with malformed panels and summaries.

Whatever the input, ``pwrd.cli.main`` must return one of the documented
exit codes (0, or 2 / 3 / 4 for input, degenerate data and numerics),
never raise, and explain a failure in exactly one stderr line. Examples
are derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pwrd.cli import main

FUZZ = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

COLUMNS = (
    "unit", "cluster", "block", "treatment", "cohort", "grade", "year", "outcome", "tested_in", "x",
)
MALFORMED = st.sampled_from(
    ["", " ", "nan", "NaN", "inf", "-inf", "abc", "1.5", "-1", "2", "1e400",
     "99999999999999999999", "-99999999999999999999", '"a,b"', "\x00"]
) | st.text(max_size=3)


@st.composite
def panel_csv(draw):
    """CSV text that is mostly a valid panel: a header that may miss some
    columns, and a few malformed fields, short or long rows and blank lines."""
    columns = draw(st.permutations(COLUMNS))
    header = columns[draw(st.sampled_from([0] * 8 + [1, 2])):]
    n_clusters = draw(st.integers(1, 6))
    n_years = draw(st.integers(1, 3))
    rows = []
    for u in range(draw(st.integers(0, 12))):
        year = 1 + draw(st.integers(0, n_years - 1))
        c = u % n_clusters
        valid = {
            "unit": f"u{u}",
            "cluster": f"c{c}",
            "block": f"b{c // 2}",
            "treatment": str(c % 2),
            "cohort": "1",
            "grade": str(2 + year + u % 2),
            "year": str(year),
            "outcome": repr(draw(st.floats(-100, 100))),
            "tested_in": str(int(year + u % 3 > 3)),
            "x": repr(draw(st.floats(-2, 2))),
        }
        for y in range(year, n_years + 1):
            row = {**valid, "year": str(y), "grade": str(2 + y + u % 2)}
            rows.append([row[col] for col in header])
    if rows and header:
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(MALFORMED)
        for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if draw(st.booleans()):
                del row[draw(st.integers(0, len(row) - 1)):]
            else:
                row.append(draw(MALFORMED))
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines) + "\n"


ANALYZE_FLAGS = st.sampled_from(
    [
        [],
        ["--json"],
        ["--schema", "{schema}", "--covariates", "x"],
        ["--schema", "{schema}", "--covariates", "x", "--estimator", "exit"],
        ["--estimator", "flat", "--cov-variant", "cr0"],
        ["--estimator", "mixed"],
        ["--estimator", "exit"],
        ["--df-rule", "satterthwaite"],
    ]
)

NUMBERS = st.floats() | st.integers(-(10**20), 10**20)
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=3)
FIELD = (
    SCALARS
    | st.lists(SCALARS | NUMBERS, max_size=4)
    | st.lists(st.lists(NUMBERS, max_size=4), max_size=4)
)


@st.composite
def plausible_summary(draw):
    """delta_hat, p0 and se or cov of about one length, values mostly sane."""
    G = draw(st.integers(1, 4))

    def vector(lo, hi):
        size = G + draw(st.integers(0, 1))
        return draw(st.lists(st.floats(lo, hi) | NUMBERS, min_size=size, max_size=size))

    doc = {"delta_hat": vector(-1, 1), "p0": vector(-0.1, 1)}
    spread = draw(st.sampled_from(["se", "cov", "se", "cov", "both", "neither"]))
    if spread in ("se", "both"):
        doc["se"] = vector(0, 2)
    if spread in ("cov", "both"):
        doc["cov"] = [vector(-1, 2) for _ in range(G)]
    return doc


ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def summary_json(draw):
    """Summary JSON: mostly plausible, else stray fields, any JSON value,
    text cut short, or arbitrary text."""
    kind = draw(st.sampled_from(["plausible"] * 6 + ["fields", "any", "cut", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    if kind == "plausible":
        doc = draw(plausible_summary())
    elif kind == "fields":
        keys = st.sampled_from(["delta_hat", "p0", "cov", "se", "note"])
        doc = draw(st.dictionaries(keys, FIELD))
    else:
        doc = draw(ANY_JSON)
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text)))] if kind == "cut" else text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    columns = {c: c for c in COLUMNS if c != "x"}
    (d / "schema.json").write_text(json.dumps({"columns": columns, "covariates": ["x"]}))
    return d


def _run(argv):
    """Exit code and stderr lines of one in-process run; warnings count as stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def _check(code, lines):
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert len(lines) == 1 and lines[0].startswith("pwrd: error:"), lines


@FUZZ
@given(text=panel_csv(), flags=ANALYZE_FLAGS)
def test_analyze_survives_malformed_csv(workdir, text, flags):
    path = workdir / "panel.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", path] + [f.format(schema=workdir / "schema.json") for f in flags]
    _check(*_run(argv))


@FUZZ
@given(text=summary_json(), flags=st.sampled_from([[], ["--df", "3"], ["--ridge"]]))
def test_weights_survives_malformed_summary(workdir, text, flags):
    path = workdir / "summary.json"
    path.write_text(text, encoding="utf-8")
    _check(*_run(["weights", path] + flags))
