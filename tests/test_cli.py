"""End-to-end command line checks: round trips, JSON payloads, manifests,
and error exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pwrd
from pwrd import aggregate_external, ingest_panel
from pwrd.cli import main
from pwrd.power import analyze_replicate


README_SUMMARY = {
    "delta_hat": [-0.001, -0.030, -0.035, -0.035],
    "se": [0.023, 0.019, 0.021, 0.019],
    "p0": [0.25, 0.5, 0.75, 1.0],
}


def run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def small_csv(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    code, out, _ = run(
        ["simulate", "--preset", "single-track", "--clusters", 8, "--units", 4,
         "--out", path],
        capsys,
    )
    assert code == 0
    return path


def test_simulate_writes_panel_and_manifest(small_csv):
    # 8 clusters x 4 units x 4 follow-up years
    panel = ingest_panel(small_csv)
    assert panel.n_obs == 8 * 4 * 4
    assert panel.tested_in is not None

    manifest = json.loads((small_csv.parent / "panel.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["preset"] == "single-track"
    assert manifest["config"]["thresholds"]
    digest = hashlib.sha256(small_csv.read_bytes()).hexdigest()
    assert manifest["output"]["sha256"] == digest
    assert manifest["output"]["n_rows"] == panel.n_obs


def test_simulate_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, *_ = run(
            ["simulate", "--preset", "single-track", "--clusters", 8, "--units", 4,
             "--seed", 7, "--out", path],
            capsys,
        )
        assert code == 0
    assert a.read_text() == b.read_text()


POOL_PROBE = """
import json, sys

def pool_modules():
    return sorted(
        m for m in sys.modules
        if m == "concurrent.futures.process" or m.split(".")[0].lstrip("_") == "multiprocessing"
    )

loaded = {}
import pwrd
loaded["import pwrd"] = pool_modules()
from pwrd.cli import main
out = sys.argv[1]
for preset in ("single-track", "spillover"):
    main(["simulate", "--preset", preset, "--clusters", "8", "--units", "4", "--out", out])
    loaded["simulate " + preset] = pool_modules()
main(["analyze", out, "--estimator", "flat"])
loaded["analyze flat"] = pool_modules()
print(json.dumps(loaded))
"""


def test_commands_without_a_pool_load_no_pool_module(tmp_path):
    # only estimate_power with more than one worker imports the process pool
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", POOL_PROBE, str(tmp_path / "panel.csv")],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {
        "import pwrd": [],
        "simulate single-track": [],
        "simulate spillover": [],
        "analyze flat": [],
    }


MODULE_PROBE = """
import contextlib, io, json, sys

def pwrd_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "pwrd")

out, summary = sys.argv[1:3]
loaded = {}
import pwrd
loaded["import pwrd"] = [0, pwrd_modules()]
from pwrd.cli import main
runs = {
    "simulate single-track": ["simulate", "--preset", "single-track", "--out", out],
    "simulate spillover": ["simulate", "--preset", "spillover", "--out", out],
    "weights": ["weights", summary],
    "analyze": ["analyze", out, "--estimator", "flat"],
    "power": [
        "power", "--preset", "single-track", "--clusters", "8", "--units", "4",
        "--methods", "flat", "--reps", "4",
    ],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[name] = [code, pwrd_modules()]
print(json.dumps(loaded))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # import pwrd and simulate load the generator half; the estimators and
    # the engine load when a command runs them, and weights needs no fit
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps(README_SUMMARY))
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, str(tmp_path / "panel.csv"), str(summary)],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    generator = ["pwrd", "pwrd.errors", "pwrd.panel", "pwrd.simulate", "pwrd.tails"]
    with_cli = sorted(generator + ["pwrd.cli"])
    assert loaded["import pwrd"] == [0, generator]
    assert loaded["simulate single-track"] == [0, with_cli]
    assert loaded["simulate spillover"] == [0, with_cli]
    assert loaded["weights"] == [0, sorted(with_cli + ["pwrd.weights"])]
    assert [code for code, _ in loaded.values()] == [0] * 6


API_PROBE = """
import json
import pwrd

found = {"listed": [name for name in pwrd.__all__ if name in dir(pwrd)]}
found["resolved"] = [name for name in pwrd.__all__ if getattr(pwrd, name, None) is not None]
namespace = {}
exec("from pwrd import *", namespace)
found["bound"] = sorted(name for name in namespace if name != "__builtins__")
try:
    pwrd.no_such_name
except AttributeError as exc:
    found["unknown"] = str(exc)
print(json.dumps(found))
"""


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # the lazily loaded names resolve by attribute, by star import and in dir()
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", API_PROBE],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True,
    )
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(pwrd.__all__) == 49
    assert found["resolved"] == pwrd.__all__
    assert found["bound"] == sorted(pwrd.__all__)
    assert found["listed"] == pwrd.__all__
    assert found["unknown"] == "module 'pwrd' has no attribute 'no_such_name'"


SCIPY_PROBE = """
import contextlib, io, json, sys
from pwrd.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

panel, se_summary, cov_summary, graded = sys.argv[1:5]
runs = {
    "analyze pwrd": ["analyze", panel, "--json"],
    "analyze pwrd satterthwaite": ["analyze", panel, "--json", "--df-rule", "satterthwaite"],
    "analyze flat": ["analyze", panel, "--json", "--estimator", "flat"],
    "analyze mixed": ["analyze", panel, "--json", "--estimator", "mixed"],
    "analyze exit": ["analyze", panel, "--json", "--estimator", "exit"],
    "analyze peters-belson": [
        "analyze", graded, "--json", "--estimator", "exit", "--covariates", "grade",
    ],
    "weights se": ["weights", se_summary],
    "weights cov": ["weights", cov_summary],
    "power single-track": [
        "power", "--preset", "single-track", "--clusters", "8", "--units", "4",
        "--methods", "pwrd,flat,mixed,exit", "--reps", "4", "--workers", "1",
    ],
}
loaded = {}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded[name] = [code, scipy_modules()]
print(json.dumps(loaded))
"""


def test_analysis_commands_load_no_scipy_module(small_csv, effect1_csv, tmp_path):
    # the tails and the weight solver are in-package; only the default
    # preset's minimax calibration imports scipy. The default preset's exit
    # rows span grades, so its panel can adjust the exit contrast for grade
    se_summary, cov_summary = tmp_path / "se.json", tmp_path / "cov.json"
    se_summary.write_text(json.dumps(README_SUMMARY))
    cov = np.diag(np.square(README_SUMMARY["se"])).tolist()
    cov_summary.write_text(json.dumps({**README_SUMMARY, "se": None, "cov": cov}))
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    inputs = map(str, (small_csv, se_summary, cov_summary, effect1_csv))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *inputs],
        env={**os.environ, "PYTHONPATH": str(src_dir)}, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(loaded) == 9
    for name, (code, modules) in loaded.items():
        assert (name, code, modules) == (name, 0, [])


def _strict_json(text: str):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "flags",
    [(), ("--df-rule", "satterthwaite"), ("--estimator", "flat"), ("--estimator", "mixed"),
     ("--estimator", "exit"), ("--estimator", "exit", "--covariates", "grade")],
    ids=["pwrd", "satterthwaite", "flat", "mixed", "exit", "peters-belson"],
)
def test_analyze_prints_strict_json(small_csv, effect1_csv, capsys, flags):
    # the single-track panel's exit rows share one grade, the default's do not
    panel = effect1_csv if "--covariates" in flags else small_csv
    code, out, _ = run(["analyze", panel, "--json", *flags], capsys)
    assert code == 0
    _strict_json(out)


def test_weights_and_power_write_strict_json(tmp_path, capsys):
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(README_SUMMARY))
    for flags, df in (((), None), (("--df", "inf"), None), (("--df", "30"), 30.0)):
        code, out, _ = run(["weights", spath, *flags], capsys)
        assert code == 0
        doc = _strict_json(out)
        # a normal reference writes its df as null
        assert doc["test"]["df"] == doc["manifest"]["config"]["df"] == df
    dest = tmp_path / "power.json"
    code, _, _ = run(
        ["power", "--preset", "single-track", "--clusters", 8, "--units", 4,
         "--reps", 4, "--workers", 1, "--out", dest],
        capsys,
    )
    assert code == 0
    _strict_json(dest.read_text())


def test_weights_with_an_overflowing_statistic_exits_4(tmp_path, capsys):
    # a finite null so far out that t is -inf: refused, not printed as -Infinity
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(README_SUMMARY))
    code, out, err = run(["weights", spath, "--delta0", "1e308"], capsys)
    assert code == 4
    assert out == ""
    assert err.strip() == "pwrd: error: test statistic is not finite"


def test_analyze_table_output(small_csv, capsys):
    code, out, _ = run(["analyze", small_csv], capsys)
    assert code == 0
    assert "weight" in out.splitlines()[0]
    assert "estimate" in out


def test_analyze_json_payload(small_csv, tmp_path, capsys):
    dest = tmp_path / "analysis.json"
    code, _, _ = run(["analyze", small_csv, "--json", "--out", dest], capsys)
    assert code == 0
    doc = json.loads(dest.read_text())
    omega = np.asarray(doc["weights"]["omega"])
    assert omega.sum() == pytest.approx(1.0, abs=1e-9)
    assert doc["weights"]["scheme"] == "pwrd"
    assert 0.0 <= doc["test"]["p"] <= 1.0
    assert doc["slopes"]["relative_efficiency_vs_flat"] >= 1.0
    assert len(doc["effects"]["groups"]) == 4
    assert doc["ingest"]["n_read"] == doc["ingest"]["n_kept"]
    digest = hashlib.sha256(small_csv.read_bytes()).hexdigest()
    assert doc["manifest"]["inputs"][str(small_csv)] == digest


def test_analyze_json_lists_dropped_rows(small_csv, tmp_path, capsys):
    lines = small_csv.read_text().splitlines()
    blank = (3, 10)  # row numbers: the header is row 1 and the file has no blank lines
    for i in blank:
        fields = lines[i - 1].split(",")
        fields[lines[0].split(",").index("outcome")] = " "
        lines[i - 1] = ",".join(fields)
    path = tmp_path / "dropped.csv"
    path.write_text("\n".join(lines) + "\n")
    dest = tmp_path / "analysis.json"
    code, _, _ = run(["analyze", path, "--json", "--out", dest], capsys)
    assert code == 0
    ingest = json.loads(dest.read_text())["ingest"]
    assert ingest["n_read"] == len(lines) - 1 and ingest["n_kept"] == len(lines) - 3
    assert ingest["n_dropped"] == 2
    assert ingest["dropped_rows"] == [[3, "missing outcome"], [10, "missing outcome"]]


@pytest.mark.parametrize("estimator", ["flat", "mixed", "exit"])
def test_analyze_other_estimators(small_csv, tmp_path, capsys, estimator):
    dest = tmp_path / f"{estimator}.json"
    code, _, _ = run(
        ["analyze", small_csv, "--estimator", estimator, "--json", "--out", dest],
        capsys,
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["manifest"]["config"]["estimator"] == estimator


def test_analyze_regression_adjusted(small_csv):
    # grade is constant inside a cohort-year group, so no covariate from
    # the simulated panel varies within group; with no covariates the
    # adjusted effects are the difference in means
    panel = ingest_panel(small_csv)
    pb = pwrd.estimate_effects_peters_belson(panel)
    dm = pwrd.estimate_effects_diffmeans(panel)
    assert pb.groups == dm.groups
    np.testing.assert_allclose(pb.estimates, dm.estimates, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["grade", "cohort", "follow_up_year"])
def test_peters_belson_design_covariate_exits_2(small_csv, capsys, name):
    code, _, err = run(["analyze", small_csv, "--covariates", name], capsys)
    assert code == 2
    assert f"covariate '{name}' is constant within every cohort-year group" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", ["grade", "cohort"])
def test_exit_covariate_constant_on_the_control_exit_rows_exits_2(
    small_csv, effect1_csv, capsys, name
):
    # the single-track panel's exit rows share one grade and one cohort; the
    # default preset's span grades 0-3 and cohorts 1-4
    code, _, err = run(["analyze", small_csv, "--estimator", "exit", "--covariates", name], capsys)
    assert code == 2
    assert f"covariate '{name}' is constant on the exit rows' control arm" in err
    assert len(err.strip().splitlines()) == 1
    code, _, _ = run(["analyze", effect1_csv, "--estimator", "exit", "--covariates", name], capsys)
    assert code == 0


def test_mixed_covariate_constant_on_the_rows_exits_2(small_csv, capsys):
    # every single-track unit is in one cohort; grade varies, so the fit runs
    code, _, err = run(["analyze", small_csv, "--estimator", "mixed", "--covariates", "cohort"], capsys)
    assert code == 2
    assert "covariate 'cohort' is constant on the fit's rows" in err
    assert len(err.strip().splitlines()) == 1
    code, _, _ = run(["analyze", small_csv, "--estimator", "mixed", "--covariates", "grade"], capsys)
    assert code == 0


def test_analyze_schema_mapping(tmp_path, capsys):
    rng = np.random.default_rng(1)
    csv_path = tmp_path / "renamed.csv"
    csv_path.write_text(
        "sid,site,arm,wave,gr,yr,y,flag\n"
        + "\n".join(
            f"s{u},site{u % 6},{1 if u % 6 < 3 else 0},1,{t},{t},{100 + rng.normal():.6f},{int(u % 4 == 0)}"
            for u in range(24)
            for t in (1, 2)
        )
        + "\n"
    )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(
            {
                "columns": {
                    "unit": "sid", "cluster": "site", "treatment": "arm",
                    "cohort": "wave", "grade": "gr", "year": "yr",
                    "outcome": "y", "tested_in": "flag",
                }
            }
        )
    )
    code, out, _ = run(["analyze", csv_path, "--schema", schema_path], capsys)
    assert code == 0


@pytest.mark.parametrize("kind", ["schema", "summary"])
def test_a_byte_order_mark_before_json_changes_nothing(tmp_path, capsys, request, kind):
    # editors and spreadsheets may save UTF-8 JSON behind a byte-order mark
    if kind == "schema":
        columns = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")
        text = json.dumps({"columns": {c: c for c in columns}})
        argv = ["analyze", request.getfixturevalue("small_csv"), "--schema"]
    else:
        text, argv = json.dumps(README_SUMMARY), ["weights"]
    outputs = []
    for mark in ("", "\ufeff"):
        doc = tmp_path / f"{kind}{len(mark)}.json"
        doc.write_text(mark + text, encoding="utf-8")
        code, out, err = run([*argv, doc], capsys)
        assert (code, err) == (0, "")
        if kind == "summary":  # the manifest names and hashes each input file
            out = json.loads(out)
            del out["manifest"]["inputs"]
        outputs.append(out)
    assert outputs[0] == outputs[1]


CLOSED_STDOUT_PROBE = "import sys; from pwrd.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("command", ["weights", "analyze"])
def test_a_reader_that_closed_stdout_gives_exit_1_without_a_traceback(tmp_path, request, command):
    if command == "weights":
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps(README_SUMMARY))
        argv = ["weights", summary]
    else:
        argv = ["analyze", request.getfixturevalue("small_csv")]  # the table output
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLOSED_STDOUT_PROBE, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(src_dir)}, stdout=write_end,
            stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_weights_subcommand_matches_library(tmp_path, capsys):
    summary = README_SUMMARY
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(summary))
    dest = tmp_path / "weights.json"
    code, _, _ = run(
        ["weights", spath, "--alternative", "less", "--out", dest], capsys
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    ref = aggregate_external(
        summary["delta_hat"], p0=summary["p0"], se=summary["se"], alternative="less"
    )
    np.testing.assert_allclose(doc["omega"], ref.weights.omega, atol=1e-12)
    assert doc["test"]["p"] == pytest.approx(ref.test.p_value, rel=1e-12)
    assert doc["slope"] == pytest.approx(ref.slope, rel=1e-12)
    assert doc["fallback"] is False


def test_weights_df_changes_reference(tmp_path, capsys):
    summary = {"delta_hat": [0.5, 0.4], "se": [0.2, 0.2], "p0": [0.5, 1.0]}
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(summary))
    d1 = tmp_path / "normal.json"
    d2 = tmp_path / "t8.json"
    assert run(["weights", spath, "--out", d1], capsys)[0] == 0
    assert run(["weights", spath, "--df", 8, "--out", d2], capsys)[0] == 0
    p_norm = json.loads(d1.read_text())["test"]["p"]
    p_t = json.loads(d2.read_text())["test"]["p"]
    assert p_t > p_norm


def test_power_stdout_and_json(tmp_path, capsys):
    dest = tmp_path / "power.json"
    code, out, _ = run(
        ["power", "--preset", "single-track", "--clusters", 8, "--units", 4,
         "--effect", "effect1", "--methods", "pwrd,flat",
         "--reps", 6, "--levels", "0,6", "--out", dest],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0].startswith("method")
    doc = json.loads(dest.read_text())
    assert len(doc["cells"]) == 4
    for cell in doc["cells"]:
        assert {"method", "power", "mc_se", "n_reps", "seed"} <= set(cell)
    assert doc["manifest"]["config"]["methods"] == ["pwrd", "flat"]
    assert doc["failures"] == []


# ----------------------------------------------------------------------
# failure modes

def test_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,cluster,treatment\n1,1,1\n")
    code, _, err = run(["analyze", bad], capsys)
    assert code == 2
    assert "pwrd: error:" in err


def test_analyze_has_no_alpha(small_csv, capsys):
    # the analysis reports a p-value and never read a level
    with pytest.raises(SystemExit) as exc:
        run(["analyze", small_csv, "--alpha", "7"], capsys)
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, flag, estimator",
    [  # every (flag, estimator) pair that the estimator never reads
        (["--estimator", "mixed", "--df-rule", "satterthwaite"], "--df-rule", "mixed"),
        (["--estimator", "exit", "--delta0", "3"], "--delta0", "exit"),
        (["--estimator", "exit", "--ridge"], "--ridge", "exit"),
        (["--estimator", "mixed", "--delta0", "3"], "--delta0", "mixed"),
        (["--estimator", "exit", "--df-rule", "satterthwaite"], "--df-rule", "exit"),
        (["--estimator", "flat", "--ridge"], "--ridge", "flat"),
        (["--estimator", "mixed", "--ridge"], "--ridge", "mixed"),
    ],
)
def test_analyze_refuses_flags_the_estimator_ignores(small_csv, capsys, flags, flag, estimator):
    code, _, err = run(["analyze", small_csv, *flags], capsys)
    assert code == 2
    assert f"{flag} has no effect on the {estimator} estimator" in err


PANEL_HEADER = "unit,cluster,treatment,cohort,grade,year,outcome\n"


def _unreadable_input(tmp_path, case):
    """argv for one malformed input, and the text the error must name."""
    panel = tmp_path / "panel.csv"
    panel.write_text(PANEL_HEADER + "u1,c1,1,1,3,1,1.0\nu2,c2,0,1,3,99999999999999999999,2.0\n")
    if case == "int64-overflow":
        return ["analyze", panel], "rows [3]"
    if case == "not-utf8":
        panel.write_bytes(PANEL_HEADER.encode() + b"u1,c\xe9,1,1,3,1,1.0\n")
        return ["analyze", panel], "panel.csv"
    if case == "missing-panel":
        return ["analyze", tmp_path / "absent.csv"], "absent.csv"
    doc = tmp_path / "doc.json"
    doc.write_text({"array-summary": "[0.1, 0.2]"}.get(case, '{"columns": {'))
    if case == "bad-schema-json":
        return ["analyze", panel, "--schema", doc], "doc.json"
    if case == "string-covariates":
        columns = {c: c for c in PANEL_HEADER.strip().split(",")}
        doc.write_text(json.dumps({"columns": columns, "covariates": "score"}))
        return ["analyze", panel, "--schema", doc], "'covariates' must be a list"
    if case in ("nested-list-columns", "string-columns"):
        columns = [["unit"]] if case == "nested-list-columns" else "unit"
        doc.write_text(json.dumps({"columns": columns}))
        return ["analyze", panel, "--schema", doc], "'columns'"
    return ["weights", doc], "doc.json"


@pytest.mark.parametrize(
    "case",
    [
        "int64-overflow", "not-utf8", "missing-panel",
        "bad-schema-json", "bad-summary-json", "array-summary", "string-covariates",
        "nested-list-columns", "string-columns",
    ],
)
def test_unreadable_input_exits_2_naming_it(tmp_path, capsys, case):
    argv, named = _unreadable_input(tmp_path, case)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("pwrd: error:")
    assert len(err.strip().splitlines()) == 1
    assert named in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--preset", "single-track", "--clusters", 0), "need at least 4 clusters"),
        (("--preset", "default", "--clusters", 0), "need at least 4 clusters"),
        (("--preset", "spillover", "--clusters", 0), "need at least 4 clusters"),
        (("--preset", "single-track", "--units", 0), "units_per_grade must be at least 1"),
        (("--preset", "spillover", "--units", 0), "units_per_grade must be at least 1"),
        (("--preset", "default", "--units", 0), "units_per_grade must be at least 1"),
    ],
)
def test_zero_clusters_or_units_are_refused_not_defaulted(tmp_path, capsys, flags, named):
    out = tmp_path / "x.csv"
    code, _, err = run(["simulate", *flags, "--out", out], capsys)
    assert code == 2
    assert named in err
    assert not out.exists()


def test_units_sets_the_default_preset_size(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, *_ = run(["simulate", "--units", 3, "--out", out], capsys)
    assert code == 0
    # 52 clusters x 3 units per grade x 16 (cohort, entry grade, year) groups
    assert ingest_panel(out).n_obs == 2496


@pytest.mark.parametrize(
    "preset, build",
    [
        ("default", pwrd.default_scenario),
        ("single-track", pwrd.single_track_scenario),
        ("spillover", pwrd.spillover_scenario),
    ],
    ids=["default", "single-track", "spillover"],
)
def test_presets_take_their_sizes_from_the_library(tmp_path, capsys, preset, build):
    out = tmp_path / "x.csv"
    code, *_ = run(["simulate", "--preset", preset, "--out", out], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    sc = build()
    assert manifest["config"]["n_clusters"] == sc.n_clusters
    assert manifest["output"]["n_rows"] == pwrd.generate_panel(sc).n_obs


@pytest.mark.parametrize("icc", ["nan", "inf"])
def test_non_finite_icc_exits_2(tmp_path, capsys, icc):
    code, _, err = run(["simulate", "--icc", icc, "--out", tmp_path / "x.csv"], capsys)
    assert code == 2
    assert err.startswith("pwrd: error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--effect", "effect1", "--tau", "nan"], "tau"),
        (["simulate", "--effect", "effect3", "--tau", "inf"], "tau must be finite"),
        (["simulate", "--effect", "null", "--tau", "5"], "null regime has no effect size"),
        (["simulate", "--effect", "effect1", "--spill", "0.5"], "only effect2 has a spillover"),
        (["power", "--levels", "0,5.5", "--workers", 1], "null regime has no effect size"),
        (["simulate", "--replicate", -1], "replicate index"),
        (["power", "--levels", "abc", "--workers", 1], "--levels"),
        (["power", "--levels", "nan", "--workers", 1], "effect levels"),
        (["power", "--cov-variant", "cr0", "--df-rule", "satterthwaite", "--workers", 1],
         "Satterthwaite degrees of freedom require the cr2 variant"),
        (["analyze", "--delta0", "inf"], "delta0 must be finite"),
        (["analyze", "--delta0", "nan"], "delta0 must be finite"),
        (["weights", "--delta0", "inf"], "delta0 must be finite"),
        (["weights", "--delta0", "nan"], "delta0 must be finite"),
        (["weights", "--df", "0"], "df must be positive, got 0.0"),
        (["weights", "--df", "nan"], "df must be positive, got nan"),
        (["power", "--workers", 0], "workers must be positive, got 0"),
        (["power", "--workers", -3], "workers must be positive, got -3"),
        (["power", "--effect", "effect1", "--tau", "3", "--levels", "0,5.5"], "--tau"),
        (["power", "--effect", "effect1", "--tau", "0", "--levels", "5.5"], "--tau"),
        (["power", "--methods", "pwrd,pwrd"], "methods must be nonempty and without repeats"),
        (["power", "--effect", "effect1", "--levels", "5.5,5.5"],
         "effect levels must be nonempty and without repeats"),
        (["power", "--levels", ""], "--levels"),
    ],
    ids=["tau-nan", "effect3-tau-inf", "null-tau", "effect1-spill", "power-null-levels",
         "replicate-negative", "levels-abc", "levels-nan",
         "power-cr0-satterthwaite", "analyze-delta0-inf", "analyze-delta0-nan",
         "weights-delta0-inf", "weights-delta0-nan", "weights-df-0", "weights-df-nan",
         "workers-0", "workers-negative", "tau-with-levels", "tau-0-with-levels",
         "repeated-method", "repeated-level", "levels-empty"],
)
def test_malformed_values_exit_2_naming_them(tmp_path, capsys, request, argv, named):
    # each is refused before any replicate runs, so no pool starts
    out = tmp_path / "x.csv"
    command, *flags = argv
    if command == "analyze":
        source = [request.getfixturevalue("small_csv")]
    elif command == "weights":
        source = [tmp_path / "summary.json"]
        source[0].write_text(json.dumps(README_SUMMARY))
    else:
        source = ["--preset", "single-track", "--clusters", 4, "--units", 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the refusal
        code, _, err = run([command, *source, *flags, "--out", out], capsys)
    assert code == 2
    assert err.startswith("pwrd: error:")
    assert len(err.strip().splitlines()) == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_the_removed_second_size_flag_is_refused(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    argv = [command, "--preset", "single-track", "--clusters", 4, "--units", 2]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--effect", "effect3", "--effect-mean", 2, "--out", out], capsys)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        "pwrd: error: unrecognized arguments: --effect-mean 2"
    ]
    assert not out.exists()


def test_effect3_takes_its_mean_from_tau(tmp_path, capsys):
    size = ["--preset", "single-track", "--clusters", 8, "--units", 4, "--replicate", 1]
    null, hot = tmp_path / "null.csv", tmp_path / "hot.csv"
    assert run(["simulate", *size, "--out", null], capsys)[0] == 0
    assert run(["simulate", *size, "--effect", "effect3", "--tau", 5, "--out", hot], capsys)[0] == 0
    sc = pwrd.single_track_scenario(n_clusters=8, units_per_grade=4)
    want = pwrd.apply_effect(pwrd.generate_panel(sc, 1), pwrd.EffectSpec("effect3", tau=5.0), 1)
    base, shifted = ingest_panel(null), ingest_panel(hot)
    assert np.array_equal(shifted.outcome, want.outcome)
    treated = base.treatment == 1
    assert (shifted.outcome != base.outcome)[treated].all()
    assert np.array_equal(shifted.outcome[~treated], base.outcome[~treated])
    manifest = json.loads((tmp_path / "hot.csv.manifest.json").read_text())
    assert manifest["config"]["effect"] == {"regime": "effect3", "tau": 5.0, "spill_fraction": 0.0}


@pytest.mark.parametrize(
    "command", ["simulate", "simulate-manifest", "analyze", "weights", "power"]
)
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, small_csv, command):
    missing = tmp_path / "absent" / "out.json"
    if command.startswith("simulate"):
        argv = ["simulate", "--preset", "single-track", "--clusters", 8, "--units", 4]
        if command == "simulate-manifest":
            # the CSV can be written but not its manifest beside it
            (tmp_path / "x.csv.manifest.json").mkdir()
            missing = tmp_path / "x.csv"
    elif command == "analyze":
        argv = ["analyze", small_csv, "--json"]
    elif command == "weights":
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"delta_hat": [0.1, 0.2], "p0": [0.3, 0.4], "se": [1, 1]}))
        argv = ["weights", summary]
    else:
        argv = ["power", "--preset", "single-track", "--clusters", 8, "--units", 4,
                "--reps", 2, "--methods", "flat"]
    code, _, err = run([*argv, "--out", missing], capsys)
    assert code == 2
    assert err.startswith("pwrd: error: cannot write")
    assert len(err.strip().splitlines()) == 1
    named = missing if command != "simulate-manifest" else f"{missing}.manifest.json"
    assert str(named) in err


def test_peters_belson_cli_takes_p0_on_its_groups(tmp_path, capsys):
    # Peters-Belson drops groups with too few control rows for the
    # covariate fit; p0 must follow it rather than refuse the panel
    from test_covariance import unbalanced_panel

    from pwrd import estimate_effects_peters_belson, estimate_p0

    p = unbalanced_panel(seed=1)
    path = tmp_path / "panel.csv"
    p.to_csv(path)
    schema = tmp_path / "schema.json"
    columns = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")
    schema.write_text(json.dumps({"columns": {c: c for c in columns}, "covariates": ["x"]}))
    code, out, _ = run(
        ["analyze", path, "--schema", schema, "--covariates", "x", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    eff = estimate_effects_peters_belson(p, covariates=("x",))
    assert any("control rows" in rec.reason for rec in eff.excluded)
    p0 = dict(zip(estimate_p0(p).group_ordinals(), estimate_p0(p).p_hat))
    assert [g["g"] for g in doc["effects"]["groups"]] == list(eff.group_ordinals())
    assert [g["p0_hat"] for g in doc["effects"]["groups"]] == [p0[g] for g in eff.group_ordinals()]


@pytest.mark.parametrize("estimator", ["pwrd", "flat", "exit"])
def test_covariates_alone_select_peters_belson(tmp_path, capsys, estimator):
    # a covariate list is the adjustment: no second flag asks for it
    from test_covariance import unbalanced_panel

    path, schema = tmp_path / "panel.csv", tmp_path / "schema.json"
    unbalanced_panel(seed=1).to_csv(path)
    columns = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")
    schema.write_text(json.dumps({"columns": {c: c for c in columns}, "covariates": ["x"]}))
    code, out, _ = run(
        ["analyze", path, "--schema", schema, "--estimator", estimator, "--covariates", "x",
         "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    p = ingest_panel(path, schema=pwrd.PanelSchema.from_json(schema))
    if estimator == "exit":
        ex = pwrd.exit_observation_estimate(p, covariates=("x",))
        assert ex.method == "peters-belson"
        assert (doc["exit"]["estimate"], doc["exit"]["se"]) == (ex.estimate, ex.se)
        assert doc["exit"]["p_value"] == ex.p_value()
        return
    eff = pwrd.estimate_effects_peters_belson(p, covariates=("x",))
    cov = pwrd.cluster_covariance(p, eff)
    p0 = pwrd.estimate_p0(p).on_groups(eff.groups)
    w = pwrd.pwrd_weights(cov, p0) if estimator == "pwrd" else pwrd.flat_weights(eff)
    assert doc["effects"]["method"] == "peters-belson"
    assert [g["delta_hat"] for g in doc["effects"]["groups"]] == eff.estimates.tolist()
    assert doc["weights"]["omega"] == w.omega.tolist()
    assert doc["test"]["p"] == pwrd.aggregate_test(eff, cov, w).p_value


@pytest.mark.parametrize("estimator", ["pwrd", "exit"])
def test_unknown_covariate_exits_2_naming_it(small_csv, capsys, estimator):
    code, _, err = run(
        ["analyze", small_csv, "--estimator", estimator, "--covariates", "nosuch"], capsys
    )
    assert code == 2
    assert err.strip() == "pwrd: error: unknown covariate column 'nosuch'"


@pytest.mark.parametrize("estimator", ["pwrd", "flat", "exit", "mixed"])
def test_repeated_covariate_exits_2_naming_it(tmp_path, capsys, estimator):
    from test_covariance import unbalanced_panel

    path, schema = tmp_path / "panel.csv", tmp_path / "schema.json"
    unbalanced_panel(seed=1).to_csv(path)
    columns = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")
    schema.write_text(json.dumps({"columns": {c: c for c in columns}, "covariates": ["x"]}))
    code, out, err = run(
        ["analyze", path, "--schema", schema, "--estimator", estimator, "--covariates", "x,x"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.strip() == "pwrd: error: covariate 'x' is named more than once"


@pytest.mark.parametrize("estimator", ["pwrd", "mixed"])
@pytest.mark.parametrize("covariates", [",", "grade,"])
def test_an_empty_covariate_entry_exits_2(small_csv, capsys, estimator, covariates):
    code, out, err = run(
        ["analyze", small_csv, "--estimator", estimator, "--covariates", covariates], capsys
    )
    assert (code, out) == (2, "")
    assert err.strip() == "pwrd: error: --covariates has an empty entry"


def test_missing_summary_key_exits_2(tmp_path, capsys):
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps({"delta_hat": [0.1]}))
    code, _, err = run(["weights", spath], capsys)
    assert code == 2
    assert "p0" in err


@pytest.mark.parametrize(
    "summary",
    [
        {"delta_hat": [0.1, 0.2], "se": [0.1, 0.1], "p0": [0.5, -0.1]},
        {"delta_hat": [0.1, 0.2, 0.3], "se": [0.1, 0.1], "p0": [0.5, 0.5]},
        {"delta_hat": [0.1, 0.2], "se": [0.1, float("nan")], "p0": [0.5, 0.5]},
    ],
    ids=["negative-p0", "mismatched-lengths", "nan-se"],
)
def test_malformed_summary_exits_2(tmp_path, capsys, summary):
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(summary))
    code, _, err = run(["weights", spath], capsys)
    assert code == 2
    assert err.startswith("pwrd: error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "summary, field",
    [
        ({"delta_hat": ["a", 1], "se": [0.1, 0.1], "p0": [0.5, 0.5]}, "delta_hat"),
        ({"delta_hat": [0.1, 0.2], "cov": [[1, 0], [0]], "p0": [0.5, 0.5]}, "cov"),
        ({"delta_hat": [float("nan"), 2], "se": [0.1, 0.1], "p0": [0.5, 0.5]}, "delta_hat"),
        ({"delta_hat": [0.1, 0.2], "se": [0.1, 0.1], "p0": None}, "missing 'p0'"),
        ({"delta_hat": None, "se": [0.1, 0.1], "p0": [0.5, 0.5]}, "missing 'delta_hat'"),
    ],
    ids=["non-numeric-delta", "ragged-cov", "nan-delta", "null-p0", "null-delta"],
)
def test_bad_summary_field_exits_2_naming_it(tmp_path, capsys, summary, field):
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(summary))
    code, _, err = run(["weights", spath], capsys)
    assert code == 2
    assert err.startswith("pwrd: error:")
    assert len(err.strip().splitlines()) == 1
    assert field in err


def test_degenerate_panel_exits_3(tmp_path, capsys):
    path = tmp_path / "one_arm.csv"
    path.write_text(
        "unit,cluster,treatment,cohort,grade,year,outcome,tested_in\n"
        + "\n".join(f"u{i},c{i % 4},1,1,3,1,{i}.0,0" for i in range(8))
        + "\n"
    )
    code, _, err = run(["analyze", path], capsys)
    assert code == 3


def test_two_cluster_exit_analysis_exits_3(tmp_path, capsys):
    # one cluster per arm leaves df = 0 and a zero standard error
    path = tmp_path / "two.csv"
    path.write_text(PANEL_HEADER + "u1,c1,1,1,3,1,1.0\nu2,c2,0,1,3,1,2.0\nu3,c1,1,1,3,1,4.0\n")
    code, _, err = run(["analyze", path, "--estimator", "exit"], capsys)
    assert code == 3
    assert err.startswith("pwrd: error:") and len(err.strip().splitlines()) == 1


def test_mixed_without_within_cluster_variation_exits_3(tmp_path, capsys):
    # six clusters of two units, the outcome constant within each cluster
    rows = [
        f"u{2 * c + k},c{c},{c % 2},1,{3 + k},{1 + k},{10.0 + 1.7 * c}\n"
        for c in range(6)
        for k in range(2)
    ]
    path = tmp_path / "flat.csv"
    path.write_text(PANEL_HEADER + "".join(rows))
    code, _, err = run(["analyze", path, "--estimator", "mixed"], capsys)
    assert code == 3
    assert "zero within-cluster residual variance" in err
    assert err.startswith("pwrd: error:") and len(err.strip().splitlines()) == 1


def test_an_outcome_the_design_fits_exactly_is_refused_by_every_estimator(tmp_path, capsys):
    # 8 clusters of 2 units seen at grades 0 and 1; the outcome is exactly
    # 100 + 10 grade + 5 treatment (variance 31.25), so every fit's residuals
    # are rounding, and the mixed fit's components about 1e-26
    rows = [(c, k, g) for c in range(8) for k in range(2) for g in (0, 1)]
    exact = np.array([100.0 + 10 * g + 5 * (c % 2) for c, _, g in rows])
    noise = np.random.default_rng(0).normal(0.0, 1e-6, len(rows))
    path = tmp_path / "exact.csv"
    for y, codes in ((exact, dict(pwrd=4, flat=4, exit=4, mixed=4)), (exact + noise, dict(mixed=0))):
        path.write_text(
            "unit,cluster,treatment,cohort,grade,year,outcome,tested_in\n" + "".join(
                f"u{c}_{k},c{c},{c % 2},1,{g},{g + 1},{v!r},{int(k == 0)}\n"
                for (c, k, g), v in zip(rows, y.tolist())
            )
        )
        for estimator, want in codes.items():
            code, out, err = run(["analyze", path, "--estimator", estimator, "--json"], capsys)
            assert code == want, (estimator, err)
            if estimator == "mixed" and want == 4:
                assert "rounding" in err and len(err.strip().splitlines()) == 1
    # the outcome plus noise of SD 1e-6 still fits, on components of about 1e-12
    fit = json.loads(out)["mixed"]
    assert 1e-13 < fit["sigma2_eps"] + fit["sigma2_mu"] < 1e-11


@pytest.mark.parametrize("noise", ["centered-normal", "plus-minus-pairs"])
def test_a_rounding_level_test_variance_exits_4_in_every_estimator(tmp_path, capsys, noise):
    # 8 clusters with alternating arms, grades 0-2 in year 1, 6 units per
    # (cluster, grade) cell; each cell's noise sums to zero, so every cell
    # mean is exact and each contrast's variance is rounding (about 1e-28)
    rng = np.random.default_rng(1)
    lines = ["unit,cluster,treatment,cohort,grade,year,outcome,tested_in\n"]
    for c in range(8):
        for g in range(3):
            e = rng.normal(size=6) if noise == "centered-normal" else np.array([1.0, -1.0] * 3)
            y = (100.3 + 10.7 * g + 5.1 * (c % 2) + (e - e.mean())).tolist()
            lines += [f"u{c}_{g}_{k},c{c},{c % 2},1,{g},1,{y[k]!r},{int(k == 0)}\n" for k in range(6)]
    path = tmp_path / "probe.csv"
    path.write_text("".join(lines))
    # no weights can help, so pwrd names the rounding, not the ridge option
    for flags in [["--estimator", e] for e in ("pwrd", "flat", "mixed", "exit")] + [["--ridge"]]:
        code, out, err = run(["analyze", path, *flags, "--json"], capsys)
        assert (flags, code, out) == (flags, 4, "")
        assert err.startswith("pwrd: error:") and len(err.strip().splitlines()) == 1
        assert "is rounding" in err and "ridge" not in err


def _scaled_p_values(csv_path, scale, tmp_path, capsys) -> dict:
    """Each estimator's (exit code, p-value or stderr) on the panel with its
    outcome multiplied by ``scale``."""
    header, *lines = csv_path.read_text().splitlines()
    col = header.split(",").index("outcome")
    rows = [line.split(",") for line in lines]
    for row in rows:
        row[col] = repr(float(row[col]) * scale)
    path = tmp_path / f"scaled-{scale:g}.csv"
    path.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    found = {}
    for estimator in ("pwrd", "flat", "mixed", "exit"):
        code, out, err = run(["analyze", path, "--estimator", estimator, "--json"], capsys)
        if code:
            found[estimator] = (code, err)
            continue
        doc = json.loads(out)
        p = doc["test"]["p"] if "test" in doc else doc.get("exit", doc)["p_value"]
        found[estimator] = (0, p)
    return found


@pytest.mark.parametrize("scale", [1e152, 1e306])
def test_an_overflowing_outcome_is_named_not_called_rounding(small_csv, tmp_path, capsys, scale):
    # at 1e152 the outcome's mean square overflows to inf, at 1e306 the arm
    # means' differences and the sandwich overflow to nan; numpy's warnings
    # of either would print lines of their own before the error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = _scaled_p_values(small_csv, scale, tmp_path, capsys)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    for estimator, (code, err) in found.items():
        assert code == 4, (estimator, err)
        assert err.startswith("pwrd: error:") and "not finite" in err
        assert len(err.strip().splitlines()) == 1
        assert "rounding" not in err and "Traceback" not in err


def test_a_large_but_finite_outcome_analyzes_as_the_unscaled_one(small_csv, tmp_path, capsys):
    unscaled = _scaled_p_values(small_csv, 1.0, tmp_path, capsys)
    for estimator, (code, p) in _scaled_p_values(small_csv, 1e151, tmp_path, capsys).items():
        assert code == 0
        assert p == pytest.approx(unscaled[estimator][1], rel=1e-12)


def test_flat_analyzes_a_panel_without_test_in_flags(small_csv, tmp_path, capsys):
    header, *lines = small_csv.read_text().splitlines()
    drop = header.split(",").index("tested_in")
    path = tmp_path / "flagless.csv"
    path.write_text("\n".join(
        ",".join(f for i, f in enumerate(line.split(",")) if i != drop)
        for line in [header, *lines]
    ) + "\n")
    code, out, _ = run(["analyze", path, "--estimator", "flat", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    # only what p0 fixes is left out: the groups' p0_hat and the slopes
    assert "slopes" not in doc
    assert all("p0_hat" not in group for group in doc["effects"]["groups"])
    flagged = json.loads(run(["analyze", small_csv, "--estimator", "flat", "--json"], capsys)[1])
    assert doc["test"] == flagged["test"] and doc["weights"] == flagged["weights"]
    assert [{k: v for k, v in group.items() if k != "p0_hat"}
            for group in flagged["effects"]["groups"]] == doc["effects"]["groups"]
    # the pwrd weights need the flags
    code, _, err = run(["analyze", path, "--json"], capsys)
    assert code == 3 and "no test-in flags" in err


def test_weights_refuses_a_vector_covariance(tmp_path, capsys):
    # the README's standard errors given as "cov" are not variances
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps({**README_SUMMARY, "se": None, "cov": README_SUMMARY["se"]}))
    code, out, err = run(["weights", spath], capsys)
    assert (code, out) == (2, "")
    assert "covariance must be a square matrix, got shape (4,)" in err


def test_weights_refuses_an_asymmetric_covariance(tmp_path, capsys):
    # eigvalsh would read one triangle and the weight solver the whole matrix
    spath = tmp_path / "summary.json"
    cov = [[1, 0.9], [-0.9, 1]]
    spath.write_text(json.dumps({"delta_hat": [0.1, 0.2], "p0": [0.3, 0.5], "cov": cov}))
    code, out, err = run(["weights", spath], capsys)
    assert (code, out) == (2, "")
    assert err.strip() == "pwrd: error: cov must be a symmetric matrix"


@pytest.fixture(scope="module")
def effect1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("effect1") / "panel.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--effect", "effect1", "--tau", "5.5", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "estimator, variant, df_rule",
    [(e, v, "clusters-2") for e in ("pwrd", "flat", "mixed", "exit") for v in ("cr0", "cr2")]
    + [(e, "cr2", "satterthwaite") for e in ("pwrd", "flat")],
)
def test_cli_and_monte_carlo_loop_agree(effect1_csv, capsys, estimator, variant, df_rule):
    flags = ["--estimator", estimator, "--cov-variant", variant]
    if df_rule != "clusters-2":
        flags += ["--df-rule", df_rule]
    code, out, _ = run(["analyze", effect1_csv, "--json", *flags], capsys)
    assert code == 0
    doc = json.loads(out)
    if estimator == "mixed":
        p = doc["p_value"]
    elif estimator == "exit":
        p = doc["exit"]["p_value"]
    else:
        p = doc["test"]["p"]
    assert 0.0 < p < 1.0
    # the loop rejects at alpha = p and not one ulp below: the same p, bit for bit
    panel = ingest_panel(effect1_csv)
    for alpha, rejects in ((p, True), (math.nextafter(p, 0.0), False)):
        got = analyze_replicate(panel, (estimator,), alpha, variant, df_rule)
        assert got == {estimator: rejects}


@pytest.mark.parametrize("estimator", ["pwrd", "flat", "mixed", "exit"])
def test_analyze_goes_through_the_one_pipeline(effect1_csv, capsys, monkeypatch, estimator):
    argv = ["analyze", effect1_csv, "--estimator", estimator, "--json"]
    _, plain, _ = run(argv, capsys)
    pipeline, calls = pwrd.power._analyze, []

    def spy(panel, methods, *args, **kwargs):
        calls.append(methods)
        return pipeline(panel, methods, *args, **kwargs)

    monkeypatch.setattr(pwrd.power, "_analyze", spy)
    code, out, _ = run(argv, capsys)
    assert (code, calls) == (0, [(estimator,)])
    assert json.loads(out) == json.loads(plain)


def test_overflowing_standard_error_is_one_line(capsys, tmp_path):
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps({"delta_hat": [0.0], "p0": [0.5], "se": [1e200]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(["weights", spath], capsys)
    assert code == 4
    assert "non-finite" in err and len(err.strip().splitlines()) == 1


def test_singular_covariance_exits_4(tmp_path, capsys):
    summary = {
        "delta_hat": [0.1, 0.2],
        "cov": [[1.0, 1.0], [1.0, 1.0]],
        "p0": [0.5, 0.5],
    }
    spath = tmp_path / "summary.json"
    spath.write_text(json.dumps(summary))
    code, _, err = run(["weights", spath], capsys)
    assert code == 4
    assert "ridge" in err
    # the documented escape hatch
    assert run(["weights", spath, "--ridge"], capsys)[0] == 0
