"""End-to-end command line checks: round trips, JSON payloads, manifests,
and error exit codes."""

import hashlib
import json

import numpy as np
import pytest

from pwrd import aggregate_external, ingest_panel
from pwrd.cli import main


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


def test_analyze_regression_adjusted(small_csv, capsys):
    # grade is constant inside a cohort-year group, so no covariate from
    # the simulated panel varies within group; the intercept-only fit
    # must reproduce the difference in means
    code_pb, out_pb, _ = run(["analyze", small_csv, "--method", "peters-belson"], capsys)
    code_dm, out_dm, _ = run(["analyze", small_csv], capsys)
    assert code_pb == code_dm == 0
    line = [l for l in out_pb.splitlines() if "estimate" in l][0]
    assert line == [l for l in out_dm.splitlines() if "estimate" in l][0]


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


def test_weights_subcommand_matches_library(tmp_path, capsys):
    summary = {
        "delta_hat": [-0.001, -0.030, -0.035, -0.035],
        "se": [0.023, 0.019, 0.021, 0.019],
        "p0": [0.25, 0.5, 0.75, 1.0],
    }
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
         "--effect", "effect1", "--tau", 6, "--methods", "pwrd,flat",
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
    ],
    ids=["non-numeric-delta", "ragged-cov", "nan-delta"],
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
