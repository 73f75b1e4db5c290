"""Output checks written from the definitions, not from the code under test.

Each function returns a list of problems; an empty list means the output
passed. The benchmark counts an operation as failed when its check reports
any problem.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

# First-order conditions are scaled by max|p0|, so the tolerance is relative.
KKT_TOL = 1e-8
# The library's own acceptance tolerance for a calibrated test-in profile.
CALIBRATION_TOL = 0.02

DEFAULT_TARGETS = {1: 0.383, 2: 0.543, 3: 0.611, 4: 0.694}
SPILLOVER_TARGETS = {1: 0.18, 2: 0.32, 3: 0.40, 4: 0.44}

# The external-summary example of the README.
README_SUMMARY = {
    "delta_hat": (-0.001, -0.030, -0.035, -0.035),
    "se": (0.023, 0.019, 0.021, 0.019),
    "p0": (0.25, 0.5, 0.75, 1.0),
}


def kkt_violation(w, sigma, p0) -> float:
    """Largest breach of the first-order conditions of max w'p0 / sqrt(w'Sw), w >= 0.

    The slope is scale invariant, so its gradient times sqrt(w'Sw) is
    r = p0 - (w'p0 / w'Sw) S w. At a maximizer r is zero on the support of w
    and nonpositive off it.
    """
    w = np.asarray(w, dtype=np.float64)
    S = np.asarray(sigma, dtype=np.float64)
    p = np.asarray(p0, dtype=np.float64)
    Sw = S @ w
    r = (p - (w @ p) / (w @ Sw) * Sw) / np.abs(p).max()
    support = w > 1e-12 * w.max()
    return float(np.where(support, np.abs(r), np.maximum(r, 0.0)).max())


def check_weights(w, sigma, p0) -> list[str]:
    w = np.asarray(w, dtype=np.float64)
    problems = []
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
        problems.append(f"weights not on the simplex (min {w.min():.3g}, sum {w.sum():.12g})")
    viol = kkt_violation(w, sigma, p0)
    if not viol <= KKT_TOL:
        problems.append(f"weights fail first-order optimality by {viol:.3g}")
    return problems


def check_oracle_weights(pwrd, root: Path) -> list[str]:
    """README external-summary weights against the subset-enumeration oracle."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    se = np.asarray(README_SUMMARY["se"])
    p0 = np.asarray(README_SUMMARY["p0"])
    agg = pwrd.aggregate_external(
        delta_hat=README_SUMMARY["delta_hat"], se=se, p0=p0, alternative="less"
    )
    _, best = oracles.best_slope_by_enumeration(np.diag(se**2), p0)
    gap = float(np.abs(agg.weights.omega - best).max())
    return [] if gap <= 1e-10 else [f"README weights differ from the oracle by {gap:.3g}"]


def check_analyze_payload(payload: dict, estimator: str, sigma=None) -> list[str]:
    """One `pwrd analyze --json` payload; `sigma` enables the weight optimality check."""
    problems = []
    if estimator == "mixed":
        p = payload["p_value"]
        return [] if 0.0 <= p <= 1.0 else [f"mixed p-value {p} out of range"]
    if estimator == "exit":
        ex = payload["exit"]
        problems = [] if 0.0 <= ex["p_value"] <= 1.0 else [f"exit p-value {ex['p_value']}"]
        if abs(ex["estimate"] / ex["se"] - ex["t_stat"]) > 1e-9 * max(1.0, abs(ex["t_stat"])):
            problems.append("exit t statistic inconsistent with estimate and se")
        return problems
    groups = payload["effects"]["groups"]
    delta = np.asarray([g["delta_hat"] for g in groups])
    omega = np.asarray(payload["weights"]["omega"])
    test = payload["test"]
    scale = max(1.0, float(np.abs(omega * delta).sum()))
    if abs(float(omega @ delta) - test["estimate"]) > 1e-12 * scale:
        problems.append("estimate differs from w'delta_hat of its own effects block")
    if not 0.0 <= test["p"] <= 1.0:
        problems.append(f"p-value {test['p']} out of range")
    if estimator == "pwrd" and sigma is not None:
        problems += check_weights(omega, sigma, [g["p0_hat"] for g in groups])
    return problems


def profile_deviation(pwrd, design, thresholds: dict, targets: dict) -> float:
    prof = pwrd.expected_testin_profile(design, thresholds)
    return max(abs(prof[k] - t) for k, t in targets.items())


def check_simulate_output(csv_path: Path) -> tuple[list[str], dict]:
    """A CSV written by `pwrd simulate` against its manifest sidecar."""
    manifest = json.loads(Path(str(csv_path) + ".manifest.json").read_text())
    out = manifest["output"]
    data = csv_path.read_bytes()
    problems = []
    if hashlib.sha256(data).hexdigest() != out["sha256"]:
        problems.append(f"{csv_path.name}: sha256 differs from its manifest")
    if data.count(b"\n") - 1 != out["n_rows"]:
        problems.append(f"{csv_path.name}: row count differs from its manifest")
    return problems, manifest
