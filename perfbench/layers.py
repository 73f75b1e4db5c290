"""Traced run: per-layer metrics of every pwrd module.

Spans are recorded from this file around calls into pwrd's public
functions, kept in memory and written when the run ends. The run profiles
every layer whatever the workload, because each traced run reports every
per-layer metric:

* import: `python -X importtime -c "import pwrd"`;
* simulate: cold calibration of each CLI preset, with the calls to
  `expected_testin_profile` counted by wrapping it from outside;
* panel: `to_csv` and `ingest_panel` at 10k and 100k rows, then the
  covariance, Satterthwaite and mixed-model layers on the 100k panel;
* cli: one `pwrd analyze --json` per CSV size;
* the replicate pipeline of `estimate_power` on the `power` workload's
  scenario, as a plain loop of public calls for `seconds`, then
  `estimate_power` itself on the same replicates with one and two workers,
  untraced.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy import stats

import checks
from common import run_python
from workloads import LEVELS, METHODS, analyze_panels, default_design, estimate, power_cells

MIN_REPS = 10
ALPHA = 0.05
LAYER_REPEATS = 3  # calls per layer on the 100k panel


class Spans:
    """Spans kept in memory: (name, start, end, parent index, replicate id)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.replicate = -1
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        index = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self.rows.append(())
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.rows[index] = (name, start, time.perf_counter(), parent, self.replicate)
            self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, rep in self.rows:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "replicate": rep}
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Count, total and self time per span name; self time excludes child spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.rows:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.rows):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        for entry in out.values():
            d = np.asarray(entry.pop("durations"))
            entry["p50_us"] = float(np.percentile(d, 50) * 1e6)
            entry["p99_us"] = float(np.percentile(d, 99) * 1e6)
        return out


def import_layers(work: Path) -> dict:
    """Cumulative import time of pwrd and of scipy.stats from -X importtime, in ms.

    scipy loads `scipy.stats` lazily, so the package has no line of its own;
    its cost is the sum over the outermost `scipy.stats.*` submodules.
    """
    _, proc = run_python(["-X", "importtime", "-c", "import pwrd"], work)
    lines = []  # (depth, name, cumulative us), children before their parent
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2][1:]
            lines.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(parts[1])))
    pwrd_us = stats_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name == "pwrd":
            pwrd_us = cumulative
        if name.startswith("scipy.stats.") and not parent.startswith("scipy.stats."):
            stats_us += cumulative
        ancestors.append((depth, name))
    return {
        "import.pwrd_ms": (pwrd_us / 1000.0, "ms"),
        "import.scipy_stats_ms": (stats_us / 1000.0, "ms"),
    }


def calibration_layers(pwrd, seed: int, problems: list, report: dict) -> dict:
    """Cold calibration per CLI preset, timed and with profile evaluations counted.

    The default preset at ICC 0.05 cannot get within tolerance and is
    refused by design (NumericalError); the refusal is reported, not failed.
    """
    presets = {
        "default": (lambda: pwrd.default_scenario(seed=seed), checks.DEFAULT_TARGETS),
        "default_icc005": (lambda: pwrd.default_scenario(seed=seed, icc=0.05), checks.DEFAULT_TARGETS),
        "single_track": (lambda: pwrd.single_track_scenario(seed=seed), checks.DEFAULT_TARGETS),
        "spillover": (lambda: pwrd.spillover_scenario(seed=seed), checks.SPILLOVER_TARGETS),
    }
    simulate = sys.modules["pwrd.simulate"]
    original = simulate.expected_testin_profile
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    metrics, devs = {}, []
    report["calibration_refused"] = []
    simulate.expected_testin_profile = counted
    try:
        for preset, (build, targets) in presets.items():
            calls[0] = 0
            start = time.perf_counter()
            try:
                sc = build()
            except pwrd.NumericalError:
                sc = None
            metrics[f"simulate.calibrate.{preset}_s"] = (time.perf_counter() - start, "s")
            metrics[f"simulate.expected_testin_profile.calls_{preset}"] = (calls[0], "count")
            if sc is None:
                report["calibration_refused"].append(preset)
                continue
            devs.append(checks.profile_deviation(pwrd, sc, sc.threshold_map, targets))
            if not devs[-1] <= checks.CALIBRATION_TOL:
                problems.append(f"{preset}: test-in profile misses its targets by {devs[-1]:.4f}")
    finally:
        simulate.expected_testin_profile = original
    metrics["simulate.calibrate.max_dev"] = (max(devs), "share")
    return metrics


def panel_layers(pwrd, seed: int, work: Path, problems: list) -> dict:
    """CSV write and read of the `analyze` inputs; analysis layers at 100k rows."""
    metrics = {}
    for size, panel in analyze_panels(pwrd, seed).items():
        path = work / f"panel_{size}.csv"
        start = time.perf_counter()
        panel.to_csv(path)
        metrics[f"panel.PanelDataset.to_csv.s_{size}"] = (time.perf_counter() - start, "s")
        start = time.perf_counter()
        read = pwrd.ingest_panel(path)
        ingest_s = time.perf_counter() - start
        metrics[f"panel.ingest_panel.s_{size}"] = (ingest_s, "s")
        if read.n_obs != panel.n_obs or not np.array_equal(read.outcome, panel.outcome):
            problems.append(f"{size}: ingested panel differs from the panel written")
        wall, proc = run_python(["-m", "pwrd.cli", "analyze", str(path), "--json"], work)
        metrics[f"cli.analyze.s_{size}"] = (wall, "s")
        if proc.returncode:
            problems.append(f"cli analyze {size}: exit {proc.returncode}")
    metrics["panel.ingest_panel.rows_per_s"] = (read.n_obs / ingest_s, "rows/s")

    effects = pwrd.estimate_effects_diffmeans(read)
    p0 = pwrd.estimate_p0(read)
    cov = pwrd.cluster_covariance(read, effects, variant="cr2")
    w = pwrd.pwrd_weights(cov, p0)
    problems += checks.check_weights(w.omega, cov.sigma_hat, p0.p_hat)
    layers = {
        "covariance.cluster_covariance": (pwrd.cluster_covariance, (read, effects)),
        "covariance.satterthwaite_df": (pwrd.satterthwaite_df, (read, effects, w.omega)),
        "mixed.fit_random_intercept": (pwrd.fit_random_intercept, (read, ("grade",))),
    }
    for name, (call, args) in layers.items():
        walls = []
        for _ in range(LAYER_REPEATS):
            start = time.perf_counter()
            call(*args, variant="cr2")
            walls.append(time.perf_counter() - start)
        metrics[f"{name}.p50_us_100k"] = (statistics.median(walls) * 1e6, "us")
    return metrics


def traced_replicates(pwrd, sc, seconds: float, spans: Spans, problems: list):
    """The per-replicate pipeline of `estimate_power` as public calls, traced."""
    hits: Counter = Counter()
    excluded: Counter = Counter()
    flags = Counter()
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < seconds:
        spans.replicate = rep
        with spans("replicate"):
            with spans("simulate.generate_panel"):
                base = pwrd.generate_panel(sc, rep)
            for lv in LEVELS:
                try:
                    with spans("simulate.apply_effect"):
                        panel = pwrd.apply_effect(base, sc.effect.with_level(lv), rep)
                    with spans("effects.estimate_effects_diffmeans"):
                        effects = pwrd.estimate_effects_diffmeans(panel)
                    with spans("covariance.cluster_covariance"):
                        cov = pwrd.cluster_covariance(panel, effects, variant="cr2")
                    with spans("effects.estimate_p0"):
                        p0 = pwrd.estimate_p0(panel)
                    if p0.group_ordinals() != effects.group_ordinals():
                        raise pwrd.DegenerateDataError("test-in groups differ from effect groups")
                    with spans("weights.pwrd_weights"):
                        w = pwrd.pwrd_weights(cov, p0)
                    with spans("weights.aggregate_test"):
                        t_pwrd = pwrd.aggregate_test(effects, cov, w, alternative="greater")
                    with spans("weights.flat_weights"):
                        flat = pwrd.flat_weights(effects)
                    with spans("weights.aggregate_test"):
                        t_flat = pwrd.aggregate_test(effects, cov, flat, alternative="greater")
                    with spans("mixed.fit_random_intercept"):
                        fit = pwrd.fit_random_intercept(panel, covariates=("grade",), variant="cr2")
                    with spans("mixed.MixedModelFit.p_value"):
                        p_mixed = fit.p_value("greater")
                    with spans("effects.exit_observation_estimate"):
                        ex = pwrd.exit_observation_estimate(panel, variant="cr2")
                    with spans("scipy.stats.t.sf"):
                        p_exit = float(stats.t.sf(ex.estimate / ex.se, ex.df))
                except pwrd.PwrdError:
                    excluded[lv] += 1
                    continue
                found = checks.check_weights(w.omega, cov.sigma_hat, p0.p_hat)
                problems += [f"replicate {rep} level {lv}: {p}" for p in found]
                flags["weights"] += 1
                flags["fallback"] += w.fallback
                flags["clipped"] += len(w.clipped_groups) / len(w.omega)
                flags["mixed_warn"] += bool(fit.warnings)
                for method, p in zip(METHODS, (t_pwrd.p_value, t_flat.p_value, p_mixed, p_exit)):
                    hits[(lv, method)] += p <= ALPHA
        rep += 1
    return rep, time.perf_counter() - start, hits, excluded, flags


def traced_run(pwrd, root: Path, seed: int, seconds: float, work: Path, stem: Path):
    problems = checks.check_oracle_weights(pwrd, root)
    report: dict = {}
    metrics = {}
    metrics.update(import_layers(work))
    metrics.update(calibration_layers(pwrd, seed, problems, report))
    metrics.update(panel_layers(pwrd, seed, work, problems))

    sc = default_design(pwrd, seed, 52)
    spans = Spans()
    n_reps, traced_s, hits, excluded, flags = traced_replicates(pwrd, sc, seconds, spans, problems)
    start = time.perf_counter()
    one = estimate(pwrd, sc, n_reps, 1)
    untraced_s = time.perf_counter() - start
    start = time.perf_counter()
    two = estimate(pwrd, sc, n_reps, 2)
    pooled_s = time.perf_counter() - start
    if power_cells(one) != power_cells(two):
        problems.append("2-worker cells differ from 1-worker cells")
    for c in one.cells:
        if round(c.rejection_rate * c.n_reps) != hits[(c.effect_level, c.method)]:
            problems.append(f"{c.method} at {c.effect_level}: rejections differ from the plain loop")
        if c.n_excluded != excluded[c.effect_level]:
            problems.append(f"{c.method} at {c.effect_level}: exclusions differ from the plain loop")

    summary = spans.summary()
    replicate_s = summary["replicate"]["total_s"]
    for name, entry in summary.items():
        entry["share"] = entry["total_s"] / replicate_s
    stat_names = {
        "weights.pwrd_weights": ("p50_us", "p99_us", "share"),
        "mixed.fit_random_intercept": ("p50_us", "p99_us", "share"),
        "weights.aggregate_test": ("p50_us", "share"),
        "weights.flat_weights": ("p50_us",),
        "effects.estimate_effects_diffmeans": ("p50_us", "share"),
        "effects.estimate_p0": ("p50_us", "share"),
        "effects.exit_observation_estimate": ("p50_us", "share"),
        "covariance.cluster_covariance": ("p50_us", "p99_us", "share"),
        "simulate.generate_panel": ("p50_us", "share"),
        "simulate.apply_effect": ("p50_us", "share"),
    }
    for name, stats_wanted in stat_names.items():
        for stat in stats_wanted:
            metrics[f"{name}.{stat}"] = (summary[name][stat], "share" if stat == "share" else "us")
    n_weights = max(flags["weights"], 1)
    metrics["weights.pwrd_weights.fallback_frac"] = (flags["fallback"] / n_weights, "share")
    metrics["weights.pwrd_weights.clipped_frac"] = (flags["clipped"] / n_weights, "share")
    metrics["mixed.fit_random_intercept.warn_frac"] = (flags["mixed_warn"] / n_weights, "share")
    n_runs = n_reps * len(LEVELS)
    metrics["simulate.estimate_power.excluded_frac"] = (len(one.failures) / n_runs, "share")
    metrics["simulate.estimate_power.pool_speedup"] = (untraced_s / pooled_s, "ratio")
    coverage = 1.0 - summary["replicate"]["self_s"] / replicate_s
    metrics["trace.coverage"] = (coverage, "share")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "share")

    spans.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    report.update({
        "replicates": n_reps,
        "traced_reps_per_s": n_reps / traced_s,
        "untraced_reps_per_s": n_reps / untraced_s,
        "reps_per_s_2w": n_reps / pooled_s,
        "spans": len(spans.rows),
        "self_s": {name: entry["self_s"] for name, entry in summary.items()},
        "problems": problems,
    })
    result = {
        "correct": not problems,
        "attempted": n_runs,
        "failed": sum(excluded.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    return result, report
