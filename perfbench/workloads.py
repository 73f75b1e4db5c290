"""Untraced closed-loop workloads.

Each repeats its unit of work until `seconds` have passed (at least once),
with reference work after each unit (see reference.py), then checks every
output. A runner returns (operations, operations per second, failed
operations, problems, report). `run` scales the rate by the host's slowdown
and turns it into the result object printed as the last line.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from common import run_python
from reference import KERNEL_NOMINAL_S, PROCESS_NOMINAL_S

METHODS = ("pwrd", "flat", "mixed", "exit")
LEVELS = (0.0, 5.5)
BATCH = 4  # replicates per estimate_power call in the `power` loop
PANEL_CLUSTERS = {"10k": 52, "100k": 520}  # default design: 9,984 and 99,840 rows

ANALYZE_VARIANTS = {
    "pwrd": ("--json",),
    "pwrd_satterthwaite": ("--json", "--df-rule", "satterthwaite"),
    "flat": ("--json", "--estimator", "flat"),
    "mixed": ("--json", "--estimator", "mixed"),
    "exit": ("--json", "--estimator", "exit"),
}

# CLI flags and the test-in targets of the simulate presets the workload
# runs. The default preset's minimax calibration is profiled in the traced
# run: its time swings 2x with the load of a shared host.
SIMULATE_PRESETS = {
    "single_track": (("--preset", "single-track"), checks.DEFAULT_TARGETS),
    "spillover": (("--preset", "spillover"), checks.SPILLOVER_TARGETS),
}


def batch_seed(seed: int, batch: int) -> int:
    return int(np.random.SeedSequence([seed, batch]).generate_state(1, np.uint64)[0] >> 1)


def power_cells(result) -> tuple:
    return tuple(
        (c.method, c.effect_level, c.rejection_rate, c.n_reps, c.n_excluded) for c in result.cells
    )


def estimate(pwrd, scenario, n_reps: int, workers: int):
    return pwrd.estimate_power(
        scenario,
        methods=METHODS,
        effect_levels=LEVELS,
        n_reps=n_reps,
        cov_variant="cr2",
        df_rule="clusters-2",
        workers=workers,
    )


def design(pwrd, preset: str, icc: float):
    """The cohort layout and variances a simulate preset calibrates on.

    The test-in profile does not depend on cluster count, effect or seed,
    so those are placeholders.
    """
    if preset.startswith("default"):
        cohorts = (pwrd.CohortSpec(1, 1, (0, 1, 2, 3), 12),) + tuple(
            pwrd.CohortSpec(c, c, (0,), 12) for c in (2, 3, 4)
        )
    else:
        cohorts = (pwrd.CohortSpec(1, 1, (0,), 25),)
    return pwrd.Scenario(
        n_clusters=4,
        cohorts=cohorts,
        thresholds=(),
        effect=pwrd.EffectSpec("null"),
        seed=0,
        sigma2_mu=icc * 225.0,
        sigma2_eps=(1.0 - icc) * 225.0,
    )


def default_design(pwrd, seed: int, n_clusters: int):
    """The default preset's design and effect1 at tau 5.5, without its calibration.

    The cutoffs come from the single-track calibration to the same targets
    (bisection only); on the default design they give a test-in profile
    within 0.05 of the targets.
    """
    base = pwrd.single_track_scenario(pwrd.EffectSpec("effect1", tau=5.5), seed, n_clusters)
    return replace(base, cohorts=design(pwrd, "default", 0.2).cohorts)


def analyze_panels(pwrd, seed: int) -> dict:
    """The `analyze` inputs: one default-design panel per size in PANEL_CLUSTERS."""
    panels = {}
    for size, n_clusters in PANEL_CLUSTERS.items():
        sc = default_design(pwrd, seed, n_clusters)
        panels[size] = pwrd.apply_effect(pwrd.generate_panel(sc, 0), sc.effect, 0)
    return panels


def run_power(state: dict, seed: int, seconds: float, work: Path):
    """Batches of replicates of the default design, one worker, until time is up."""
    pwrd, sc, reference = state["pwrd"], state["scenario"], state["reference"]
    results, times = [], []
    start = time.perf_counter()
    while len(results) < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        try:
            res = estimate(pwrd, replace(sc, seed=batch_seed(seed, len(results))), BATCH, 1)
        except pwrd.PwrdError as exc:
            res = exc
        times.append(time.perf_counter() - t)
        results.append(res)
        reference.kernel("power")

    problems, failed = [], 0
    for b, res in enumerate(results):
        if isinstance(res, Exception):
            problems.append(f"batch {b}: {type(res).__name__}: {res}")
            failed += BATCH
            continue
        failed += len({rep for rep, _, _ in res.failures})
        if any(not 0.0 <= c.rejection_rate <= 1.0 for c in res.cells):
            problems.append(f"batch {b}: rejection rate out of range")
    pooled = estimate(pwrd, replace(sc, seed=batch_seed(seed, 0)), BATCH, 2)
    same = not isinstance(results[0], Exception) and power_cells(pooled) == power_cells(results[0])
    if not same:
        problems.append("2-worker cells differ from 1-worker cells on batch 0")
    reps = BATCH * len(results)
    report = {
        "reps_per_s": {"value": BATCH / statistics.median(times), "unit": "1/s", "reps": reps},
        "batch_s": {"p50": statistics.median(times), "max": max(times), "n": len(times), "unit": "s"},
        "workers_2_agree": same,
        "failed_frac": failed / reps,
    }
    return reps, BATCH / statistics.median(times), failed, problems, report


def run_analyze(state: dict, seed: int, seconds: float, work: Path):
    """The analyst's session: each estimator on each CSV, at least once each.

    The sizes alternate, so a session cut at any call is balanced between them.
    """
    pwrd, panels, reference = state["pwrd"], state["panels"], state["reference"]
    cycle = [(variant, size) for variant in ANALYZE_VARIANTS for size in panels]
    calls = []
    start = time.perf_counter()
    while len(calls) < len(cycle) or time.perf_counter() - start < seconds:
        variant, size = cycle[len(calls) % len(cycle)]
        path = panels[size][0]
        wall, proc = run_python(
            ["-m", "pwrd.cli", "analyze", str(path), *ANALYZE_VARIANTS[variant]], work
        )
        calls.append((variant, size, wall, proc))
        reference.process("analyze")
    elapsed = time.perf_counter() - start

    sigma = {}
    for size, (_, panel) in panels.items():
        effects = pwrd.estimate_effects_diffmeans(panel)
        sigma[size] = pwrd.cluster_covariance(panel, effects, variant="cr2").sigma_hat
    problems, failed = [], 0
    for variant, size, _, proc in calls:
        found = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
        if not found:
            try:
                payload = json.loads(proc.stdout)
                found = checks.check_analyze_payload(payload, variant.split("_")[0], sigma[size])
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable JSON: {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems += [f"{variant} {size}: {p}" for p in found]

    walls = {size: [wall for _, s, wall, _ in calls if s == size] for size in panels}
    medians = {size: statistics.median(w) for size, w in walls.items()}
    report = {
        **{
            f"analyze_{size}_s": {"value": medians[size], "unit": "s", "n": len(w)}
            for size, w in walls.items()
        },
        "session_s": elapsed,
        "calls": [{"call": v, "size": s, "s": wall, "exit": p.returncode} for v, s, wall, p in calls],
        "failed_frac": failed / len(calls),
    }
    # Calls per second of a median call at each size, in equal numbers.
    return len(calls), len(panels) / sum(medians.values()), failed, problems, report


def run_simulate(state: dict, seed: int, seconds: float, work: Path):
    """Cold `pwrd simulate` calls, one fresh process per preset."""
    pwrd, reference = state["pwrd"], state["reference"]
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        for preset, (flags, _) in SIMULATE_PRESETS.items():
            out = work / f"{preset}-{len(calls)}.csv"
            wall, proc = run_python(
                ["-m", "pwrd.cli", "simulate", *flags, "--seed", str(seed), "--out", str(out)], work
            )
            calls.append((preset, out, wall, proc))
            reference.process("simulate")
    elapsed = time.perf_counter() - start

    problems, failed, devs = [], 0, []
    for preset, out, _, proc in calls:
        found = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
        if not found:
            try:
                found, manifest = checks.check_simulate_output(out)
                config = manifest["config"]
                thresholds = {int(g): v for g, v in config["thresholds"].items()}
            except (OSError, ValueError, KeyError) as exc:
                found, thresholds = [f"unreadable output: {type(exc).__name__}: {exc}"], None
        if not found:
            shell = design(pwrd, preset, config["icc"])
            dev = checks.profile_deviation(pwrd, shell, thresholds, SIMULATE_PRESETS[preset][1])
            devs.append(dev)
            if not dev <= checks.CALIBRATION_TOL:
                found.append(f"test-in profile misses its targets by {dev:.4f}")
        if found:
            failed += 1
            problems += [f"{preset}: {p}" for p in found]
    medians = {
        p: statistics.median(wall for q, _, wall, _ in calls if q == p) for p in SIMULATE_PRESETS
    }
    mixes = len(calls) // len(SIMULATE_PRESETS)
    report = {
        "simulate_total_s": {"value": sum(medians.values()), "unit": "s", "mixes": mixes},
        "session_s": elapsed,
        **{f"simulate_{p}_s": {"value": m, "unit": "s"} for p, m in medians.items()},
        "calib_max_dev": {"value": max(devs, default=None), "unit": "share"},
        "calls": [{"preset": p, "s": wall, "exit": proc.returncode} for p, _, wall, proc in calls],
        "failed_frac": failed / len(calls),
    }
    # Calls per second of a median call of each preset, in equal numbers.
    return len(calls), len(medians) / sum(medians.values()), failed, problems, report


def run(workload: str, state: dict, root: Path, seed: int, seconds: float, work: Path):
    pwrd, reference = state["pwrd"], state["reference"]
    runner, nominal_s = {
        "power": (run_power, KERNEL_NOMINAL_S),
        "analyze": (run_analyze, PROCESS_NOMINAL_S),
        "simulate": (run_simulate, PROCESS_NOMINAL_S),
    }[workload]
    ops, raw_ops_per_s, failed, problems, report = runner(state, seed, seconds, work)
    slowdown = reference.slowdown(workload, nominal_s)
    ops_per_s = raw_ops_per_s * slowdown
    imports = state["import_samples"]
    report["import_s"] = {"value": statistics.median(imports), "unit": "s", "n": len(imports)}
    report["ops_per_s_raw"] = raw_ops_per_s
    report["reference"] = {
        **reference.report(),
        "slowdown": {"setup": reference.slowdown("setup", PROCESS_NOMINAL_S), workload: slowdown},
    }
    problems += checks.check_oracle_weights(pwrd, root)
    report["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
    }
    return result, report
