"""The analysis engine: the one analysis that ``pwrd analyze`` and every
Monte Carlo replicate run, and the power studies built on it.

The Monte Carlo loop draws replicates one at a time from ``simulate``'s
generator, and hands the (replicate, level) panels of ``REPLICATE_BATCH``
replicates to one analysis (``_analyze_panels``). Each panel sums its own
rows; every computation below the rows carries a leading replicate axis,
so a stage runs once per batch rather than once per panel. The weight
solve and the t tails stay one call per panel. ``pwrd analyze`` and the
public per-replicate functions run the same stages on one panel, and a
panel's results do not depend on the batch it was analyzed in.

This module loads every estimator (``effects``, ``covariance``,
``weights``, ``mixed``); ``simulate`` loads none, so ``import pwrd`` and
``pwrd simulate`` do not compile them. Only ``estimate_power`` with more
than one worker imports the process pool, so the commands that run no
pool load neither ``concurrent.futures.process`` nor ``multiprocessing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .covariance import covariances, satterthwaite_dfs
from .effects import estimate_p0, exit_estimates, group_effects
from .errors import DegenerateDataError, InputError, PwrdError, attempt, one
from .mixed import fits_random_intercept
from .panel import PanelDataset
from .simulate import (
    Scenario, apply_effect, calibrate_thresholds, expected_testin_profile, generate_panel,
)
from .tails import DF_RULES, METHODS, VARIANTS
from .weights import aggregate_tests, flat_weights, pwrd_weights

# The largest share of a power cell's replicates that may fail before a run is refused.
MAX_EXCLUSION_FRACTION = 0.02
# Replicates whose (replicate, level) panels one analysis takes at a time.
REPLICATE_BATCH = 16


def _check_analysis(methods: tuple[str, ...], cov_variant: str, df_rule: str) -> None:
    """Refuse what no replicate could analyze: Satterthwaite df need CR2."""
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method '{m}'")
    if cov_variant not in VARIANTS:
        raise InputError(f"cov_variant must be one of {VARIANTS}")
    if df_rule not in DF_RULES:
        raise InputError(f"df_rule must be one of {DF_RULES}")
    if df_rule == "satterthwaite" and cov_variant != "cr2":
        raise InputError("Satterthwaite degrees of freedom require the cr2 variant")


def _distinct(name: str, values) -> tuple:
    """``values`` as a tuple, refused unless nonempty and free of repeats:
    an empty list would run nothing, and a repeat would run a cell twice."""
    values = tuple(values)
    if not values or len(set(values)) < len(values):
        raise InputError(f"{name} must be nonempty and without repeats, got {values}")
    return values


def _analyze_panels(
    panels,
    methods: tuple[str, ...],
    cov_variant: str,
    df_rule: str,
    alternative: str = "greater",
    covariates: tuple[str, ...] = (),
    ridge: bool = False,
    delta0: float | None = None,
) -> list:
    """The analysis of ``pwrd analyze`` and of every Monte Carlo replicate,
    on a list of panels at once.

    Each panel's entry maps each requested method to its p-value and what
    it computed: (effects, covariance, p0, weights, test) for pwrd and
    flat, which share the effects and their sandwich; the fit, on
    ``covariates`` or else grade, for mixed; and the estimate for exit.
    Nonempty ``covariates`` make the pwrd, flat and exit contrasts
    Peters-Belson's on them; empty, they are differences in means. A
    panel that a stage refuses gets that stage's package error instead,
    the first one in the order above, and later stages skip it.

    Each stage runs once over the panels still standing: each panel sums
    its own rows, and what lies below the rows (contrasts, sandwiches,
    degrees of freedom, test variances, the mixed fit's GLS and CR2 meat)
    is one computation per stack of panels that share a layout. The weight
    solve and the t tail are one call per panel. A panel's results do not
    depend on which panels share its list.
    """
    _check_analysis(methods, cov_variant, df_rule)
    errors: list = [None] * len(panels)
    out: list[dict] = [{} for _ in panels]

    def stage(compute, idx) -> dict:
        """``compute`` on the panels of ``idx`` not yet refused, one result
        each; the errors are recorded and the rest returned by panel."""
        idx = [i for i in idx if errors[i] is None]
        done = {}
        for i, found in zip(idx, compute(idx) if idx else ()):
            if isinstance(found, PwrdError):
                errors[i] = found
            else:
                done[i] = found
        return done

    def each(compute, idx) -> dict:
        return stage(lambda live: [attempt(lambda: compute(i)) for i in live], idx)

    every = range(len(panels))
    if "pwrd" in methods or "flat" in methods:
        effects = stage(lambda idx: group_effects([panels[i] for i in idx], covariates), every)
        covs = stage(lambda idx: covariances([effects[i] for i in idx], cov_variant), effects)
        # flat reads no flags; Peters-Belson drops groups with too few control rows
        wanted = [i for i in covs if "pwrd" in methods or panels[i].tested_in is not None]
        p0 = each(lambda i: estimate_p0(panels[i]).on_groups(effects[i].groups), wanted)
    for m in ("pwrd", "flat"):
        if m not in methods:
            continue
        if m == "pwrd":
            w = each(lambda i: pwrd_weights(covs[i], p0[i], ridge=ridge), covs)
        else:  # the group sizes, so the table's counts, fix the flat weights
            w = each(lambda i: effects[i].cells.counts.get(
                "flat weights", lambda: flat_weights(effects[i])), covs)
        dfs = dict.fromkeys(w)
        if df_rule == "satterthwaite":
            dfs = stage(lambda idx: satterthwaite_dfs(
                [effects[i] for i in idx], [w[i].omega for i in idx]), w)
        tests = stage(lambda idx: aggregate_tests(
            [(effects[i], covs[i], w[i], dfs[i]) for i in idx], delta0, alternative), dfs)
        for i, test in tests.items():
            out[i][m] = (test.p_value, (effects[i], covs[i], p0.get(i), w[i], test))
    if "mixed" in methods:
        fit_on = covariates or ("grade",)
        fits = stage(lambda idx: fits_random_intercept(
            [panels[i] for i in idx], fit_on, cov_variant), every)
        for i, p in each(lambda i: fits[i].p_value(alternative), fits).items():
            out[i]["mixed"] = (p, fits[i])
    if "exit" in methods:
        exits = stage(lambda idx: exit_estimates(
            [panels[i] for i in idx], covariates, cov_variant), every)
        for i, p in each(lambda i: exits[i].p_value(alternative), exits).items():
            out[i]["exit"] = (p, exits[i])
    return [found if found is not None else res for found, res in zip(errors, out)]


def _analyze(panel: PanelDataset, *args, **kwargs) -> dict[str, tuple[float, Any]]:
    """``_analyze_panels`` of one panel, raising the error that refuses it."""
    return one(_analyze_panels([panel], *args, **kwargs))


def analyze_replicate(
    panel: PanelDataset,
    methods: tuple[str, ...],
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    df_rule: str = "clusters-2",
) -> dict[str, bool]:
    """One-sided rejection indicator for each requested method."""
    return {m: p <= alpha for m, (p, _) in _analyze(panel, methods, cov_variant, df_rule).items()}


@dataclass(frozen=True)
class PowerCell:
    """Rejection rate for one (method, effect level) combination."""

    method: str
    regime: str
    effect_level: float
    icc: float
    p_spill: float
    rejection_rate: float
    mc_se: float
    n_reps: int
    alpha: float
    n_excluded: int = 0

    def to_row(self, seed: int) -> dict:
        return {
            "method": self.method,
            "regime": self.regime,
            "effect_level": self.effect_level,
            "icc": self.icc,
            "p_spill": self.p_spill,
            "power": self.rejection_rate,
            "mc_se": self.mc_se,
            "n_reps": self.n_reps,
            "seed": seed,
        }


@dataclass(frozen=True, eq=False)
class PowerResult:
    """All cells from one power run plus the failures that were excluded."""

    cells: tuple[PowerCell, ...]
    seed: int
    failures: tuple[tuple[int, float, str], ...] = ()

    def cell(self, method: str, effect_level: float | None = None) -> PowerCell:
        for c in self.cells:
            if c.method == method and (
                effect_level is None or c.effect_level == effect_level
            ):
                return c
        raise KeyError((method, effect_level))

    def to_rows(self) -> list[dict]:
        return [c.to_row(self.seed) for c in self.cells]


def _run_chunk(
    scenario: Scenario,
    levels: tuple[float, ...],
    reps: tuple[int, ...],
    methods: tuple[str, ...],
    alpha: float,
    cov_variant: str,
    df_rule: str,
) -> tuple[np.ndarray, list[tuple[int, float, str]]]:
    """Rejections per (replicate, level, method), 1 or 0, or -1 where the
    replicate failed at that level; and the failures.

    Replicates are drawn and their effects applied one at a time, and the
    (replicate, level) panels of each ``REPLICATE_BATCH`` replicates are
    analyzed together (``_analyze_panels``).
    """
    hits = np.full((len(reps), len(levels), len(methods)), -1, dtype=np.int8)
    excluded: list[tuple[int, float, str]] = []
    specs = [scenario.effect.with_level(lv) for lv in levels]
    for start in range(0, len(reps), REPLICATE_BATCH):
        keys, panels = [], []
        for i, rep in enumerate(reps[start : start + REPLICATE_BATCH], start):
            base = generate_panel(scenario, rep)
            for j, spec in enumerate(specs):
                panel = attempt(lambda: apply_effect(base, spec, rep))
                if isinstance(panel, PwrdError):
                    excluded.append((rep, levels[j], f"{type(panel).__name__}: {panel}"))
                    continue
                keys.append((i, j))
                panels.append(panel)
        found = _analyze_panels(panels, methods, cov_variant, df_rule)
        for (i, j), res in zip(keys, found):
            if isinstance(res, PwrdError):
                excluded.append((reps[i], levels[j], f"{type(res).__name__}: {res}"))
            else:
                hits[i, j] = [res[m][0] <= alpha for m in methods]
    return hits, excluded


def estimate_power(
    scenario: Scenario,
    methods: tuple[str, ...] = ("pwrd", "flat", "mixed"),
    effect_levels: tuple[float, ...] | None = None,
    n_reps: int = 1000,
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    df_rule: str = "clusters-2",
    workers: int = 1,
) -> PowerResult:
    """Monte Carlo rejection rates, one cell per method and effect level.

    Every replicate runs each method's full estimation pipeline. A
    replicate that raises a package error is excluded from that cell's
    denominator and recorded; a run whose exclusions exceed
    ``MAX_EXCLUSION_FRACTION`` of its replicates fails outright.
    """
    # checked up front: inside a replicate the error would only exclude it
    _check_analysis(_distinct("methods", methods), cov_variant, df_rule)
    if not 0 < alpha < 1:
        raise InputError("alpha must lie in (0, 1)")
    if n_reps < 1:
        raise InputError("n_reps must be positive")
    if workers < 1:
        raise InputError(f"workers must be positive, got {workers}")
    levels = (
        tuple(float(v) for v in effect_levels)
        if effect_levels is not None
        else (scenario.effect.tau,)
    )
    if not all(map(math.isfinite, levels)):
        raise InputError(f"effect levels must be finite, got {levels}")
    _distinct("effect levels", levels)
    if scenario.effect.regime == "null" and any(levels):
        raise InputError(f"the null regime has no effect size, got effect levels {levels}")

    all_reps = tuple(range(n_reps))
    if workers == 1:
        chunks = [
            _run_chunk(scenario, levels, all_reps, methods, alpha, cov_variant, df_rule)
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor

        per = max(1, (n_reps + workers * 4 - 1) // (workers * 4))
        parts = [all_reps[i : i + per] for i in range(0, n_reps, per)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_chunk, scenario, levels, part, methods, alpha, cov_variant, df_rule
                )
                for part in parts
            ]
            chunks = [f.result() for f in futures]

    # chunks cover the replicates in order, so rows are replicates
    hits = np.concatenate([chunk_hits for chunk_hits, _ in chunks])
    failures = sorted(f for _, excluded in chunks for f in excluded)
    cells = []
    for j, lv in enumerate(levels):
        for k, m in enumerate(methods):
            col = hits[:, j, k]
            used = col >= 0
            n_used = int(used.sum())
            n_excl = n_reps - n_used
            if n_excl > MAX_EXCLUSION_FRACTION * n_reps:
                raise DegenerateDataError(
                    f"{n_excl} of {n_reps} replicates failed for method '{m}' "
                    f"at effect level {lv}; run is unreliable"
                )
            if n_used == 0:
                raise DegenerateDataError("no usable replicates")
            rate = float(col[used].mean())
            cells.append(
                PowerCell(
                    method=m,
                    regime=scenario.effect.regime,
                    effect_level=lv,
                    icc=scenario.icc,
                    p_spill=scenario.effect.spill_fraction,
                    rejection_rate=rate,
                    mc_se=float(np.sqrt(rate * (1.0 - rate) / n_used)),
                    n_reps=n_used,
                    alpha=alpha,
                    n_excluded=n_excl,
                )
            )
    return PowerResult(cells=tuple(cells), seed=scenario.seed, failures=tuple(failures))


def icc_sweep(
    scenario: Scenario, icc_grid: tuple[float, ...], n_reps: int = 1000, workers: int = 1
) -> PowerResult:
    """Power across intraclass correlations, total variance held fixed.

    Thresholds are recalibrated at every grid point so the test-in profile
    stays at the scenario's own, and only the correlation structure moves.
    """
    icc_grid = _distinct("icc_grid", icc_grid)
    targets = {k: round(v, 10) for k, v in expected_testin_profile(scenario).items()}
    scenarios = (
        sc.with_thresholds(calibrate_thresholds(sc, targets))
        for sc in map(scenario.with_icc, icc_grid)
    )
    return _sweep(scenario.seed, scenarios, n_reps, workers)


def negative_effect_sweep(
    scenario: Scenario, spill_grid: tuple[float, ...], n_reps: int = 1000, workers: int = 1
) -> PowerResult:
    """Power across spillover fractions at a fixed positive effect size.

    A zero spillover fraction reproduces the pure flagged-only effect with
    the same seeds, bit for bit.
    """
    if scenario.effect.regime != "effect2":
        raise InputError("negative effect sweep requires an effect2 scenario")
    spill_grid = _distinct("spill_grid", spill_grid)
    scenarios = (
        replace(scenario, effect=replace(scenario.effect, spill_fraction=float(sp)))
        for sp in spill_grid
    )
    return _sweep(scenario.seed, scenarios, n_reps, workers)


def _sweep(seed: int, scenarios, n_reps: int, workers: int) -> PowerResult:
    """The cells and failures of ``estimate_power`` on each scenario in turn."""
    cells: list[PowerCell] = []
    failures: list[tuple[int, float, str]] = []
    for sc in scenarios:
        res = estimate_power(sc, n_reps=n_reps, workers=workers)
        cells.extend(res.cells)
        failures.extend(res.failures)
    return PowerResult(cells=tuple(cells), seed=seed, failures=tuple(failures))
