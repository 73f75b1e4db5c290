"""Monte Carlo engine for power comparisons on synthetic trial panels.

The generator mirrors a staggered-entry cluster randomized trial. Clusters
are paired into blocks and one member of each pair is randomized to
treatment. Units enter in cohorts at configurable grades, progress one
grade per year, and exit at a terminal grade or when the study ends. The
outcome is a grade trend plus a cluster random intercept plus independent
noise. A unit tests in the first year its outcome falls below the cutoff
for its grade, and the flag persists afterward.

Treatment effects are injected after flagging, on the untreated outcome:

* ``effect1`` adds a constant to flagged treated observations.
* ``effect2`` additionally subtracts a fraction of that constant from
  unflagged treated observations.
* ``effect3`` adds an independent normal draw to every treated
  observation, with variance proportional to its mean.
* ``null`` changes nothing.

Replicate streams are keyed by (seed, replicate, stage) so results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .covariance import VARIANTS, cluster_covariance, satterthwaite_df
from .effects import estimate_effects_diffmeans, estimate_p0, exit_observation_estimate
from .errors import DegenerateDataError, InputError, NumericalError, PwrdError
from .mixed import fit_random_intercept
from .panel import PanelDataset
from .weights import aggregate_test, flat_weights, pwrd_weights, t_p_value

DEFAULT_TESTIN_TARGETS = {1: 0.383, 2: 0.543, 3: 0.611, 4: 0.694}
# Every year at or below one half flagged: with full negative spillover the
# imposed shift is then nonpositive in every group and no method retains power.
SPILLOVER_TESTIN_TARGETS = {1: 0.18, 2: 0.32, 3: 0.40, 4: 0.44}
EFFECT3_DISPERSION = 2.5
METHODS = ("pwrd", "flat", "mixed", "exit")
REGIMES = ("effect1", "effect2", "effect3", "null")

_STAGE_ASSIGN = 0
_STAGE_CLUSTER = 1
_STAGE_NOISE = 2
_STAGE_EFFECT = 3


def _rng(seed: int, replicate: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(replicate, stage))
    )


@dataclass(frozen=True)
class CohortSpec:
    """One entering cohort: entry year, grades at entry, units per grade."""

    cohort: int
    entry_year: int
    entry_grades: tuple[int, ...]
    units_per_grade: int

    def __post_init__(self) -> None:
        if self.entry_year < 1:
            raise InputError("entry_year must be at least 1")
        if self.units_per_grade < 1:
            raise InputError("units_per_grade must be at least 1")
        if not self.entry_grades:
            raise InputError("entry_grades must be nonempty")


@dataclass(frozen=True)
class EffectSpec:
    """Effect regime and its magnitude knobs.

    ``tau`` is the constant added under effect1 and effect2.
    ``spill_fraction`` scales the negative spillover under effect2.
    ``effect_mean`` is the mean of the per-observation draw under effect3;
    its variance is 2.5 times the mean, or, with ``dispersion_is_sd``,
    its standard deviation is 2.5 times the mean.
    ``defer_onset`` delays effect1/effect2 onset to the year after a unit
    first tests in.
    """

    regime: str
    tau: float = 0.0
    spill_fraction: float = 0.0
    effect_mean: float = 0.0
    dispersion_is_sd: bool = False
    defer_onset: bool = False

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise InputError(f"regime must be one of {REGIMES}")
        if self.tau < 0:
            raise InputError("tau must be nonnegative")
        if not 0.0 <= self.spill_fraction <= 1.0:
            raise InputError("spill_fraction must lie in [0, 1]")
        if self.regime == "effect3" and self.effect_mean < 0:
            raise InputError("effect_mean must be nonnegative")

    def level(self) -> float:
        if self.regime == "effect3":
            return self.effect_mean
        if self.regime == "null":
            return 0.0
        return self.tau

    def with_level(self, level: float) -> "EffectSpec":
        if self.regime == "effect3":
            return replace(self, effect_mean=float(level))
        if self.regime == "null":
            return self
        return replace(self, tau=float(level))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulated trial design."""

    n_clusters: int
    cohorts: tuple[CohortSpec, ...]
    thresholds: tuple[tuple[int, float], ...]
    effect: EffectSpec
    seed: int
    beta0: float = 100.0
    beta1: float = 10.0
    sigma2_eps: float = 180.0
    sigma2_mu: float = 45.0
    exit_grade: int = 3
    n_years: int = 4

    def __post_init__(self) -> None:
        if self.n_clusters < 4:
            raise InputError("need at least 4 clusters")
        if self.n_clusters % 2:
            warnings.warn(
                "odd cluster count: the last cluster forms a singleton block",
                RuntimeWarning,
            )
        if self.sigma2_eps <= 0 or self.sigma2_mu < 0:
            raise InputError("variance components must be positive noise, nonnegative cluster")
        if not self.cohorts:
            raise InputError("at least one cohort is required")
        if not (0 <= self.seed < 2**64):
            raise InputError("seed must fit in 64 bits")

    @property
    def icc(self) -> float:
        return self.sigma2_mu / (self.sigma2_mu + self.sigma2_eps)

    @property
    def threshold_map(self) -> dict[int, float]:
        return dict(self.thresholds)

    def with_thresholds(self, thresholds: dict[int, float]) -> "Scenario":
        return replace(self, thresholds=tuple(sorted(thresholds.items())))

    def with_icc(self, icc: float) -> "Scenario":
        """Same design at a different intraclass correlation, total variance held fixed."""
        if not 0.0 <= icc < 1.0:
            raise InputError("icc must lie in [0, 1)")
        total = self.sigma2_eps + self.sigma2_mu
        return replace(self, sigma2_mu=icc * total, sigma2_eps=(1.0 - icc) * total)


@dataclass(frozen=True)
class _Track:
    cohort: int
    entry_grade: int
    n_years: int
    units_per_cluster: int


def _tracks(scenario: Scenario) -> tuple[_Track, ...]:
    out = []
    for cs in scenario.cohorts:
        for eg in cs.entry_grades:
            span_grade = scenario.exit_grade - eg + 1
            span_study = scenario.n_years - cs.entry_year + 1
            T = min(span_grade, span_study)
            if T < 1:
                continue
            out.append(_Track(cs.cohort, eg, T, cs.units_per_grade))
    if not out:
        raise InputError("cohort design yields no observable tracks")
    return tuple(out)


class _Frame:
    """Static row layout shared by every replicate of a scenario shape."""

    def __init__(self, n_clusters: int, tracks: tuple[_Track, ...]):
        self.n_clusters = n_clusters
        self.tracks = tracks
        unit_parts, cluster_parts, cohort_parts = [], [], []
        grade_parts, year_parts, exit_parts = [], [], []
        self.track_slices: list[tuple[int, int, int]] = []
        next_unit = 0
        pos = 0
        for tr in tracks:
            n_units = n_clusters * tr.units_per_cluster
            T = tr.n_years
            units = np.arange(next_unit, next_unit + n_units)
            next_unit += n_units
            unit_parts.append(np.repeat(units, T))
            clusters = np.repeat(np.arange(n_clusters), tr.units_per_cluster)
            cluster_parts.append(np.repeat(clusters, T))
            cohort_parts.append(np.full(n_units * T, tr.cohort))
            years = np.tile(np.arange(1, T + 1), n_units)
            year_parts.append(years)
            grade_parts.append(tr.entry_grade + years - 1)
            exit_parts.append(years == T)
            self.track_slices.append((pos, n_units, T))
            pos += n_units * T

        self.unit = np.concatenate(unit_parts)
        self.cluster = np.concatenate(cluster_parts)
        self.cohort = np.concatenate(cohort_parts)
        self.grade = np.concatenate(grade_parts)
        self.year = np.concatenate(year_parts)
        self.exit = np.concatenate(exit_parts)
        self.n_obs = len(self.unit)
        self.n_units = next_unit
        self.block_by_cluster = np.arange(n_clusters) // 2
        self.n_blocks = int(self.block_by_cluster.max()) + 1
        self.block = self.block_by_cluster[self.cluster]

        probe = PanelDataset(
            unit=self.unit,
            cluster=self.cluster,
            treatment=np.zeros(self.n_obs, dtype=np.int8),
            cohort=self.cohort,
            grade=self.grade,
            year=self.year,
            outcome=np.zeros(self.n_obs),
            block=self.block,
            validate=False,
        )
        self.catalog = probe.catalog
        self.group_ids = probe.group_ids


@functools.lru_cache(maxsize=32)
def _frame(n_clusters: int, tracks: tuple[_Track, ...]) -> _Frame:
    return _Frame(n_clusters, tracks)


def _threshold_row(scenario: Scenario, frame: _Frame) -> np.ndarray:
    thr = scenario.threshold_map
    grades = sorted(set(frame.grade.tolist()))
    missing = [g for g in grades if g not in thr]
    if missing:
        raise InputError(f"thresholds missing for grades {missing}")
    vec = np.zeros(max(grades) + 1)
    for g, v in thr.items():
        if 0 <= g <= max(grades):
            vec[g] = v
    return vec[frame.grade]


def generate_panel(scenario: Scenario, replicate_index: int = 0) -> PanelDataset:
    """Draw one replicate panel under the null (no effect applied).

    Flags are derived from the untreated outcome, so effect injection
    never changes who tests in.
    """
    frame = _frame(scenario.n_clusters, _tracks(scenario))
    C = scenario.n_clusters

    coins = _rng(scenario.seed, replicate_index, _STAGE_ASSIGN).integers(0, 2, frame.n_blocks)
    z_cluster = np.zeros(C, dtype=np.int8)
    for b in range(frame.n_blocks):
        members = np.flatnonzero(frame.block_by_cluster == b)
        if len(members) == 2:
            z_cluster[members[coins[b]]] = 1
        else:
            z_cluster[members[0]] = coins[b]

    mu = _rng(scenario.seed, replicate_index, _STAGE_CLUSTER).normal(
        0.0, np.sqrt(scenario.sigma2_mu), C
    )
    eps = _rng(scenario.seed, replicate_index, _STAGE_NOISE).normal(
        0.0, np.sqrt(scenario.sigma2_eps), frame.n_obs
    )
    y = scenario.beta0 + scenario.beta1 * frame.grade + mu[frame.cluster] + eps

    below = y < _threshold_row(scenario, frame)
    flags = np.empty(frame.n_obs, dtype=np.int8)
    for start, n_units, T in frame.track_slices:
        blk = below[start : start + n_units * T].reshape(n_units, T)
        flags[start : start + n_units * T] = np.maximum.accumulate(blk, axis=1).reshape(-1)

    return PanelDataset(
        unit=frame.unit,
        cluster=frame.cluster,
        treatment=z_cluster[frame.cluster],
        cohort=frame.cohort,
        grade=frame.grade,
        year=frame.year,
        outcome=y,
        tested_in=flags,
        block=frame.block,
        meta={"seed": scenario.seed, "replicate": replicate_index},
        validate=False,
        _catalog=frame.catalog,
        _group_ids=frame.group_ids,
    )


def _flag_previous_year(panel: PanelDataset) -> np.ndarray:
    """Flag value at each unit's previous observation, 0 for the first."""
    order = np.lexsort((panel.year, panel.unit))
    f = panel.tested_in[order]
    prev = np.zeros_like(f)
    same = panel.unit[order][1:] == panel.unit[order][:-1]
    prev[1:][same] = f[:-1][same]
    out = np.empty_like(prev)
    out[order] = prev
    return out


def apply_effect(
    panel: PanelDataset,
    spec: EffectSpec,
    replicate_index: int | None = None,
    seed: int | None = None,
) -> PanelDataset:
    """Inject the treatment effect into an already generated panel.

    Effect3 draws come from a stream keyed by (seed, replicate, stage); the
    seed and replicate default to the ones recorded by ``generate_panel``.
    """
    if spec.regime == "null":
        return panel
    z = panel.treatment.astype(bool)

    if spec.regime in ("effect1", "effect2"):
        if panel.tested_in is None:
            raise DegenerateDataError("flag-driven effects need test-in flags")
        if spec.tau == 0 and (spec.regime == "effect1" or spec.spill_fraction == 0):
            return panel
        flagged = panel.tested_in.astype(bool)
        if spec.defer_onset:
            flagged = _flag_previous_year(panel).astype(bool)
        y = panel.outcome.copy()
        y[z & flagged] += spec.tau
        if spec.regime == "effect2" and spec.spill_fraction > 0:
            y[z & ~flagged] -= spec.spill_fraction * spec.tau
            imposed = spec.tau * int((z & flagged).sum()) - spec.spill_fraction * spec.tau * int(
                (z & ~flagged).sum()
            )
            if imposed <= 0:
                warnings.warn(
                    "aggregate imposed effect is not positive; proceeding", RuntimeWarning
                )
        return panel.with_outcome(y)

    # effect3
    if spec.effect_mean == 0:
        return panel
    if seed is None:
        seed = panel.meta.get("seed")
    if replicate_index is None:
        replicate_index = panel.meta.get("replicate")
    if seed is None or replicate_index is None:
        raise InputError("effect3 needs a seed and replicate index")
    spread = EFFECT3_DISPERSION * spec.effect_mean
    sd = spread if spec.dispersion_is_sd else np.sqrt(spread)
    draws = _rng(int(seed), int(replicate_index), _STAGE_EFFECT).normal(
        spec.effect_mean, sd, int(z.sum())
    )
    y = panel.outcome.copy()
    y[z] += draws
    return panel.with_outcome(y)


# ----------------------------------------------------------------------
# analytic test-in machinery

_GH_NODES = 96


@functools.lru_cache(maxsize=4)
def _gh_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w / np.sqrt(np.pi)


def _survival_by_year(
    scenario: Scenario, track: _Track, thresholds: dict[int, float]
) -> np.ndarray:
    """P(not yet tested in by each year) for one track, averaged over clusters."""
    x, wnorm = _gh_rule(_GH_NODES)
    mu = np.sqrt(2.0 * scenario.sigma2_mu) * x
    sd = np.sqrt(scenario.sigma2_eps)
    surv = np.ones(len(x))
    out = np.empty(track.n_years)
    for j in range(track.n_years):
        g = track.entry_grade + j
        cut = thresholds.get(g)
        if cut is None:
            raise InputError(f"no threshold for grade {g}")
        zscore = (cut - scenario.beta0 - scenario.beta1 * g - mu) / sd
        surv = surv * special.ndtr(-zscore)
        out[j] = float(wnorm @ surv)
    return out


def expected_group_testin(
    scenario: Scenario, thresholds: dict[int, float] | None = None
) -> np.ndarray:
    """Exact control test-in proportion per catalog group."""
    thr = thresholds if thresholds is not None else scenario.threshold_map
    frame = _frame(scenario.n_clusters, _tracks(scenario))
    by_track = {
        (tr.cohort, tr.entry_grade): 1.0 - _survival_by_year(scenario, tr, thr)
        for tr in _tracks(scenario)
    }
    out = np.empty(len(frame.catalog))
    for gi in frame.catalog:
        out[gi.g] = by_track[(gi.cohort, gi.entry_grade)][gi.follow_up_year - 1]
    return out


def expected_testin_profile(
    scenario: Scenario, thresholds: dict[int, float] | None = None
) -> dict[int, float]:
    """Exact test-in proportion by participation year, pooled over tracks."""
    thr = thresholds if thresholds is not None else scenario.threshold_map
    tracks = _tracks(scenario)
    flagged = {tr: 1.0 - _survival_by_year(scenario, tr, thr) for tr in tracks}
    out = {}
    for k in range(1, max(tr.n_years for tr in tracks) + 1):
        num = den = 0.0
        for tr in tracks:
            if tr.n_years >= k:
                num += tr.units_per_cluster * flagged[tr][k - 1]
                den += tr.units_per_cluster
        out[k] = num / den
    return out


def calibrate_thresholds(
    scenario: Scenario,
    targets: dict[int, float] | None = None,
    rounds: int = 30,
    tol: float = 0.02,
) -> dict[int, float]:
    """Per-grade cutoffs hitting a test-in profile by participation year.

    Cycles over participation years, bisecting the cutoff for the grade a
    first-year-entry unit would occupy at that participation year (grade
    k - 1 for year k). When every track enters at the same grade this is
    triangular and converges to machine precision. Staggered entry grades
    couple the equations and an exact joint root need not exist; in that
    case the bisection result is refined by least squares and a direct
    search on the worst deviation, and the best attainable profile is
    accepted as long as its worst deviation stays within ``tol``. The
    profile is computed exactly by quadrature, so no simulation noise
    enters the calibration.
    """
    targets = dict(targets) if targets is not None else dict(DEFAULT_TESTIN_TARGETS)
    # the profile is invariant to cluster count, effect, and seed
    key = replace(
        scenario, n_clusters=4, thresholds=(), effect=EffectSpec("null"), seed=0
    )
    return dict(_calibrate_cached(key, tuple(sorted(targets.items())), rounds, tol))


@functools.lru_cache(maxsize=64)
def _calibrate_cached(
    scenario: Scenario, target_items: tuple[tuple[int, float], ...], rounds: int, tol: float
) -> tuple[tuple[int, float], ...]:
    thr = _calibrate_impl(scenario, dict(target_items), rounds, tol)
    return tuple(sorted(thr.items()))


def _calibrate_impl(
    scenario: Scenario, targets: dict[int, float], rounds: int, tol: float
) -> dict[int, float]:
    tracks = _tracks(scenario)
    grades = sorted({tr.entry_grade + j for tr in tracks for j in range(tr.n_years)})
    for k in targets:
        if (k - 1) not in grades:
            raise InputError(
                f"cannot calibrate year {k}: no track occupies grade {k - 1}"
            )
        if not 0.0 < targets[k] < 1.0:
            raise InputError("targets must lie strictly between 0 and 1")

    total_sd = np.sqrt(scenario.sigma2_eps + scenario.sigma2_mu)
    years = sorted(targets)
    knobs = [k - 1 for k in years]
    thr = {
        g: scenario.beta0 + scenario.beta1 * g - 0.3 * total_sd for g in grades
    }

    def residuals(thr_map: dict[int, float]) -> np.ndarray:
        prof = expected_testin_profile(scenario, thr_map)
        return np.asarray([prof[k] - targets[k] for k in years])

    best = dict(thr)
    best_err = float(np.abs(residuals(thr)).max())
    for _ in range(rounds):
        for k in years:
            g = k - 1
            lo = scenario.beta0 + scenario.beta1 * g - 12.0 * total_sd
            hi = scenario.beta0 + scenario.beta1 * g + 12.0 * total_sd
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                thr[g] = mid
                if expected_testin_profile(scenario, thr)[k] < targets[k]:
                    lo = mid
                else:
                    hi = mid
            thr[g] = 0.5 * (lo + hi)
        err = float(np.abs(residuals(thr)).max())
        if err >= best_err - 1e-12:
            break
        best, best_err = dict(thr), err
    if best_err < 1e-8:
        return best

    from scipy import optimize

    def from_vec(x: np.ndarray) -> dict[int, float]:
        out = dict(best)
        for g, v in zip(knobs, x):
            out[g] = float(v)
        return out

    starts = [np.asarray([best[g] for g in knobs], dtype=np.float64)]
    for shift in (-0.75, -0.3, 0.1):
        starts.append(
            np.asarray(
                [scenario.beta0 + scenario.beta1 * g + shift * total_sd for g in knobs]
            )
        )
    def minimax(x: np.ndarray) -> float:
        return float(np.abs(residuals(from_vec(x))).max())

    for x0 in starts:
        ls = optimize.least_squares(
            lambda x: residuals(from_vec(x)), x0, method="lm", xtol=1e-13, ftol=1e-13
        )
        for x1 in (x0, ls.x):
            # restarted direct search: a fresh simplex escapes the
            # degenerate collapse Nelder-Mead is prone to on minimax objectives
            for _ in range(4):
                nm = optimize.minimize(
                    x0=x1,
                    fun=minimax,
                    method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
                )
                if nm.fun >= minimax(x1) - 1e-12:
                    x1 = nm.x
                    break
                x1 = nm.x
            cand = from_vec(x1)
            err = float(np.abs(residuals(cand)).max())
            if err < best_err:
                best, best_err = cand, err

    if best_err <= tol:
        return best
    achieved = {k: expected_testin_profile(scenario, best)[k] for k in years}
    raise NumericalError(
        f"threshold calibration did not converge: achieved {achieved}, wanted {targets}"
    )


def theoretical_covariance(scenario: Scenario) -> np.ndarray:
    """Exact null covariance of the group effect vector under balanced pairs.

    Valid because every cluster carries the identical cohort layout: with
    C/2 clusters per arm, the cluster intercept contributes
    sigma2_mu * (4 / C) to every entry, and the noise adds
    sigma2_eps * 4 / n_g on the diagonal.
    """
    if scenario.n_clusters % 2:
        raise InputError("theoretical covariance requires an even cluster count")
    frame = _frame(scenario.n_clusters, _tracks(scenario))
    n_g = np.asarray([gi.n for gi in frame.catalog], dtype=np.float64)
    C = scenario.n_clusters
    G = len(n_g)
    S = np.full((G, G), scenario.sigma2_mu * 4.0 / C)
    S[np.diag_indices(G)] += scenario.sigma2_eps * 4.0 / n_g
    return S


# ----------------------------------------------------------------------
# per-replicate analysis

def analyze_replicate(
    panel: PanelDataset,
    methods: tuple[str, ...],
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    df_rule: str = "clusters-2",
) -> dict[str, bool]:
    """One-sided rejection indicator for each requested method."""
    out: dict[str, bool] = {}
    need_shared = any(m in methods for m in ("pwrd", "flat"))
    if need_shared:
        effects = estimate_effects_diffmeans(panel)
        cov = cluster_covariance(panel, effects, variant=cov_variant)
    if "pwrd" in methods:
        p0 = estimate_p0(panel)
        if p0.group_ordinals() != effects.group_ordinals():
            raise DegenerateDataError("test-in proportions cover different groups than effects")
        w = pwrd_weights(cov, p0)
        df = (
            satterthwaite_df(panel, effects, w.omega, variant=cov_variant)
            if df_rule == "satterthwaite"
            else None
        )
        test = aggregate_test(effects, cov, w, alternative="greater", df=df)
        out["pwrd"] = test.p_value <= alpha
    if "flat" in methods:
        w = flat_weights(effects)
        df = (
            satterthwaite_df(panel, effects, w.omega, variant=cov_variant)
            if df_rule == "satterthwaite"
            else None
        )
        test = aggregate_test(effects, cov, w, alternative="greater", df=df)
        out["flat"] = test.p_value <= alpha
    if "mixed" in methods:
        fit = fit_random_intercept(panel, covariates=("grade",), variant=cov_variant)
        out["mixed"] = fit.p_value("greater") <= alpha
    if "exit" in methods:
        ex = exit_observation_estimate(panel, variant=cov_variant)
        out["exit"] = t_p_value(ex.estimate / ex.se, ex.df, "greater") <= alpha
    return out


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
):
    hits = {
        (lv, m): np.zeros(len(reps), dtype=bool) for lv in levels for m in methods
    }
    excluded: list[tuple[int, float, str]] = []
    for i, rep in enumerate(reps):
        base = generate_panel(scenario, rep)
        for lv in levels:
            spec = scenario.effect.with_level(lv)
            try:
                panel = apply_effect(base, spec, rep)
                res = analyze_replicate(panel, methods, alpha, cov_variant, df_rule)
            except PwrdError as exc:
                excluded.append((rep, lv, f"{type(exc).__name__}: {exc}"))
                continue
            for m in methods:
                hits[(lv, m)][i] = res[m]
    return reps, hits, excluded


def estimate_power(
    scenario: Scenario,
    methods: tuple[str, ...] = ("pwrd", "flat", "mixed"),
    effect_levels: tuple[float, ...] | None = None,
    n_reps: int = 1000,
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    df_rule: str = "clusters-2",
    workers: int = 1,
    max_exclusion_fraction: float = 0.02,
) -> PowerResult:
    """Monte Carlo rejection rates, one cell per method and effect level.

    Every replicate runs each method's full estimation pipeline. A
    replicate that raises a package error is excluded from that cell's
    denominator and recorded; a run whose exclusions exceed the allowed
    fraction fails outright.
    """
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method '{m}'")
    if not 0 < alpha < 1:
        raise InputError("alpha must lie in (0, 1)")
    if n_reps < 1:
        raise InputError("n_reps must be positive")
    # checked up front: inside a replicate the error would only exclude it
    if cov_variant not in VARIANTS:
        raise InputError(f"cov_variant must be one of {VARIANTS}")
    levels = (
        tuple(float(v) for v in effect_levels)
        if effect_levels is not None
        else (scenario.effect.level(),)
    )

    all_reps = tuple(range(n_reps))
    if workers <= 1:
        chunks = [
            _run_chunk(scenario, levels, all_reps, methods, alpha, cov_variant, df_rule)
        ]
    else:
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

    hits = {(lv, m): np.zeros(n_reps, dtype=bool) for lv in levels for m in methods}
    used = {(lv, m): np.zeros(n_reps, dtype=bool) for lv in levels for m in methods}
    failures: list[tuple[int, float, str]] = []
    for reps, chunk_hits, excluded in chunks:
        idx = np.asarray(reps)
        bad_by_level: dict[float, set[int]] = {}
        for rep, lv, msg in excluded:
            bad_by_level.setdefault(lv, set()).add(rep)
            failures.append((rep, lv, msg))
        for (lv, m), arr in chunk_hits.items():
            hits[(lv, m)][idx] = arr
            ok = np.asarray([r not in bad_by_level.get(lv, ()) for r in reps])
            used[(lv, m)][idx] = ok

    failures.sort()
    cells = []
    for lv in levels:
        for m in methods:
            mask = used[(lv, m)]
            n_used = int(mask.sum())
            n_excl = n_reps - n_used
            if n_excl > max_exclusion_fraction * n_reps:
                raise DegenerateDataError(
                    f"{n_excl} of {n_reps} replicates failed for method '{m}' "
                    f"at effect level {lv}; run is unreliable"
                )
            if n_used == 0:
                raise DegenerateDataError("no usable replicates")
            rate = float(hits[(lv, m)][mask].mean())
            cells.append(
                PowerCell(
                    method=m,
                    regime=scenario.effect.regime,
                    effect_level=lv,
                    icc=scenario.icc,
                    p_spill=scenario.effect.spill_fraction
                    if scenario.effect.regime == "effect2"
                    else 0.0,
                    rejection_rate=rate,
                    mc_se=float(np.sqrt(rate * (1.0 - rate) / n_used)),
                    n_reps=n_used,
                    alpha=alpha,
                    n_excluded=n_excl,
                )
            )
    return PowerResult(cells=tuple(cells), seed=scenario.seed, failures=tuple(failures))


def icc_sweep(
    scenario: Scenario,
    icc_grid: tuple[float, ...],
    targets: dict[int, float] | None = None,
    methods: tuple[str, ...] = ("pwrd", "flat", "mixed"),
    n_reps: int = 1000,
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    workers: int = 1,
) -> PowerResult:
    """Power across intraclass correlations, total variance held fixed.

    Thresholds are recalibrated at every grid point so the test-in profile
    stays at the target values and only the correlation structure moves.
    """
    if targets is None:
        targets = {
            k: round(v, 10)
            for k, v in expected_testin_profile(scenario).items()
        }
    cells: list[PowerCell] = []
    failures: list[tuple[int, float, str]] = []
    for icc in icc_grid:
        sc = scenario.with_icc(icc)
        sc = sc.with_thresholds(calibrate_thresholds(sc, targets))
        res = estimate_power(
            sc,
            methods=methods,
            n_reps=n_reps,
            alpha=alpha,
            cov_variant=cov_variant,
            workers=workers,
        )
        cells.extend(res.cells)
        failures.extend(res.failures)
    return PowerResult(cells=tuple(cells), seed=scenario.seed, failures=tuple(failures))


def negative_effect_sweep(
    scenario: Scenario,
    spill_grid: tuple[float, ...],
    methods: tuple[str, ...] = ("pwrd", "flat", "mixed"),
    n_reps: int = 1000,
    alpha: float = 0.05,
    cov_variant: str = "cr2",
    workers: int = 1,
) -> PowerResult:
    """Power across spillover fractions at a fixed positive effect size.

    A zero spillover fraction reproduces the pure flagged-only effect with
    the same seeds, bit for bit.
    """
    if scenario.effect.regime != "effect2":
        raise InputError("negative effect sweep requires an effect2 scenario")
    cells: list[PowerCell] = []
    failures: list[tuple[int, float, str]] = []
    for sp in spill_grid:
        sc = replace(scenario, effect=replace(scenario.effect, spill_fraction=float(sp)))
        res = estimate_power(
            sc,
            methods=methods,
            n_reps=n_reps,
            alpha=alpha,
            cov_variant=cov_variant,
            workers=workers,
        )
        cells.extend(res.cells)
        failures.extend(res.failures)
    return PowerResult(cells=tuple(cells), seed=scenario.seed, failures=tuple(failures))


# ----------------------------------------------------------------------
# stock scenarios

def default_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 52,
    units_per_grade: int = 12,
    icc: float = 0.2,
    total_variance: float = 225.0,
    targets: dict[int, float] | None = None,
) -> Scenario:
    """Four-cohort staggered-entry design with calibrated thresholds.

    Cohort 1 starts at every grade from 0 through 3; later cohorts enter
    at grade 0 one year apart. With the default sizes each cluster carries
    about 50 unit-year rows per study year.
    """
    cohorts = (
        CohortSpec(cohort=1, entry_year=1, entry_grades=(0, 1, 2, 3), units_per_grade=units_per_grade),
        CohortSpec(cohort=2, entry_year=2, entry_grades=(0,), units_per_grade=units_per_grade),
        CohortSpec(cohort=3, entry_year=3, entry_grades=(0,), units_per_grade=units_per_grade),
        CohortSpec(cohort=4, entry_year=4, entry_grades=(0,), units_per_grade=units_per_grade),
    )
    base = Scenario(
        n_clusters=n_clusters,
        cohorts=cohorts,
        thresholds=(),
        effect=effect if effect is not None else EffectSpec(regime="null"),
        seed=seed,
        sigma2_mu=icc * total_variance,
        sigma2_eps=(1.0 - icc) * total_variance,
    )
    thr = calibrate_thresholds(base, targets)
    return base.with_thresholds(thr)


def single_track_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 20,
    units_per_cluster: int = 25,
    icc: float = 0.2,
    total_variance: float = 225.0,
    targets: dict[int, float] | None = None,
) -> Scenario:
    """One cohort entering at grade 0 and followed for four years.

    Useful when the group count must stay small relative to the cluster
    count, as in convergence studies over a wide range of sizes.
    """
    cohorts = (
        CohortSpec(cohort=1, entry_year=1, entry_grades=(0,), units_per_grade=units_per_cluster),
    )
    base = Scenario(
        n_clusters=n_clusters,
        cohorts=cohorts,
        thresholds=(),
        effect=effect if effect is not None else EffectSpec(regime="null"),
        seed=seed,
        sigma2_mu=icc * total_variance,
        sigma2_eps=(1.0 - icc) * total_variance,
    )
    thr = calibrate_thresholds(base, targets)
    return base.with_thresholds(thr)


def spillover_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 52,
    units_per_cluster: int = 25,
    icc: float = 0.2,
    total_variance: float = 225.0,
) -> Scenario:
    """Single-track design calibrated for negative-spillover sweeps.

    The flagged share stays at or below one half in every follow-up year,
    so when unflagged units lose as much as flagged units gain the imposed
    shift is nonpositive in every group. Multi-grade entry cannot hit such
    a profile within tolerance; the single-track system solves it exactly.
    """
    if effect is None:
        effect = EffectSpec(regime="effect2", tau=11.0)
    return single_track_scenario(
        effect=effect,
        seed=seed,
        n_clusters=n_clusters,
        units_per_cluster=units_per_cluster,
        icc=icc,
        total_variance=total_variance,
        targets=dict(SPILLOVER_TESTIN_TARGETS),
    )
