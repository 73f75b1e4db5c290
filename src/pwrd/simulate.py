"""Synthetic trial panels: the generator, its effect regimes and its calibration.

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

Each quantity of a replicate is computed once, at the tier that fixes it
(see ``panel``): every replicate of a scenario shape shares its frame's
layout and design tier, the effect levels of one replicate share its
assignment tier, and each level computes only what its outcome changes.

The analysis of the panels, the Monte Carlo loop and the power studies
are in ``power``. This module loads no estimator, so ``pwrd simulate``
loads none: of the package's modules, only ``errors``, ``panel``,
``tails``, ``cli`` and this one. ``import pwrd`` loads it on first use,
and ``pwrd analyze`` and ``pwrd weights`` never.

The analytic test-in profile takes its normal tail from the standard
library, ``0.5 * math.erfc(z * sqrt(0.5))`` one element at a time
(``tails.normal_tail``, which the test's normal reference also uses),
not from ``scipy.special.ndtr``. Importing ``scipy.special`` takes about
0.3 s, more than ``pwrd simulate`` spends on its own work. The two tails
agree to about 1e-13 relative.

The profile, its Jacobian and the calibration's bisection take each
track's survival from one helper, ``_running_products``: its normal tails
multiplied left to right, the order ``np.cumprod`` multiplies in, each
product averaged over the intercept with its own 1-d quadrature dot and
the tracks summed in order. The bisection moves one grade's cutoff per
step, and year k's pooled share reads only the years up to k, so a year
computes the other grades' tails once and a step only the moving grade's.
Each share, and so each cutoff, is the one the full profile gives, bit for
bit (``tests/oracles.py``: ``pooled_share``, ``bisection_by_profile`` and
``flagged_shares_by_grid``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError
from .panel import PanelDataset, Tier, grade_cutoffs, group_layout
from .tails import REGIMES, normal_tail

DEFAULT_TESTIN_TARGETS = {1: 0.383, 2: 0.543, 3: 0.611, 4: 0.694}
# Every year at or below one half flagged: with full negative spillover the
# imposed shift is then nonpositive in every group and no method retains power.
SPILLOVER_TESTIN_TARGETS = {1: 0.18, 2: 0.32, 3: 0.40, 4: 0.44}
EFFECT3_DISPERSION = 2.5
# The largest deviation from a target test-in share a calibration accepts.
CALIBRATION_TOL = 0.02

_STAGE_ASSIGN = 0
_STAGE_CLUSTER = 1
_STAGE_NOISE = 2
_STAGE_EFFECT = 3


def _rng(seed: int, replicate: int, stage: int) -> np.random.Generator:
    if replicate < 0:
        raise InputError(f"replicate index must be nonnegative, got {replicate}")
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
    """Effect regime and its size.

    ``tau`` is the effect size of every regime: the constant added to
    flagged treated observations under effect1 and effect2, and the mean of
    the per-observation draw under effect3, whose variance is 2.5 times
    ``tau``. ``spill_fraction`` scales the negative spillover under effect2.
    A size the regime would not read is refused: a nonzero ``tau`` under
    null, and a nonzero ``spill_fraction`` outside effect2.
    """

    regime: str
    tau: float = 0.0
    spill_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise InputError(f"regime must be one of {REGIMES}")
        if not 0.0 <= self.tau < math.inf:
            raise InputError("tau must be finite and nonnegative")
        if not 0.0 <= self.spill_fraction <= 1.0:
            raise InputError("spill_fraction must lie in [0, 1]")
        if self.regime == "null" and self.tau != 0:
            raise InputError(f"the null regime has no effect size, got tau {self.tau:g}")
        if self.regime != "effect2" and self.spill_fraction != 0:
            raise InputError(
                f"only effect2 has a spillover, got spill_fraction {self.spill_fraction:g}"
                f" under {self.regime}"
            )

    def with_level(self, level: float) -> "EffectSpec":
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
        if not (np.isfinite(self.sigma2_eps) and np.isfinite(self.sigma2_mu)):
            raise InputError("variance components must be finite")
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
    return _cohort_tracks(scenario.cohorts, scenario.exit_grade, scenario.n_years)


@functools.lru_cache(maxsize=64)
def _cohort_tracks(
    cohorts: tuple[CohortSpec, ...], exit_grade: int, n_years: int
) -> tuple[_Track, ...]:
    out = []
    for cs in cohorts:
        for eg in cs.entry_grades:
            span_grade = exit_grade - eg + 1
            span_study = n_years - cs.entry_year + 1
            T = min(span_grade, span_study)
            if T < 1:
                continue
            out.append(_Track(cs.cohort, eg, T, cs.units_per_grade))
    if not out:
        raise InputError("cohort design yields no observable tracks")
    return tuple(out)


class _Frame:
    """Static row layout shared by every replicate of a scenario shape,
    with the design tier of its panels."""

    def __init__(self, n_clusters: int, tracks: tuple[_Track, ...]):
        unit_parts, cluster_parts, cohort_parts = [], [], []
        grade_parts, year_parts = [], []
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
            self.track_slices.append((pos, n_units, T))
            pos += n_units * T

        self.unit = np.concatenate(unit_parts)
        self.cluster = np.concatenate(cluster_parts)
        self.cohort = np.concatenate(cohort_parts)
        self.grade = np.concatenate(grade_parts)
        self.year = np.concatenate(year_parts)
        self.n_obs = len(self.unit)
        self.block_by_cluster = np.arange(n_clusters) // 2
        self.n_blocks = int(self.block_by_cluster.max()) + 1
        self.block = self.block_by_cluster[self.cluster]
        self.layout = group_layout(self.cohort, self.grade, self.year)
        self.catalog = self.layout[0]
        self.design_tier = Tier()


@functools.lru_cache(maxsize=32)
def _frame(n_clusters: int, tracks: tuple[_Track, ...]) -> _Frame:
    return _Frame(n_clusters, tracks)


@functools.lru_cache(maxsize=32)
def _threshold_row(frame: _Frame, thresholds: tuple[tuple[int, float], ...]) -> np.ndarray:
    """Each row's cutoff, read-only: it is shared by every replicate."""
    row = grade_cutoffs(dict(thresholds), frame.grade, "no threshold for grades")
    row.flags.writeable = False
    return row


def generate_panel(scenario: Scenario, replicate_index: int = 0) -> PanelDataset:
    """Draw one replicate panel under the null (no effect applied).

    Flags are derived from the untreated outcome, so effect injection
    never changes who tests in.
    """
    frame = _frame(scenario.n_clusters, _tracks(scenario))
    C = scenario.n_clusters

    coins = _rng(scenario.seed, replicate_index, _STAGE_ASSIGN).integers(0, 2, frame.n_blocks)
    # block b pairs clusters 2b and 2b + 1, and its coin picks the treated one
    z_cluster = (np.arange(C) % 2 == coins[frame.block_by_cluster]).astype(np.int8)
    if C % 2:
        z_cluster[-1] = coins[-1]  # a singleton block's coin is its arm

    mu = _rng(scenario.seed, replicate_index, _STAGE_CLUSTER).normal(
        0.0, np.sqrt(scenario.sigma2_mu), C
    )
    eps = _rng(scenario.seed, replicate_index, _STAGE_NOISE).normal(
        0.0, np.sqrt(scenario.sigma2_eps), frame.n_obs
    )
    y = scenario.beta0 + scenario.beta1 * frame.grade + mu[frame.cluster] + eps

    flags = (y < _threshold_row(frame, scenario.thresholds)).view(np.int8)
    for start, n_units, T in frame.track_slices:
        years = flags[start : start + n_units * T].reshape(n_units, T)  # a view, one row per unit
        for t in range(1, T):  # a flag persists into later years
            years[:, t] |= years[:, t - 1]

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
        _layout=frame.layout,
        _design=frame.design_tier,
    )


def _treated_rows(panel: PanelDataset) -> tuple[np.ndarray, np.ndarray]:
    """Treated rows whose flag is set and the other treated rows: what the
    assignment fixes."""
    z = panel.treatment.astype(bool)
    flagged = panel.tested_in.astype(bool)
    return np.flatnonzero(z & flagged), np.flatnonzero(z & ~flagged)


def apply_effect(
    panel: PanelDataset, spec: EffectSpec, replicate_index: int | None = None
) -> PanelDataset:
    """Inject the treatment effect into an already generated panel.

    Effect3 draws come from a stream keyed by (seed, replicate, stage): the
    seed ``generate_panel`` recorded, and the replicate it recorded unless
    one is given.
    """
    if spec.regime == "null" or spec.tau == 0:
        return panel

    if spec.regime in ("effect1", "effect2"):
        if panel.tested_in is None:
            raise DegenerateDataError("flag-driven effects need test-in flags")
        flagged, unflagged = panel.assignment_tier.get("treated rows", lambda: _treated_rows(panel))
        y = panel.outcome.copy()
        y[flagged] += spec.tau
        if spec.spill_fraction > 0:
            y[unflagged] -= spec.spill_fraction * spec.tau
            imposed = spec.tau * len(flagged) - spec.spill_fraction * spec.tau * len(unflagged)
            if imposed <= 0:
                warnings.warn(
                    "aggregate imposed effect is not positive; proceeding", RuntimeWarning
                )
        return panel.with_outcome(y)

    # effect3
    seed = panel.meta.get("seed")
    if replicate_index is None:
        replicate_index = panel.meta.get("replicate")
    if seed is None or replicate_index is None:
        raise InputError("effect3 needs a seed and replicate index")
    sd = np.sqrt(EFFECT3_DISPERSION * spec.tau)
    z = panel.treatment.astype(bool)
    draws = _rng(int(seed), int(replicate_index), _STAGE_EFFECT).normal(
        spec.tau, sd, int(z.sum())
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


def _zscores(scenario: Scenario, grades: tuple[int, ...], cut: np.ndarray) -> np.ndarray:
    """Each grade's cutoff ``cut`` less the mean outcome at each quadrature
    node of the cluster intercept, in noise standard deviations: one row
    per grade."""
    x, _ = _gh_rule(_GH_NODES)
    mu = np.sqrt(2.0 * scenario.sigma2_mu) * x
    sd = np.sqrt(scenario.sigma2_eps)
    return ((cut - scenario.beta0 - scenario.beta1 * np.asarray(grades))[:, None] - mu) / sd


def _running_products(factors: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Each running product of ``factors``, multiplied left to right, the
    order ``np.cumprod`` multiplies in."""
    return list(itertools.accumulate(factors, operator.mul))


def _flagged_shares(
    scenario: Scenario, thresholds: dict[int, float], grades: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Flagged share of each (track, year) and its gradient in the cutoffs of ``grades``.

    Given the cluster intercept the years are independent, so a unit
    survives to year j unflagged with the product of its normal tails up
    to j, averaged over the intercept by Gauss-Hermite quadrature. The
    share's derivative in the cutoff met in year i <= j is the normal
    density at that cutoff times the survival product of the other years.
    Shapes are (tracks, years) and (tracks, years, grades), zero past a
    track's last year.
    """
    tracks = _tracks(scenario)
    _, wnorm = _gh_rule(_GH_NODES)
    met = sorted({tr.entry_grade + j for tr in tracks for j in range(tr.n_years)})
    cut = grade_cutoffs(thresholds, np.asarray(met), "no threshold for grades")
    zscore = dict(zip(met, _zscores(scenario, tuple(met), cut)))
    tail = {g: normal_tail(z) for g, z in zscore.items()}
    sd = np.sqrt(scenario.sigma2_eps)
    density = {g: np.exp(-0.5 * zscore[g] ** 2) / (np.sqrt(2.0 * np.pi) * sd) for g in grades}

    flagged = np.zeros((len(tracks), max(tr.n_years for tr in tracks)))
    grad = np.zeros(flagged.shape + (len(grades),))
    for t, tr in enumerate(tracks):
        tails = [tail[tr.entry_grade + j] for j in range(tr.n_years)]
        # one 1-d dot per product: a matrix-vector product sums in another
        # order, and the last bisection steps would turn that last bit into
        # new cutoffs
        flagged[t, : tr.n_years] = [1.0 - wnorm @ p for p in _running_products(tails)]
        for c, g in enumerate(grades):
            at = g - tr.entry_grade
            if 0 <= at < tr.n_years:
                swapped = _running_products([*tails[:at], density[g], *tails[at + 1 :]])
                grad[t, at : tr.n_years, c] = [wnorm @ p for p in swapped[at:]]
    return flagged, grad


def _profile(
    scenario: Scenario, thresholds: dict[int, float], grades: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Test-in share by participation year, pooled over tracks, and its Jacobian."""
    flagged, grad = _flagged_shares(scenario, thresholds, grades)
    tracks = _tracks(scenario)
    units = np.asarray([[tr.units_per_cluster] for tr in tracks], dtype=np.float64)
    reached = np.arange(flagged.shape[1]) < np.asarray([[tr.n_years] for tr in tracks])
    den = (units * reached).sum(axis=0)
    prof = (units * flagged).sum(axis=0) / den
    return prof, (units[..., None] * grad).sum(axis=0) / den[:, None]


def expected_group_testin(scenario: Scenario) -> np.ndarray:
    """Exact control test-in proportion per catalog group."""
    tracks = _tracks(scenario)
    flagged, _ = _flagged_shares(scenario, scenario.threshold_map)
    row = {(tr.cohort, tr.entry_grade): t for t, tr in enumerate(tracks)}
    frame = _frame(scenario.n_clusters, tracks)
    out = np.empty(len(frame.catalog))
    for gi in frame.catalog:
        out[gi.g] = flagged[row[(gi.cohort, gi.entry_grade)], gi.follow_up_year - 1]
    return out


def expected_testin_profile(
    scenario: Scenario, thresholds: dict[int, float] | None = None
) -> dict[int, float]:
    """Exact test-in proportion by participation year, pooled over tracks."""
    thr = thresholds if thresholds is not None else scenario.threshold_map
    prof, _ = _profile(scenario, thr)
    return dict(enumerate(prof, start=1))


def calibrate_thresholds(
    scenario: Scenario,
    targets: dict[int, float] | None = None,
) -> dict[int, float]:
    """Per-grade cutoffs hitting a test-in profile by participation year.

    One pass over the participation years bisects the cutoff for the
    grade a first-year-entry unit occupies in year k (grade k - 1). When
    every track enters at the same grade the system is triangular and this
    pass solves it to machine precision. Staggered entry grades couple the
    equations and an exact joint root need not exist; then, starting from
    the bisection point, SLSQP solves the epigraph problem
    min t subject to -t <= profile_k - target_k <= t with the analytic
    Jacobian of the profile, and the minimax point is accepted as long as
    its worst deviation stays within ``CALIBRATION_TOL``. The profile is
    computed exactly by quadrature, so no simulation noise enters the
    calibration.
    """
    targets = dict(targets) if targets is not None else dict(DEFAULT_TESTIN_TARGETS)
    # the profile is invariant to cluster count, effect, and seed
    key = replace(scenario, n_clusters=4, thresholds=(), effect=EffectSpec("null"), seed=0)
    return dict(_calibrate_cached(key, tuple(sorted(targets.items()))))


@functools.lru_cache(maxsize=64)
def _calibrate_cached(
    scenario: Scenario, target_items: tuple[tuple[int, float], ...]
) -> tuple[tuple[int, float], ...]:
    """``calibrate_thresholds`` on its cache key, the cutoffs as sorted items."""
    targets = dict(target_items)
    tracks = _tracks(scenario)
    grades = sorted({tr.entry_grade + j for tr in tracks for j in range(tr.n_years)})
    for k in targets:
        if (k - 1) not in grades:
            raise InputError(f"cannot calibrate year {k}: no track occupies grade {k - 1}")
        if all(tr.n_years < k for tr in tracks):
            raise InputError(f"cannot calibrate year {k}: no track reaches it")
        if not 0.0 < targets[k] < 1.0:
            raise InputError("targets must lie strictly between 0 and 1")

    thr = _bisect(scenario, targets, grades)
    years = sorted(targets)
    rows = np.asarray(years) - 1
    knobs = tuple(k - 1 for k in years)
    goal = np.asarray([targets[k] for k in years])

    @functools.lru_cache(maxsize=1)
    def residuals(x: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        prof, jac = _profile(scenario, {**thr, **dict(zip(knobs, x))}, knobs)
        return prof[rows] - goal, jac[rows]

    r, _ = residuals(tuple(thr[g] for g in knobs))
    if np.abs(r).max() >= 1e-8:
        from scipy import optimize

        # epigraph form over v = (x, t): minimize t subject to |r_k(x)| <= t
        ones = np.ones((len(years), 1))

        def band(v: np.ndarray) -> np.ndarray:
            dev = residuals(tuple(v[:-1].tolist()))[0]
            return np.concatenate([v[-1] - dev, v[-1] + dev])

        def band_jac(v: np.ndarray) -> np.ndarray:
            jac = residuals(tuple(v[:-1].tolist()))[1]
            return np.block([[-jac, ones], [jac, ones]])

        res = optimize.minimize(
            lambda v: v[-1],
            np.append([thr[g] for g in knobs], np.abs(r).max()),
            jac=lambda v: np.eye(len(v))[-1],
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": band, "jac": band_jac}],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        r, _ = residuals(tuple(res.x[:-1].tolist()))
        thr.update(zip(knobs, res.x[:-1].tolist()))
    if np.abs(r).max() <= CALIBRATION_TOL:
        return tuple(sorted(thr.items()))
    prof = expected_testin_profile(scenario, thr)
    achieved = {k: float(prof[k]) for k in years}
    raise NumericalError(
        f"threshold calibration did not converge: achieved {achieved}, wanted {targets}"
    )


def _bisect(
    scenario: Scenario, targets: dict[int, float], grades: list[int]
) -> dict[int, float]:
    """Cutoffs from one pass over the participation years, each year k
    bisecting the cutoff of grade k - 1 until year k's pooled share meets
    its target; grades no year moves keep their starting cutoff."""
    total_sd = np.sqrt(scenario.sigma2_eps + scenario.sigma2_mu)
    thr = {g: scenario.beta0 + scenario.beta1 * g - 0.3 * total_sd for g in grades}
    for k in sorted(targets):
        g = k - 1
        share = _year_share(scenario, thr, k)
        lo = scenario.beta0 + scenario.beta1 * g - 12.0 * total_sd
        hi = scenario.beta0 + scenario.beta1 * g + 12.0 * total_sd
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if share(mid) < targets[k]:
                lo = mid
            else:
                hi = mid
        thr[g] = 0.5 * (lo + hi)
    return thr


def _year_share(
    scenario: Scenario, thresholds: dict[int, float], k: int
) -> Callable[[float], float]:
    """Year k's pooled test-in share as a function of the cutoff of grade
    k - 1, every other grade at ``thresholds``: for each cutoff, the share
    ``_profile`` gives, bit for bit (see the module docstring)."""
    g = k - 1
    _, wnorm = _gh_rule(_GH_NODES)
    reach = [tr for tr in _tracks(scenario) if tr.n_years >= k]
    den = float(sum(tr.units_per_cluster for tr in reach))
    # the tails of every other grade the reaching tracks meet by year k
    fixed = sorted({tr.entry_grade + j for tr in reach for j in range(k)} - {g})
    cut = grade_cutoffs(thresholds, np.asarray(fixed), "no threshold for grades")
    tail = dict(zip(fixed, normal_tail(_zscores(scenario, tuple(fixed), cut))))

    def share(cutoff: float) -> float:
        tail[g] = normal_tail(_zscores(scenario, (g,), np.array([cutoff])))[0]
        total = 0.0
        for tr in reach:
            surv = _running_products(tail[tr.entry_grade + j] for j in range(k))[-1]
            total += tr.units_per_cluster * (1.0 - wnorm @ surv)
        return total / den

    return share


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
# stock scenarios

def default_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 52,
    units_per_grade: int = 12,
    icc: float = 0.2,
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
    return _calibrated(cohorts, effect, seed, n_clusters, icc, None)


def single_track_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 20,
    units_per_grade: int = 25,
    icc: float = 0.2,
    targets: dict[int, float] | None = None,
) -> Scenario:
    """One cohort entering at grade 0 and followed for four years.

    Useful when the group count must stay small relative to the cluster
    count, as in convergence studies over a wide range of sizes.
    """
    cohorts = (
        CohortSpec(cohort=1, entry_year=1, entry_grades=(0,), units_per_grade=units_per_grade),
    )
    return _calibrated(cohorts, effect, seed, n_clusters, icc, targets)


def _calibrated(cohorts, effect, seed, n_clusters, icc, targets) -> Scenario:
    """A scenario of these cohorts (null effect by default) at intraclass
    correlation ``icc`` of the default total variance, its thresholds
    calibrated to ``targets``."""
    base = Scenario(
        n_clusters=n_clusters,
        cohorts=cohorts,
        thresholds=(),
        effect=effect if effect is not None else EffectSpec(regime="null"),
        seed=seed,
    ).with_icc(icc)
    return base.with_thresholds(calibrate_thresholds(base, targets))


def spillover_scenario(
    effect: EffectSpec | None = None,
    seed: int = 20260822,
    n_clusters: int = 52,
    units_per_grade: int = 25,
    icc: float = 0.2,
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
        units_per_grade=units_per_grade,
        icc=icc,
        targets=dict(SPILLOVER_TESTIN_TARGETS),
    )
