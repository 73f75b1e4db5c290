"""Per-group intention-to-treat effect estimates and test-in proportions.

Estimators here produce one number per cohort-year group. Groups with an
empty arm cannot support a contrast; they are excluded from the estimate
vector and reported, never silently dropped.

Every estimate is the arm-mean contrast of a (cluster, group) cell table
that the effects carry (``GroupEffects.cells``): of the outcome, or of
control-fit residuals for the regression-adjusted estimator. The cluster
sandwich reads the same table, so the variance is that of the contrast.

What the assignment fixes is computed once per assignment and shared by
every outcome on it (see ``panel``): the kept groups, their count table,
p0, and the exit rows' table of counts.

The group and exit estimators take a list of panels (``group_effects``,
``exit_estimates``): each panel sums its own rows, and the contrasts of
tables that share a layout are one computation (``covariance.stacks``).
A covariate list alone makes either contrast Peters-Belson's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .covariance import sandwich, stacks
from .errors import DegenerateDataError, InputError, NumericalError, PwrdError, attempt, one
from .panel import DESIGN_COVARIATES, CellTable, GroupInfo, PanelDataset, arm_counts
from .weights import check_estimate_variance, estimate_p_value


@dataclass(frozen=True)
class ExclusionRecord:
    group: GroupInfo
    reason: str


@dataclass(frozen=True, eq=False)
class GroupEffects:
    """Vector of per-group effect estimates over the included groups, and
    ``cells``, the (C, G) table whose arm-mean contrast they are."""

    estimates: np.ndarray
    groups: tuple[GroupInfo, ...]
    n: np.ndarray
    method: str
    cells: CellTable
    excluded: tuple[ExclusionRecord, ...] = ()

    def __post_init__(self) -> None:
        G = len(self.groups)
        if len(self.estimates) != G or len(self.n) != G or self.cells.m.shape[1] != G:
            raise InputError("estimates, groups, n, and cells must align")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_ordinals(self) -> tuple[int, ...]:
        return tuple(gi.g for gi in self.groups)


@dataclass(frozen=True, eq=False)
class TestInProportions:
    """Control-arm test-in proportion per included group."""

    p_hat: np.ndarray
    n_control: np.ndarray
    groups: tuple[GroupInfo, ...]

    def __post_init__(self) -> None:
        if len(self.p_hat) != len(self.groups) or len(self.n_control) != len(self.groups):
            raise InputError("p_hat, n_control, and groups must align")
        if len(self.p_hat) and (self.p_hat.min() < 0 or self.p_hat.max() > 1):
            raise InputError("proportions must lie in [0, 1]")

    def group_ordinals(self) -> tuple[int, ...]:
        return tuple(gi.g for gi in self.groups)

    def on_groups(self, groups: tuple[GroupInfo, ...]) -> TestInProportions:
        """The proportions of ``groups``, a subset of these in the same order,
        such as the groups an effect estimator kept."""
        if groups == self.groups:
            return self
        keep = np.isin(self.group_ordinals(), [gi.g for gi in groups])
        return TestInProportions(self.p_hat[keep], self.n_control[keep], groups)


def included_groups(panel: PanelDataset) -> tuple[tuple[GroupInfo, ...], tuple[ExclusionRecord, ...]]:
    """Split the catalog into estimable groups and those with an empty arm,
    by the panel's (arm, group) row counts."""
    return panel.assignment_tier.get("included groups", lambda: _split_catalog(panel))


def _split_catalog(
    panel: PanelDataset,
) -> tuple[tuple[GroupInfo, ...], tuple[ExclusionRecord, ...]]:
    kept = []
    out = []
    for gi, (n0, n1) in zip(panel.catalog, panel.cell_counts.n.T.tolist()):
        if n1 == 0 or n0 == 0:
            arm = "treated" if n1 == 0 else "control"
            out.append(ExclusionRecord(gi, f"no {arm} observations"))
        else:
            kept.append(gi)
    return tuple(kept), tuple(out)


def _kept_counts(panel: PanelDataset, groups) -> tuple[np.ndarray, CellTable]:
    """The columns of ``groups`` in the cell table and their table of
    counts, once per assignment; the counts' layout from the design tier,
    keyed by the columns, so replicates of one design that keep the same
    groups share it and stack."""
    idx = np.asarray([gi.g for gi in groups], dtype=np.int64)
    key = ("kept counts", idx.tobytes())
    m = panel.design_tier.get(key, lambda: panel.cell_counts.m[:, idx])
    return idx, panel.assignment_tier.get(key, lambda: CellTable(m, None, None, panel.z_by_cluster))


def group_effects(panels, covariates: tuple[str, ...] = ()) -> list:
    """The group effects of each panel, a GroupEffects or the package error
    that refuses it: the Peters-Belson contrasts on ``covariates``, or
    without them the differences in means, once per stack of tables."""
    built = [attempt(lambda: _group_table(p, covariates)) for p in panels]
    out, found = stacks([b if isinstance(b, PwrdError) else b[0] for b in built])
    method = "peters-belson" if covariates else "difference-in-means"
    for idx, stack in found:
        for i, delta in zip(idx, stack.contrasts):
            cells, groups, excluded = built[i]
            n = cells.counts.get("group n", lambda: (cells.n[0] + cells.n[1]).astype(np.int64))
            out[i] = GroupEffects(delta, groups, n, method, cells, excluded)
    return out


def estimate_effects_diffmeans(panel: PanelDataset) -> GroupEffects:
    """Treated-minus-control mean outcome within each group."""
    return one(group_effects([panel]))


def estimate_effects_peters_belson(
    panel: PanelDataset, covariates: tuple[str, ...] = ()
) -> GroupEffects:
    """Regression-adjusted group effects.

    Within each group, a least squares fit of outcome on the covariates is
    computed from control observations only, and the group effect is the
    contrast of mean prediction residuals, treated minus control (the
    control mean is zero up to rounding). Groups with fewer control rows
    than coefficients are excluded. With no covariates the effects are the
    difference in means. Grade, cohort and follow-up year are refused: each
    is constant within every group, so no group's fit can separate it from
    the intercept.
    """
    return one(group_effects([panel], covariates))


def _group_table(panel: PanelDataset, covariates: tuple[str, ...]) -> tuple:
    """The cell table whose arm-mean contrast gives the group effects, with
    its groups and the excluded ones: the kept groups' outcome sums, or with
    ``covariates`` each group's control-fit residual sums on the groups with
    enough control rows."""
    for name in covariates:
        if name in DESIGN_COVARIATES:
            raise InputError(
                f"covariate '{name}' is constant within every cohort-year group, "
                "so the Peters-Belson group fits cannot adjust for it"
            )
    kept, excluded = included_groups(panel)
    if not kept:
        raise DegenerateDataError("no group has observations in both arms")
    if not covariates:
        idx, counts = _kept_counts(panel, kept)
        return counts.with_sums(panel.cells.s[:, idx]), kept, excluded
    X = _design(panel, covariates)
    p = X.shape[1]
    n_control = panel.cell_counts.n[0].astype(np.int64)
    fit = tuple(gi for gi in kept if n_control[gi.g] >= p)
    thin = tuple(
        ExclusionRecord(gi, f"only {n_control[gi.g]} control rows for {p} coefficients")
        for gi in kept
        if n_control[gi.g] < p
    )
    if not fit:
        raise DegenerateDataError("no group retains enough control rows for the regression")

    idx, counts = _kept_counts(panel, fit)
    column = np.full(panel.n_groups, -1, dtype=np.int64)
    column[idx] = np.arange(len(fit))
    k = column[panel.group_ids]
    rows = k >= 0
    name = "group g={0.g} (cohort {0.cohort}, entry grade {0.entry_grade}, year {0.follow_up_year})"
    y, z = panel.outcome[rows], panel.treatment[rows]
    resid = _control_residuals(y, X[rows], z, k[rows], len(fit), lambda j: name.format(fit[j]))
    key, m = panel.cell_layout
    s = np.bincount(key[rows], weights=resid, minlength=m.size).reshape(m.shape)
    return counts.with_sums(s[:, idx]), fit, excluded + thin


def _design(panel: PanelDataset, covariates: tuple[str, ...]) -> np.ndarray:
    """Intercept plus the named covariate columns, one row per panel row."""
    return np.column_stack([np.ones(panel.n_obs)] + panel.columns(covariates))


def _control_residuals(
    y: np.ndarray,
    X: np.ndarray,
    z: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    describe: Callable[[int], str],
) -> np.ndarray:
    """``y`` less its least squares fit on the control rows of its own group.

    ``group`` numbers the rows' groups 0..n_groups-1, and each group is fit
    once. A rank-deficient control design raises, naming the group through
    ``describe``.
    """
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group, minlength=n_groups))[:-1]
    resid = np.empty(len(y))
    for k, rows in enumerate(np.split(order, bounds)):
        ctrl = rows[z[rows] == 0]
        beta, _, rank, _ = np.linalg.lstsq(X[ctrl], y[ctrl], rcond=None)
        if rank < X.shape[1]:
            raise NumericalError(f"rank-deficient control design matrix in {describe(k)}")
        resid[rows] = y[rows] - X[rows] @ beta
    return resid


def estimate_p0(panel: PanelDataset) -> TestInProportions:
    """Proportion of control observations flagged as tested in, per group.

    Uses control rows only, so the estimate is unaffected by anything done
    to the treated arm. Groups are the same ones an effect estimator keeps,
    which keeps downstream vectors aligned.
    """
    if panel.tested_in is None:
        raise DegenerateDataError("panel has no test-in flags")
    kept, _ = included_groups(panel)
    if not kept:
        raise DegenerateDataError("no group has observations in both arms")
    return panel.assignment_tier.get("p0", lambda: _control_testin(panel, kept))


def _control_testin(panel: PanelDataset, kept: tuple[GroupInfo, ...]) -> TestInProportions:
    idx, counts = _kept_counts(panel, kept)
    flagged = arm_counts(panel.cell_counts.f[:, idx], counts.z)[0]
    denom = counts.n[0]
    p_hat, n_control = flagged / denom, denom.astype(np.int64)
    p_hat.flags.writeable = n_control.flags.writeable = False
    return TestInProportions(p_hat=p_hat, n_control=n_control, groups=kept)


@dataclass(frozen=True)
class ExitEstimate:
    """Single-number effect from each unit's exit observation."""

    estimate: float
    se: float
    df: float
    n: int
    n_treated: int
    n_control: int
    n_clusters: int
    method: str

    def p_value(self, alternative: str = "greater") -> float:
        """t test of the estimate (``estimate_p_value``)."""
        return estimate_p_value(self.estimate, self.se, self.df, alternative)


def exit_estimates(panels, covariates: tuple[str, ...] = (), variant: str = "cr2") -> list:
    """``exit_observation_estimate`` of each panel, each an ExitEstimate or
    the package error that refuses it: each panel sums its own exit rows,
    and the one-group sandwich is taken once per stack of their tables."""
    tables = [attempt(lambda: _exit_table(p, covariates)) for p in panels]
    method = "peters-belson" if covariates else "difference-in-means"
    out, found = stacks(tables)
    for idx, stack in found:
        delta, V, n_clusters = sandwich(stack, variant)
        values = zip(idx, delta[:, 0].tolist(), V[:, 0, 0].tolist(), stack.mean_square.tolist())
        for i, d, v, ms in values:
            out[i] = attempt(lambda: _exit_estimate(tables[i], method, d, v, ms, n_clusters))
    return out


def exit_observation_estimate(
    panel: PanelDataset, covariates: tuple[str, ...] = (), variant: str = "cr2"
) -> ExitEstimate:
    """Effect on the exit-observation subset, one row per unit.

    The contrast pools all exit rows into a single comparison, with the
    same cluster sandwich as the group contrasts, on a one-group cell
    table built from the exit rows. With ``covariates`` it is the
    Peters-Belson contrast, taken on prediction residuals from a
    control-only fit on them, which leaves the point estimate exact and
    the variance a first-order approximation (the uncertainty of the fitted
    coefficients enters only through the residualization); without, the
    difference in means. A covariate constant on the exit rows' control
    arm is an InputError, since the fit cannot separate it from the
    intercept. A variance that is rounding is refused
    (``check_test_variance``) unless df <= 0, which the test refuses first.
    """
    return one(exit_estimates([panel], covariates, variant))


def _exit_table(panel: PanelDataset, covariates: tuple[str, ...]) -> CellTable:
    """The exit rows' one-group cell table of the outcome, or of its
    control-fit residuals on ``covariates``."""
    rows, cluster, m = panel.design_tier.get("exit rows", lambda: _exit_rows(panel))
    counts = panel.assignment_tier.get("exit counts", lambda: _exit_counts(panel, m))
    values = panel.outcome[rows]
    if covariates:
        X = _design(panel, covariates)[rows]
        ctrl = X[panel.treatment[rows] == 0]
        for name, column in zip(covariates, ctrl.T[1:]):
            if (column == column[0]).all():
                raise InputError(
                    f"covariate '{name}' is constant on the exit rows' control arm, "
                    "so the exit control fit cannot adjust for it"
                )
        one_group = np.zeros(len(values), dtype=np.int64)
        values = _control_residuals(
            values, X, panel.treatment[rows], one_group, 1, lambda _: "exit subset")
    return counts.with_sums(np.bincount(cluster, weights=values, minlength=m.size).reshape(m.shape))


def _exit_estimate(table, method, delta, variance, mean_square, n_clusters) -> ExitEstimate:
    check_estimate_variance(variance, mean_square, n_clusters)
    n0, n1 = (int(n) for n in table.n[:, 0])
    return ExitEstimate(
        estimate=delta,
        se=math.sqrt(variance),
        df=float(n_clusters - 2),
        n=n1 + n0,
        n_treated=n1,
        n_control=n0,
        n_clusters=n_clusters,
        method=method,
    )


def _exit_rows(panel: PanelDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exit rows, their clusters and the rows per cluster, shape (C, 1)."""
    rows = np.flatnonzero(panel.exit_mask())
    cluster = panel.cluster[rows]
    m = np.bincount(cluster, minlength=panel.n_clusters).astype(np.float64).reshape(-1, 1)
    return rows, cluster, m


def _exit_counts(panel: PanelDataset, m: np.ndarray) -> CellTable:
    """The exit rows' table of counts, once both arms have exit rows."""
    counts = CellTable(m, None, None, panel.z_by_cluster)
    if (counts.n[:, 0] == 0).any():
        raise DegenerateDataError("exit subset lacks one arm entirely")
    return counts


def effects_to_json_dict(effects: GroupEffects, p0: TestInProportions | None = None) -> dict:
    """JSON-ready summary of per-group estimates."""
    p_by_g = {}
    if p0 is not None:
        p_by_g = {gi.g: float(p) for gi, p in zip(p0.groups, p0.p_hat)}
    groups = []
    for gi, d, n in zip(effects.groups, effects.estimates, effects.n):
        entry = {
            "g": gi.g,
            "cohort": gi.cohort,
            "entry_grade": gi.entry_grade,
            "year": gi.follow_up_year,
            "n": int(n),
            "delta_hat": float(d),
        }
        if gi.g in p_by_g:
            entry["p0_hat"] = p_by_g[gi.g]
        groups.append(entry)
    out = {"groups": groups, "method": effects.method}
    if effects.excluded:
        out["excluded_groups"] = [
            {"g": rec.group.g, "reason": rec.reason} for rec in effects.excluded
        ]
    return out
