"""Per-group intention-to-treat effect estimates and test-in proportions.

Estimators here produce one number per cohort-year group. Groups with an
empty arm cannot support a contrast; they are excluded from the estimate
vector and reported, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError
from .panel import GroupInfo, PanelDataset, arm_totals, cell_table


@dataclass(frozen=True)
class ExclusionRecord:
    group: GroupInfo
    reason: str


@dataclass(frozen=True, eq=False)
class GroupEffects:
    """Vector of per-group effect estimates over the included groups."""

    estimates: np.ndarray
    groups: tuple[GroupInfo, ...]
    n: np.ndarray
    method: str
    excluded: tuple[ExclusionRecord, ...] = ()

    def __post_init__(self) -> None:
        if len(self.estimates) != len(self.groups) or len(self.n) != len(self.groups):
            raise InputError("estimates, groups, and n must align")

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


def included_groups(panel: PanelDataset) -> tuple[tuple[GroupInfo, ...], tuple[ExclusionRecord, ...]]:
    """Split the catalog into estimable groups and degenerate ones."""
    kept = []
    out = []
    for gi in panel.catalog:
        if gi.degenerate:
            arm = "treated" if gi.n_treated == 0 else "control"
            out.append(ExclusionRecord(gi, f"no {arm} observations"))
        else:
            kept.append(gi)
    return tuple(kept), tuple(out)


def estimate_effects_diffmeans(panel: PanelDataset) -> GroupEffects:
    """Treated-minus-control mean outcome within each group."""
    kept, excluded = included_groups(panel)
    if not kept:
        raise DegenerateDataError("no group has observations in both arms")
    cells = panel.cells
    idx = np.asarray([gi.g for gi in kept])
    sums = arm_totals(cells.s[:, idx], cells.z)
    counts = arm_totals(cells.m[:, idx], cells.z)
    delta = sums[1] / counts[1] - sums[0] / counts[0]
    n = counts[0] + counts[1]
    return GroupEffects(
        estimates=delta,
        groups=kept,
        n=n.astype(np.int64),
        method="difference-in-means",
        excluded=excluded,
    )


def estimate_effects_peters_belson(
    panel: PanelDataset, covariates: tuple[str, ...] = ()
) -> GroupEffects:
    """Regression-adjusted group effects.

    Within each group, a least squares fit of outcome on the covariates is
    computed from control observations only, and the group effect is the
    mean prediction residual among treated observations. With no
    covariates this reduces to the difference in means.
    """
    kept, excluded = included_groups(panel)
    if not kept:
        raise DegenerateDataError("no group has observations in both arms")
    cols = [panel.column(c) for c in covariates]
    X = np.column_stack([np.ones(panel.n_obs)] + cols) if cols else np.ones((panel.n_obs, 1))
    p = X.shape[1]

    estimates = []
    ns = []
    final_kept = []
    more_excluded = list(excluded)
    for gi in kept:
        rows = panel.group_ids == gi.g
        ctrl = rows & (panel.treatment == 0)
        trt = rows & (panel.treatment == 1)
        if int(ctrl.sum()) < p:
            more_excluded.append(
                ExclusionRecord(gi, f"only {int(ctrl.sum())} control rows for {p} coefficients")
            )
            continue
        Xc = X[ctrl]
        beta, _, rank, _ = np.linalg.lstsq(Xc, panel.outcome[ctrl], rcond=None)
        if rank < p:
            raise NumericalError(
                f"rank-deficient control design matrix in group g={gi.g} "
                f"(cohort {gi.cohort}, entry grade {gi.entry_grade}, year {gi.follow_up_year})"
            )
        resid = panel.outcome[trt] - X[trt] @ beta
        estimates.append(float(resid.mean()))
        ns.append(int(rows.sum()))
        final_kept.append(gi)
    if not final_kept:
        raise DegenerateDataError("no group retains enough control rows for the regression")
    return GroupEffects(
        estimates=np.asarray(estimates),
        groups=tuple(final_kept),
        n=np.asarray(ns, dtype=np.int64),
        method="peters-belson",
        excluded=tuple(more_excluded),
    )


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
    cells = panel.cells
    idx = np.asarray([gi.g for gi in kept])
    flagged = arm_totals(cells.f[:, idx], cells.z)[0]
    denom = arm_totals(cells.m[:, idx], cells.z)[0]
    return TestInProportions(
        p_hat=flagged / denom,
        n_control=denom.astype(np.int64),
        groups=kept,
    )


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


def exit_observation_estimate(
    panel: PanelDataset,
    method: str = "difference-in-means",
    covariates: tuple[str, ...] = (),
    exit_grade: int | None = None,
    variant: str = "cr2",
) -> ExitEstimate:
    """Effect on the exit-observation subset, one row per unit.

    The contrast pools all exit rows into a single comparison, with the
    same cluster sandwich as the group contrasts, on a one-group cell
    table built from the exit rows. For the regression-adjusted method the
    contrast is taken on prediction residuals from a control-only fit,
    which leaves the point estimate exact and the variance a first-order
    approximation (the uncertainty of the fitted coefficients enters only
    through the residualization).
    """
    from .covariance import _sandwich

    mask = panel.exit_mask(exit_grade)
    if not mask.any():
        raise DegenerateDataError("exit rule selects no observations")
    y = panel.outcome[mask]
    z = panel.treatment[mask]
    n1 = int((z == 1).sum())
    n0 = int((z == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DegenerateDataError("exit subset lacks one arm entirely")

    if method == "difference-in-means":
        values = y
    elif method == "peters-belson":
        cols = [panel.column(c)[mask] for c in covariates]
        X = np.column_stack([np.ones(len(y))] + cols) if cols else np.ones((len(y), 1))
        beta, _, rank, _ = np.linalg.lstsq(X[z == 0], y[z == 0], rcond=None)
        if rank < X.shape[1]:
            raise NumericalError("rank-deficient control design matrix in exit subset")
        values = y - X @ beta
    else:
        raise InputError(f"unknown method '{method}'")

    cells = cell_table(
        panel.cluster[mask], np.zeros(len(y), dtype=np.int64), values, None, panel.z_by_cluster, 1
    )
    delta, V, n_clusters = _sandwich(cells.m, cells.s, cells.z, variant)
    return ExitEstimate(
        estimate=float(delta[0]),
        se=float(np.sqrt(V[0, 0])),
        df=float(n_clusters - 2),
        n=n1 + n0,
        n_treated=n1,
        n_control=n0,
        n_clusters=n_clusters,
        method=method,
    )


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
