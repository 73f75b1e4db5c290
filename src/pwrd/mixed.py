"""Random-intercept comparator fit for the cluster randomized panel.

Fits outcome on an intercept, the treatment indicator, and optional
covariates, with a cluster-level random intercept. Variance components
come from method-of-moments mean squares (within-cluster versus
between-cluster), floored at zero, and the coefficient fit is generalized
least squares via the standard quasi-demeaning transform. Both a
model-based and a cluster-robust standard error are reported. The CR2
adjustment (Bell & McCaffrey) is computed for all clusters at once: their
Gram blocks are stacked and go through one batched eigendecomposition.

The fit reads records, not rows: the rows that share a cluster, a group
and a design row, each given by its row count, outcome sum and the sum of
squared deviations from its mean. Every quantity of the fit is an exact
function of these ("You Only Compress Once", Wong et al. 2021), since the
within-record part of any residual sums to zero. When every covariate is
constant within each (cluster, group) cell, as grade, cohort and follow-up
year are, the records are the panel's nonempty cells, in row-major order;
otherwise they are the distinct (cell, covariate values) rows. The record
layout is computed once per design when the design fixes every covariate,
else once per assignment, and the design matrix once per assignment (see
``panel``), so a fit on a new outcome reads only its sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import EIG_FLOOR, VARIANTS
from .errors import DegenerateDataError, InputError, NumericalError
from .panel import DESIGN_COVARIATES, PanelDataset
from .weights import ROUNDING_FLOOR, check_finite, check_test_variance, t_p_value


@dataclass(frozen=True)
class VarianceComponents:
    """Noise and cluster variance with their intraclass correlation."""

    sigma2_eps: float
    sigma2_mu: float
    icc: float

    def __post_init__(self) -> None:
        if self.sigma2_eps < 0 or self.sigma2_mu < 0:
            raise InputError("variance components must be nonnegative")
        if not 0.0 <= self.icc < 1.0:
            raise InputError("icc must lie in [0, 1)")
        total = self.sigma2_eps + self.sigma2_mu
        implied = self.sigma2_mu / total if total > 0 else 0.0
        if abs(implied - self.icc) > 1e-12:
            raise InputError("icc inconsistent with variance components")


@dataclass(frozen=True, eq=False)
class MixedModelFit:
    """Treatment effect from the random-intercept regression."""

    tau_hat: float
    se_model: float
    se_cluster_robust: float
    components: VarianceComponents
    df: float
    n_clusters: int
    n_obs: int
    coefficients: dict
    implied_group_weights: np.ndarray
    variant: str
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "tau_hat": self.tau_hat,
            "se_model": self.se_model,
            "se_cr": self.se_cluster_robust,
            "sigma2_eps": self.components.sigma2_eps,
            "sigma2_mu": self.components.sigma2_mu,
            "icc": self.components.icc,
            "df": self.df,
        }

    def p_value(self, alternative: str = "greater") -> float:
        """t test on the cluster-robust standard error (``check_test_variance``)."""
        check_test_variance(self.se_cluster_robust**2, 0.0, self.df)
        return t_p_value(self.tau_hat / self.se_cluster_robust, self.df, alternative)


@dataclass(frozen=True, eq=False)
class _Records:
    """The fit's records, ordered by cluster, and what they fix before the
    outcome: each row's record, the cluster, group, row count and design row
    of each record, and the records and rows per cluster."""

    row: np.ndarray
    cl: np.ndarray
    grp: np.ndarray
    w: np.ndarray
    X: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    m: np.ndarray

    def sums(self, panel: PanelDataset) -> np.ndarray:
        """Each record's outcome sum."""
        return np.bincount(self.row, weights=panel.outcome, minlength=len(self.w))

    @cached_property
    def sw(self) -> np.ndarray:
        return np.sqrt(self.w)

    @cached_property
    def swX(self) -> np.ndarray:
        return self.sw[:, None] * self.X

    @cached_property
    def q(self) -> int:
        """Design columns constant within every cluster; read once no
        cluster is empty."""
        mx = np.maximum.reduceat(self.X, self.starts, axis=0)
        mn = np.minimum.reduceat(self.X, self.starts, axis=0)
        # per column, the test of np.allclose(mx[:, j], mn[:, j]) on finite values
        return int((np.abs(mx - mn) <= 1e-8 + 1e-5 * np.abs(mn)).all(axis=0).sum())

    @cached_property
    def xbar(self) -> np.ndarray:
        """Each record's cluster mean design row; read once no cluster is empty."""
        sums = np.add.reduceat(self.w[:, None] * self.X, self.starts, axis=0)
        return (sums / self.m[:, None])[self.cl]


def _layout(panel: PanelDataset, covariates: tuple[str, ...]) -> tuple:
    """The records: rows grouped by (cell key, covariate values), in that
    sort order, the key being the panel's ``cell_layout``. Each row's
    record; each record's cluster and group (those of its first sorted
    row), row count and covariate values; and the records and rows per
    cluster with each cluster's first record."""
    cols = [panel.cell_layout[0], *map(panel.column, covariates)]
    order = np.lexsort(cols[::-1])
    keyed = np.array([col[order] for col in cols], dtype=np.float64)
    new = np.r_[True, (keyed[:, 1:] != keyed[:, :-1]).any(axis=0)]
    row = np.empty(panel.n_obs, dtype=np.int64)
    row[order] = np.cumsum(new) - 1
    first = order[new]
    cl, grp = panel.cluster[first], panel.group_ids[first]
    w = np.bincount(row).astype(np.float64)
    counts = np.bincount(cl, minlength=panel.n_clusters)
    # row counts are integers, so this sum is exact in any order
    m = np.bincount(cl, weights=w, minlength=panel.n_clusters)
    return row, cl, grp, w, keyed[1:, new].T, counts, np.cumsum(counts) - counts, m


def _records(panel: PanelDataset, covariates: tuple[str, ...]) -> _Records:
    """The fit's records and design matrix, computed once per assignment;
    their layout once per design when the design fixes every covariate."""

    def build() -> _Records:
        fixed = set(covariates) <= DESIGN_COVARIATES.keys()
        tier = panel.design_tier if fixed else panel.assignment_tier
        row, cl, grp, w, cov, counts, starts, m = tier.get(
            ("mixed layout", covariates), lambda: _layout(panel, covariates)
        )
        X = np.column_stack([np.ones(len(w)), panel.z_by_cluster[cl], cov])
        X.flags.writeable = False
        return _Records(row, cl, grp, w, X, counts, starts, m)

    return panel.assignment_tier.get(("mixed records", covariates), build)


def _cr_meat(
    Xt: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    starts: np.ndarray,
    XtX: np.ndarray,
    variant: str,
) -> np.ndarray:
    """Sum of b_c b_c' over clusters, from records weighted by ``w``.

    b_c = Xt_c' e_c for CR0, and Xt_c'(I - H_cc)^(-1/2) e_c for CR2. A
    record's rows share its design row, so their residuals enter only
    through their sum ``w * u``.
    """
    p = Xt.shape[1]
    wXt = w[:, None] * Xt
    # per-cluster score sums, one row per cluster
    B = np.add.reduceat(wXt * u[:, None], starts, axis=0)
    if variant == "cr2":
        eva, evec = np.linalg.eigh(XtX)
        if eva.min() <= 0:
            raise NumericalError("singular design in cluster adjustment")
        Khalf = (evec / np.sqrt(eva)) @ evec.T
        # per-cluster Gram blocks Xc'Xc, stacked, from their distinct entries
        j, k = np.array([(a, b) for a in range(p) for b in range(a, p)]).T
        G = np.empty((len(starts), p, p))
        G[:, j, k] = G[:, k, j] = np.add.reduceat(wXt[:, j] * Xt[:, k], starts, axis=0)
        d, Q = np.linalg.eigh(Khalf @ G @ Khalf)
        d = np.clip(d, 0.0, None)
        coef = np.where(
            d > 1e-12,
            (1.0 / np.sqrt(np.maximum(1.0 - d, EIG_FLOOR)) - 1.0) / np.where(d > 1e-12, d, 1.0),
            0.5,
        )
        # b_c + Gc Khalf Q diag(coef) Q' Khalf b_c = Xc'(I - H_cc)^(-1/2) e_c, per cluster
        t = coef * (np.swapaxes(Q, 1, 2) @ (B @ Khalf.T)[:, :, None])[:, :, 0]
        B = B + (G @ (Khalf @ (Q @ t[:, :, None])))[:, :, 0]
    return B.T @ B


def fit_random_intercept(
    panel: PanelDataset,
    covariates: tuple[str, ...] = ("grade",),
    variant: str = "cr2",
) -> MixedModelFit:
    """Generalized least squares fit with a cluster random intercept.

    Components are estimated by the between/within mean-square method and
    floored at zero; a zero cluster component collapses the fit to
    ordinary least squares. Panels with one observation per cluster cannot
    separate the components and also fall back to ordinary least squares,
    with a warning recorded on the fit. A panel with no within-cluster
    residual variation is refused as degenerate. Components that sum to at
    most ``ROUNDING_FLOOR`` times the outcome's mean square are rounding, not
    variation, and are refused as a numerical failure; so is a
    cluster-robust variance of the effect at that level
    (``check_test_variance``) unless df <= 0, which the test refuses first.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    n = panel.n_obs
    C = panel.n_clusters
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")
    names = ["intercept", "treatment", *covariates]
    rec = _records(panel, covariates)
    cl, w, X, starts, m = rec.cl, rec.w, rec.X, rec.starts, rec.m
    s = rec.sums(panel)
    p = X.shape[1]
    warnings_: list[str] = []

    # record means; a record's rows differ from its mean by the same
    # deviations in every fit below, which contribute their sum of squares
    # to each residual sum of squares and nothing to any cross product
    ybar = s / w
    beta_ols, _, rank, _ = np.linalg.lstsq(rec.swX, rec.sw * ybar, rcond=None)
    if rank < p:
        raise NumericalError("rank-deficient design matrix")
    e = ybar - X @ beta_ols
    dev2 = (panel.outcome - ybar[rec.row]) ** 2
    ss_within = float(np.bincount(rec.row, weights=dev2, minlength=len(w)).sum())

    if (rec.counts == 0).any():
        raise DegenerateDataError("a cluster has no observations")

    # cluster-constant columns count toward the between degrees of freedom
    q = rec.q

    rbar = np.add.reduceat(w * e, starts) / m
    ssw = ss_within + float((w * (e - rbar[cl]) ** 2).sum())
    ssb = float((m * rbar**2).sum())

    if n == C or C <= q:
        warnings_.append("cannot separate variance components; fell back to ordinary least squares")
        sigma2_eps = (ss_within + float((w * e**2).sum())) / max(n - p, 1)
        sigma2_mu = 0.0
    else:
        sigma2_eps = ssw / (n - C)
        n0 = (n - float((m**2).sum()) / n) / (C - q)
        msb = ssb / (C - q)
        sigma2_mu = (msb - sigma2_eps) / n0
        if sigma2_mu < 0:
            sigma2_mu = 0.0

    total = sigma2_eps + sigma2_mu
    icc = sigma2_mu / total if total > 0 else 0.0
    if icc >= 1.0:
        raise DegenerateDataError(
            "zero within-cluster residual variance: the outcome does not vary"
            " within clusters beyond the covariates"
        )
    mean_square = (ss_within + float(w @ ybar**2)) / n  # that is, mean(y**2)
    check_finite(("residual variance", total), ("outcome mean square", mean_square))
    if total <= ROUNDING_FLOOR * mean_square:
        raise NumericalError(f"residual variance {total:.3g} is rounding of the outcome")
    components = VarianceComponents(sigma2_eps=sigma2_eps, sigma2_mu=sigma2_mu, icc=icc)

    # quasi-demeaning GLS transform, on record means
    if sigma2_mu > 0:
        lam = 1.0 - np.sqrt(sigma2_eps / (sigma2_eps + m * sigma2_mu))
    else:
        lam = np.zeros(C)
    lam_r = lam[cl]
    yt = ybar - lam_r * (np.add.reduceat(s, starts) / m)[cl]
    Xt = X - lam_r[:, None] * rec.xbar

    XtX = Xt.T @ (w[:, None] * Xt)
    try:
        K = np.linalg.inv(XtX)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular transformed design") from exc
    beta = K @ (Xt.T @ (w * yt))
    u = yt - Xt @ beta
    s2 = (ss_within + float(w @ u**2)) / max(n - p, 1)
    se_model = float(np.sqrt(s2 * K[1, 1]))

    M = _cr_meat(Xt, w, u, starts, XtX, variant)
    V = K @ M @ K
    se_cr = float(np.sqrt(V[1, 1]))
    if C > 2:  # else the test refuses its df first
        check_test_variance(float(V[1, 1]), mean_square, C - 2)

    # implied per-group weights of the treated side of the contrast
    v = Xt @ K[:, 1]
    a = v - lam_r * (np.add.reduceat(w * v, starts) / m)[cl]
    gw = np.bincount(rec.grp, weights=w * a * X[:, 1], minlength=panel.n_groups)

    return MixedModelFit(
        tau_hat=float(beta[1]),
        se_model=se_model,
        se_cluster_robust=se_cr,
        components=components,
        df=float(C - 2),
        n_clusters=C,
        n_obs=n,
        coefficients={nm: float(b) for nm, b in zip(names, beta)},
        implied_group_weights=gw,
        variant=variant,
        warnings=tuple(warnings_),
    )
