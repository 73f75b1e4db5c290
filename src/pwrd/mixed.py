"""Random-intercept comparator fit for the cluster randomized panel.

Fits outcome on an intercept, the treatment indicator, and optional
covariates, with a cluster-level random intercept. Variance components
come from method-of-moments mean squares (within-cluster versus
between-cluster), floored at zero, and the coefficient fit is generalized
least squares via the standard quasi-demeaning transform. Both a
model-based and a cluster-robust standard error are reported. A covariate
constant on the fit's rows is refused as input, by name: the intercept
already holds it.

The fit reads records, not rows: the rows that share a cluster, a group
and a design row, each given by its row count, outcome sum and the sum of
squared deviations from its mean. Every quantity of the fit is an exact
function of these ("You Only Compress Once", Wong et al. 2021), since the
within-record part of any residual sums to zero. When every covariate is
constant within each (cluster, group) cell, as grade, cohort and follow-up
year are, the records are the panel's nonempty cells, in row-major order,
and their outcome sums are the cell table's (``panel.cells.s``), added
from the same rows in the same order, so no second pass over the rows
computes them; otherwise they are the distinct (cell, covariate values)
rows, summed from the rows. The record layout (``_layout``) is computed
once per design when the design fixes every covariate, else once per
assignment (see ``panel``), with all it fixes: the covariates centred on
their row means, so that a shifted covariate moves only the intercept
(reported uncentred); each cluster's weighted mean of (1, covariates) and
within scatter; and q, the design columns constant within every cluster.
An assignment adds the treatment column and each record's cluster mean
row, so a fit on a new outcome reads only its sums.

The CR2 adjustment (Bell & McCaffrey 2002) is exact and is computed for
all clusters at once, in p - 1 dimensions for p design columns. Treatment
is constant within a cluster, so after the transform the treatment column
is z_c times the intercept column: H_cc = Y_c (T K T') Y_c' with Y_c the
transformed rows less treatment and T the map of the cluster's arm. So
(I - H_cc)^(-1/2) comes from the eigendecomposition of F'G_cF, with F F'
the Cholesky factorization of T K T' (one per arm) and G_c = Y_c'Y_c, and
the treatment score is z_c times the intercept score. G_c is W_c + (1 -
lambda_c)^2 m_c xbar_c xbar_c', from the layout's within scatter W_c and
mean row xbar_c; both terms are positive semidefinite, so nothing
cancels. The default fit on grade takes one batched 2 x 2
eigendecomposition over every cluster of the stack.

``fits_random_intercept`` fits a list of panels. Each makes its own pass
over its rows (the OLS fit and the within-record sum of squares, and the
record sums when the records are finer than the cells); the fits whose
panels share a record layout then run as one stack, every array below the
records carrying a leading replicate axis, and the CR2 eigendecompositions
of all their clusters are one call. ``fit_random_intercept`` is the stack
of one panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import EIG_FLOOR
from .errors import DegenerateDataError, InputError, NumericalError, PwrdError, attempt, one
from .panel import DESIGN_COVARIATES, PanelDataset, group_rows
from .tails import VARIANTS, t_p_value
from .weights import ROUNDING_FLOOR, check_estimate_variance, check_finite, check_test_variance


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
class _Layout:
    """What a record layout fixes, for every assignment on it (``_layout``):
    each row's record; each record's cluster, group, row count and
    centred covariate values; the records and rows per cluster with each
    cluster's first record; each record's cell when the records are the
    panel's nonempty cells (else None); the covariates' row means
    (``shift``); per cluster, the weighted mean of x = (1, centred
    covariates) and the within scatter of x; and q, the design columns
    constant within every cluster. Its arrays are read-only."""

    row: np.ndarray
    cl: np.ndarray
    grp: np.ndarray
    w: np.ndarray
    cov: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    m: np.ndarray
    cell: np.ndarray | None
    shift: np.ndarray
    mean: np.ndarray
    within: np.ndarray
    q: int

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _Records(_Layout):
    """A layout's records on one assignment: the design rows X = (1,
    treatment, centred covariates) and each record's cluster mean row
    ``xbar``, the layout's ``mean`` with the cluster's arm inserted."""

    X: np.ndarray
    xbar: np.ndarray

    def sums(self, panel: PanelDataset) -> np.ndarray:
        """Each record's outcome sum: its cell's sum when the records are
        the cells, the same rows added in the same order."""
        if self.cell is not None:
            return panel.cells.s.ravel()[self.cell]
        return np.bincount(self.row, weights=panel.outcome, minlength=len(self.w))

    @cached_property
    def sw(self) -> np.ndarray:
        return np.sqrt(self.w)

    @cached_property
    def swX(self) -> np.ndarray:
        return self.sw[:, None] * self.X


def _layout(panel: PanelDataset, covariates: tuple[str, ...]) -> _Layout:
    """The records: rows grouped by (cell key, covariate values), in that
    sort order, the key being the panel's ``cell_layout``, with what they
    fix before the assignment (``_Layout``). A covariate constant on the
    rows is refused, as the intercept holds it, and so is an empty cluster,
    before any per-cluster reduction reads it."""
    cols = panel.columns(covariates)
    key, cell_m = panel.cell_layout
    row, first = group_rows(key, *cols)
    cl, grp = panel.cluster[first], panel.group_ids[first]
    cov = np.stack([col[first] for col in cols], axis=1) if cols else np.empty((len(first), 0))
    for name, col in zip(covariates, cov.T):
        if (col == col[0]).all():
            raise InputError(
                f"covariate '{name}' is constant on the fit's rows, "
                "so the random-intercept fit cannot adjust for it"
            )
    w = np.bincount(row).astype(np.float64)
    # centred on the rows, so a shifted covariate moves only the intercept
    shift = w @ cov / panel.n_obs
    cov = cov - shift
    C, k = panel.n_clusters, cov.shape[1]
    counts = np.bincount(cl, minlength=C)
    if (counts == 0).any():
        raise DegenerateDataError("a cluster has no observations")
    starts = np.cumsum(counts) - counts
    # row counts are integers, so this sum is exact in any order
    m = np.bincount(cl, weights=w, minlength=C)
    sums = np.add.reduceat(w[:, None] * cov, starts, axis=0)
    mean = np.column_stack([np.ones(C), sums / m[:, None]])
    D = cov - mean[cl, 1:]
    j, l = np.triu_indices(k)
    within = np.zeros((C, k + 1, k + 1))
    within[:, 1 + j, 1 + l] = within[:, 1 + l, 1 + j] = np.add.reduceat(
        (w[:, None] * D[:, j]) * D[:, l], starts, axis=0
    )
    # intercept, treatment and each covariate whose range in every cluster is
    # within 1e-5 of its range over the rows, a test no change of units moves
    mx, mn = np.maximum.reduceat(cov, starts, axis=0), np.minimum.reduceat(cov, starts, axis=0)
    q = 2 + int((mx - mn <= 1e-5 * np.ptp(cov, axis=0)).all(axis=0).sum())
    # records refine the nonempty cells, so if they are as many, they are the cells
    cell = np.flatnonzero(cell_m.ravel())
    if len(cell) != len(first):
        cell = None
    return _Layout(row, cl, grp, w, cov, counts, starts, m, cell, shift, mean, within, q)


def _records(panel: PanelDataset, covariates: tuple[str, ...]) -> _Records:
    """The fit's records and design matrix, computed once per assignment;
    their layout once per design when the design fixes every covariate."""

    def build() -> _Records:
        fixed = set(covariates) <= DESIGN_COVARIATES.keys()
        tier = panel.design_tier if fixed else panel.assignment_tier
        lay = tier.get(("mixed layout", covariates), lambda: _layout(panel, covariates))
        z = panel.z_by_cluster
        X = np.column_stack([np.ones(len(lay.w)), z[lay.cl], lay.cov])
        return _Records(**vars(lay), X=X, xbar=np.insert(lay.mean, 1, z, axis=1)[lay.cl])

    return panel.assignment_tier.get(("mixed records", covariates), build)


def _cr_meat(Xt: np.ndarray, w: np.ndarray, u: np.ndarray, starts: np.ndarray, cr2) -> np.ndarray:
    """Sum of b_c b_c' over clusters, from records weighted by ``w``, for a
    stack of fits: ``Xt`` (R, N, p) and ``u`` (R, N), giving (R, p, p).

    b_c = Xt_c' e_c for CR0 (``cr2`` None), and Xt_c'(I - H_cc)^(-1/2) e_c
    for CR2, from ``cr2``, the arguments of ``_cr2_scores`` after the
    scores. A record's rows share its design row, so their residuals enter
    only through their sum ``w * u``.
    """
    wXt = w[:, None] * Xt
    # per-cluster score sums, one row per cluster
    B = np.add.reduceat(wXt * u[:, :, None], starts, axis=1)
    if cr2 is not None:
        B = _cr2_scores(B, *cr2)
    return np.swapaxes(B, 1, 2) @ B


def _cr2_scores(B: np.ndarray, F: np.ndarray, G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Xt_c'(I - H_cc)^(-1/2) e_c per cluster, (R, C, p), from the scores
    Xt_c' e_c, ``B`` (R, C, p), in p - 1 dimensions.

    Treatment is constant within a cluster, so in cluster c the transformed
    treatment column is z_c times the transformed intercept column: Xt_c =
    Y_c T with Y_c the transformed rows less their treatment column and T
    the (p - 1, p) map of the cluster's arm. Then H_cc = Y_c (T K T') Y_c',
    and with T K T' = F F' (``F`` (R, C, p - 1, p - 1), each cluster's
    arm's Cholesky factor) and ``G`` (R, C, p - 1, p - 1) the blocks Y_c'Y_c,
    the nonzero eigenvalues of H_cc are those of F'GF = Q diag(d) Q'. So
    (I - H_cc)^(-1/2) = I + Y_c F Q diag(coef) Q' F' Y_c', coef =
    ((1 - d)^(-1/2) - 1) / d, with eigenvalues of I - H clipped at the
    floor. The treatment score is z_c (``z`` (R, C)) times the intercept
    score, as it is before the adjustment.
    """
    keep = np.r_[0, 2 : B.shape[2]]
    b = B[:, :, keep]
    d, Q = np.linalg.eigh(np.swapaxes(F, 2, 3) @ G @ F)
    d = np.clip(d, 0.0, None)
    coef = np.where(
        d > 1e-12,
        (1.0 / np.sqrt(np.maximum(1.0 - d, EIG_FLOOR)) - 1.0) / np.where(d > 1e-12, d, 1.0),
        0.5,
    )
    FQ = F @ Q
    t = coef * (np.swapaxes(FQ, 2, 3) @ b[..., None])[..., 0]
    b = b + (G @ (FQ @ t[..., None]))[..., 0]
    out = np.empty_like(B)
    out[:, :, keep] = b
    out[:, :, 1] = z * b[:, :, 0]
    return out


def _cr2_inputs(rec: _Records, X, XtX, K, lam) -> tuple | None:
    """The arguments of ``_cr2_scores`` after the scores, for a stack of
    fits on the records ``rec`` with design rows ``X`` (R, N, p), transformed
    Gram matrices ``XtX`` and their inverses ``K`` (R, p, p) and GLS factors
    ``lam`` (R, C); None when a fit's design is singular for the adjustment.

    T for arm a maps (intercept, covariates) to (intercept, treatment,
    covariates): the intercept's entry goes to the treatment column times a.
    """
    if (np.linalg.eigvalsh(XtX).min(axis=1) <= 0).any():
        return None
    p = X.shape[2]
    T = np.zeros((2, p - 1, p))
    T[:, 0, 0] = T[1, 0, 1] = 1.0
    T[:, 1:, 2:] = np.eye(p - 2)
    try:
        F = np.linalg.cholesky(T @ K[:, None] @ np.swapaxes(T, 1, 2))
    except np.linalg.LinAlgError:
        return None
    z = X[:, rec.starts, 1]
    G = rec.within + ((1.0 - lam) ** 2 * rec.m)[:, :, None, None] * (
        rec.mean[:, :, None] * rec.mean[:, None, :]
    )
    return F[np.arange(len(F))[:, None], z.astype(np.intp)], G, z


@dataclass(frozen=True, eq=False)
class _RowPass:
    """What a fit reads from its panel's rows: the records, their outcome
    sums and means, the OLS residuals of the record means, and the sum of
    squared deviations of the rows from their record means."""

    rec: _Records
    s: np.ndarray
    ybar: np.ndarray
    e: np.ndarray
    ss_within: float


def _row_pass(panel: PanelDataset, covariates: tuple[str, ...]) -> _RowPass:
    C = panel.n_clusters
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")
    rec = _records(panel, covariates)
    s = rec.sums(panel)
    # record means; a record's rows differ from its mean by the same
    # deviations in every fit below, which contribute their sum of squares
    # to each residual sum of squares and nothing to any cross product
    ybar = s / rec.w
    beta_ols, _, rank, _ = np.linalg.lstsq(rec.swX, rec.sw * ybar, rcond=None)
    if rank < rec.X.shape[1]:
        raise NumericalError("rank-deficient design matrix")
    e = ybar - rec.X @ beta_ols
    dev2 = (panel.outcome - ybar[rec.row]) ** 2
    ss_within = float(np.bincount(rec.row, weights=dev2, minlength=len(rec.w)).sum())
    return _RowPass(rec, s, ybar, e, ss_within)


def _components(
    n: int, C: int, p: int, q: int, m2: float, ss_within: float, sums: tuple[float, ...]
) -> tuple[VarianceComponents, float, tuple[str, ...]]:
    """The variance components of one fit, the outcome's mean square and
    the fit's warnings, from its sums of squares."""
    ssw, ssb, ss_ols, wy2 = sums
    ssw += ss_within
    warnings_: tuple[str, ...] = ()
    if n == C or C <= q:
        warnings_ = ("cannot separate variance components; fell back to ordinary least squares",)
        sigma2_eps = (ss_within + ss_ols) / max(n - p, 1)
        sigma2_mu = 0.0
    else:
        sigma2_eps = ssw / (n - C)
        n0 = (n - m2 / n) / (C - q)
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
    mean_square = (ss_within + wy2) / n  # that is, mean(y**2)
    check_finite(("residual variance", total), ("outcome mean square", mean_square))
    if total <= ROUNDING_FLOOR * mean_square:
        raise NumericalError(f"residual variance {total:.3g} is rounding of the outcome")
    components = VarianceComponents(sigma2_eps=sigma2_eps, sigma2_mu=sigma2_mu, icc=icc)
    return components, mean_square, warnings_


def fits_random_intercept(
    panels,
    covariates: tuple[str, ...] = ("grade",),
    variant: str = "cr2",
) -> list:
    """``fit_random_intercept`` of each panel, each a MixedModelFit or the
    package error that refuses it.

    Each panel makes its own pass over its rows (``_row_pass``). Everything
    below the records is computed once per stack of panels that share a
    record layout: the components' sums, the GLS transform and solve, the
    cluster-robust meat and the implied weights.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    out: list = []
    groups: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails check_finite
        for i, panel in enumerate(panels):
            out.append(attempt(lambda: _row_pass(panel, covariates)))
            if not isinstance(out[i], PwrdError):
                groups.setdefault(id(out[i].rec.row), []).append(i)
    for idx in groups.values():
        fits = _fit_stack([panels[i] for i in idx], [out[i] for i in idx], covariates, variant)
        for i, fit in zip(idx, fits):
            out[i] = fit
    return out


def _fit_stack(panels, passes: list[_RowPass], covariates, variant) -> list:
    """The fits of panels whose row passes share a record layout."""
    rec = passes[0].rec
    cl, w, starts, m = rec.cl, rec.w, rec.starts, rec.m
    n, C, p = panels[0].n_obs, panels[0].n_clusters, rec.X.shape[1]
    e = np.stack([rp.e for rp in passes])
    ybar = np.stack([rp.ybar for rp in passes])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails check_finite
        rbar = np.add.reduceat(w * e, starts, axis=1) / m
        sums = (
            (w * (e - rbar[:, cl]) ** 2).sum(axis=1),
            (m * rbar**2).sum(axis=1),
            (w * e**2).sum(axis=1),
            np.array([w @ y2 for y2 in ybar**2]),
        )
    m2 = float((m**2).sum())
    # cluster-constant columns count toward the between degrees of freedom
    out = [
        attempt(lambda: _components(n, C, p, rp.rec.q, m2, rp.ss_within, row))
        for rp, row in zip(passes, zip(*(a.tolist() for a in sums)))
    ]
    live = [k for k, found in enumerate(out) if not isinstance(found, PwrdError)]
    if not live:
        return out
    eps = np.array([out[k][0].sigma2_eps for k in live])[:, None]
    mu = np.array([out[k][0].sigma2_mu for k in live])[:, None]

    # quasi-demeaning GLS transform, on record means
    lam = np.where(mu > 0, 1.0 - np.sqrt(eps / (eps + m * mu)), 0.0)
    lam_r = lam[:, cl]
    S = np.stack([passes[k].s for k in live])
    X = np.stack([passes[k].rec.X for k in live])
    yt = ybar[live] - lam_r * (np.add.reduceat(S, starts, axis=1) / m)[:, cl]
    Xt = X - lam_r[:, :, None] * np.stack([passes[k].rec.xbar for k in live])
    XtT = np.swapaxes(Xt, 1, 2)
    XtX = XtT @ (w[:, None] * Xt)
    try:
        K = np.linalg.inv(XtX)
        refused = None
    except np.linalg.LinAlgError:
        refused = "singular transformed design"
    cr2 = None
    if refused is None and variant == "cr2":
        cr2 = _cr2_inputs(rec, X, XtX, K, lam)
        if cr2 is None:
            refused = "singular design in cluster adjustment"
    if refused is not None:  # a fit refuses its design: each is fitted alone
        for k in live:
            if len(live) > 1:
                out[k] = _fit_stack([panels[k]], [passes[k]], covariates, variant)[0]
            else:
                out[k] = NumericalError(refused)
        return out

    beta = (K @ (XtT @ (w * yt)[:, :, None]))[:, :, 0]
    u = yt - (Xt @ beta[:, :, None])[:, :, 0]
    ss_gls = np.array([passes[k].ss_within + w @ u2 for k, u2 in zip(live, u**2)])
    s2 = ss_gls / max(n - p, 1)
    V = K @ _cr_meat(Xt, w, u, starts, cr2) @ K
    with np.errstate(invalid="ignore"):  # a negative variance fails check_test_variance
        se_model = np.sqrt(s2 * K[:, 1, 1])
        se_cr = np.sqrt(V[:, 1, 1])

    # implied per-group weights of the treated side of the contrast
    v = (Xt @ K[:, :, 1:2])[:, :, 0]
    a = v - lam_r * (np.add.reduceat(w * v, starts, axis=1) / m)[:, cl]
    names = ["intercept", "treatment", *covariates]
    # the intercept of the uncentred covariates; beta's other uses are above
    beta[:, 0] -= beta[:, 2:] @ rec.shift
    found = zip(live, beta, se_model.tolist(), se_cr.tolist(), V[:, 1, 1].tolist(), a, X)
    for k, b, se_m, se_r, v11, a_k, X_k in found:
        components, mean_square, warnings_ = out[k]
        gw = np.bincount(rec.grp, weights=w * a_k * X_k[:, 1], minlength=panels[k].n_groups)
        fit = MixedModelFit(
            tau_hat=float(b[1]),
            se_model=se_m,
            se_cluster_robust=se_r,
            components=components,
            df=float(C - 2),
            n_clusters=C,
            n_obs=n,
            coefficients={nm: float(x) for nm, x in zip(names, b)},
            implied_group_weights=gw,
            variant=variant,
            warnings=warnings_,
        )
        refused = attempt(lambda: check_estimate_variance(v11, mean_square, C))
        out[k] = fit if refused is None else refused
    return out


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
    return one(fits_random_intercept([panel], covariates, variant))
