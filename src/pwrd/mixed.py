"""Random-intercept comparator fit for the cluster randomized panel.

Fits outcome on an intercept, the treatment indicator, and optional
covariates, with a cluster-level random intercept. Variance components
come from method-of-moments mean squares (within-cluster versus
between-cluster), floored at zero, and the coefficient fit is generalized
least squares via the standard quasi-demeaning transform. Both a
model-based and a cluster-robust standard error are reported. A covariate
constant on the fit's rows is refused as input, by name: the intercept
already holds it.

The fit reads records: the rows that share a cluster, a group and
covariate values, each given by its row count w_r and outcome sum s_r.
When every covariate is constant within each (cluster, group) cell, as
grade, cohort and follow-up year are, the records are the panel's nonempty
cells and their sums the cell table's (``panel.cells.s``), added from the
same rows in the same order. The record layout (``_layout``) is computed
once per design when the design fixes every covariate, else once per
assignment, with all it fixes: the covariates centred on their row means;
each record's deviation D_r from its cluster's weighted mean of them; per
cluster, the row count m_c, the mean row of (1, covariates) and the within
scatter W_c; and q, the design columns constant within every cluster.

Everything else comes from per-cluster sums ("You Only Compress Once",
Wong et al. 2021). With xbar_c a cluster's mean design row (1, z_c,
covariates), ybar_c its mean outcome and Q_c = sum_r D_r s_r, OLS and GLS
are each one p x p system A(f) beta = sum_c Q_c + f_c ybar_c xbar_c, with
A(f) = sum_c W_c + f_c xbar_c xbar_c' and f = m for OLS, (1 - lambda)^2 m
for GLS, as the quasi-demeaning transform scales only the mean rows. A
residual sum of squares is a within part, of ybar_r - ybar_c - D_r'beta
over the records, plus f_c (ybar_c - xbar_c'beta)^2 over the clusters. The
outcome and the covariates are centred, so a shift of either moves only
the intercept, which is reported uncentred.

The CR2 adjustment (Bell & McCaffrey 2002) is exact and is computed for
all clusters at once, in p - 1 dimensions for p design columns. Treatment
is constant within a cluster, so after the transform the treatment column
is z_c times the intercept column: H_cc = Y_c (T K T') Y_c' with Y_c the
transformed rows less treatment and T the map of the cluster's arm. That
is the block route of ``covariance.cr2_direction``, with F the Cholesky
factor of T K T' (one per arm), G_c = Y_c'Y_c = W_c + (1 - lambda_c)^2
m_c xbar_c xbar_c' and the score Y_c'e_c = Q_c - W_c beta + f_c (ybar_c -
xbar_c'beta) xbar_c, xbar_c less treatment.

``fits_random_intercept`` fits a list of panels. Each makes one pass over
its rows (``_row_pass``); the fits whose panels share a record layout then
run as one stack, every array carrying a leading replicate axis.
``fit_random_intercept`` is the stack of one panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .covariance import cr2_direction
from .errors import DegenerateDataError, InputError, NumericalError, PwrdError, attempt, one
from .panel import DESIGN_COVARIATES, PanelDataset, group_rows
from .tails import VARIANTS
from .weights import ROUNDING_FLOOR, check_estimate_variance, check_finite, estimate_p_value


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
    """Treatment effect from the random-intercept regression; its implied
    group weights are computed on first read (``_group_weights``)."""

    tau_hat: float
    se_model: float
    se_cluster_robust: float
    components: VarianceComponents
    df: float
    n_clusters: int
    n_obs: int
    coefficients: dict
    variant: str
    warnings: tuple[str, ...] = ()
    _group_weights: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def implied_group_weights(self) -> np.ndarray:
        """Per-group weights of the treated side of the effect's contrast."""
        return self._group_weights()

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
        """t test on the cluster-robust standard error (``estimate_p_value``)."""
        return estimate_p_value(self.tau_hat, self.se_cluster_robust, self.df, alternative)


@dataclass(frozen=True, eq=False)
class _Layout:
    """What a record layout fixes, for every assignment on it (``_layout``):
    each row's record; each record's cluster, group, row count and the
    deviation of its centred covariate values from its cluster's weighted
    mean (``dev``); each cluster's first record and row count; each
    record's cell when the records are the panel's nonempty cells (else
    None); the covariates' row means (``shift``); per cluster, the weighted
    mean of x = (1, centred covariates) and the within scatter of x; and q,
    the design columns constant within every cluster. Its arrays are
    read-only."""

    row: np.ndarray
    cl: np.ndarray
    grp: np.ndarray
    w: np.ndarray
    dev: np.ndarray
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

    def sums(self, panel: PanelDataset) -> np.ndarray:
        """Each record's outcome sum: its cell's sum when the records are
        the cells, the same rows added in the same order."""
        if self.cell is not None:
            return panel.cells.s.ravel()[self.cell]
        return np.bincount(self.row, weights=panel.outcome, minlength=len(self.w))


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
    dev = cov - mean[cl, 1:]
    j, l = np.triu_indices(k)
    within = np.zeros((C, k + 1, k + 1))
    within[:, 1 + j, 1 + l] = within[:, 1 + l, 1 + j] = np.add.reduceat(
        (w[:, None] * dev[:, j]) * dev[:, l], starts, axis=0
    )
    # intercept, treatment and each covariate whose range in every cluster is
    # within 1e-5 of its range over the rows, a test no change of units moves
    mx, mn = np.maximum.reduceat(cov, starts, axis=0), np.minimum.reduceat(cov, starts, axis=0)
    q = 2 + int((mx - mn <= 1e-5 * np.ptp(cov, axis=0)).all(axis=0).sum())
    # records refine the nonempty cells, so if they are as many, they are the cells
    cell = np.flatnonzero(cell_m.ravel())
    if len(cell) != len(first):
        cell = None
    return _Layout(row, cl, grp, w, dev, starts, m, cell, shift, mean, within, q)


def _row_pass(
    panel: PanelDataset, covariates: tuple[str, ...]
) -> tuple[_Layout, np.ndarray, float]:
    """All a fit reads from the panel's rows: its record layout, once per
    design when the design fixes every covariate, the records' outcome sums,
    and the rows' sum of squared deviations from their record means, which
    every residual sum of squares of the fit contains."""
    C = panel.n_clusters
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")
    fixed = set(covariates) <= DESIGN_COVARIATES.keys()
    tier = panel.design_tier if fixed else panel.assignment_tier
    lay = tier.get(("mixed layout", covariates), lambda: _layout(panel, covariates))
    s = lay.sums(panel)
    dev2 = (panel.outcome - (s / lay.w)[lay.row]) ** 2
    return lay, s, float(np.bincount(lay.row, weights=dev2, minlength=len(lay.w)).sum())


@lru_cache(maxsize=None)
def _arm_maps(p: int) -> np.ndarray:
    """T for each arm, (2, p - 1, p), built once per p and read-only. T for
    arm a maps (intercept, covariates) to (intercept, treatment,
    covariates): the intercept's entry goes to the treatment column times a."""
    T = np.zeros((2, p - 1, p))
    T[:, 0, 0] = T[1, 0, 1] = 1.0
    T[:, 1:, 2:] = np.eye(p - 2)
    T.flags.writeable = False
    return T


def _normal_equations(f, xbar, ybar, within, cross) -> tuple[np.ndarray, np.ndarray]:
    """A(f), (R, p, p), and sum_c Q_c + f_c ybar_c xbar_c, (R, p), given
    sum_c W_c (``within``) and sum_c Q_c (``cross``) of the covariates."""
    fx = np.swapaxes(f[:, :, None] * xbar, 1, 2)
    A = fx @ xbar
    A[:, 2:, 2:] += within
    rhs = (fx @ ybar[:, :, None])[:, :, 0]
    rhs[:, 2:] += cross
    return A, rhs


def _unit_diagonal(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each Gram matrix of ``A`` (R, p, p) scaled to a unit diagonal, the root
    d of its diagonal, and whether d is positive and finite (else the scaled
    matrix is I). No column's units move the scaled matrix or its solves."""
    d = np.sqrt(np.diagonal(A, axis1=1, axis2=2))
    ok = ((d > 0) & np.isfinite(d)).all(axis=1)
    d = np.where(ok[:, None], d, 1.0)
    scaled = np.where(ok[:, None, None], A / (d[:, :, None] * d[:, None, :]), np.eye(A.shape[1]))
    return scaled, d, ok


def _residuals(lay: _Layout, beta, dev, xbar, ybar) -> tuple[np.ndarray, np.ndarray]:
    """Each fit's within residuals ybar_r - ybar_c - D_r'beta, (R, N), and
    between residuals ybar_c - xbar_c'beta, (R, C), given ``dev`` = ybar_r -
    ybar_c."""
    within = dev - (lay.dev * beta[:, None, 2:]).sum(axis=2)
    return within, ybar - (xbar * beta[:, None, :]).sum(axis=2)


def _cr2_inputs(lay: _Layout, z, A, K, lam) -> tuple | None:
    """Each cluster's arm's Cholesky factor F of T K T' and its block G_c =
    Y_c'Y_c, both (R, C, p - 1, p - 1), for a stack of fits on the layout
    ``lay`` with the clusters' arms ``z`` (R, C), transformed Gram matrices
    ``A``, scaled to a unit diagonal, and their unscaled inverses ``K`` (R,
    p, p) and GLS factors ``lam`` (R, C); None when a fit's design is
    singular for the adjustment."""
    if (np.linalg.eigvalsh(A).min(axis=1) <= 0).any():
        return None
    T = _arm_maps(K.shape[2])
    try:
        F = np.linalg.cholesky(T @ K[:, None] @ np.swapaxes(T, 1, 2))
    except np.linalg.LinAlgError:
        return None
    G = lay.within + ((1.0 - lam) ** 2 * lay.m)[:, :, None, None] * (
        lay.mean[:, :, None] * lay.mean[:, None, :]
    )
    return F[np.arange(len(F))[:, None], z], G


def _robust_variance(b, K, z, cr2) -> np.ndarray:
    """The cluster-robust variance of each fit's treatment coefficient, (R,),
    from its clusters' scores ``b`` = Y_c'e_c (R, C, p - 1): the entry (1,
    1) of K (sum_c B_c B_c') K, B_c = Xt_c' e_c for CR0 (``cr2`` None) and
    Xt_c'(I - H_cc)^(-1/2) e_c for CR2, from the ``_cr2_inputs`` ``cr2``.
    As Xt_c = Y_c T (``_arm_maps``), B_c = T'b_c, and the variance is the
    sum over clusters of (t_c'b_c)^2, t_c = T K e_1 or its ``cr2_direction``.
    """
    t = (_arm_maps(K.shape[2]) @ K[:, None, :, 1:2])[np.arange(len(K))[:, None], z]
    if cr2 is not None:
        t = cr2_direction(*cr2, t)
    g = (b * t[..., 0]).sum(axis=2)
    return (g * g).sum(axis=1)


def _implied_weights(lay: _Layout, z, lam, k, n_groups: int) -> np.ndarray:
    """A fit's implied weight of each group's treated records: the treatment
    coefficient is sum_r w_r a_r ybar_r, a_r = (1 - lambda_c)^2 xbar_c'k +
    D_r'k with k the treatment column of K, given the arms ``z``."""
    xk = k[0] + z * k[1] + lay.mean[:, 1:] @ k[2:]
    a = ((1.0 - lam) ** 2 * xk)[lay.cl] + lay.dev @ k[2:]
    return np.bincount(lay.grp, weights=lay.w * a * z[lay.cl], minlength=n_groups)


def _components(
    n: int, C: int, p: int, q: int, m2: float, ss_within: float, sums: tuple[float, ...]
) -> tuple[VarianceComponents, float, tuple[str, ...]]:
    """The variance components of one fit, the outcome's mean square and
    the fit's warnings, from its sums of squares."""
    ssw, ssb, wy2 = sums
    ssw += ss_within
    warnings_: tuple[str, ...] = ()
    if n == C or C <= q:
        warnings_ = ("cannot separate variance components; fell back to ordinary least squares",)
        sigma2_eps = (ssw + ssb) / max(n - p, 1)
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

    Each panel makes its own pass over its rows (``_row_pass``); the rest
    is computed once per stack of panels that share a record layout.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    out: list = []
    groups: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails check_finite
        for i, panel in enumerate(panels):
            out.append(attempt(lambda: _row_pass(panel, covariates)))
            if not isinstance(out[i], PwrdError):
                groups.setdefault(id(out[i][0]), []).append(i)
    for idx in groups.values():
        fits = _fit_stack([panels[i] for i in idx], [out[i] for i in idx], covariates, variant)
        for i, fit in zip(idx, fits):
            out[i] = fit
    return out


def _fit_stack(panels, passes, covariates, variant) -> list:
    """The fits of panels whose row passes share a record layout."""
    lay = passes[0][0]
    n, C, p = panels[0].n_obs, panels[0].n_clusters, lay.mean.shape[1] + 1
    S = np.stack([s for _, s, _ in passes])
    z = np.stack([panel.z_by_cluster for panel in panels]).astype(np.intp)
    xbar = np.empty((len(S), C, p))
    xbar[:, :, 0], xbar[:, :, 1], xbar[:, :, 2:] = 1.0, z, lay.mean[:, 1:]
    within = lay.within[:, 1:, 1:].sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails check_finite
        Sc = np.add.reduceat(S, lay.starts, axis=1)
        # centred on the panel mean, so a shifted outcome moves only the intercept
        centre = Sc.sum(axis=1) / n
        ybar = Sc / lay.m - centre[:, None]
        # each record's mean outcome less its cluster's, and the clusters' Q_c
        dev = S / lay.w - (Sc / lay.m)[:, lay.cl]
        Q = np.add.reduceat((lay.w * dev)[:, :, None] * lay.dev, lay.starts, axis=1)
        cross = Q.sum(axis=1)
        A, rhs = _normal_equations(lay.m[None], xbar, ybar, within, cross)
        # full rank by numpy's matrix_rank rule on the scaled Gram, so that
        # no change of a column's units moves the verdict
        A, d, ok = _unit_diagonal(A)
        full = ok & (np.linalg.matrix_rank(A, hermitian=True) == p)
        A = np.where(full[:, None, None], A, np.eye(p))
        beta = np.linalg.solve(A, (rhs / d)[:, :, None])[:, :, 0] / d
        res_w, res_b = _residuals(lay, beta, dev, xbar, ybar)
        ssw, ssb = (lay.w * res_w**2).sum(axis=1), (lay.m * res_b**2).sum(axis=1)
        sums = (ssw, ssb, np.array([lay.w @ y2 for y2 in (S / lay.w) ** 2]))
    m2 = float((lay.m**2).sum())
    # cluster-constant columns count toward the between degrees of freedom
    out = [
        attempt(lambda: _components(n, C, p, lay.q, m2, ss_within, row))
        if is_full else NumericalError("rank-deficient design matrix")
        for is_full, (*_, ss_within), row in zip(full, passes, zip(*(a.tolist() for a in sums)))
    ]
    live = [k for k, found in enumerate(out) if not isinstance(found, PwrdError)]
    if not live:
        return out
    eps = np.array([out[k][0].sigma2_eps for k in live])[:, None]
    mu = np.array([out[k][0].sigma2_mu for k in live])[:, None]

    # the quasi-demeaning GLS transform scales each cluster's mean row
    lam = np.where(mu > 0, 1.0 - np.sqrt(eps / (eps + lay.m * mu)), 0.0)
    f = (1.0 - lam) ** 2 * lay.m
    z, xbar, ybar, dev, Q = z[live], xbar[live], ybar[live], dev[live], Q[live]
    A, rhs = _normal_equations(f, xbar, ybar, within, cross[live])
    A, d, _ = _unit_diagonal(A)
    try:
        K = np.linalg.inv(A) / (d[:, :, None] * d[:, None, :])
        refused = None
    except np.linalg.LinAlgError:
        refused = "singular transformed design"
    cr2 = None
    if refused is None and variant == "cr2":
        cr2 = _cr2_inputs(lay, z, A, K, lam)
        if cr2 is None:
            refused = "singular design in cluster adjustment"
    if refused is not None:  # a fit refuses its design: each is fitted alone
        for k in live:
            if len(live) > 1:
                out[k] = _fit_stack([panels[k]], [passes[k]], covariates, variant)[0]
            else:
                out[k] = NumericalError(refused)
        return out

    beta = (K @ rhs[:, :, None])[:, :, 0]
    res_w, res_b = _residuals(lay, beta, dev, xbar, ybar)
    ss_within = np.array([passes[k][2] for k in live])
    ss_gls = ss_within + (lay.w * res_w**2).sum(axis=1) + (f * res_b**2).sum(axis=1)
    s2 = ss_gls / max(n - p, 1)
    # the clusters' scores Y_c'e_c, in p - 1 dimensions
    b = (f * res_b)[:, :, None] * lay.mean
    b[:, :, 1:] += Q - (lay.within[None, :, 1:, 1:] * beta[:, None, None, 2:]).sum(axis=3)
    v11 = _robust_variance(b, K, z, cr2)
    with np.errstate(invalid="ignore"):  # a negative variance fails check_test_variance
        se_model = np.sqrt(s2 * K[:, 1, 1])
        se_cr = np.sqrt(v11)

    names = ["intercept", "treatment", *covariates]
    # the intercept of the uncentred outcome and covariates
    beta[:, 0] += centre[live] - beta[:, 2:] @ lay.shift
    n_groups = panels[0].n_groups
    found = zip(live, beta.tolist(), se_model.tolist(), se_cr.tolist(), v11.tolist())
    for i, (k, b_k, se_m, se_r, var) in enumerate(found):
        components, mean_square, warnings_ = out[k]
        fit = MixedModelFit(
            tau_hat=b_k[1],
            se_model=se_m,
            se_cluster_robust=se_r,
            components=components,
            df=float(C - 2),
            n_clusters=C,
            n_obs=n,
            coefficients=dict(zip(names, b_k)),
            variant=variant,
            warnings=warnings_,
            _group_weights=partial(_implied_weights, lay, z[i], lam[i], K[i, :, 1], n_groups),
        )
        refused = attempt(lambda: check_estimate_variance(var, mean_square, C))
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
    with a warning recorded on the fit. A design matrix that is
    rank-deficient, by numpy's ``matrix_rank`` rule on its Gram matrix
    scaled to a unit diagonal, is refused as a numerical failure. A
    panel with no within-cluster residual variation is refused as
    degenerate. Components that sum to at most ``ROUNDING_FLOOR`` times the
    outcome's mean square are rounding, not variation, and are refused as a
    numerical failure; so is a cluster-robust variance of the effect at that
    level (``check_test_variance``) unless df <= 0, which the test refuses
    first.
    """
    return one(fits_random_intercept([panel], covariates, variant))
