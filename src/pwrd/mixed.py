"""Random-intercept comparator fit for the cluster randomized panel.

Fits outcome on an intercept, the treatment indicator, and optional
covariates, with a cluster-level random intercept. Variance components
come from method-of-moments mean squares (within-cluster versus
between-cluster), floored at zero, and the coefficient fit is generalized
least squares via the standard quasi-demeaning transform. Both a
model-based and a cluster-robust standard error are reported. The CR2
adjustment (Bell & McCaffrey) is computed for all clusters at once: their
Gram blocks are stacked and go through one batched eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError
from .panel import PanelDataset
from .weights import t_p_value

EIG_FLOOR = 1e-12


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
        return t_p_value(self.tau_hat / self.se_cluster_robust, self.df, alternative)


def _cr_meat(
    Xt: np.ndarray,
    resid: np.ndarray,
    cl: np.ndarray,
    n_clusters: int,
    XtX: np.ndarray,
    variant: str,
) -> np.ndarray:
    p = Xt.shape[1]
    # per-cluster score sums, one row per cluster
    B = np.column_stack(
        [np.bincount(cl, weights=Xt[:, j] * resid, minlength=n_clusters) for j in range(p)]
    )
    if variant == "cr2":
        eva, evec = np.linalg.eigh(XtX)
        if eva.min() <= 0:
            raise NumericalError("singular design in cluster adjustment")
        Khalf = (evec / np.sqrt(eva)) @ evec.T
        # per-cluster Gram blocks Xc'Xc, stacked, from their distinct entries
        G = np.empty((n_clusters, p, p))
        for j in range(p):
            for k in range(j, p):
                G[:, j, k] = G[:, k, j] = np.bincount(
                    cl, weights=Xt[:, j] * Xt[:, k], minlength=n_clusters
                )
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
    with a warning recorded on the fit.
    """
    if variant not in ("cr0", "cr2"):
        raise InputError("variant must be 'cr0' or 'cr2'")
    y = panel.outcome
    n = panel.n_obs
    cl = panel.cluster
    C = panel.n_clusters
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")
    names = ["intercept", "treatment", *covariates]
    X = np.column_stack(
        [np.ones(n), panel.treatment.astype(np.float64)]
        + [panel.column(c) for c in covariates]
    )
    p = X.shape[1]
    warnings_: list[str] = []

    beta_ols, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise NumericalError("rank-deficient design matrix")
    resid = y - X @ beta_ols

    counts = np.bincount(cl, minlength=C)
    m = counts.astype(np.float64)
    if (m == 0).any():
        raise DegenerateDataError("a cluster has no observations")

    # cluster-constant columns count toward the between degrees of freedom
    Xs = np.take(X, np.argsort(cl, kind="stable"), axis=0)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    mx = np.maximum.reduceat(Xs, starts, axis=0)
    mn = np.minimum.reduceat(Xs, starts, axis=0)
    # per column, the same test as np.allclose(mx[:, j], mn[:, j])
    q = int(np.isclose(mx, mn).all(axis=0).sum())

    rbar = np.bincount(cl, weights=resid, minlength=C) / m
    ssw = float(((resid - rbar[cl]) ** 2).sum())
    ssb = float((m * rbar**2).sum())

    if n == C or C <= q:
        warnings_.append("cannot separate variance components; fell back to ordinary least squares")
        sigma2_eps = float((resid**2).sum() / max(n - p, 1))
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
    components = VarianceComponents(sigma2_eps=sigma2_eps, sigma2_mu=sigma2_mu, icc=icc)

    # quasi-demeaning GLS transform
    if sigma2_mu > 0:
        lam = 1.0 - np.sqrt(sigma2_eps / (sigma2_eps + m * sigma2_mu))
    else:
        lam = np.zeros(C)
    lam_row = lam[cl]
    ybar = np.bincount(cl, weights=y, minlength=C) / m
    yt = y - lam_row * ybar[cl]
    xbar = np.column_stack([np.bincount(cl, weights=X[:, j], minlength=C) for j in range(p)])
    Xt = X - lam_row[:, None] * np.take(xbar / m[:, None], cl, axis=0)

    XtX = Xt.T @ Xt
    try:
        K = np.linalg.inv(XtX)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular transformed design") from exc
    beta = K @ (Xt.T @ yt)
    fit_resid = yt - Xt @ beta
    s2 = float(fit_resid @ fit_resid) / max(n - p, 1)
    se_model = float(np.sqrt(s2 * K[1, 1]))

    M = _cr_meat(Xt, fit_resid, cl, C, XtX, variant)
    V = K @ M @ K
    se_cr = float(np.sqrt(V[1, 1]))

    # implied per-group weights of the treated side of the contrast
    v = Xt @ K[:, 1]
    vbar = np.bincount(cl, weights=v, minlength=C) / m
    a = v - lam_row * vbar[cl]
    gw = np.bincount(
        panel.group_ids,
        weights=a * (panel.treatment == 1),
        minlength=panel.n_groups,
    )

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
