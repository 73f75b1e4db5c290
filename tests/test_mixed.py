"""Random-intercept comparator: component recovery, GLS arithmetic against
a direct blockwise solve, and the fallback behavior."""

import numpy as np
import pytest

from pwrd import DegenerateDataError, InputError, NumericalError, fit_random_intercept
from pwrd.mixed import VarianceComponents
from pwrd.panel import PanelDataset

from oracles import random_intercept_robust_se


def intercept_panel(
    C=40, m=8, tau=0.0, sigma2_eps=4.0, sigma2_mu=1.0, seed=0, grades=False, cohorts=False
):
    """Random-intercept panel; ``m`` is one cluster size or one per cluster.

    ``grades`` cycles grade and year within each cluster; ``cohorts`` makes
    the cohort column a cluster-level covariate (1 or 2, by cluster parity).
    """
    rng = np.random.default_rng(seed)
    sizes = np.broadcast_to(m, C)
    n = int(sizes.sum())
    cluster = np.repeat(np.arange(C), sizes)
    pos = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    z = (rng.permutation(C) < C // 2).astype(int)
    treatment = z[cluster]
    mu = rng.normal(scale=np.sqrt(sigma2_mu), size=C)
    y = mu[cluster] + rng.normal(scale=np.sqrt(sigma2_eps), size=n) + tau * treatment
    grade = pos % 3 + 3 if grades else np.full(n, 3)
    year = pos % 3 + 1 if grades else np.ones(n, dtype=int)
    return PanelDataset(
        unit=np.arange(n),
        cluster=cluster,
        treatment=treatment,
        cohort=cluster % 2 + 1 if cohorts else np.ones(n, dtype=int),
        grade=grade,
        year=year,
        outcome=y,
        validate=False,
    )


def test_moment_components_recover_truth_at_scale():
    p = intercept_panel(C=400, m=20, sigma2_eps=4.0, sigma2_mu=1.0, seed=3)
    fit = fit_random_intercept(p, covariates=())
    assert fit.components.sigma2_eps == pytest.approx(4.0, rel=0.1)
    assert fit.components.sigma2_mu == pytest.approx(1.0, rel=0.25)
    assert fit.components.icc == pytest.approx(0.2, abs=0.04)
    assert fit.warnings == ()


def test_treatment_effect_recovered():
    p = intercept_panel(C=200, m=10, tau=2.0, seed=7)
    fit = fit_random_intercept(p, covariates=())
    assert fit.tau_hat == pytest.approx(2.0, abs=4 * fit.se_cluster_robust)
    assert fit.p_value("greater") < 1e-6
    assert fit.df == 198.0
    assert fit.n_clusters == 200


def test_gls_coefficients_match_direct_blockwise_solve():
    # independent route: build the implied covariance cluster by cluster
    # and solve the generalized normal equations explicitly
    p = intercept_panel(C=12, m=5, tau=1.0, seed=11, grades=True)
    fit = fit_random_intercept(p, covariates=("grade",))
    s2e, s2u = fit.components.sigma2_eps, fit.components.sigma2_mu
    X = np.column_stack([np.ones(p.n_obs), p.treatment.astype(float), p.grade.astype(float)])
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for c in range(12):
        rows = p.cluster == c
        Xc = X[rows]
        Vc = s2e * np.eye(rows.sum()) + s2u * np.ones((rows.sum(), rows.sum()))
        Vinv = np.linalg.inv(Vc)
        A += Xc.T @ Vinv @ Xc
        b += Xc.T @ Vinv @ p.outcome[rows]
    beta = np.linalg.solve(A, b)
    assert fit.tau_hat == pytest.approx(beta[1], rel=1e-10)
    assert fit.coefficients["grade"] == pytest.approx(beta[2], rel=1e-10)


def test_singleton_clusters_collapse_to_ols_with_warning():
    p = intercept_panel(C=30, m=1, seed=2)
    fit = fit_random_intercept(p, covariates=())
    assert fit.components.sigma2_mu == 0.0
    assert any("fell back" in w for w in fit.warnings)
    beta, *_ = np.linalg.lstsq(
        np.column_stack([np.ones(p.n_obs), p.treatment.astype(float)]), p.outcome, rcond=None
    )
    assert fit.tau_hat == pytest.approx(beta[1], rel=1e-10)


def test_two_clusters_fit_but_refuse_to_test():
    p = intercept_panel(C=2, m=6, seed=5)
    fit = fit_random_intercept(p, covariates=())
    assert fit.df == 0.0
    with pytest.raises(DegenerateDataError, match="df"):
        fit.p_value()


def test_pvalue_alternatives():
    p = intercept_panel(C=60, m=4, tau=1.0, seed=9)
    fit = fit_random_intercept(p, covariates=())
    g = fit.p_value("greater")
    two = fit.p_value("two-sided")
    assert two == pytest.approx(2 * min(g, 1 - g), rel=1e-12)
    with pytest.raises(ValueError, match="alternative"):
        fit.p_value("less-ish")


def test_implied_treated_weights_sum_to_one():
    p = intercept_panel(C=50, m=6, seed=13, grades=True)
    fit = fit_random_intercept(p, covariates=("grade",))
    assert fit.implied_group_weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_input_validation():
    p = intercept_panel(C=20, m=3, seed=1)
    with pytest.raises(InputError, match="variant"):
        fit_random_intercept(p, covariates=(), variant="cr9")
    # constant grade column is collinear with the intercept
    with pytest.raises(NumericalError, match="rank-deficient"):
        fit_random_intercept(p, covariates=("grade",))
    with pytest.raises(DegenerateDataError, match="at least 2"):
        fit_random_intercept(intercept_panel(C=1, m=8), covariates=())


def test_components_dataclass_validates():
    with pytest.raises(InputError, match="nonnegative"):
        VarianceComponents(sigma2_eps=-1.0, sigma2_mu=0.0, icc=0.0)
    with pytest.raises(InputError, match="icc must lie"):
        VarianceComponents(sigma2_eps=1.0, sigma2_mu=0.0, icc=1.0)
    with pytest.raises(InputError, match="inconsistent"):
        VarianceComponents(sigma2_eps=3.0, sigma2_mu=1.0, icc=0.5)
    ok = VarianceComponents(sigma2_eps=3.0, sigma2_mu=1.0, icc=0.25)
    assert ok.icc == 0.25


def design_matrix(p, covariates):
    return np.column_stack(
        [np.ones(p.n_obs), p.treatment.astype(float)] + [p.column(c) for c in covariates]
    )


UNBALANCED = np.array([1, 2, 3, 5, 8, 13, 4, 6, 2, 9, 7, 3, 11, 5, 1, 6])


@pytest.mark.parametrize("variant", ["cr0", "cr2"])
@pytest.mark.parametrize(
    "case",
    [
        dict(panel=dict(C=16, m=UNBALANCED, tau=1.0, seed=21, grades=True), covariates=("grade",)),
        dict(
            panel=dict(C=16, m=UNBALANCED, seed=22, grades=True, cohorts=True),
            covariates=("grade", "cohort"),
        ),
        dict(panel=dict(C=30, m=1, seed=2), covariates=()),
    ],
    ids=["unbalanced", "cluster-constant-covariate", "singleton-ols"],
)
def test_robust_se_matches_definitional_sandwich(variant, case):
    p = intercept_panel(**case["panel"])
    fit = fit_random_intercept(p, covariates=case["covariates"], variant=variant)
    ref = random_intercept_robust_se(
        design_matrix(p, case["covariates"]),
        p.outcome,
        p.cluster,
        fit.components.sigma2_eps,
        fit.components.sigma2_mu,
        variant,
    )
    assert fit.se_cluster_robust == pytest.approx(ref, rel=1e-10)
    if p.n_obs == p.n_clusters:
        assert fit.components.sigma2_mu == 0.0
        assert any("fell back" in w for w in fit.warnings)
    else:
        assert fit.components.sigma2_mu > 0


def test_cluster_constant_covariate_counts_toward_between_df():
    # intercept, treatment and cohort are constant within clusters; grade is not
    p = intercept_panel(C=16, m=UNBALANCED, seed=22, grades=True, cohorts=True)
    covariates = ("grade", "cohort")
    fit = fit_random_intercept(p, covariates=covariates)
    X = design_matrix(p, covariates)
    resid = p.outcome - X @ np.linalg.lstsq(X, p.outcome, rcond=None)[0]
    n, C, m = p.n_obs, p.n_clusters, UNBALANCED.astype(float)
    rbar = np.array([resid[p.cluster == c].mean() for c in range(C)])
    ssw = sum(((resid[p.cluster == c] - rbar[c]) ** 2).sum() for c in range(C))
    s2e = ssw / (n - C)
    q = 3
    n0 = (n - (m**2).sum() / n) / (C - q)
    s2mu = ((m * rbar**2).sum() / (C - q) - s2e) / n0
    assert s2mu > 0
    assert fit.components.sigma2_eps == pytest.approx(s2e, rel=1e-12)
    assert fit.components.sigma2_mu == pytest.approx(s2mu, rel=1e-10)
