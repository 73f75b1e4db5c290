"""Random-intercept comparator: component recovery, GLS arithmetic against
a direct blockwise solve, the fallback behavior, and agreement between the
record-keyed fit and a reference fit that walks the rows."""

from dataclasses import replace

import numpy as np
import pytest

from pwrd import DegenerateDataError, InputError, NumericalError, fit_random_intercept
from pwrd.mixed import VarianceComponents
from pwrd.panel import PanelDataset
from pwrd.simulate import EffectSpec, apply_effect, default_scenario, generate_panel

from oracles import random_intercept_by_rows, random_intercept_robust_se


def intercept_panel(
    C=40,
    m=8,
    tau=0.0,
    sigma2_eps=4.0,
    sigma2_mu=1.0,
    seed=0,
    grades=False,
    cohorts=False,
    pretest=False,
):
    """Random-intercept panel; ``m`` is one cluster size or one per cluster.

    ``grades`` cycles grade and year within each cluster; ``cohorts`` makes
    the cohort column a cluster-level covariate (1 or 2, by cluster parity);
    ``pretest`` adds a per-row covariate that the outcome loads on.
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
    covariates = {}
    if pretest:
        covariates["pretest"] = rng.normal(size=n)
        y = y + 0.5 * covariates["pretest"]
    return PanelDataset(
        unit=np.arange(n),
        cluster=cluster,
        treatment=treatment,
        cohort=cluster % 2 + 1 if cohorts else np.ones(n, dtype=int),
        grade=grade,
        year=year,
        outcome=y,
        covariates=covariates,
        validate=False,
    )


def with_covariates(p, covariates):
    """``p`` with the schema covariates ``covariates`` in place of its own."""
    return PanelDataset(
        unit=p.unit,
        cluster=p.cluster,
        treatment=p.treatment,
        cohort=p.cohort,
        grade=p.grade,
        year=p.year,
        outcome=p.outcome,
        covariates=covariates,
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


def test_a_zero_robust_se_is_refused_not_divided_by():
    fit = fit_random_intercept(intercept_panel(C=20, m=4, seed=5), covariates=())
    with pytest.raises(NumericalError, match="zero standard error"):
        replace(fit, se_cluster_robust=0.0).p_value()
    # df <= 0 is refused first, as degenerate data
    with pytest.raises(DegenerateDataError, match="df = 0"):
        replace(fit, se_cluster_robust=0.0, df=0.0).p_value()


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
    # a constant grade column is the intercept's: refused as input, by name
    with pytest.raises(InputError, match="covariate 'grade' is constant on the fit's rows"):
        fit_random_intercept(p, covariates=("grade",))
    # two covariates that vary but are collinear reach the numerical check
    twin = intercept_panel(C=20, m=3, seed=1, grades=True)
    twin = with_covariates(twin, {"twice_grade": 2.0 * twin.column("grade")})
    with pytest.raises(NumericalError, match="rank-deficient design matrix"):
        fit_random_intercept(twin, covariates=("grade", "twice_grade"))
    with pytest.raises(DegenerateDataError, match="at least 2"):
        fit_random_intercept(intercept_panel(C=1, m=8), covariates=())
    # an outcome constant within clusters leaves sigma2_eps zero and icc 1
    flat = intercept_panel(C=6, m=2, sigma2_eps=0.0, seed=4, grades=True)
    with pytest.raises(DegenerateDataError, match="zero within-cluster residual variance"):
        fit_random_intercept(flat, covariates=("grade",))


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
        dict(
            panel=dict(C=16, m=UNBALANCED, tau=1.0, seed=23, grades=True, pretest=True),
            covariates=("grade", "pretest"),
        ),
    ],
    ids=["unbalanced", "cluster-constant-covariate", "singleton-ols", "row-covariate"],
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


@pytest.mark.parametrize("variant", ["cr0", "cr2"])
@pytest.mark.parametrize(
    "covariates", [("grade",), ("cohort", "follow_up_year"), ("grade", "parity")]
)
def test_cell_and_row_records_agree(variant, covariates):
    # the records are the cells when the covariates are design columns or
    # the same values named as schema columns, and (cell, parity) pairs
    # when a covariate varies within cells; each fit matches a row walk
    sc = default_scenario(EffectSpec("effect1", tau=5.5), n_clusters=12)
    p = apply_effect(generate_panel(sc, 3), sc.effect, 3)
    schema = {f"{c}_copy": p.column(c) for c in ("grade", "cohort", "follow_up_year")}
    p = with_covariates(p, {**schema, "parity": (p.unit % 2).astype(np.float64)})
    ref = random_intercept_by_rows(
        design_matrix(p, covariates), p.outcome, p.cluster, p.group_ids, p.n_groups, variant
    )
    copies = tuple(c if c == "parity" else f"{c}_copy" for c in covariates)
    for names in (covariates, copies):
        fit = fit_random_intercept(p, covariates=names, variant=variant)
        assert fit.tau_hat == pytest.approx(ref["tau_hat"], rel=1e-10)
        assert fit.se_model == pytest.approx(ref["se_model"], rel=1e-10)
        assert fit.se_cluster_robust == pytest.approx(ref["se_cr"], rel=1e-10)
        assert fit.components.sigma2_eps == pytest.approx(ref["sigma2_eps"], rel=1e-10)
        assert fit.components.sigma2_mu == pytest.approx(ref["sigma2_mu"], rel=1e-10)
        assert list(fit.coefficients.values()) == pytest.approx(list(ref["coefficients"]), rel=1e-10)
        np.testing.assert_allclose(
            fit.implied_group_weights, ref["implied_group_weights"], rtol=1e-10, atol=0
        )


def test_a_refused_fit_in_a_stack_leaves_its_neighbours_alone(monkeypatch):
    from pwrd.mixed import fits_random_intercept

    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    panels = [
        apply_effect(generate_panel(sc, r), sc.effect.with_level(lv), r)
        for r in range(3)
        for lv in (0.0, 5.5)
    ]
    alone = [fit_random_intercept(p) for p in panels]
    # the fit of panel 3 finds its transformed design singular
    real_inv, seen = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: seen.append(np.array(a)) or real_inv(a))
    fit_random_intercept(panels[3])
    marked = seen[0][0]

    def inv(a):
        if any(np.array_equal(block, marked) for block in np.asarray(a)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    found = fits_random_intercept(panels)
    assert isinstance(found[3], NumericalError)
    assert str(found[3]) == "singular transformed design"
    for i in (0, 1, 2, 4, 5):
        assert found[i].tau_hat == alone[i].tau_hat
        assert found[i].se_cluster_robust == alone[i].se_cluster_robust


@pytest.mark.parametrize("case", ["default", "unbalanced-empty-cells"])
def test_record_sums_from_the_cells_equal_the_row_bincount(case):
    from pwrd.mixed import _records

    if case == "default":
        sc = default_scenario(EffectSpec("effect1", tau=5.5))
        p = apply_effect(generate_panel(sc, 3), sc.effect, 3)
    else:  # clusters of one or two rows leave later follow-up years empty
        p = intercept_panel(C=16, m=UNBALANCED, tau=1.0, seed=21, grades=True)
        assert (p.cells.m == 0).any()
    rec = _records(p, ("grade",))
    assert rec.cell is not None
    want = np.bincount(rec.row, weights=p.outcome, minlength=len(rec.w))
    assert rec.sums(p).tobytes() == want.tobytes()
    # records finer than the cells sum their rows
    parity = with_covariates(p, {"parity": (p.unit % 2).astype(np.float64)})
    assert _records(parity, ("grade", "parity")).cell is None


@pytest.mark.parametrize("variant", ["cr0", "cr2"])
@pytest.mark.parametrize(
    "covariates", [(), ("grade",), ("grade", "cohort"), ("follow_up_year",), ("pretest",)]
)
def test_stacked_fits_match_the_per_panel_oracle(variant, covariates):
    # the stack's CR2 works in p - 1 dimensions from Gram blocks built once
    # per layout; the oracle decomposes each cluster's full p x p block
    from pwrd.mixed import fits_random_intercept

    from oracles import replicate_mixed

    sc = default_scenario(EffectSpec("effect1", tau=5.5), n_clusters=12)
    rng = np.random.default_rng(17)
    panels = []
    for r in range(3):
        base = generate_panel(sc, r)
        if covariates == ("pretest",):
            base = with_covariates(base, {"pretest": rng.normal(size=base.n_obs)})
        for level in (0.0, 5.5):
            panels.append(base.with_outcome(base.outcome + level * base.treatment * (r + 1) / 3))
    for p, fit in zip(panels, fits_random_intercept(panels, covariates, variant)):
        tau, se, df = replicate_mixed(p, covariates, variant)
        assert fit.tau_hat == tau
        assert fit.se_cluster_robust == pytest.approx(se, rel=1e-12, abs=0.0)
        assert fit.df == df


def test_an_offset_covariate_keeps_the_cr2_se():
    # the layout centres each covariate on the rows, so a covariate far from
    # zero leaves the fit as the centred one's; the intercept maps back
    p = intercept_panel(C=16, m=UNBALANCED, tau=1.0, seed=23, grades=True)
    x = np.random.default_rng(6).normal(size=p.n_obs)
    for variant in ("cr0", "cr2"):
        centred = fit_random_intercept(with_covariates(p, {"x": x}), ("x",), variant)
        offset = fit_random_intercept(with_covariates(p, {"x": 2e4 + x}), ("x",), variant)
        for field in ("tau_hat", "se_model", "se_cluster_robust"):
            assert getattr(offset, field) == pytest.approx(getattr(centred, field), rel=1e-12)
        b = centred.coefficients
        assert offset.coefficients["x"] == pytest.approx(b["x"], rel=1e-10)
        assert offset.coefficients["intercept"] == pytest.approx(
            b["intercept"] - 2e4 * b["x"], rel=1e-10
        )


def test_a_shifted_covariate_keeps_the_between_df():
    # a cluster-level covariate with row noise varies within clusters; the
    # cluster-constant test reads centred columns, so a shift of 2e4 cannot
    # widen its tolerance until the covariate counts as constant
    from pwrd.mixed import _records

    p = intercept_panel(C=16, m=UNBALANCED, tau=1.0, seed=23, grades=True)
    rng = np.random.default_rng(6)
    x = rng.normal(size=p.n_clusters)[p.cluster] + rng.normal(scale=0.02, size=p.n_obs)
    fits = []
    for shift in (0.0, 2e4):
        shifted = with_covariates(p, {"x": shift + x})
        assert _records(shifted, ("x",)).q == 2
        fits.append(fit_random_intercept(shifted, ("x",)))
    base, offset = fits
    assert offset.components.sigma2_eps == pytest.approx(base.components.sigma2_eps, rel=1e-12)
    assert offset.components.sigma2_mu == pytest.approx(base.components.sigma2_mu, rel=1e-12)
    assert offset.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)


def test_a_rescaled_covariate_keeps_the_between_df():
    # a row covariate varies within clusters in any units: the
    # cluster-constant test compares each cluster's range with the column's,
    # so neither 1e-9 nor 1e9 makes it count as constant
    from pwrd.mixed import _records

    p = intercept_panel(C=16, m=UNBALANCED, tau=1.0, seed=23, grades=True)
    x = np.random.default_rng(6).normal(size=p.n_obs)
    fits = []
    for scale in (1.0, 1e-9, 1e9):
        scaled = with_covariates(p, {"x": scale * x})
        assert _records(scaled, ("x",)).q == 2
        fits.append(fit_random_intercept(scaled, ("x",)))
    base = fits[0]
    for fit in fits[1:]:
        assert fit.components.sigma2_mu == pytest.approx(base.components.sigma2_mu, rel=1e-12)
        assert fit.tau_hat == pytest.approx(base.tau_hat, rel=1e-12)
