"""Group effect estimators against hand arithmetic on tiny panels."""

import numpy as np
import pytest

from pwrd import (
    DegenerateDataError,
    EffectSpec,
    InputError,
    NumericalError,
    aggregate_test,
    apply_effect,
    cluster_covariance,
    default_scenario,
    estimate_effects_diffmeans,
    estimate_effects_peters_belson,
    estimate_p0,
    exit_observation_estimate,
    generate_panel,
    pwrd_weights,
)
from pwrd import effects
from pwrd.effects import effects_to_json_dict
from pwrd.panel import PanelDataset
from pwrd.tails import t_p_value

from test_panel import tiny_panel


def test_diffmeans_matches_hand_arithmetic():
    p = tiny_panel()
    eff = estimate_effects_diffmeans(p)
    # each group holds one treated and one control row; see tiny_panel layout
    np.testing.assert_allclose(eff.estimates, [1 - 5, 3 - 7, 2 - 6, 4 - 8][0:4:2] + [-4, -4])
    assert eff.method == "difference-in-means"
    np.testing.assert_array_equal(eff.n, [2, 2, 2, 2])
    assert eff.excluded == ()


def test_degenerate_groups_are_excluded_and_reported():
    # unit 4 enters at its own grade inside the treated cluster only
    p = tiny_panel(
        unit=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4]),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1, 0]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1]),
        cohort=np.ones(9, dtype=int),
        grade=np.array([3, 4, 4, 5, 3, 4, 4, 5, 7]),
        year=np.array([1, 2, 1, 2, 1, 2, 1, 2, 1]),
        outcome=np.arange(9, dtype=float),
        tested_in=np.zeros(9, dtype=int),
    )
    eff = estimate_effects_diffmeans(p)
    assert eff.n_groups == 4
    assert len(eff.excluded) == 1
    assert eff.excluded[0].group.entry_grade == 7
    assert "no control observations" in eff.excluded[0].reason


def test_all_degenerate_raises():
    p = tiny_panel(treatment=np.ones(8, dtype=int), validate=False)
    with pytest.raises(DegenerateDataError, match="both arms"):
        estimate_effects_diffmeans(p)


def test_peters_belson_without_covariates_is_diffmeans():
    p = tiny_panel()
    a = estimate_effects_diffmeans(p)
    b = estimate_effects_peters_belson(p)
    np.testing.assert_array_equal(b.estimates, a.estimates)
    assert b.method == "difference-in-means"


def test_peters_belson_removes_linear_covariate_signal():
    # outcome = 2*score + arm effect; control fit recovers the slope exactly,
    # so the residual contrast equals the pure effect
    rng = np.random.default_rng(0)
    n_units = 40
    unit = np.arange(n_units)
    cluster = unit % 8
    treatment = (cluster < 4).astype(int)
    score = rng.normal(size=n_units)
    effect = 1.75
    outcome = 2.0 * score + effect * treatment
    p = PanelDataset(
        unit=unit,
        cluster=cluster,
        treatment=treatment,
        cohort=np.ones(n_units, dtype=int),
        grade=np.full(n_units, 3),
        year=np.ones(n_units, dtype=int),
        outcome=outcome,
        covariates={"score": score},
    )
    eff = estimate_effects_peters_belson(p, covariates=("score",))
    assert eff.estimates[0] == pytest.approx(effect, abs=1e-10)


def one_group_panel(n_per_arm=4, **overrides):
    """One cohort-year group, one treated and one control cluster."""
    n = 2 * n_per_arm
    cols = dict(
        unit=np.arange(n),
        cluster=(np.arange(n) >= n_per_arm).astype(int),
        treatment=(np.arange(n) < n_per_arm).astype(int),
        cohort=np.ones(n, dtype=int),
        grade=np.full(n, 3),
        year=np.ones(n, dtype=int),
        outcome=np.arange(n, dtype=float),
    )
    cols.update(overrides)
    return PanelDataset(**cols)


def test_peters_belson_excludes_thin_control_groups():
    # the grade-7 group has a single control row, too few for two coefficients
    p = one_group_panel(
        unit=np.arange(10),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0]),
        cohort=np.ones(10, dtype=int),
        grade=np.array([3, 3, 3, 3, 3, 3, 3, 3, 7, 7]),
        year=np.ones(10, dtype=int),
        outcome=np.arange(10, dtype=float),
        covariates={"score": np.array([0.1, 0.5, 0.9, 0.2, 0.8, 0.3, 0.6, 0.4, 0.7, 0.5])},
    )
    eff = estimate_effects_peters_belson(p, covariates=("score",))
    assert len(eff.excluded) == 1
    assert "1 control rows for 2 coefficients" in eff.excluded[0].reason
    assert all(gi.entry_grade != 7 for gi in eff.groups)


def test_p0_follows_the_groups_an_estimator_kept():
    p = one_group_panel(
        unit=np.arange(10),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0]),
        cohort=np.ones(10, dtype=int),
        grade=np.array([3, 3, 3, 3, 3, 3, 3, 3, 7, 7]),
        year=np.ones(10, dtype=int),
        outcome=np.arange(10, dtype=float),
        tested_in=np.array([0, 0, 0, 0, 1, 1, 0, 0, 0, 1]),
        covariates={"score": np.array([0.1, 0.5, 0.9, 0.2, 0.8, 0.3, 0.6, 0.4, 0.7, 0.5])},
    )
    eff = estimate_effects_peters_belson(p, covariates=("score",))
    full = estimate_p0(p)
    assert len(full.groups) == 2 and len(eff.groups) == 1
    p0 = full.on_groups(eff.groups)
    assert p0.group_ordinals() == eff.group_ordinals()
    np.testing.assert_array_equal(p0.p_hat, [0.5])
    np.testing.assert_array_equal(p0.n_control, [4])


def test_peters_belson_rank_deficiency_raises():
    p = one_group_panel(covariates={"flat": np.ones(8)})
    with pytest.raises(NumericalError, match="rank-deficient"):
        estimate_effects_peters_belson(p, covariates=("flat",))


@pytest.mark.parametrize("name", ["grade", "cohort", "follow_up_year"])
def test_peters_belson_refuses_design_covariates_before_any_fit(monkeypatch, name):
    # each is constant within every cohort-year group, so it is collinear with
    # the intercept of every group's control fit: an input fault, not a numerical one
    from pwrd import generate_panel, single_track_scenario

    def never(*args, **kwargs):
        raise AssertionError("a control fit ran")

    monkeypatch.setattr(effects, "_control_residuals", never)
    panel = generate_panel(single_track_scenario(n_clusters=8, units_per_grade=4), 0)
    with pytest.raises(InputError, match=f"covariate '{name}' is constant within every"):
        estimate_effects_peters_belson(panel, covariates=(name,))


def test_a_repeated_covariate_is_refused_by_every_estimator():
    from test_covariance import unbalanced_panel

    from pwrd import fit_random_intercept

    p = unbalanced_panel(seed=1)
    for estimate in (estimate_effects_peters_belson, exit_observation_estimate, fit_random_intercept):
        with pytest.raises(InputError, match="^covariate 'x' is named more than once$"):
            estimate(p, ("x", "x"))


def test_p0_uses_control_rows_only():
    p = tiny_panel()
    p0 = estimate_p0(p)
    # control units: 2 (flagged both years) and 3 (never flagged)
    np.testing.assert_allclose(p0.p_hat, [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(p0.n_control, [1, 1, 1, 1])
    assert p0.group_ordinals() == (0, 1, 2, 3)


def test_p0_ignores_treated_flags():
    base = tiny_panel()
    flipped = tiny_panel(tested_in=np.array([1, 1, 1, 1, 1, 1, 0, 0]))
    np.testing.assert_array_equal(estimate_p0(base).p_hat, estimate_p0(flipped).p_hat)


def test_p0_requires_flags():
    p = tiny_panel(tested_in=None)
    with pytest.raises(DegenerateDataError, match="no test-in flags"):
        estimate_p0(p)


def test_exit_estimate_hand_case():
    # exit rows are the year-2 records: treated 2,4 control 6,8
    p = tiny_panel()
    ex = exit_observation_estimate(p, variant="cr0")
    assert ex.estimate == pytest.approx((2 + 4) / 2 - (6 + 8) / 2, abs=1e-12)
    assert ex.n == 4 and ex.n_treated == 2 and ex.n_control == 2
    assert ex.n_clusters == 2
    assert ex.df == 0.0


def test_exit_estimate_requires_both_arms():
    p = tiny_panel(treatment=np.ones(8, dtype=int), validate=False)
    with pytest.raises(DegenerateDataError, match="lacks one arm"):
        exit_observation_estimate(p)


def test_exit_test_refuses_zero_df_and_zero_se():
    # tiny_panel has one cluster per arm: df = 0 and the sandwich vanishes
    ex = exit_observation_estimate(tiny_panel())
    assert ex.df == 0.0 and ex.se == 0.0
    with pytest.raises(DegenerateDataError, match="df = 0"):
        ex.p_value()
    flat = effects.ExitEstimate(1.0, 0.0, 5.0, 8, 4, 4, 7, "difference-in-means")
    with pytest.raises(NumericalError, match="zero standard error"):
        flat.p_value()
    ok = effects.ExitEstimate(1.0, 0.5, 5.0, 8, 4, 4, 7, "difference-in-means")
    assert ok.p_value("less") == t_p_value(2.0, 5.0, "less")


def test_effects_input_checks_raise_input_error():
    groups = tiny_panel().catalog
    G = len(groups)
    cells = tiny_panel().cells
    with pytest.raises(InputError, match="must align"):
        effects.GroupEffects(np.zeros(G + 1), groups, np.ones(G), "difference-in-means", cells)
    with pytest.raises(InputError, match="must align"):
        effects.GroupEffects(np.zeros(G - 1), groups[1:], np.ones(G - 1), "diff", cells)
    with pytest.raises(InputError, match="must align"):
        effects.TestInProportions(np.zeros(G), np.ones(G + 1), groups)
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        effects.TestInProportions(np.full(G, 1.5), np.ones(G), groups)
    assert issubclass(InputError, ValueError)


def test_json_summary_carries_groups_and_exclusions():
    p = tiny_panel(
        unit=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4]),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1, 0]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1]),
        cohort=np.ones(9, dtype=int),
        grade=np.array([3, 4, 4, 5, 3, 4, 4, 5, 7]),
        year=np.array([1, 2, 1, 2, 1, 2, 1, 2, 1]),
        outcome=np.arange(9, dtype=float),
        tested_in=np.array([0, 1, 0, 0, 1, 1, 0, 0, 0]),
    )
    eff = estimate_effects_diffmeans(p)
    doc = effects_to_json_dict(eff, estimate_p0(p))
    assert len(doc["groups"]) == 4
    assert doc["method"] == "difference-in-means"
    assert {g["g"] for g in doc["groups"]} == {0, 1, 2, 3}
    assert all("p0_hat" in g for g in doc["groups"])
    assert doc["excluded_groups"][0]["reason"].startswith("no control")


def test_peters_belson_rejections_are_pinned():
    """Rejections of the Peters-Belson pwrd test with its residual sandwich
    (CR2, C - 2 df, one-sided at 0.05), on the design of
    ``scripts/peters_belson_variance.py``: ``default_scenario()`` plus a
    cluster covariate x_c ~ N(0, 1) with y += 6 x_c, over 200 replicates at
    effect1 tau 0 and 5.5.

    The counts are pinned so that a change to the adjusted test's size or
    power shows; they do not vouch for its size. Its CR2 step rescales by
    the cell-mean leverage only and ignores the leverage of each group's
    control regression, a defect that still stands (ROADMAP item 4).
    """
    seed, coef, reps = 20260822, 6.0, 200
    sc = default_scenario(EffectSpec("effect1", tau=5.5), seed=seed)
    rejections = {}
    for level in (0.0, 5.5):
        rejections[level] = 0
        for r in range(reps):
            p = apply_effect(generate_panel(sc, r), sc.effect.with_level(level), r)
            x = np.random.default_rng([seed, r, 7]).normal(size=sc.n_clusters)[p.cluster]
            p = PanelDataset(
                unit=p.unit, cluster=p.cluster, treatment=p.treatment, cohort=p.cohort,
                grade=p.grade, year=p.year, outcome=p.outcome + coef * x, tested_in=p.tested_in,
                covariates={"x": x}, validate=False,
            )
            eff = estimate_effects_peters_belson(p, covariates=("x",))
            cov = cluster_covariance(p, eff)
            w = pwrd_weights(cov, estimate_p0(p).on_groups(eff.groups))
            rejections[level] += aggregate_test(eff, cov, w).p_value <= 0.05
    assert rejections == {0.0: 12, 5.5: 138}
