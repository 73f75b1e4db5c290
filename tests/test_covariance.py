"""Cluster-robust covariance: hand-checked sandwich sums, leverage
rescaling, invariances, and degrees-of-freedom plumbing."""

import numpy as np
import pytest

from pwrd import (
    DegenerateDataError,
    InputError,
    NumericalError,
    cluster_covariance,
    estimate_effects_diffmeans,
    satterthwaite_df,
)
from pwrd.covariance import CovarianceEstimate, pooled_difference_variance
from pwrd.effects import GroupEffects
from pwrd.panel import PanelDataset

from test_panel import tiny_panel


def six_unit_panel():
    """One group; clusters of sizes 2 and 1 in each arm."""
    return PanelDataset(
        unit=np.arange(6),
        cluster=np.array([0, 0, 1, 2, 2, 3]),
        treatment=np.array([1, 1, 1, 0, 0, 0]),
        cohort=np.ones(6, dtype=int),
        grade=np.full(6, 3),
        year=np.ones(6, dtype=int),
        outcome=np.array([1.0, 3.0, 5.0, 0.0, 2.0, 4.0]),
    )


def test_cr0_matches_hand_sandwich():
    # residual sums by cluster: -2, 2 (treated), -2, 2 (control), arm n = 3
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    cov = cluster_covariance(p, eff, variant="cr0")
    assert cov.sigma_hat[0, 0] == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert cov.n_clusters == 4
    assert cov.df == 2.0
    assert eff.estimates[0] == pytest.approx(1.0, abs=1e-14)


def test_cr2_rescales_by_cell_leverage():
    # size-2 cluster in a cell of 3 scales by sqrt(3); size-1 by sqrt(3/2)
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    cov = cluster_covariance(p, eff, variant="cr2")
    expected = 2 * ((4.0 / 9.0) * 3.0 + (4.0 / 9.0) * 1.5)
    assert cov.sigma_hat[0, 0] == pytest.approx(expected, rel=1e-14)


def test_cr2_never_shrinks_the_diagonal():
    rng = np.random.default_rng(11)
    p = tiny_panel(outcome=rng.normal(size=8))
    eff = estimate_effects_diffmeans(p)
    v0 = np.diag(cluster_covariance(p, eff, variant="cr0").sigma_hat)
    v2 = np.diag(cluster_covariance(p, eff, variant="cr2").sigma_hat)
    assert (v2 >= v0 - 1e-15).all()


def test_pooled_variance_agrees_with_single_group_covariance():
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    for variant in ("cr0", "cr2"):
        cov = cluster_covariance(p, eff, variant=variant)
        var, C = pooled_difference_variance(p.outcome, p.cluster, p.treatment, variant=variant)
        assert var == pytest.approx(cov.sigma_hat[0, 0], rel=1e-14)
        assert C == 4


def test_cluster_relabeling_is_exactly_invariant():
    rng = np.random.default_rng(5)
    p = tiny_panel(outcome=rng.normal(size=8))
    eff = estimate_effects_diffmeans(p)
    base = cluster_covariance(p, eff).sigma_hat
    relabeled = PanelDataset(
        unit=p.unit,
        cluster=1 - p.cluster,
        treatment=p.treatment,
        cohort=p.cohort,
        grade=p.grade,
        year=p.year,
        outcome=p.outcome,
        tested_in=p.tested_in,
    )
    again = cluster_covariance(relabeled, estimate_effects_diffmeans(relabeled)).sigma_hat
    assert np.array_equal(base, again)


def test_row_order_does_not_matter_beyond_roundoff():
    rng = np.random.default_rng(9)
    p = tiny_panel(outcome=rng.normal(size=8))
    perm = rng.permutation(8)
    q = PanelDataset(
        unit=p.unit[perm],
        cluster=p.cluster[perm],
        treatment=p.treatment[perm],
        cohort=p.cohort[perm],
        grade=p.grade[perm],
        year=p.year[perm],
        outcome=p.outcome[perm],
        tested_in=p.tested_in[perm],
    )
    a = cluster_covariance(p, estimate_effects_diffmeans(p)).sigma_hat
    b = cluster_covariance(q, estimate_effects_diffmeans(q)).sigma_hat
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


def test_control_only_center_matches_symmetric_case():
    # arms are mirror images here, so the control-side meat scaled up for
    # the treated arm reproduces the both-arms answer
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    both = cluster_covariance(p, eff, variant="cr0")
    ctrl = cluster_covariance(p, eff, variant="cr0", center="control-only")
    assert ctrl.center == "control-only"
    assert ctrl.sigma_hat[0, 0] == pytest.approx(both.sigma_hat[0, 0], rel=1e-14)


def test_iid_singleton_clusters_recover_textbook_variance():
    rng = np.random.default_rng(42)
    n = 4000
    y = rng.normal(size=n)
    z = (np.arange(n) < n // 2).astype(int)
    p = PanelDataset(
        unit=np.arange(n),
        cluster=np.arange(n),
        treatment=z,
        cohort=np.ones(n, dtype=int),
        grade=np.full(n, 3),
        year=np.ones(n, dtype=int),
        outcome=y,
    )
    eff = estimate_effects_diffmeans(p)
    v = cluster_covariance(p, eff, variant="cr2").sigma_hat[0, 0]
    s1 = y[z == 1].var(ddof=1) / (n // 2)
    s0 = y[z == 0].var(ddof=1) / (n - n // 2)
    assert v == pytest.approx(s1 + s0, rel=2e-3)


def test_variance_estimate_validates_itself():
    gi = tiny_panel().catalog
    with pytest.raises(NumericalError, match="symmetric"):
        CovarianceEstimate(
            sigma_hat=np.array([[1.0, 0.5], [0.0, 1.0]]),
            variant="cr0",
            n_clusters=4,
            df=2.0,
            groups=gi[:2],
        )
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        CovarianceEstimate(
            sigma_hat=np.array([[1.0, 2.0], [2.0, 1.0]]),
            variant="cr0",
            n_clusters=4,
            df=2.0,
            groups=gi[:2],
        )


def test_unknown_variant_and_center_rejected():
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    with pytest.raises(InputError, match="variant"):
        cluster_covariance(p, eff, variant="cr3")
    with pytest.raises(InputError, match="center"):
        cluster_covariance(p, eff, center="sideways")
    with pytest.raises(InputError, match="variant"):
        pooled_difference_variance(p.outcome, p.cluster, p.treatment, variant="cr3")


def test_too_few_clusters_refused():
    p = PanelDataset(
        unit=np.arange(4),
        cluster=np.array([0, 0, 1, 1]),
        treatment=np.array([1, 1, 0, 0]),
        cohort=np.ones(4, dtype=int),
        grade=np.full(4, 3),
        year=np.ones(4, dtype=int),
        outcome=np.arange(4, dtype=float),
    )
    # one cluster per arm: residual sums vanish identically and df = 0,
    # which is why downstream testing refuses df <= 0
    var, C = pooled_difference_variance(p.outcome, p.cluster, p.treatment)
    assert C == 2 and var == 0.0
    with pytest.raises(DegenerateDataError, match="at least 2"):
        pooled_difference_variance(p.outcome[:2], p.cluster[:2], p.treatment[:2])


def test_empty_arm_cell_is_a_singular_bread():
    p = tiny_panel(treatment=np.ones(8, dtype=int), validate=False)
    eff = GroupEffects(
        estimates=np.zeros(4),
        groups=p.catalog,
        n=np.array([gi.n for gi in p.catalog]),
        method="difference-in-means",
    )
    with pytest.raises(NumericalError, match="singular bread"):
        cluster_covariance(p, eff)


# ----------------------------------------------------------------------
# degrees of freedom

def test_satterthwaite_requires_cr2():
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    with pytest.raises(InputError, match="cr2"):
        satterthwaite_df(p, eff, np.array([1.0]), variant="cr0")
    with pytest.raises(InputError, match="length"):
        satterthwaite_df(p, eff, np.array([0.5, 0.5]))


def test_satterthwaite_is_positive_and_grows_with_clusters():
    def balanced_panel(C):
        n = 4 * C
        rng = np.random.default_rng(C)
        return PanelDataset(
            unit=np.arange(n),
            cluster=np.repeat(np.arange(C), 4),
            treatment=np.repeat((np.arange(C) % 2 == 0).astype(int), 4),
            cohort=np.ones(n, dtype=int),
            grade=np.full(n, 3),
            year=np.ones(n, dtype=int),
            outcome=rng.normal(size=n),
        )

    dfs = []
    for C in (6, 12, 48):
        p = balanced_panel(C)
        eff = estimate_effects_diffmeans(p)
        df = satterthwaite_df(p, eff, np.array([1.0]))
        assert 0 < df < 4 * C
        dfs.append(df)
    assert dfs[0] < dfs[1] < dfs[2]
