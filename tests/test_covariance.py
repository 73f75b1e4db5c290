"""Cluster-robust covariance: hand-checked sandwich sums, leverage
rescaling, invariances, and degrees-of-freedom plumbing."""

import numpy as np
import pytest

from pwrd import (
    DegenerateDataError,
    EffectSpec,
    InputError,
    NumericalError,
    apply_effect,
    cluster_covariance,
    estimate_effects_diffmeans,
    estimate_effects_peters_belson,
    estimate_p0,
    exit_observation_estimate,
    fit_random_intercept,
    generate_panel,
    satterthwaite_df,
    single_track_scenario,
)
from pwrd.covariance import CovarianceEstimate, _terms, cr2_direction
from pwrd.effects import GroupEffects
from pwrd.panel import CellStack, CellTable, PanelDataset

from oracles import cell_mean_sandwich
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


@pytest.mark.parametrize("K", [1, 2, 3])
def test_block_route_on_cell_indicators_is_the_cell_route(K):
    # F_c = diag(n_z^(-1/2)) and G_c = diag(m_c) are the bread factor and
    # Gram block of cluster c's cell indicators, so the block route must
    # give the cell route's scale times each residual sum
    rng = np.random.default_rng(K)
    C = 12
    z = np.repeat([0, 1], C // 2)
    m = rng.integers(0, 10, size=(C, K)).astype(np.float64)
    m[z == 1, 0] = 0.0
    m[C - 1, 0] = 7.0  # the treated arm's only rows in column 0: m = n_z, clipped
    m[:3, K - 1] = 1.0, 1e12, 1e12  # d = m / n_z <= 5e-13 for the first
    stack = CellStack([CellTable(m, rng.normal(size=(C, K)) * m, None, z) for _ in range(3)])
    n_z, _, scales = _terms(stack, "cr2")
    assert (m == n_z).any() and ((m > 0) & (m / n_z <= 1e-12)).any()
    treated = stack.z[:, :, None] == 1
    resid = stack.s - m * np.where(treated, stack.means[:, 1:], stack.means[:, :1])
    eye = np.eye(K)
    got = cr2_direction(eye / np.sqrt(n_z[..., None]), eye * m[:, None], resid[..., None])
    want = scales * resid
    assert (np.abs(got[..., 0] - want) <= 1e-12 * np.abs(want)).all()


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
    # every unit has one row, so the exit contrast pools the one group
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    for variant in ("cr0", "cr2"):
        cov = cluster_covariance(p, eff, variant=variant)
        ex = exit_observation_estimate(p, variant=variant)
        assert ex.se**2 == pytest.approx(cov.sigma_hat[0, 0], rel=1e-14)
        assert ex.estimate == eff.estimates[0]
        assert ex.n_clusters == 4 and ex.df == 2.0
    assert exit_observation_estimate(p, variant="cr0").se ** 2 == pytest.approx(16.0 / 9.0, rel=1e-14)


def _relabel(p, codes, validate=True):
    return PanelDataset(
        unit=p.unit,
        cluster=codes[p.cluster],
        treatment=p.treatment,
        cohort=p.cohort,
        grade=p.grade,
        year=p.year,
        outcome=p.outcome,
        tested_in=p.tested_in,
        validate=validate,
    )


def test_cluster_relabeling_is_exactly_invariant():
    rng = np.random.default_rng(5)
    tiny = tiny_panel(outcome=rng.normal(size=8))
    # ten clusters per arm, so arm totals add many cells in some order
    sc = single_track_scenario(EffectSpec("effect1", tau=5.5), n_clusters=20)
    sim = apply_effect(generate_panel(sc, 3), sc.effect, 3)
    for p in (tiny, sim):
        q = _relabel(p, rng.permutation(p.n_clusters))
        eff_p, eff_q = estimate_effects_diffmeans(p), estimate_effects_diffmeans(q)
        assert np.array_equal(eff_p.estimates, eff_q.estimates)
        assert np.array_equal(estimate_p0(p).p_hat, estimate_p0(q).p_hat)
        assert np.array_equal(
            cluster_covariance(p, eff_p).sigma_hat, cluster_covariance(q, eff_q).sigma_hat
        )
        assert exit_observation_estimate(p).se == exit_observation_estimate(q).se


def test_clusters_tied_in_the_first_group_keep_the_sandwich_invariant():
    # a cluster's rows copied under a new cluster code, with the outcome
    # moved outside the first group: the two clusters tie in the first
    # column of the sandwich's rows and differ in the others, so their
    # order comes from the full lexicographic sort
    sc = single_track_scenario(EffectSpec("effect1", tau=5.5), n_clusters=8)
    p = apply_effect(generate_panel(sc, 4), sc.effect, 4)
    rows = np.flatnonzero(p.cluster == 2)
    moved = np.where(p.group_ids[rows] == 0, 0.0, np.linspace(0.5, 3.0, len(rows)))
    twin = PanelDataset(
        unit=np.r_[p.unit, p.unit[rows] + p.unit.max() + 1],
        cluster=np.r_[p.cluster, np.full(len(rows), p.n_clusters)],
        treatment=np.r_[p.treatment, p.treatment[rows]],
        cohort=np.r_[p.cohort, p.cohort[rows]],
        grade=np.r_[p.grade, p.grade[rows]],
        year=np.r_[p.year, p.year[rows]],
        outcome=np.r_[p.outcome, p.outcome[rows] + moved],
        tested_in=np.r_[p.tested_in, p.tested_in[rows]],
    )
    rng = np.random.default_rng(8)
    sigmas = []
    for codes in (np.arange(twin.n_clusters), *(rng.permutation(twin.n_clusters) for _ in range(4))):
        q = _relabel(twin, codes)
        eff = estimate_effects_diffmeans(q)
        for variant in ("cr0", "cr2"):
            sigmas.append((variant, cluster_covariance(q, eff, variant=variant).sigma_hat))
    for variant in ("cr0", "cr2"):
        first, *rest = (S for v, S in sigmas if v == variant)
        assert all(S.tobytes() == first.tobytes() for S in rest)


def test_a_skipped_cluster_code_is_an_empty_cluster():
    sc = single_track_scenario(EffectSpec("effect1", tau=5.5), n_clusters=8)
    p = apply_effect(generate_panel(sc, 2), sc.effect, 2)
    codes = np.r_[0:3, 4:9]
    with pytest.raises(InputError, match=r"missing codes \[3\]"):
        _relabel(p, codes)
    # built without validation, code 3 carries no rows; it counts as a
    # control cluster with nothing in it
    q = _relabel(p, codes, validate=False)
    assert q.n_clusters == p.n_clusters + 1
    eff_p, eff_q = estimate_effects_diffmeans(p), estimate_effects_diffmeans(q)
    assert np.array_equal(eff_p.estimates, eff_q.estimates)
    cov_p, cov_q = cluster_covariance(p, eff_p), cluster_covariance(q, eff_q)
    assert np.array_equal(cov_p.sigma_hat, cov_q.sigma_hat)
    assert (cov_q.n_clusters, cov_q.df) == (8, 6.0)
    ex_p, ex_q = exit_observation_estimate(p), exit_observation_estimate(q)
    assert (ex_q.estimate, ex_q.se, ex_q.n_clusters, ex_q.df) == (
        ex_p.estimate, ex_p.se, ex_p.n_clusters, ex_p.df
    )
    with pytest.raises(DegenerateDataError, match="a cluster has no observations"):
        fit_random_intercept(q)


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
    ok = CovarianceEstimate(
        sigma_hat=np.array([[2.0, 1.0], [1.0, 2.0]]), variant="cr0", n_clusters=4, df=2.0,
        groups=gi[:2],
    )
    assert ok.min_eigenvalue == pytest.approx(1.0, rel=1e-14)
    for bad in (np.nan, np.inf):  # refused before the eigensolver sees it
        with pytest.raises(NumericalError, match="covariance contains non-finite entries"):
            CovarianceEstimate(
                sigma_hat=np.array([[1.0, bad], [bad, 1.0]]),
                variant="cr0",
                n_clusters=4,
                df=2.0,
                groups=gi[:2],
            )


def test_unknown_variant_rejected():
    p = six_unit_panel()
    eff = estimate_effects_diffmeans(p)
    with pytest.raises(InputError, match="variant"):
        cluster_covariance(p, eff, variant="cr3")
    with pytest.raises(InputError, match="variant"):
        exit_observation_estimate(p, variant="cr3")


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
    ex = exit_observation_estimate(p)
    assert ex.n_clusters == 2 and ex.df == 0.0 and ex.se == 0.0
    one = PanelDataset(
        unit=np.arange(2),
        cluster=np.zeros(2, dtype=int),
        treatment=np.ones(2, dtype=int),
        cohort=np.ones(2, dtype=int),
        grade=np.full(2, 3),
        year=np.ones(2, dtype=int),
        outcome=np.arange(2, dtype=float),
    )
    eff = GroupEffects(np.zeros(1), one.catalog, np.array([2]), "difference-in-means", one.cells)
    with pytest.raises(DegenerateDataError, match="at least 2"):
        cluster_covariance(one, eff)


def test_empty_arm_cell_is_a_singular_bread():
    p = tiny_panel(treatment=np.ones(8, dtype=int), validate=False)
    eff = GroupEffects(
        estimates=np.zeros(4),
        groups=p.catalog,
        n=np.array([gi.n for gi in p.catalog]),
        method="difference-in-means",
        cells=p.cells,
    )
    with pytest.raises(NumericalError, match="singular bread"):
        cluster_covariance(p, eff)
    with pytest.raises(NumericalError, match="singular bread"):
        satterthwaite_df(p, eff, np.full(4, 0.25))
    with pytest.raises(np.linalg.LinAlgError):
        cell_mean_sandwich(p.outcome, p.cluster, p.treatment, p.group_ids, "cr2")


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


def test_stacked_satterthwaite_matches_the_dense_oracle():
    # the stack reads Om's trace and Frobenius norm from per-arm K x K Gram
    # blocks; the oracle builds the C x C matrix
    from pwrd.covariance import satterthwaite_dfs
    from pwrd.effects import group_effects
    from pwrd.simulate import default_scenario

    from oracles import replicate_satterthwaite

    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    panels = [apply_effect(generate_panel(sc, r), sc.effect.with_level(lv), r)
              for r in range(6) for lv in (0.0, 5.5)]
    effects = group_effects(panels, ())
    rng = np.random.default_rng(4)
    omegas = [rng.dirichlet(np.ones(e.n_groups)) for e in effects]
    for eff, omega, df in zip(effects, omegas, satterthwaite_dfs(effects, omegas)):
        want = replicate_satterthwaite(eff.cells.m, eff.cells.z, omega)
        assert df == pytest.approx(want, rel=1e-12, abs=0.0)


def test_a_column_one_cluster_of_an_arm_holds_adds_nothing_to_the_df():
    # grade 4 has rows in one treated cluster: its CR2 scale is floored, and
    # its term of Om is exactly 0, so the df match the row-level definition
    rows, unit = [], 0
    for c in range(8):
        for grade, size in ((3, 3 + c), (4, 2 + c if c in (0, 1, 2) else 0)):
            rows += [(unit + i, c, c % 2, grade) for i in range(size)]
            unit += size
    u, cl, z, grade = (np.array(col) for col in zip(*rows))
    n = len(u)
    p = PanelDataset(unit=u, cluster=cl, treatment=z, cohort=np.ones(n, dtype=int), grade=grade,
                     year=np.ones(n, dtype=int), outcome=np.random.default_rng(5).normal(size=n))
    eff = estimate_effects_diffmeans(p)
    assert (eff.cells.m[p.z_by_cluster == 1, 1] > 0).sum() == 1
    omega = np.array([0.4, 0.6])
    _, want = cell_mean_sandwich(p.outcome, p.cluster, p.treatment, p.group_ids, "cr2", omega)
    assert satterthwaite_df(p, eff, omega) == pytest.approx(want, rel=1e-12)


def test_a_column_one_cluster_nearly_fills_keeps_the_dense_df():
    # in grade 3, one treated cluster holds 50,000 of its arm's 50,003 rows:
    # a form of |Om|^2 from each arm's K x K Gram matrix subtracts large
    # terms here, and the df must keep the dense C x C sum's digits
    from pwrd.covariance import satterthwaite_dfs

    from oracles import replicate_satterthwaite

    rng = np.random.default_rng(1)
    z_c = np.arange(20) % 2
    panels, tables = [], []
    for _ in range(10):
        m = rng.integers(1, 20, size=(20, 3))
        m[z_c == 1, 0] = [50_000, *rng.multinomial(3, np.full(9, 1 / 9))]
        cl = np.repeat(np.repeat(np.arange(20), 3), m.ravel())
        grade = np.repeat(np.tile([3, 4, 5], 20), m.ravel())
        n = len(cl)
        panels.append(PanelDataset(
            unit=np.arange(n), cluster=cl, treatment=z_c[cl], cohort=np.ones(n, dtype=int),
            grade=grade, year=np.ones(n, dtype=int), outcome=np.zeros(n)))
        tables.append(m)
    effects = [estimate_effects_diffmeans(p) for p in panels]
    for eff, m in zip(effects, tables):
        np.testing.assert_array_equal(eff.cells.m, m)
    effects = [eff for eff in effects for _ in range(10)]
    omegas = rng.dirichlet(np.ones(3), size=len(effects))
    for eff, omega, df in zip(effects, omegas, satterthwaite_dfs(effects, omegas)):
        want = replicate_satterthwaite(eff.cells.m, eff.cells.z, omega)
        assert df == pytest.approx(want, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# the cell table against the row-level definition

def unbalanced_panel(seed=0):
    """Ten clusters of uneven size over four groups, one group single-armed.

    Unit u of cluster c enters at grade 3 or 4 and stays one to three
    years, so cluster-by-group counts vary; the grade-6 entrants sit in
    treated clusters only.
    """
    rng = np.random.default_rng(seed)
    rows = []
    unit = 0
    for c in range(10):
        for _ in range(2 + c % 4):
            eg = 3 + int(rng.integers(0, 2))
            for yr in range(1, 1 + int(rng.integers(1, 4))):
                rows.append((unit, c, c % 2, eg + yr - 1, yr))
            unit += 1
        if c % 2:
            rows.append((unit, c, 1, 6, 1))
            unit += 1
    u, cl, z, grade, year = (np.array(col) for col in zip(*rows))
    n = len(u)
    return PanelDataset(
        unit=u,
        cluster=cl,
        treatment=z,
        cohort=np.ones(n, dtype=int),
        grade=grade,
        year=year,
        outcome=50.0 + 3.0 * rng.normal(size=10)[cl] + 10.0 * rng.normal(size=n),
        tested_in=(year > 1).astype(int),
        covariates={"x": rng.normal(size=n)},
    )


def _against_oracle(p, eff, values=None):
    """Check Σ̂ and the df against the row-level definition on ``values``,
    by default the outcome."""
    values = p.outcome if values is None else values
    idx = np.asarray(eff.group_ordinals())
    keep = np.isin(p.group_ids, idx)
    compact = np.searchsorted(idx, p.group_ids[keep])
    omega = np.linspace(1.0, 2.0, eff.n_groups)
    omega /= omega.sum()
    for variant in ("cr0", "cr2"):
        sigma, df = cell_mean_sandwich(
            values[keep], p.cluster[keep], p.treatment[keep], compact, variant, omega
        )
        cov = cluster_covariance(p, eff, variant=variant)
        np.testing.assert_allclose(cov.sigma_hat, sigma, rtol=1e-12, atol=1e-12 * np.abs(sigma).max())
        assert cov.n_clusters == len(np.unique(p.cluster[keep]))
        if variant == "cr2":
            assert satterthwaite_df(p, eff, omega) == pytest.approx(df, rel=1e-12)


def test_sandwich_matches_row_definition_on_unbalanced_clusters():
    p = unbalanced_panel()
    eff = estimate_effects_diffmeans(p)
    assert len(eff.excluded) == 1
    assert len({gi.n for gi in eff.groups}) > 1
    _against_oracle(p, eff)


def test_sandwich_matches_row_definition_for_peters_belson_exclusions():
    # the covariate fit needs two control rows; the year-3 groups may lack them
    p = unbalanced_panel(seed=1)
    eff = estimate_effects_peters_belson(p, covariates=("x",))
    reasons = [rec.reason for rec in eff.excluded]
    assert any("control rows" in r for r in reasons) and any("no control" in r for r in reasons)
    # the contrast is taken on residuals of each group's control-only fit,
    # so the sandwich must be too
    resid = np.full(p.n_obs, np.nan)
    X = np.column_stack([np.ones(p.n_obs), p.covariates["x"]])
    for g in eff.group_ordinals():
        rows = p.group_ids == g
        ctrl = rows & (p.treatment == 0)
        beta = np.linalg.lstsq(X[ctrl], p.outcome[ctrl], rcond=None)[0]
        resid[rows] = p.outcome[rows] - X[rows] @ beta
        assert eff.estimates[eff.group_ordinals().index(g)] == pytest.approx(
            resid[rows & (p.treatment == 1)].mean(), rel=1e-12
        )
    _against_oracle(p, eff, resid)
