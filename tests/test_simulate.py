"""Simulation engine: reproducibility, effect injection arithmetic,
calibration exactness, and the power-study bookkeeping."""

import numpy as np
import pytest

from pwrd import (
    DegenerateDataError,
    EffectSpec,
    InputError,
    PanelDataset,
    analyze_replicate,
    apply_effect,
    estimate_power,
    expected_testin_profile,
    generate_panel,
    negative_effect_sweep,
    single_track_scenario,
    spillover_scenario,
    theoretical_covariance,
)
from pwrd.simulate import SPILLOVER_TESTIN_TARGETS, Scenario, default_scenario

from test_panel import tiny_panel


def small_scenario(**kw):
    kw.setdefault("n_clusters", 8)
    kw.setdefault("units_per_cluster", 6)
    return single_track_scenario(**kw)


# ----------------------------------------------------------------------
# reproducibility

def test_replicates_are_bit_identical():
    sc = small_scenario()
    a = generate_panel(sc, 5)
    b = generate_panel(sc, 5)
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.treatment, b.treatment)
    assert np.array_equal(a.tested_in, b.tested_in)


def test_replicates_differ_across_indices():
    sc = small_scenario()
    a = generate_panel(sc, 0)
    b = generate_panel(sc, 1)
    assert not np.array_equal(a.outcome, b.outcome)


def test_assignment_is_blocked_in_pairs():
    sc = small_scenario()
    p = generate_panel(sc, 0)
    z = p.z_by_cluster
    # consecutive clusters are paired; exactly one of each pair is treated
    assert all(z[2 * b] + z[2 * b + 1] == 1 for b in range(len(z) // 2))


def test_flags_persist_within_units():
    p = generate_panel(small_scenario(), 3)
    order = np.lexsort((p.year, p.unit))
    f = p.tested_in[order]
    same_unit = p.unit[order][1:] == p.unit[order][:-1]
    assert (f[1:][same_unit] >= f[:-1][same_unit]).all()


def test_worker_count_does_not_change_results():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    methods = ("pwrd", "flat", "mixed", "exit")
    serial = estimate_power(sc, methods=methods, n_reps=24, workers=1)
    parallel = estimate_power(sc, methods=methods, n_reps=24, workers=3)
    assert [c.method for c in serial.cells] == list(methods)
    for cell_s, cell_p in zip(serial.cells, parallel.cells):
        assert cell_s.rejection_rate == cell_p.rejection_rate
        assert cell_s.method == cell_p.method
        assert cell_s.n_excluded == cell_p.n_excluded


# ----------------------------------------------------------------------
# effect injection

def flagged_panel():
    """Hand panel: treated units 0, 1 and control unit 2, three years."""
    return PanelDataset(
        unit=np.repeat([0, 1, 2], 3),
        cluster=np.repeat([0, 0, 1], 3),
        treatment=np.repeat([1, 1, 0], 3),
        cohort=np.ones(9, dtype=int),
        grade=np.tile([0, 1, 2], 3),
        year=np.tile([1, 2, 3], 3),
        outcome=np.zeros(9),
        tested_in=np.array([0, 1, 1, 1, 1, 1, 0, 1, 1]),
    )


def test_effect1_adds_tau_to_flagged_treated_rows():
    p = flagged_panel()
    q = apply_effect(p, EffectSpec(regime="effect1", tau=5.0))
    delta = q.outcome - p.outcome
    expected = 5.0 * (p.treatment * p.tested_in)
    np.testing.assert_array_equal(delta, expected)


def test_effect1_zero_tau_is_identity():
    p = flagged_panel()
    assert apply_effect(p, EffectSpec(regime="effect1", tau=0.0)) is p


def test_effect2_without_spill_matches_effect1():
    p = flagged_panel()
    a = apply_effect(p, EffectSpec(regime="effect1", tau=5.0))
    b = apply_effect(p, EffectSpec(regime="effect2", tau=5.0, spill_fraction=0.0))
    assert np.array_equal(a.outcome, b.outcome)


def test_effect2_spill_subtracts_from_unflagged_treated():
    p = flagged_panel()
    q = apply_effect(p, EffectSpec(regime="effect2", tau=5.0, spill_fraction=0.4))
    delta = q.outcome - p.outcome
    expected = 5.0 * (p.treatment * p.tested_in) - 2.0 * (p.treatment * (1 - p.tested_in))
    np.testing.assert_array_equal(delta, expected)


def test_effect2_warns_when_imposed_total_is_not_positive():
    p = flagged_panel()
    q = PanelDataset(
        unit=p.unit, cluster=p.cluster, treatment=p.treatment, cohort=p.cohort,
        grade=p.grade, year=p.year, outcome=p.outcome,
        tested_in=np.array([0, 0, 0, 0, 0, 0, 0, 1, 1]),
    )
    with pytest.warns(RuntimeWarning, match="not positive"):
        apply_effect(q, EffectSpec(regime="effect2", tau=5.0, spill_fraction=1.0))


def test_deferred_onset_starts_the_year_after_first_flag():
    p = flagged_panel()
    q = apply_effect(p, EffectSpec(regime="effect1", tau=5.0, defer_onset=True))
    delta = (q.outcome - p.outcome).reshape(3, 3)
    # unit 0 flags in year 2, so the effect lands in year 3 only;
    # unit 1 is flagged at entry and gets years 2 and 3; control gets nothing
    np.testing.assert_array_equal(delta, [[0, 0, 5], [0, 5, 5], [0, 0, 0]])


def test_flag_effects_require_flags():
    p = tiny_panel(tested_in=None)
    with pytest.raises(DegenerateDataError, match="test-in flags"):
        apply_effect(p, EffectSpec(regime="effect1", tau=1.0))


def test_effect3_draws_have_requested_moments():
    sc = small_scenario(n_clusters=20, units_per_cluster=50)
    base = generate_panel(sc, 0)
    spec = EffectSpec(regime="effect3", effect_mean=5.0)
    shifted = apply_effect(base, spec)
    delta = (shifted.outcome - base.outcome)[base.treatment == 1]
    assert (shifted.outcome == base.outcome)[base.treatment == 0].all()
    assert delta.mean() == pytest.approx(5.0, abs=0.3)
    assert delta.var() == pytest.approx(12.5, rel=0.15)


def test_effect3_spread_can_be_a_standard_deviation():
    sc = small_scenario(n_clusters=20, units_per_cluster=50)
    base = generate_panel(sc, 0)
    spec = EffectSpec(regime="effect3", effect_mean=5.0, dispersion_is_sd=True)
    delta = (apply_effect(base, spec).outcome - base.outcome)[base.treatment == 1]
    assert delta.std() == pytest.approx(12.5, rel=0.1)


def test_effect3_is_deterministic_given_seed_and_replicate():
    sc = small_scenario()
    base = generate_panel(sc, 2)
    spec = EffectSpec(regime="effect3", effect_mean=3.0)
    a = apply_effect(base, spec)
    b = apply_effect(base, spec)
    assert np.array_equal(a.outcome, b.outcome)


def test_effect3_needs_provenance():
    p = flagged_panel()  # no meta recorded
    with pytest.raises(InputError, match="seed"):
        apply_effect(p, EffectSpec(regime="effect3", effect_mean=3.0))


def test_effect_spec_validation():
    with pytest.raises(InputError, match="regime"):
        EffectSpec(regime="effect9")
    with pytest.raises(InputError, match="tau"):
        EffectSpec(regime="effect1", tau=-1.0)
    with pytest.raises(InputError, match="spill_fraction"):
        EffectSpec(regime="effect2", tau=1.0, spill_fraction=1.5)
    with pytest.raises(InputError, match="effect_mean"):
        EffectSpec(regime="effect3", effect_mean=-2.0)
    spec = EffectSpec(regime="effect1", tau=2.0)
    assert spec.with_level(4.0).level() == 4.0


# ----------------------------------------------------------------------
# calibration and analytic covariance

def test_single_track_calibration_is_exact():
    sc = single_track_scenario(n_clusters=8, units_per_cluster=6)
    profile = expected_testin_profile(sc)
    # single-entry designs make the system triangular, solvable to precision
    for k, target in {1: 0.383, 2: 0.543, 3: 0.611, 4: 0.694}.items():
        assert profile[k] == pytest.approx(target, abs=1e-9)


def test_spillover_preset_profile():
    sc = spillover_scenario(n_clusters=8, units_per_cluster=6)
    profile = expected_testin_profile(sc)
    for k, target in SPILLOVER_TESTIN_TARGETS.items():
        assert profile[k] == pytest.approx(target, abs=1e-9)
    assert sc.effect.regime == "effect2"


def test_with_icc_preserves_total_variance():
    sc = small_scenario()
    moved = sc.with_icc(0.07)
    assert moved.icc == pytest.approx(0.07, abs=1e-12)
    assert moved.sigma2_eps + moved.sigma2_mu == pytest.approx(
        sc.sigma2_eps + sc.sigma2_mu, rel=1e-12
    )
    with pytest.raises(InputError, match="icc"):
        sc.with_icc(1.0)


def test_odd_cluster_count_warns():
    with pytest.warns(RuntimeWarning, match="odd cluster"):
        small_scenario(n_clusters=9)


def test_theoretical_covariance_structure():
    sc = small_scenario()
    S = theoretical_covariance(sc)
    G = S.shape[0]
    off = S[~np.eye(G, dtype=bool)]
    np.testing.assert_allclose(off, sc.sigma2_mu * 4.0 / sc.n_clusters, rtol=1e-14)
    n_g = sc.n_clusters * 6
    np.testing.assert_allclose(
        np.diag(S), sc.sigma2_mu * 4.0 / sc.n_clusters + sc.sigma2_eps * 4.0 / n_g, rtol=1e-14
    )


def test_theoretical_covariance_needs_even_clusters():
    with pytest.warns(RuntimeWarning, match="odd cluster"):
        sc = small_scenario(n_clusters=9)
    with pytest.raises(InputError, match="even"):
        theoretical_covariance(sc)


# ----------------------------------------------------------------------
# power study bookkeeping

def test_analyze_replicate_covers_all_methods():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    panel = apply_effect(generate_panel(sc, 0), sc.effect, 0)
    res = analyze_replicate(panel, ("pwrd", "flat", "mixed", "exit"))
    assert set(res) == {"pwrd", "flat", "mixed", "exit"}
    assert all(isinstance(v, bool) for v in res.values())


def test_power_cells_carry_metadata():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    res = estimate_power(sc, methods=("flat",), n_reps=8)
    cell = res.cell("flat")
    assert cell.regime == "effect1"
    assert cell.effect_level == 6.0
    assert cell.n_reps == 8
    assert 0.0 <= cell.rejection_rate <= 1.0
    assert cell.mc_se == pytest.approx(
        np.sqrt(cell.rejection_rate * (1 - cell.rejection_rate) / 8)
    )
    with pytest.raises(KeyError):
        res.cell("mixed")


def test_effect_level_grid_shares_base_replicates():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    res = estimate_power(sc, methods=("flat",), effect_levels=(0.0, 6.0), n_reps=8)
    assert {c.effect_level for c in res.cells} == {0.0, 6.0}


def test_failed_replicates_are_excluded_and_recorded(monkeypatch):
    import pwrd.simulate as sim

    real = sim.analyze_replicate

    def flaky(panel, methods, alpha=0.05, cov_variant="cr2", df_rule="clusters-2"):
        if panel.meta.get("replicate") == 3:
            raise DegenerateDataError("synthetic failure")
        return real(panel, methods, alpha, cov_variant, df_rule)

    monkeypatch.setattr(sim, "analyze_replicate", flaky)
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    res = sim.estimate_power(sc, methods=("flat",), n_reps=10, max_exclusion_fraction=0.2)
    assert res.cell("flat").n_reps == 9
    assert res.cell("flat").n_excluded == 1
    assert len(res.failures) == 1 and res.failures[0][0] == 3
    with pytest.raises(DegenerateDataError, match="unreliable"):
        sim.estimate_power(sc, methods=("flat",), n_reps=10, max_exclusion_fraction=0.0)


def test_power_input_validation():
    sc = small_scenario()
    with pytest.raises(InputError, match="unknown method"):
        estimate_power(sc, methods=("bootstrap",), n_reps=4)
    with pytest.raises(InputError, match="alpha"):
        estimate_power(sc, methods=("flat",), n_reps=4, alpha=1.5)
    with pytest.raises(InputError, match="n_reps"):
        estimate_power(sc, methods=("flat",), n_reps=0)
    with pytest.raises(InputError, match="cov_variant"):
        estimate_power(sc, methods=("mixed",), n_reps=4, cov_variant="cr9")


def test_negative_effect_sweep_requires_spillover_regime():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=5.0))
    with pytest.raises(InputError, match="effect2"):
        negative_effect_sweep(sc, spill_grid=(0.0, 0.5), n_reps=4)


def test_scenario_validation():
    with pytest.raises(InputError, match="at least 4"):
        small_scenario(n_clusters=2)
    sc = small_scenario()
    with pytest.raises(InputError, match="variance"):
        Scenario(
            n_clusters=8,
            cohorts=sc.cohorts,
            thresholds=sc.thresholds,
            effect=sc.effect,
            seed=1,
            sigma2_eps=0.0,
            sigma2_mu=1.0,
        )


def test_default_scenario_group_count():
    sc = default_scenario()
    p = generate_panel(sc, 0)
    # cohort 1 contributes 4+3+2+1 groups across its entry grades, the
    # three later cohorts 3+2+1 before the study window closes
    assert p.n_groups == 16
    assert p.n_obs == sc.n_clusters * 12 * 16
