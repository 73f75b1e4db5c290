"""Simulation engine: reproducibility, effect injection arithmetic,
calibration exactness, and the power-study bookkeeping."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import pwrd
from pwrd import (
    DegenerateDataError,
    EffectSpec,
    InputError,
    NumericalError,
    PanelDataset,
    analyze_replicate,
    apply_effect,
    calibrate_thresholds,
    estimate_power,
    expected_group_testin,
    expected_testin_profile,
    generate_panel,
    negative_effect_sweep,
    single_track_scenario,
    spillover_scenario,
    theoretical_covariance,
)
from pwrd.simulate import (
    _STAGE_ASSIGN,
    DEFAULT_TESTIN_TARGETS,
    SPILLOVER_TESTIN_TARGETS,
    CohortSpec,
    Scenario,
    _bisect,
    _flagged_shares,
    _profile,
    _rng,
    _year_share,
    default_scenario,
)
from pwrd.tails import normal_tail

from oracles import (
    bisection_by_profile,
    blocked_assignment,
    flagged_shares_by_grid,
    pooled_share,
    replicate_loop,
)
from test_panel import assert_tiers_match, fresh_copy, tiny_panel


def small_scenario(**kw):
    kw.setdefault("n_clusters", 8)
    kw.setdefault("units_per_grade", 6)
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
    with pytest.warns(RuntimeWarning, match="odd cluster"):
        odd = small_scenario(n_clusters=9)
    for sc in (small_scenario(), odd):
        n_blocks = (sc.n_clusters + 1) // 2
        for rep in range(8):
            z = generate_panel(sc, rep).z_by_cluster
            coins = _rng(sc.seed, rep, _STAGE_ASSIGN).integers(0, 2, n_blocks)
            np.testing.assert_array_equal(z, blocked_assignment(coins, sc.n_clusters))
            # consecutive clusters are paired; exactly one of each pair is treated
            assert all(z[2 * b] + z[2 * b + 1] == 1 for b in range(sc.n_clusters // 2))
    # the singleton block's arm follows its coin, both ways
    assert {generate_panel(odd, rep).z_by_cluster[-1] for rep in range(8)} == {0, 1}


def test_replicates_share_the_static_catalog():
    sc = small_scenario()
    a, b = generate_panel(sc, 0), generate_panel(sc, 1)
    assert a.catalog is b.catalog
    assert a.group_ids is b.group_ids


def test_flags_persist_within_units():
    p = generate_panel(small_scenario(), 3)
    order = np.lexsort((p.year, p.unit))
    f = p.tested_in[order]
    same_unit = p.unit[order][1:] == p.unit[order][:-1]
    assert (f[1:][same_unit] >= f[:-1][same_unit]).all()


def negative_grade_scenario(thresholds):
    # one track entering at grade -1 (pre-K) and followed through grade 2
    return Scenario(
        n_clusters=8,
        cohorts=(CohortSpec(1, 1, (-1,), 3),),
        thresholds=tuple(sorted(thresholds.items())),
        effect=EffectSpec("null"),
        seed=11,
    )


def test_negative_grade_rows_are_flagged_against_their_own_cutoff():
    sc = negative_grade_scenario({-1: 50.0, 0: 90.0, 1: 100.0, 2: 110.0})
    p = generate_panel(sc, 0)
    first = p.year == 1
    assert (p.grade[first] == -1).all()
    np.testing.assert_array_equal(p.tested_in[first], p.outcome[first] < 50.0)


def test_missing_cutoffs_are_named_together():
    sc = negative_grade_scenario({0: 90.0, 2: 110.0})
    with pytest.raises(InputError, match=r"no threshold for grades \[-1, 1\]"):
        generate_panel(sc, 0)
    with pytest.raises(InputError, match=r"no threshold for grades \[-1, 1\]"):
        expected_testin_profile(sc)


def test_one_eigvalsh_per_covariance_stack(monkeypatch):
    # the covariance check and the pwrd weights' gate read one batched
    # eigenvalue pass; a second pass per panel would double the calls
    import pwrd.power as power
    from pwrd.covariance import stacks

    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    panels = [
        apply_effect(generate_panel(sc, r), sc.effect.with_level(lv), r)
        for r in range(4)
        for lv in (0.0, 5.5)
    ]
    calls, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(
        np.shape(a)) or real(a, *args, **kw))
    found = power._analyze_panels(panels, ("pwrd", "flat"), "cr2", "clusters-2")
    assert all(set(res) == {"pwrd", "flat"} for res in found)
    n_stacks = len(stacks([p.cells for p in panels])[1])
    assert n_stacks == 1
    assert len(calls) <= n_stacks
    assert calls[0][0] == len(panels)


def with_cluster_covariate(panel, r):
    """``panel`` plus a cluster covariate x on its outcome, on the panel's
    group layout and design tier."""
    x = np.random.default_rng([20260822, r, 7]).normal(size=panel.n_clusters)[panel.cluster]
    return PanelDataset(
        unit=panel.unit, cluster=panel.cluster, treatment=panel.treatment,
        cohort=panel.cohort, grade=panel.grade, year=panel.year,
        outcome=panel.outcome + 6.0 * x, tested_in=panel.tested_in,
        covariates={"x": x}, validate=False,
        _layout=(panel.catalog, panel.group_ids), _design=panel.design_tier,
    )


@pytest.mark.parametrize("variant, df_rule", [("cr0", "clusters-2"), ("cr2", "satterthwaite")])
def test_peters_belson_panels_of_one_design_stack(monkeypatch, variant, df_rule):
    # the adjusted tables of one design share their counts layout, so the
    # list takes one sandwich, and each panel's results are its own alone
    import pwrd.covariance as covariance
    import pwrd.power as power

    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    panels = [
        with_cluster_covariate(apply_effect(generate_panel(sc, r), sc.effect.with_level(lv), r), r)
        for r in range(4)
        for lv in (0.0, 5.5)
    ]
    methods, args = ("pwrd", "flat"), (variant, df_rule)
    alone = [power._analyze(p, methods, *args, covariates=("x",)) for p in panels]
    calls, real = [], covariance.sandwich
    monkeypatch.setattr(
        covariance, "sandwich", lambda stack, v: calls.append(stack) or real(stack, v))
    found = power._analyze_panels(panels, methods, *args, covariates=("x",))
    assert [len(stack.tables) for stack in calls] == [len(panels)]
    for single, batched in zip(alone, found):
        for m in methods:
            (p1, (e1, c1, _, w1, t1)), (p2, (e2, c2, _, w2, t2)) = single[m], batched[m]
            assert e2.method == "peters-belson"
            assert e1.groups == e2.groups
            np.testing.assert_array_equal(e1.estimates, e2.estimates)
            np.testing.assert_array_equal(c1.sigma_hat, c2.sigma_hat)
            np.testing.assert_array_equal(w1.omega, w2.omega)
            assert (p1, t1) == (p2, t2)


def test_worker_count_does_not_change_results(monkeypatch):
    import pwrd.power as power

    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    methods, levels, reps = ("pwrd", "flat", "mixed", "exit"), (0.0, 6.0), range(24)
    panels = [
        apply_effect(generate_panel(sc, r), sc.effect.with_level(lv), r)
        for r in reps
        for lv in levels
    ]

    def analyzed(per_call):
        """Each panel's (method, p-value) pairs or error text, ``per_call``
        panels to an analysis."""
        found = []
        for start in range(0, len(panels), per_call):
            batch = panels[start : start + per_call]
            found += power._analyze_panels(batch, methods, "cr2", "clusters-2")
        return [
            f"{type(res).__name__}: {res}" if isinstance(res, pwrd.PwrdError)
            else [(m, res[m][0]) for m in methods]
            for res in found
        ]

    batched = analyzed(len(panels))
    assert analyzed(len(levels) * power.REPLICATE_BATCH) == batched
    assert analyzed(len(levels)) == batched
    assert analyzed(1) == batched

    _, oracle, failures = replicate_loop(sc, levels, reps, methods)
    assert failures == []
    for (r, lv), found in zip(((r, lv) for r in reps for lv in levels), batched):
        for m, p in found:
            expected = oracle[r, lv][m][0]
            assert (p <= 0.05) == (expected <= 0.05)
            assert p == pytest.approx(expected, rel=1e-12, abs=0.0)

    serial = estimate_power(sc, methods=methods, effect_levels=levels, n_reps=24, workers=1)
    parallel = estimate_power(sc, methods=methods, effect_levels=levels, n_reps=24, workers=3)
    monkeypatch.setattr(power, "REPLICATE_BATCH", 1)
    alone = estimate_power(sc, methods=methods, effect_levels=levels, n_reps=24, workers=1)
    assert [c.method for c in serial.cells] == list(methods) * len(levels)
    for res in (parallel, alone):
        assert res.cells == serial.cells
        assert res.failures == serial.failures


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
    # so is a zero size in every regime, spillover or not, with no warning
    # and before effect3 looks for its stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apply_effect(p, EffectSpec(regime="effect2", spill_fraction=0.5)) is p
        assert apply_effect(p, EffectSpec(regime="effect3")) is p


def test_effect_level_does_not_read_a_stale_cell_table():
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=5.5))
    base = generate_panel(sc, 0)
    # level 0 hands back the base panel, so this caches the base's table
    zero = apply_effect(base, sc.effect.with_level(0.0), 0)
    assert zero is base
    pwrd.cluster_covariance(base, pwrd.estimate_effects_diffmeans(base))
    hot = apply_effect(base, sc.effect.with_level(5.5), 0)
    fresh = PanelDataset(
        unit=hot.unit,
        cluster=hot.cluster,
        treatment=hot.treatment,
        cohort=hot.cohort,
        grade=hot.grade,
        year=hot.year,
        outcome=hot.outcome.copy(),
        tested_in=hot.tested_in,
    )
    fh, ff = pwrd.fit_random_intercept(hot), pwrd.fit_random_intercept(fresh)
    # the model-based se reads each record's sum of squared deviations
    assert (fh.tau_hat, fh.se_model) == (ff.tau_hat, ff.se_model)
    eh, ef = pwrd.estimate_effects_diffmeans(hot), pwrd.estimate_effects_diffmeans(fresh)
    assert np.array_equal(eh.estimates, ef.estimates)
    assert np.array_equal(
        pwrd.cluster_covariance(hot, eh).sigma_hat, pwrd.cluster_covariance(fresh, ef).sigma_hat
    )


def test_effect_levels_share_the_tiers_a_fresh_panel_builds():
    # the first level of a replicate builds its assignment tier and the
    # later ones reuse it; every replicate shares the frame's design tier
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=5.5))
    for rep in (2, 3):
        base = generate_panel(sc, rep)
        assert base.design_tier is generate_panel(sc, 0).design_tier
        for level in (5.5, 0.0, 5.5):
            panel = apply_effect(base, sc.effect.with_level(level), rep)
            assert panel.assignment_tier is base.assignment_tier
            assert panel.design_tier is base.design_tier
            assert_tiers_match(panel, fresh_copy(panel))


def test_estimate_power_keeps_its_recorded_cells():
    # the cells of this run before the replicate quantities were tiered
    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    res = estimate_power(
        sc, methods=("pwrd", "flat", "mixed", "exit"), effect_levels=(0.0, 5.5), n_reps=40
    )
    got = [(c.method, c.effect_level, c.rejection_rate, c.n_reps, c.n_excluded) for c in res.cells]
    rejections = [
        ("pwrd", 0.0, 4), ("flat", 0.0, 2), ("mixed", 0.0, 2), ("exit", 0.0, 2),
        ("pwrd", 5.5, 30), ("flat", 5.5, 22), ("mixed", 5.5, 22), ("exit", 5.5, 20),
    ]
    assert got == [(m, level, k / 40, 40, 0) for m, level, k in rejections]
    assert res.failures == ()


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


def test_flag_effects_require_flags():
    p = tiny_panel(tested_in=None)
    with pytest.raises(DegenerateDataError, match="test-in flags"):
        apply_effect(p, EffectSpec(regime="effect1", tau=1.0))


def test_effect3_draws_have_requested_moments():
    sc = small_scenario(n_clusters=20, units_per_grade=50)
    base = generate_panel(sc, 0)
    spec = EffectSpec(regime="effect3", tau=5.0)
    shifted = apply_effect(base, spec)
    delta = (shifted.outcome - base.outcome)[base.treatment == 1]
    assert (shifted.outcome == base.outcome)[base.treatment == 0].all()
    assert delta.mean() == pytest.approx(5.0, abs=0.3)
    assert delta.var() == pytest.approx(12.5, rel=0.15)


def test_effect3_is_deterministic_given_seed_and_replicate():
    sc = small_scenario()
    base = generate_panel(sc, 2)
    spec = EffectSpec(regime="effect3", tau=3.0)
    a = apply_effect(base, spec)
    b = apply_effect(base, spec)
    assert np.array_equal(a.outcome, b.outcome)


def test_effect3_needs_provenance():
    p = flagged_panel()  # no meta recorded
    with pytest.raises(InputError, match="seed"):
        apply_effect(p, EffectSpec(regime="effect3", tau=3.0))


def test_effect_spec_validation():
    with pytest.raises(InputError, match="regime"):
        EffectSpec(regime="effect9")
    with pytest.raises(InputError, match="tau"):
        EffectSpec(regime="effect1", tau=-1.0)
    with pytest.raises(InputError, match="spill_fraction"):
        EffectSpec(regime="effect2", tau=1.0, spill_fraction=1.5)
    with pytest.raises(InputError, match="tau"):
        EffectSpec(regime="effect3", tau=-2.0)
    for bad in (math.nan, math.inf):
        for regime in ("effect1", "effect3"):
            with pytest.raises(InputError, match="tau must be finite"):
                EffectSpec(regime=regime, tau=bad)
        with pytest.raises(InputError, match="spill_fraction"):
            EffectSpec(regime="effect2", tau=1.0, spill_fraction=bad)
    spec = EffectSpec(regime="effect1", tau=2.0)
    assert spec.with_level(4.0).tau == 4.0
    assert EffectSpec(regime="effect3", tau=1.5).with_level(3.0) == EffectSpec("effect3", tau=3.0)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"regime": "null", "tau": 1.0}, "null regime has no effect size"),
        ({"regime": "effect1", "spill_fraction": 0.2}, "only effect2 has a spillover"),
        ({"regime": "effect3", "tau": 1.0, "spill_fraction": 0.2}, "only effect2 has a spillover"),
        ({"regime": "null", "spill_fraction": 0.2}, "only effect2 has a spillover"),
    ],
)
def test_effect_spec_refuses_a_size_its_regime_ignores(kwargs, named):
    with pytest.raises(InputError, match=named):
        EffectSpec(**kwargs)


# ----------------------------------------------------------------------
# calibration and analytic covariance

def test_single_track_calibration_is_exact():
    sc = single_track_scenario(n_clusters=8, units_per_grade=6)
    profile = expected_testin_profile(sc)
    # single-entry designs make the system triangular, solvable to precision
    for k, target in {1: 0.383, 2: 0.543, 3: 0.611, 4: 0.694}.items():
        assert profile[k] == pytest.approx(target, abs=1e-9)


def test_spillover_preset_profile():
    sc = spillover_scenario(n_clusters=8, units_per_grade=6)
    profile = expected_testin_profile(sc)
    for k, target in SPILLOVER_TESTIN_TARGETS.items():
        assert profile[k] == pytest.approx(target, abs=1e-9)
    assert sc.effect.regime == "effect2"


# the minimax point of the default design: all four deviations active, signs (-, -, +, +)
DEFAULT_MINIMAX_THRESHOLDS = {0: 99.40915215, 1: 105.64308820, 2: 103.69355898, 3: 113.20002481}
DEFAULT_MINIMAX_DEVIATION = 0.0126077974


def _group_testin_by_loop(sc):
    """Flagged share per (cohort, entry grade, year), one year at a time,
    with each node's normal tail from a scalar ``math.erfc``."""
    x, w = np.polynomial.hermite.hermgauss(96)
    w = w / np.sqrt(np.pi)
    mu = np.sqrt(2.0 * sc.sigma2_mu) * x
    thr = sc.threshold_map
    out = {}
    for cs in sc.cohorts:
        for eg in cs.entry_grades:
            surv = np.ones(len(x))
            n_years = min(sc.exit_grade - eg + 1, sc.n_years - cs.entry_year + 1)
            for j in range(n_years):
                g = eg + j
                z = (thr[g] - sc.beta0 - sc.beta1 * g - mu) / np.sqrt(sc.sigma2_eps)
                tail = np.empty(len(z))
                for i in range(len(z)):
                    tail[i] = 0.5 * math.erfc(float(z[i]) * math.sqrt(0.5))
                surv = surv * tail
                out[(cs.cohort, eg, j + 1)] = 1.0 - float(w @ surv)
    return out


@pytest.mark.parametrize("factory", [single_track_scenario, default_scenario])
def test_group_testin_keeps_the_loop_arithmetic(factory):
    # bit for bit: the bisection's last steps turn a last-bit change into new cutoffs
    sc = factory()
    ref = _group_testin_by_loop(sc)
    catalog = generate_panel(sc, 0).catalog
    got = expected_group_testin(sc)
    assert len(ref) == len(catalog)
    for gi in catalog:
        assert got[gi.g] == ref[(gi.cohort, gi.entry_grade, gi.follow_up_year)]


def test_normal_tail_matches_scipy_ndtr():
    z = np.concatenate(
        [np.linspace(-30.0, 30.0, 6001), np.random.default_rng(11).uniform(-30.0, 30.0, 3999)]
    ).reshape(2, -1, 5)
    got = normal_tail(z)
    want = special.ndtr(-z)
    assert got.shape == z.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert normal_tail(np.asarray([-np.inf, np.inf])).tolist() == [1.0, 0.0]


def test_profile_jacobian_matches_central_differences():
    sc = default_scenario()
    thr = sc.threshold_map
    grades = tuple(sorted(thr))
    _, jac = _profile(sc, thr, grades)
    h = 1e-4
    for c, g in enumerate(grades):
        up, _ = _profile(sc, {**thr, g: thr[g] + h})
        down, _ = _profile(sc, {**thr, g: thr[g] - h})
        np.testing.assert_allclose(jac[:, c], (up - down) / (2 * h), rtol=1e-6)


def test_default_calibration_reaches_the_minimax_point():
    sc = default_scenario()
    thr = sc.threshold_map
    for g, ref in DEFAULT_MINIMAX_THRESHOLDS.items():
        assert thr[g] == pytest.approx(ref, abs=1e-6)
    profile = expected_testin_profile(sc)
    devs = [profile[k] - t for k, t in DEFAULT_TESTIN_TARGETS.items()]
    assert max(abs(d) for d in devs) == pytest.approx(DEFAULT_MINIMAX_DEVIATION, abs=1e-9)
    assert np.sign(devs).tolist() == [-1, -1, 1, 1]


def test_calibration_ignores_track_order():
    forward = default_scenario()
    backward = replace(
        forward,
        cohorts=tuple(
            replace(cs, entry_grades=cs.entry_grades[::-1]) for cs in reversed(forward.cohorts)
        ),
    )
    a = calibrate_thresholds(forward)
    b = calibrate_thresholds(backward)
    assert a.keys() == b.keys()
    for g in a:
        assert b[g] == pytest.approx(a[g], abs=1e-8)


def staggered_scenario():
    """Cohort 1 enters at grades 0 and 2, cohort 2 a year later at grade 1:
    grade 2 is met in the first year of one track and the second of another
    before year 3 moves it, and only the grade-0 track reaches year 4."""
    cohorts = (CohortSpec(1, 1, (0, 2), 5), CohortSpec(2, 2, (1,), 7))
    return Scenario(
        n_clusters=4, cohorts=cohorts, thresholds=(), effect=EffectSpec("null"), seed=0,
        exit_grade=4,
    )


@pytest.mark.parametrize(
    "build", [single_track_scenario, default_scenario, staggered_scenario],
    ids=["single-track", "default", "staggered"],
)
def test_year_share_is_the_profile_entry_bit_for_bit(build):
    # a cutoff's share, not only where the bisection lands: the last bit of a
    # share decides the last bisection steps
    sc = build()
    thr = sc.threshold_map or bisection_by_profile(sc, DEFAULT_TESTIN_TARGETS)
    rng = np.random.default_rng(14)
    for k in (1, 2, 3, 4):
        g = k - 1
        share = _year_share(sc, thr, k)
        mean = sc.beta0 + sc.beta1 * g
        for cutoff in mean + 15.0 * rng.standard_normal(12):
            want = pooled_share(sc, {**thr, g: cutoff}, k)
            assert _profile(sc, {**thr, g: cutoff})[0][k - 1].hex() == want.hex()
            assert share(cutoff).hex() == want.hex()


@pytest.mark.parametrize(
    "build",
    [
        single_track_scenario,
        default_scenario,
        staggered_scenario,
        lambda: default_scenario(icc=0.3),
    ],
    ids=["single-track", "default", "staggered", "default-icc0.3"],
)
def test_flagged_shares_and_jacobian_match_the_grid_bit_for_bit(build):
    # SLSQP reads every bit of the profile and its Jacobian
    sc = build()
    thr = sc.threshold_map or bisection_by_profile(sc, DEFAULT_TESTIN_TARGETS)
    grades = tuple(sorted(thr))
    rng = np.random.default_rng(15)
    for cut in [thr, *({g: v + 8.0 * rng.standard_normal() for g, v in thr.items()} for _ in range(4))]:
        got = _flagged_shares(sc, cut, grades)
        want = flagged_shares_by_grid(sc, cut, grades)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert [v.hex() for v in a.ravel().tolist()] == [v.hex() for v in b.ravel().tolist()]


ICC_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@pytest.mark.parametrize(
    "build, targets, icc",
    [
        (single_track_scenario, DEFAULT_TESTIN_TARGETS, None),
        (spillover_scenario, SPILLOVER_TESTIN_TARGETS, None),
        (default_scenario, DEFAULT_TESTIN_TARGETS, None),
        (staggered_scenario, DEFAULT_TESTIN_TARGETS, None),
        *((single_track_scenario, DEFAULT_TESTIN_TARGETS, icc) for icc in ICC_GRID),
        *((default_scenario, DEFAULT_TESTIN_TARGETS, icc) for icc in ICC_GRID),
    ],
    ids=[
        "single-track", "spillover", "default", "staggered",
        *(f"single-track-icc{icc}" for icc in ICC_GRID),
        *(f"default-icc{icc}" for icc in ICC_GRID),
    ],
)
def test_bisection_matches_a_full_profile_per_step(build, targets, icc):
    sc = build() if icc is None else build().with_icc(icc)
    want = {g: float(v).hex() for g, v in bisection_by_profile(sc, dict(targets)).items()}
    got = _bisect(sc, dict(targets), sorted(want))
    assert {g: float(v).hex() for g, v in got.items()} == want
    if len(sc.cohorts) == 1 and icc is None:  # one track: bisection is the whole calibration
        got = calibrate_thresholds(sc, dict(targets))
        assert {g: v.hex() for g, v in got.items()} == want


def test_calibration_refuses_a_year_no_track_can_show():
    # grades 0, 1, 3 and 4 are met, in the first two years only
    sc = replace(
        staggered_scenario(), cohorts=(CohortSpec(1, 1, (0, 3), 5),), n_years=2
    )
    with pytest.raises(InputError, match="no track occupies grade 2"):
        calibrate_thresholds(sc, {3: 0.5})
    with pytest.raises(InputError, match="cannot calibrate year 5: no track reaches it"):
        calibrate_thresholds(sc, {5: 0.5})


def test_unreachable_profile_is_refused():
    # at icc 0.05 the best attainable worst deviation is about 0.022 > CALIBRATION_TOL 0.02
    with pytest.raises(NumericalError, match="did not converge"):
        default_scenario(icc=0.05)


@pytest.mark.parametrize("preset", ["single-track", "spillover"])
def test_single_track_simulate_skips_the_minimax_solver(tmp_path, preset):
    # bisection alone calibrates these presets, and nothing they run tests
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    out = tmp_path / "panel.csv"
    code = (
        "import sys; from pwrd.cli import main; "
        f"main(['simulate', '--preset', {preset!r}, '--out', {str(out)!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert out.exists()


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
    import pwrd.power as power

    real = power._analyze_panels
    failing = {3}

    def flaky(panels, *args):
        found = real(panels, *args)
        return [
            DegenerateDataError("synthetic failure") if p.meta.get("replicate") in failing else res
            for p, res in zip(panels, found)
        ]

    monkeypatch.setattr(power, "_analyze_panels", flaky)
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0))
    # one failure of 50 is within the allowed 0.02 * 50, two are not
    assert power.MAX_EXCLUSION_FRACTION == 0.02
    res = power.estimate_power(sc, methods=("flat",), n_reps=50)
    assert res.cell("flat").n_reps == 49
    assert res.cell("flat").n_excluded == 1
    assert res.failures == ((3, 6.0, "DegenerateDataError: synthetic failure"),)
    failing.add(17)
    with pytest.raises(DegenerateDataError, match="2 of 50 replicates failed .* unreliable"):
        power.estimate_power(sc, methods=("flat",), n_reps=50)


def test_a_failing_replicate_inside_a_batch_is_excluded_as_alone(monkeypatch):
    import pwrd.power as power

    # one unit per cluster and low cutoffs: replicate 21 flags no control unit
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=6.0), units_per_grade=1)
    sc = sc.with_thresholds({g: v - 10.0 for g, v in sc.threshold_map.items()})
    methods, levels, reps = ("pwrd", "flat", "mixed", "exit"), (0.0, 6.0), tuple(range(24))
    assert power.REPLICATE_BATCH < 21 < 2 * power.REPLICATE_BATCH
    args = (sc, levels, reps, methods, 0.05, "cr2", "clusters-2")
    hits, failures = power._run_chunk(*args)
    text = "DegenerateDataError: no test-in signal: p0 is zero in every group"
    assert sorted(failures) == [(21, 0.0, text), (21, 6.0, text)]
    oracle_hits, _, oracle_failures = replicate_loop(sc, levels, reps, methods)
    assert sorted(failures) == sorted(oracle_failures)
    np.testing.assert_array_equal(hits, oracle_hits)
    monkeypatch.setattr(power, "REPLICATE_BATCH", 1)
    alone_hits, alone_failures = power._run_chunk(*args)
    np.testing.assert_array_equal(hits, alone_hits)
    assert sorted(alone_failures) == sorted(failures)


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
    with pytest.raises(InputError, match="effect levels must be finite"):
        estimate_power(sc, methods=("flat",), n_reps=4, effect_levels=(0.0, math.nan))


def test_negative_replicate_index_is_refused():
    with pytest.raises(InputError, match="replicate index must be nonnegative"):
        generate_panel(small_scenario(), -1)


def forbid_replicates(monkeypatch):
    """Make starting a replicate or a worker pool fail the test."""
    import concurrent.futures

    import pwrd.power as power

    def never(*args, **kwargs):
        raise AssertionError("a replicate or a worker started")

    monkeypatch.setattr(power, "_run_chunk", never)
    # estimate_power imports the pool from here, and only when it runs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)


@pytest.mark.parametrize("workers", [1, 2])
def test_unknown_df_rule_is_refused_before_any_replicate(monkeypatch, workers):
    forbid_replicates(monkeypatch)
    with pytest.raises(InputError, match="df_rule"):
        estimate_power(
            small_scenario(), methods=("flat",), n_reps=4, df_rule="no-such-rule", workers=workers
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_cr0_with_satterthwaite_is_refused_before_any_replicate(monkeypatch, workers):
    forbid_replicates(monkeypatch)
    with pytest.raises(InputError, match="Satterthwaite degrees of freedom require the cr2"):
        estimate_power(
            small_scenario(), methods=("flat",), n_reps=2, cov_variant="cr0",
            df_rule="satterthwaite", workers=workers,
        )


@pytest.mark.parametrize(
    "levels, named",
    [
        ((0.0, 5.5), "null regime has no effect size"),
        ((5.5, math.nan), "effect levels must be finite"),
    ],
)
def test_null_effect_levels_are_refused_before_any_replicate(monkeypatch, levels, named):
    forbid_replicates(monkeypatch)
    with pytest.raises(InputError, match=named):
        estimate_power(small_scenario(), methods=("flat",), n_reps=2, effect_levels=levels)


@pytest.mark.parametrize("workers", [0, -3])
def test_fewer_than_one_worker_is_refused_before_any_replicate(monkeypatch, workers):
    forbid_replicates(monkeypatch)
    with pytest.raises(InputError, match=f"workers must be positive, got {workers}"):
        estimate_power(small_scenario(), methods=("flat",), n_reps=2, workers=workers)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"methods": ()}, "methods"),
        ({"methods": ("flat", "pwrd", "flat")}, "methods"),
        ({"effect_levels": ()}, "effect levels"),
        ({"effect_levels": (5.5, 0.0, 5.5)}, "effect levels"),
    ],
    ids=["no-methods", "repeated-method", "no-levels", "repeated-level"],
)
def test_empty_or_repeated_lists_are_refused_before_any_replicate(monkeypatch, kwargs, named):
    # an empty list would run nothing, a repeat would print one cell twice
    forbid_replicates(monkeypatch)
    sc = small_scenario(effect=EffectSpec(regime="effect1", tau=5.5))
    with pytest.raises(InputError, match=f"{named} must be nonempty and without repeats"):
        estimate_power(sc, **{"methods": ("flat",), **kwargs}, n_reps=2)


def test_sweeps_refuse_an_empty_grid_before_any_replicate(monkeypatch):
    forbid_replicates(monkeypatch)
    with pytest.raises(InputError, match="icc_grid must be nonempty"):
        pwrd.icc_sweep(small_scenario(), icc_grid=(), n_reps=2)
    sc = small_scenario(effect=EffectSpec(regime="effect2", tau=5.0))
    with pytest.raises(InputError, match="spill_grid must be nonempty"):
        negative_effect_sweep(sc, spill_grid=(), n_reps=2)


def test_analyze_replicate_refuses_an_unknown_df_rule():
    panel = generate_panel(small_scenario(), 0)
    with pytest.raises(InputError, match="df_rule"):
        analyze_replicate(panel, ("pwrd",), df_rule="no-such-rule")


def test_analyze_replicate_refuses_what_estimate_power_refuses():
    panel = generate_panel(small_scenario(), 0)
    with pytest.raises(InputError, match="unknown method 'bogus'"):
        analyze_replicate(panel, ("bogus", "flat"))
    with pytest.raises(InputError, match="cov_variant"):
        analyze_replicate(panel, ("flat",), cov_variant="cr9")
    with pytest.raises(InputError, match="Satterthwaite degrees of freedom require the cr2"):
        analyze_replicate(panel, ("flat",), cov_variant="cr0", df_rule="satterthwaite")


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
