"""Data model: group catalog arithmetic, validation, flag persistence,
and the CSV round trip."""

import io
import json

import numpy as np
import pytest

from pwrd import (
    EffectSpec,
    InputError,
    PanelDataset,
    PanelSchema,
    ThresholdRule,
    apply_effect,
    cluster_covariance,
    estimate_effects_diffmeans,
    estimate_p0,
    exit_observation_estimate,
    fit_random_intercept,
    generate_panel,
    ingest_panel,
    pwrd_weights,
    satterthwaite_df,
    single_track_scenario,
)
from pwrd.effects import included_groups
from pwrd import panel as panel_module
from pwrd.panel import (
    IDENTITY_SCHEMA,
    Tier,
    _differs_from_first,
    _label_text,
    group_layout,
    group_rows,
    persist_flags,
)

from oracles import differs_from_first_seen, persisted_flags


def tiny_panel(**overrides):
    """Two clusters, four units, two follow-up years, two entry grades."""
    cols = dict(
        unit=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0]),
        cohort=np.ones(8, dtype=int),
        grade=np.array([3, 4, 4, 5, 3, 4, 4, 5]),
        year=np.array([1, 2, 1, 2, 1, 2, 1, 2]),
        outcome=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
        tested_in=np.array([0, 1, 0, 0, 1, 1, 0, 0]),
    )
    cols.update(overrides)
    return PanelDataset(**cols)


# ----------------------------------------------------------------------
# catalog

def test_groups_keyed_by_cohort_entry_grade_and_year():
    p = tiny_panel()
    keys = [(gi.cohort, gi.entry_grade, gi.follow_up_year) for gi in p.catalog]
    assert keys == [(1, 3, 1), (1, 3, 2), (1, 4, 1), (1, 4, 2)]
    assert p.n_groups == 4
    assert [gi.n for gi in p.catalog] == [2, 2, 2, 2]
    # one control and one treated row per group, by (arm, group)
    np.testing.assert_array_equal(p.cells.n, np.ones((2, 4)))
    assert included_groups(p) == (p.catalog, ())


def test_entry_grade_subtracts_elapsed_years():
    # a grade-5 record in year 3 belongs with the grade-3 entrants
    p = tiny_panel(grade=np.array([3, 4, 4, 5, 3, 4, 5, 6]), year=np.array([1, 2, 1, 2, 1, 2, 2, 3]))
    keys = {(gi.cohort, gi.entry_grade, gi.follow_up_year) for gi in p.catalog}
    assert (1, 4, 3) in keys


def test_group_ids_align_with_catalog():
    p = tiny_panel()
    for g, gi in enumerate(p.catalog):
        rows = p.group_ids == g
        assert rows.sum() == gi.n
        entry = p.grade[rows] - (p.year[rows] - 1)
        assert set(entry.tolist()) == {gi.entry_grade}


def test_group_layout_matches_row_key_unique():
    rng = np.random.default_rng(11)
    spread = np.array([-(2**40), -7, -1, 0, 3, 2**33, 2**40])
    for n in (1, 40, 3000):
        cohort, grade, year = (rng.choice(spread, n) for _ in range(3))
        catalog, group_ids = group_layout(cohort, grade, year)
        keys = np.stack([cohort, grade - (year - 1), year], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        got = [(gi.g, gi.cohort, gi.entry_grade, gi.follow_up_year, gi.n) for gi in catalog]
        counts = np.bincount(inverse.ravel())
        assert got == [(g, *uniq[g].tolist(), counts[g]) for g in range(len(uniq))]
        np.testing.assert_array_equal(group_ids, inverse.ravel())
        assert group_ids.dtype == np.int64


@pytest.mark.parametrize("n", [0, 1, 40, 3000])
def test_group_rows_matches_row_key_unique(n):
    rng = np.random.default_rng(n)
    spread = np.array([-(2**40), -7, -1, 0, 3, 2**33, 2**40])
    floats = np.array([-2.5, -0.0, 0.0, 0.0, 0.5, 0.5, 7.0])  # repeats, and both zeros
    cases = [[rng.choice(spread, n) for _ in range(k)] for k in (1, 2, 3)]
    cases += [[rng.choice(floats, n)], [rng.choice(floats, n), rng.choice(spread, n)]]
    for keys in cases:
        codes, first = group_rows(*keys)
        _, index, inverse = np.unique(
            np.stack(keys, axis=1), axis=0, return_index=True, return_inverse=True
        )
        np.testing.assert_array_equal(codes, inverse.ravel())
        np.testing.assert_array_equal(first, index)
        assert codes.dtype == np.int64


def test_single_arm_group_is_degenerate():
    for arm, empty in ((1, "control"), (0, "treated")):
        p = tiny_panel(treatment=np.full(8, arm), validate=False)
        np.testing.assert_array_equal(p.cells.n[arm], [2, 2, 2, 2])
        np.testing.assert_array_equal(p.cells.n[1 - arm], [0, 0, 0, 0])
        kept, excluded = included_groups(p)
        assert kept == ()
        assert [rec.group for rec in excluded] == list(p.catalog)
        assert {rec.reason for rec in excluded} == {f"no {empty} observations"}


def test_cached_catalog_refreshes_arm_counts():
    # replicate reuse: same layout, fresh treatment assignment; the extra
    # grade-7 entrant sits in the treated cluster only
    p = tiny_panel(
        unit=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4]),
        cluster=np.array([0, 0, 0, 0, 1, 1, 1, 1, 0]),
        treatment=np.array([1, 1, 1, 1, 0, 0, 0, 0, 1]),
        cohort=np.ones(9, dtype=int),
        grade=np.array([3, 4, 4, 5, 3, 4, 4, 5, 7]),
        year=np.array([1, 2, 1, 2, 1, 2, 1, 2, 1]),
        outcome=np.arange(9, dtype=float),
        tested_in=None,
    )
    flipped = PanelDataset(
        unit=p.unit,
        cluster=p.cluster,
        treatment=1 - p.treatment,
        cohort=p.cohort,
        grade=p.grade,
        year=p.year,
        outcome=p.outcome,
        validate=False,
        _layout=(p.catalog, p.group_ids),
    )
    assert flipped.catalog is p.catalog
    np.testing.assert_array_equal(p.cells.n, [[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]])
    np.testing.assert_array_equal(flipped.cells.n, p.cells.n[::-1])
    assert [gi.n for gi in flipped.catalog] == [2, 2, 2, 2, 1]
    # the empty arm of the grade-7 group follows the assignment
    assert [rec.reason for rec in included_groups(p)[1]] == ["no control observations"]
    assert [rec.reason for rec in included_groups(flipped)[1]] == ["no treated observations"]


# ----------------------------------------------------------------------
# tiers: what the design, the assignment and the outcome fix

COLUMNS = ("unit", "cluster", "treatment", "cohort", "grade", "year", "tested_in", "block")


def fresh_copy(panel, **overrides):
    """The panel's columns in a new, validated panel that shares nothing."""
    cols = {k: getattr(panel, k).copy() for k in COLUMNS}
    return PanelDataset(**{**cols, "outcome": panel.outcome.copy(), **overrides})


def same(a, b) -> bool:
    """Equal value by value, arrays bit for bit and of one dtype."""
    if isinstance(a, Tier):
        return isinstance(b, Tier) and same(a.values, b.values)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "__dict__"):  # results, catalog entries, record layouts
        return type(a) is type(b) and same(vars(a), vars(b))
    return a == b


def exercise(panel) -> dict:
    """Every estimate the Monte Carlo loop and the CLI take of a panel, so
    each tier holds all it caches."""
    out = {}
    effects, p0 = estimate_effects_diffmeans(panel), estimate_p0(panel)
    out["effects"], out["p0"] = (effects.estimates, effects.n), (p0.p_hat, p0.n_control)
    for variant in ("cr0", "cr2"):
        cov = cluster_covariance(panel, effects, variant=variant)
        w = pwrd_weights(cov, p0)
        fit = fit_random_intercept(panel, ("grade",), variant=variant)
        ex = exit_observation_estimate(panel, variant=variant)
        out[variant] = (
            cov.sigma_hat, w.omega, fit.tau_hat, fit.se_model, fit.se_cluster_robust,
            fit.implied_group_weights, ex.estimate, ex.se, ex.n_treated, ex.n_control,
        )
    out["df"] = satterthwaite_df(panel, effects, w.omega)
    out["effect1"] = apply_effect(panel, EffectSpec("effect1", tau=2.0)).outcome
    return out


def assert_tiers_match(panel, fresh):
    """Every estimate and every cached tier quantity of ``panel`` equals
    that of ``fresh``, a panel of the same columns built from nothing."""
    assert same(exercise(panel), exercise(fresh))
    for tier in ("design_tier", "assignment_tier"):
        # a shared design tier may also hold what other panels of it asked for
        mine, theirs = getattr(panel, tier).values, getattr(fresh, tier).values
        assert set(theirs) <= set(mine)
        for name in theirs:
            assert same(mine[name], theirs[name]), (tier, name)
    for name in ("m", "s", "f", "z", "n", "means"):
        assert same(getattr(panel.cells, name), getattr(fresh.cells, name)), name


def test_flipped_assignment_builds_its_own_assignment_tier():
    p = generate_panel(single_track_scenario(n_clusters=8, units_per_grade=6), 1)
    exercise(p)
    flipped = PanelDataset(
        **{k: getattr(p, k) for k in COLUMNS if k != "treatment"},
        treatment=1 - p.treatment,
        outcome=p.outcome,
        validate=False,
        _layout=(p.catalog, p.group_ids),
        _design=p.design_tier,
    )
    assert flipped.design_tier is p.design_tier
    assert flipped.assignment_tier is not p.assignment_tier
    np.testing.assert_array_equal(flipped.cells.n, p.cells.n[::-1])
    assert_tiers_match(flipped, fresh_copy(flipped))


def test_relabeled_clusters_build_their_own_design_tier():
    # a panel built from its columns, so its design tier is its own
    p = fresh_copy(generate_panel(single_track_scenario(n_clusters=8, units_per_grade=6), 1))
    exercise(p)
    perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    relabeled = PanelDataset(
        **{k: getattr(p, k) for k in COLUMNS if k != "cluster"},
        cluster=perm[p.cluster],
        outcome=p.outcome,
        validate=False,
        _layout=(p.catalog, p.group_ids),
    )
    assert relabeled.catalog is p.catalog
    assert relabeled.design_tier is not p.design_tier
    np.testing.assert_array_equal(relabeled.cells.m[perm], p.cells.m)
    assert_tiers_match(relabeled, fresh_copy(relabeled))


def test_with_outcome_shares_the_tiers_but_not_the_sums():
    p = generate_panel(single_track_scenario(n_clusters=8, units_per_grade=6), 1)
    exercise(p)
    q = p.with_outcome(p.outcome + np.arange(p.n_obs))
    assert q.design_tier is p.design_tier and q.assignment_tier is p.assignment_tier
    assert q.cells.counts is p.cells.counts and q.cells.m is p.cells.m
    assert not np.array_equal(q.cells.s, p.cells.s)
    assert_tiers_match(q, fresh_copy(q))


# ----------------------------------------------------------------------
# validation

def test_rejects_nonbinary_treatment():
    with pytest.raises(InputError, match="non-binary treatment"):
        tiny_panel(treatment=np.array([1, 1, 2, 2, 0, 0, 0, 0]))


def test_rejects_year_below_one():
    with pytest.raises(InputError, match="below 1"):
        tiny_panel(year=np.array([0, 2, 1, 2, 1, 2, 1, 2]))


def test_rejects_nonfinite_outcome():
    with pytest.raises(InputError, match="non-finite outcome"):
        tiny_panel(outcome=np.array([1.0, np.nan, 3, 4, 5, 6, 7, 8]))


def test_rejects_duplicate_unit_year():
    with pytest.raises(InputError, match="duplicate"):
        tiny_panel(year=np.array([1, 1, 1, 2, 1, 2, 1, 2]))


def test_rejects_treatment_varying_within_cluster():
    with pytest.raises(InputError, match="varies within a cluster"):
        tiny_panel(treatment=np.array([1, 1, 0, 0, 0, 0, 0, 0]))


def test_rejects_unit_changing_cluster():
    with pytest.raises(InputError, match="more than one cluster"):
        tiny_panel(cluster=np.array([0, 1, 0, 0, 1, 1, 1, 1]), treatment=np.zeros(8, dtype=int))


def test_rejects_flag_that_turns_off():
    with pytest.raises(InputError, match="drops back"):
        tiny_panel(tested_in=np.array([1, 0, 0, 0, 0, 0, 0, 0]))


@pytest.mark.parametrize(
    "column, values, rows",
    [
        ("treatment", [0.5, 1, 1, 1, 0, 0, 0, 0], [0]),  # the int8 cast made it control
        ("unit", [0.2, 0.7, 1, 1, 2, 2, 3, 3], [0, 1]),  # both were cast to unit 0
        ("cluster", [0, 0, 0, 0, 1, 1, 1, 1.5], [7]),
        ("tested_in", [0, 1, 0, 0, 1, 1, 0, np.nan], [7]),
        ("grade", [3, 4, 4, 5, 3, 4, 4, np.inf], [7]),
        ("block", [0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25], [4, 5, 6, 7]),
    ],
)
def test_rejects_non_integral_values_in_integer_columns(column, values, rows):
    with pytest.raises(InputError, match=rf"non-integral value in column '{column}': rows \{rows}"):
        tiny_panel(**{column: np.array(values, dtype=np.float64)})


def test_rejects_flags_the_int8_cast_would_wrap_to_binary():
    with pytest.raises(InputError, match=r"non-binary treatment: rows \[4, 5, 6, 7\]"):
        tiny_panel(treatment=np.array([1, 1, 1, 1, 256, 256, 256, 256]))
    with pytest.raises(InputError, match=r"non-binary tested_in flag: rows \[0\]"):
        tiny_panel(tested_in=np.array([257, 1, 0, 0, 1, 1, 0, 0]))


def test_accepts_integral_floats_in_integer_columns():
    ints = tiny_panel(block=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    floats = tiny_panel(
        **{k: getattr(ints, k).astype(float) for k in ("unit", "cluster", "treatment", "block")}
    )
    for k in ("unit", "cluster", "treatment", "block"):
        got, want = getattr(floats, k), getattr(ints, k)
        assert got.dtype == want.dtype and np.array_equal(got, want), k
    assert np.array_equal(floats.cells.means, ints.cells.means)


@pytest.mark.parametrize(
    "column, values, rows",
    [
        ("unit", [0, 0, -1, -1, 2, 2, 3, 3], [2, 3]),
        ("cluster", [-1, -1, -1, -1, 0, 0, 0, 0], [0, 1, 2, 3]),
        ("block", [0, 0, 0, 0, -2, -2, -2, -2], [4, 5, 6, 7]),
    ],
)
def test_rejects_negative_codes(column, values, rows):
    with pytest.raises(InputError, match=rf"negative {column} code: rows \{rows}"):
        tiny_panel(**{column: np.array(values)})


def test_rejects_cluster_codes_that_skip_a_number():
    # codes 0 and 2: a cluster 1 with no rows would count in C and its df
    with pytest.raises(InputError, match=r"must run from 0 to C - 1; missing codes \[1\]"):
        tiny_panel(cluster=np.array([0, 0, 0, 0, 2, 2, 2, 2]))
    # C codes need C rows, so 2**62 is refused before counting by code
    with pytest.raises(InputError, match=r"must run from 0 to C - 1; code 4611686018427387904 "):
        tiny_panel(cluster=np.array([0, 0, 1, 1, 2, 2, 2**62, 2**62]))


def test_consistency_checks_name_rows_of_shuffled_input():
    # tiny_panel's rows in the order 5 2 7 0 3 6 1 4: a row is at fault when
    # it differs from the first row of its cluster (or unit) in file order,
    # and a flag drops back in (unit, year) time, not in row order
    perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    base = tiny_panel()
    names = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")
    cols = {k: getattr(base, k)[perm].copy() for k in names}

    def shuffled(**overrides):
        return PanelDataset(**{**cols, **overrides})

    z = cols["treatment"].copy()
    z[1] = 0  # the first row of cluster 0 now disagrees with the other three
    with pytest.raises(InputError, match=r"treatment varies within a cluster: rows \[3, 4, 6\]"):
        shuffled(treatment=z)
    block = cols["cluster"].copy()
    block[4] = 1
    with pytest.raises(InputError, match=r"block varies within a cluster: rows \[4\]"):
        shuffled(block=block)
    cluster = cols["cluster"].copy()
    cluster[5] = 0  # unit 3, first seen in cluster 1 at row 2
    with pytest.raises(InputError, match=r"more than one cluster: rows \[5\]"):
        shuffled(cluster=cluster, treatment=np.zeros(8, dtype=int))
    flags = cols["tested_in"].copy()
    flags[0], flags[7] = 0, 1  # unit 2: year 2 (row 0) drops below year 1 (row 7)
    with pytest.raises(InputError, match=r"drops back to 0 within a unit: rows \[0\]"):
        shuffled(tested_in=flags)


def test_vectorized_checks_match_row_walks():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        key, value = rng.integers(0, 5, n), rng.integers(0, 3, n)
        expected = differs_from_first_seen(key, value)
        np.testing.assert_array_equal(_differs_from_first(group_rows(key), value), expected)
        unit, year, raw = rng.integers(0, 4, n), rng.permutation(n), rng.integers(0, 2, n)
        expected = persisted_flags(raw, unit, year)
        np.testing.assert_array_equal(persist_flags(raw, unit, year), expected)
        sparse = np.array([3, 2**40, 2**62, 17])[unit]  # sparse unit codes, the same units
        np.testing.assert_array_equal(persist_flags(raw, sparse, year), expected)


def test_error_names_offending_rows():
    with pytest.raises(InputError, match=r"rows \[1\]"):
        tiny_panel(outcome=np.array([1.0, np.inf, 3, 4, 5, 6, 7, 8]))


def test_length_mismatch_refused():
    with pytest.raises(InputError, match="length"):
        tiny_panel(outcome=np.array([1.0, 2.0]))


# ----------------------------------------------------------------------
# flags and masks

def test_persist_flags_carries_forward():
    unit = np.array([0, 0, 0, 1, 1])
    year = np.array([1, 2, 3, 1, 2])
    raw = np.array([0, 1, 0, 0, 0])
    np.testing.assert_array_equal(persist_flags(raw, unit, year), [0, 1, 1, 0, 0])


def test_persist_flags_respects_row_order():
    # rows arrive shuffled; persistence is in (unit, year) time, not row order
    unit = np.array([1, 0, 0, 1, 0])
    year = np.array([2, 3, 1, 1, 2])
    raw = np.array([0, 0, 0, 1, 1])
    np.testing.assert_array_equal(persist_flags(raw, unit, year), [1, 1, 0, 1, 1])


def test_exit_mask_defaults_to_last_year():
    p = tiny_panel()
    mask = p.exit_mask()
    assert mask.sum() == len(np.unique(p.unit))
    np.testing.assert_array_equal(p.year[mask], [2, 2, 2, 2])
    # shuffled rows, and units followed for different spans
    q = tiny_panel(
        unit=np.array([1, 0, 0, 1, 3, 2, 2, 2]),
        year=np.array([2, 1, 3, 1, 1, 2, 1, 3]),
        tested_in=np.zeros(8, dtype=int),
    )
    np.testing.assert_array_equal(q.exit_mask(), [1, 0, 1, 0, 1, 0, 0, 1])
    # exit rows follow the units, not the size of their codes
    r = tiny_panel(unit=np.array([2**62, 2**62, 1, 1, 2, 2, 3, 3]))
    np.testing.assert_array_equal(r.exit_mask(), [0, 1, 0, 1, 0, 1, 0, 1])


# ----------------------------------------------------------------------
# views and columns

def test_with_outcome_shares_everything_else():
    p = tiny_panel()
    q = p.with_outcome(p.outcome * 2)
    assert q.unit is p.unit
    assert q.catalog is p.catalog
    np.testing.assert_array_equal(q.outcome, p.outcome * 2)
    with pytest.raises(InputError, match="shape"):
        p.with_outcome(np.zeros(3))


def test_cell_table_sums_match_row_walk():
    # cells of one, three and four rows, and empty cells
    rng = np.random.default_rng(5)
    p = tiny_panel(
        unit=np.arange(8),
        grade=np.array([3, 3, 3, 5, 4, 4, 4, 4]),
        year=np.ones(8, dtype=int),
        outcome=100 + rng.normal(size=8),
    )
    assert (p.cells.m == 0).any() and p.cells.m.max() == 4
    cells = p.cells
    for c in range(p.n_clusters):
        for g in range(p.n_groups):
            y = p.outcome[(p.cluster == c) & (p.group_ids == g)]
            assert cells.m[c, g] == len(y)
            assert cells.s[c, g] == pytest.approx(y.sum(), rel=1e-14, abs=1e-12)


def test_column_lookup():
    p = tiny_panel(covariates={"score": np.linspace(0, 1, 8)})
    np.testing.assert_array_equal(p.column("grade"), p.grade.astype(float))
    np.testing.assert_array_equal(p.column("follow_up_year"), p.year.astype(float))
    np.testing.assert_array_equal(p.column("score"), np.linspace(0, 1, 8))
    with pytest.raises(InputError, match="unknown covariate"):
        p.column("shoe_size")


def test_covariates_must_be_finite():
    with pytest.raises(InputError, match="non-finite"):
        tiny_panel(covariates={"score": np.array([np.nan] * 8)})


# ----------------------------------------------------------------------
# CSV round trip and ingestion

def _observation_set(panel):
    def canon(label, prefix, width):
        # label-less panels print bare codes; the writer zero-pads them
        return label if label.startswith(prefix) else f"{prefix}{int(label):0{width}d}"

    units = panel.unit_labels[panel.unit] if panel.unit_labels is not None else panel.unit
    clusters = (
        panel.cluster_labels[panel.cluster] if panel.cluster_labels is not None else panel.cluster
    )
    flags = panel.tested_in if panel.tested_in is not None else [None] * panel.n_obs
    return {
        (
            canon(str(u), "u", 7),
            canon(str(c), "c", 4),
            int(z),
            int(cohort),
            int(grade),
            int(year),
            float(y),
            None if f is None else int(f),
        )
        for u, c, z, cohort, grade, year, y, f in zip(
            units, clusters, panel.treatment, panel.cohort,
            panel.grade, panel.year, panel.outcome, flags,
        )
    }


def test_csv_round_trip(tmp_path):
    p = tiny_panel(covariates={"score": np.linspace(-1, 1, 8)})
    path = tmp_path / "panel.csv"
    p.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "unit,cluster,treatment,cohort,grade,year,outcome,tested_in,score"
    q = ingest_panel(path, PanelSchema(columns=dict(IDENTITY_SCHEMA.columns), covariates=("score",)))
    assert _observation_set(q) == _observation_set(p)
    np.testing.assert_allclose(np.sort(q.covariates["score"]), np.sort(p.covariates["score"]))
    keys = [(gi.cohort, gi.entry_grade, gi.follow_up_year, gi.n) for gi in q.catalog]
    assert keys == [(gi.cohort, gi.entry_grade, gi.follow_up_year, gi.n) for gi in p.catalog]


def _golden_panel(labels):
    extra = {}
    if labels:
        extra = dict(
            unit_labels=np.array(["alice", "bob"]),
            cluster_labels=np.array(["s,1", "s2"]),
            block_labels=np.array(["north"]),
        )
    return PanelDataset(
        unit=np.array([0, 0, 1, 1]),
        cluster=np.array([0, 0, 1, 1]),
        block=np.zeros(4, dtype=int),
        treatment=np.array([1, 1, 0, 0]),
        cohort=np.full(4, 2019),
        grade=np.array([3, 4, 3, 4]),
        year=np.array([1, 2, 1, 2]),
        outcome=np.array([1.5, -2.25, 1e16, 0.1]),
        tested_in=np.array([0, 1, 0, 0]),
        covariates={"x": np.array([-0.0, 1 / 3, 1e-300, 5e-324])},
        **extra,
    )


@pytest.mark.parametrize("labels", [False, True], ids=["codes", "labels"])
def test_to_csv_text_is_pinned(labels):
    # floats print as repr: signed zero, 17 digits, tiny and subnormal values
    header = "unit,cluster,block,treatment,cohort,grade,year,outcome,tested_in,x\n"
    u, c, b = ("alice", "bob"), ('"s,1"', "s2"), "north"
    if not labels:
        u, c, b = ("u0000000", "u0000001"), ("c0000", "c0001"), "b0000"
    expected = header + (
        f"{u[0]},{c[0]},{b},1,2019,3,1,1.5,0,-0.0\n"
        f"{u[0]},{c[0]},{b},1,2019,4,2,-2.25,1,0.3333333333333333\n"
        f"{u[1]},{c[1]},{b},0,2019,3,1,1e+16,0,1e-300\n"
        f"{u[1]},{c[1]},{b},0,2019,4,2,0.1,0,5e-324\n"
    )
    buf = io.StringIO()
    _golden_panel(labels).to_csv(buf)
    assert buf.getvalue() == expected


def _label_text_by_numpy_strings(codes, labels, prefix, width):
    """Each code's label, or the code padded by ``np.char.zfill``."""
    if labels is not None:
        return labels[codes].tolist()
    return np.char.add(prefix, np.char.zfill(codes.astype(str), width)).tolist()


def test_label_text_pads_as_numpy_strings_do():
    codes = np.array([0, 7, 42, 123, 9999, 10000, 1234567, 12345678, 123456789])
    for prefix, width in (("u", 7), ("c", 4), ("b", 4)):
        got = _label_text(codes, None, prefix, width)
        assert got == _label_text_by_numpy_strings(codes, None, prefix, width)


@pytest.mark.parametrize("labels", [False, True], ids=["codes", "labels"])
def test_to_csv_bytes_match_numpy_string_padding(monkeypatch, tmp_path, labels):
    from pwrd import generate_panel, single_track_scenario

    panel = generate_panel(single_track_scenario(n_clusters=8, units_per_grade=4), 0)
    if labels:  # an ingested panel keeps the labels it read
        panel.to_csv(tmp_path / "source.csv")
        panel = ingest_panel(tmp_path / "source.csv")
        assert panel.unit_labels is not None and panel.cluster_labels is not None
    panel.to_csv(tmp_path / "got.csv")
    monkeypatch.setattr(panel_module, "_label_text", _label_text_by_numpy_strings)
    panel.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("labels", [False, True], ids=["codes", "labels"])
def test_to_csv_in_slices_writes_the_bytes_of_one_slice(monkeypatch, tmp_path, labels):
    from pwrd import generate_panel, single_track_scenario

    panel = generate_panel(single_track_scenario(n_clusters=8, units_per_grade=4), 0)
    if labels:
        panel.to_csv(tmp_path / "source.csv")
        panel = ingest_panel(tmp_path / "source.csv")
    monkeypatch.setattr(panel_module, "_CHUNK_ROWS", panel.n_obs)
    panel.to_csv(tmp_path / "whole.csv")
    monkeypatch.setattr(panel_module, "_CHUNK_ROWS", 3)  # 128 rows: a short last slice
    panel.to_csv(tmp_path / "sliced.csv")
    assert (tmp_path / "sliced.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_ingest_renamed_columns():
    text = io.StringIO(
        "sid,school,arm,wave,gr,yr,y\n"
        "a,s1,1,1,3,1,10.5\n"
        "b,s2,0,1,3,1,9.0\n"
    )
    schema = PanelSchema(
        columns={
            "unit": "sid",
            "cluster": "school",
            "treatment": "arm",
            "cohort": "wave",
            "grade": "gr",
            "year": "yr",
            "outcome": "y",
        }
    )
    p = ingest_panel(text, schema)
    assert p.n_obs == 2
    assert p.tested_in is None
    assert sorted(p.cluster_labels.tolist()) == ["s1", "s2"]


def test_ingest_drops_missing_outcomes_and_reports():
    text = io.StringIO(
        "unit,cluster,treatment,cohort,grade,year,outcome\n"
        "a,s1,1,1,3,1,10.5\n"
        "b,s2,0,1,3,1,\n"
        "c,s2,0,1,3,1,9.0\n"
    )
    p = ingest_panel(text)
    assert p.n_obs == 2
    assert p.ingest_report.n_read == 3
    assert p.ingest_report.dropped_rows == ((3, "missing outcome"),)


def test_ingest_parse_error_names_row():
    text = io.StringIO(
        "unit,cluster,treatment,cohort,grade,year,outcome\n"
        "a,s1,1,1,3,one,10.5\n"
    )
    with pytest.raises(InputError, match="row 2"):
        ingest_panel(text)


def test_ingest_missing_column_named():
    text = io.StringIO("unit,cluster,treatment,cohort,grade,year\na,s1,1,1,3,1\n")
    with pytest.raises(InputError, match="outcome"):
        ingest_panel(text)


def test_ingest_empty_input_refused():
    text = io.StringIO("unit,cluster,treatment,cohort,grade,year,outcome\n")
    with pytest.raises(InputError, match="no usable rows"):
        ingest_panel(text)


def test_threshold_rule_derives_persistent_flags():
    text = io.StringIO(
        "unit,cluster,treatment,cohort,grade,year,outcome,score\n"
        "a,s1,1,1,3,1,1.0,40\n"
        "a,s1,1,1,4,2,1.0,80\n"
        "b,s2,0,1,3,1,1.0,70\n"
        "b,s2,0,1,4,2,1.0,30\n"
    )
    schema = PanelSchema(
        columns={c: c for c in ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome")},
        tested_in_rule=ThresholdRule(score_column="score", cutoffs={3: 50.0, 4: 50.0}),
    )
    p = ingest_panel(text, schema)
    assert p.ingest_report.derived_tested_in
    by_unit = {
        (p.unit_labels[p.unit[i]], int(p.year[i])): int(p.tested_in[i]) for i in range(p.n_obs)
    }
    # unit a tests in immediately and stays flagged; unit b only from year 2
    assert by_unit[("a", 1)] == 1 and by_unit[("a", 2)] == 1
    assert by_unit[("b", 1)] == 0 and by_unit[("b", 2)] == 1


def test_threshold_rule_requires_all_grades():
    text = io.StringIO(
        "unit,cluster,treatment,cohort,grade,year,outcome,score\n"
        "a,s1,1,1,5,1,1.0,40\n"
    )
    schema = PanelSchema(
        columns={c: c for c in ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome")},
        tested_in_rule=ThresholdRule(score_column="score", cutoffs={3: 50.0}),
    )
    with pytest.raises(InputError, match="grades \\[5\\]"):
        ingest_panel(text, schema)


def test_schema_rejects_flag_column_plus_rule():
    schema = PanelSchema(
        columns={c: c for c in ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome", "tested_in")},
        tested_in_rule=ThresholdRule(score_column="score", cutoffs={3: 50.0}),
    )
    text = io.StringIO(
        "unit,cluster,treatment,cohort,grade,year,outcome,tested_in,score\n"
        "a,s1,1,1,3,1,1.0,0,40\n"
    )
    with pytest.raises(InputError, match="also provides"):
        ingest_panel(text, schema)


def test_schema_validation():
    with pytest.raises(InputError, match="unknown logical"):
        PanelSchema(columns={"unit": "u", "santa": "x"})
    with pytest.raises(InputError, match="missing required"):
        PanelSchema(columns={"unit": "u"})
    names = {c: c for c in ("unit", "cluster", "treatment", "cohort", "grade", "year")}
    with pytest.raises(InputError, match="must be strings"):
        PanelSchema(columns={**names, "outcome": ["y"]})
    with pytest.raises(InputError, match="must be strings"):
        PanelSchema(columns={**names, "outcome": "y"}, tested_in_rule=ThresholdRule(3, {3: 1.0}))


def test_schema_from_json(tmp_path):
    doc = {
        "columns": {c: c.upper() for c in ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome")},
        "covariates": ["baseline"],
        "tested_in_rule": {"score_column": "SCORE", "cutoffs": {"3": 42.0}},
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    schema = PanelSchema.from_json(path)
    assert schema.columns["outcome"] == "OUTCOME"
    assert schema.covariates == ("baseline",)
    assert schema.tested_in_rule.cutoffs == {3: 42.0}
