"""Closed-form cases, optimality against independent oracles, and the
aggregate test's reference-distribution arithmetic."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import pwrd
from pwrd import (
    DegenerateDataError,
    InputError,
    NumericalError,
    aggregate_external,
    aggregate_test,
    flat_weights,
    pitman_relative_efficiency,
    pwrd_weights,
)
from pwrd import test_slope as slope_of

import pwrd.weights as weights_module
from pwrd.tails import t_p_value
from pwrd.weights import AggregationWeights

from oracles import (
    best_slope_by_enumeration,
    best_slope_by_projected_gradient,
    random_problem,
    slope,
)


# ----------------------------------------------------------------------
# closed forms

def test_identity_covariance_weights_proportional_to_p0():
    w = pwrd_weights(np.eye(3), np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(w.omega, [0.2, 0.3, 0.5], atol=1e-14)
    assert w.clipped_groups == ()
    assert not w.fallback


def test_diagonal_case_hand_inverted():
    # inv(diag(1,4)) @ (.5,.5) = (.5,.125), renormalized (0.8, 0.2)
    w = pwrd_weights(np.diag([1.0, 4.0]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(w.omega, [0.8, 0.2], atol=1e-12)


def test_diagonal_case_efficiency_vs_flat():
    sigma = np.diag([1.0, 4.0])
    p0 = np.array([0.5, 0.5])
    w = pwrd_weights(sigma, p0)
    f = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="flat")
    re = pitman_relative_efficiency(w, f, p0, sigma)
    assert re == pytest.approx(1.5625, abs=1e-12)


def test_correlated_pair_clips_to_vertex():
    # inv(Sigma) p0 has a negative first entry; the optimum drops group 0.
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    p0 = np.array([0.1, 1.0])
    w = pwrd_weights(sigma, p0)
    np.testing.assert_allclose(w.omega, [0.0, 1.0], atol=1e-12)
    assert w.clipped_groups == (0,)
    s_best, _ = best_slope_by_enumeration(sigma, p0)
    assert slope_of(w, p0, sigma) == pytest.approx(s_best, rel=1e-12)


def test_clipped_group_reactivation_lowers_slope():
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    p0 = np.array([0.1, 1.0])
    w = pwrd_weights(sigma, p0)
    bumped = w.omega.copy()
    for g in w.clipped_groups:
        bumped[g] = 1e-4
    bumped /= bumped.sum()
    assert slope(bumped, sigma, p0) < slope_of(w, p0, sigma)


def test_flat_weights_are_size_proportional():
    class Sized:
        n = np.array([10.0, 30.0])

    w = flat_weights(Sized)
    np.testing.assert_allclose(w.omega, [0.25, 0.75], atol=1e-15)
    assert w.scheme == "flat"


# ----------------------------------------------------------------------
# input validation

def test_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        pwrd_weights(np.eye(3), np.array([0.5, 0.5]))


def test_rejects_negative_p0():
    with pytest.raises(ValueError, match="nonnegative"):
        pwrd_weights(np.eye(2), np.array([0.5, -0.1]))


def test_zero_p0_is_degenerate():
    with pytest.raises(DegenerateDataError, match="no test-in signal"):
        pwrd_weights(np.eye(2), np.zeros(2))


def test_singular_covariance_refused_without_ridge():
    sigma = np.ones((2, 2))
    with pytest.raises(NumericalError, match="singular"):
        pwrd_weights(sigma, np.array([0.5, 0.5]))
    w = pwrd_weights(sigma, np.array([0.5, 0.5]), ridge=True)
    assert abs(w.omega.sum() - 1.0) < 1e-12


def test_nonfinite_covariance_refused():
    sigma = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NumericalError, match="non-finite"):
        pwrd_weights(sigma, np.array([0.5, 0.5]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: pwrd_weights(np.eye(3), np.array([0.5, 0.5])),
        lambda: pwrd_weights(np.eye(2), np.array([0.5, -0.1])),
        lambda: pwrd_weights(np.eye(2), np.array([0.5, np.nan])),
        lambda: pwrd_weights(np.ones((2, 3)), np.array([0.5, 0.5])),
        lambda: aggregate_external([0.1], p0=[0.5]),
        lambda: aggregate_external([0.1, 0.2, 0.3], p0=[0.5, 0.5], se=[0.1, 0.1]),
        lambda: aggregate_external([0.1, 0.2], p0=[0.5, 0.5], se=[0.1, np.nan]),
        lambda: aggregate_external([0.1, 0.2], p0=[0.5, 0.5], se=[0.1, np.inf]),
        lambda: aggregate_external([0.1, 0.2], p0=[0.5, 0.5], se=[0.1, 0.1], delta0=[0.0] * 3),
        lambda: aggregate_external([0.1], p0=[0.5], se=[0.1], alternative="both"),
        lambda: AggregationWeights(omega=np.array([np.nan, 0.5]), scheme="custom"),
        lambda: aggregate_external([], p0=[], se=[]),
        lambda: aggregate_external(0.1, p0=0.5, se=0.1),
        lambda: aggregate_external([np.nan, 0.2], p0=[0.5, 0.5], se=[0.1, 0.1]),
        lambda: aggregate_external([0.1, np.inf], p0=[0.5, 0.5], cov=np.eye(2)),
    ],
    ids=[
        "length", "negative-p0", "nan-p0", "nonsquare-cov", "neither-cov-nor-se",
        "delta-length", "nan-se", "inf-se", "delta0-length", "alternative", "nan-omega",
        "empty", "scalars", "nan-delta", "inf-delta",
    ],
)
def test_weights_input_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_an_asymmetric_covariance_is_refused_naming_cov():
    # eigvalsh reads one triangle and the weight solver the whole matrix,
    # so neither would see the matrix as given
    cov = np.array([[1.0, 0.9], [-0.9, 1.0]])
    p0 = np.array([0.3, 0.5])
    for call in (
        lambda: pwrd_weights(cov, p0),
        lambda: aggregate_external([0.1, 0.2], p0=p0, cov=cov),
        lambda: slope_of(np.array([0.5, 0.5]), p0, cov),
    ):
        with pytest.raises(InputError, match="cov must be a symmetric matrix"):
            call()
    # an asymmetry within CovarianceEstimate's tolerance is rounding
    near = np.eye(2) + np.array([[0.0, 1e-11], [0.0, 0.0]])
    assert pwrd_weights(near, p0).omega == pytest.approx(pwrd_weights(np.eye(2), p0).omega)


def test_solver_failure_is_a_numerical_error(monkeypatch):
    # the solver's own step cap, here with no step allowed
    monkeypatch.setattr(weights_module, "SOLVER_STEPS_PER_GROUP", 0)
    with pytest.raises(NumericalError, match="weight solver"):
        pwrd_weights(np.eye(2), np.array([0.5, 0.5]))


def test_weights_object_validates_itself():
    with pytest.raises(ValueError, match="sum to 1"):
        AggregationWeights(omega=np.array([0.5, 0.6]), scheme="flat")
    with pytest.raises(ValueError, match="nonnegative"):
        AggregationWeights(omega=np.array([1.5, -0.5]), scheme="flat")
    with pytest.raises(ValueError, match="scheme"):
        AggregationWeights(omega=np.array([1.0]), scheme="fancy")


# ----------------------------------------------------------------------
# invariants

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=5))
def test_weights_are_a_probability_vector(seed, G):
    sigma, p0 = random_problem(np.random.default_rng(seed), G)
    w = pwrd_weights(sigma, p0)
    assert w.omega.min() >= 0
    assert w.omega.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=5))
def test_scale_invariance_in_both_arguments(seed, G):
    rng = np.random.default_rng(seed)
    sigma, p0 = random_problem(rng, G)
    base = pwrd_weights(sigma, p0).omega
    for c in (1e-3, 7.3, 1e4):
        np.testing.assert_allclose(pwrd_weights(c * sigma, p0).omega, base, atol=1e-12)
        np.testing.assert_allclose(pwrd_weights(sigma, c * p0).omega, base, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=5))
def test_permutation_equivariance(seed, G):
    rng = np.random.default_rng(seed)
    sigma, p0 = random_problem(rng, G)
    perm = rng.permutation(G)
    w = pwrd_weights(sigma, p0).omega
    w_perm = pwrd_weights(sigma[np.ix_(perm, perm)], p0[perm]).omega
    np.testing.assert_allclose(w_perm, w[perm], atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=5))
def test_slope_matches_enumeration_oracle(seed, G):
    sigma, p0 = random_problem(np.random.default_rng(seed), G)
    w = pwrd_weights(sigma, p0)
    achieved = slope_of(w, p0, sigma)
    s_best, _ = best_slope_by_enumeration(sigma, p0)
    assert achieved >= s_best * (1 - 1e-6)
    # and never above the true optimum by more than roundoff
    assert achieved <= s_best * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=8))
def test_weights_and_support_match_enumeration_oracle(seed, G):
    sigma, p0 = random_problem(np.random.default_rng(seed), G)
    w = pwrd_weights(sigma, p0)
    _, best = best_slope_by_enumeration(sigma, p0)
    np.testing.assert_allclose(w.omega, best, rtol=0, atol=1e-10)
    assert w.clipped_groups == tuple(np.flatnonzero(best == 0))


def _acceptance_01_problems() -> list:
    """The 500 random instances of acceptance 01."""
    rng = np.random.default_rng(20260822)
    return [random_problem(rng, 2 + i % 4) for i in range(500)]


def _default_replicate_problems() -> list:
    """CR2 covariance and p0 of 200 default-design replicates at effect levels 0 and 5.5."""
    sc = pwrd.default_scenario(pwrd.EffectSpec("effect1", tau=5.5))
    out = []
    for r in range(200):
        base = pwrd.generate_panel(sc, r)
        for level in (0.0, 5.5):
            panel = pwrd.apply_effect(base, sc.effect.with_level(level), r)
            effects = pwrd.estimate_effects_diffmeans(panel)
            cov = pwrd.cluster_covariance(panel, effects, variant="cr2")
            out.append((cov.sigma_hat, pwrd.estimate_p0(panel).p_hat))
    return out


@pytest.mark.parametrize(
    "problems", [_acceptance_01_problems, _default_replicate_problems],
    ids=["acceptance-01", "default-replicates"],
)
def test_weights_match_scipy_nnls(problems):
    # scipy's NNLS on the Cholesky form L'v ~ L^{-1}p0 is the oracle
    from scipy.optimize import nnls

    for sigma, p0 in problems():
        L = np.linalg.cholesky(sigma)
        v, _ = nnls(L.T, np.linalg.solve(L, p0))
        w = pwrd_weights(sigma, p0)
        np.testing.assert_allclose(w.omega, v / v.sum(), rtol=0, atol=1e-12)
        assert w.clipped_groups == tuple(np.flatnonzero(v == 0))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, G=st.integers(min_value=2, max_value=5))
def test_beats_flat_and_single_group_weightings(seed, G):
    sigma, p0 = random_problem(np.random.default_rng(seed), G)
    achieved = slope_of(pwrd_weights(sigma, p0), p0, sigma)
    flat = np.full(G, 1.0 / G)
    assert achieved >= slope(flat, sigma, p0) - 1e-10
    for g in range(G):
        e = np.zeros(G)
        e[g] = 1.0
        assert achieved >= slope(e, sigma, p0) - 1e-10


def _clipping_problems(count: int = 10, G: int = 16) -> list:
    """Problems on which inv(Sigma) p0 has a negative entry, so the
    unconstrained maximizer is infeasible and some weight is forced to zero."""
    rng = np.random.default_rng(20260822)
    out = []
    while len(out) < count:
        sigma, p0 = random_problem(rng, G)
        if np.linalg.solve(sigma, p0).min() < 0:
            out.append((sigma, p0))
    return out


CLIPPING = _clipping_problems()


def test_clipping_slope_matches_projected_gradient_oracle():
    for sigma, p0 in CLIPPING:
        achieved = slope_of(pwrd_weights(sigma, p0), p0, sigma)
        s_best, _ = best_slope_by_projected_gradient(sigma, p0)
        assert achieved == pytest.approx(s_best, rel=1e-9)


def test_clipping_first_order_conditions():
    # The slope is scale invariant, so at a maximizer
    # r = p0 - (w'p0 / w'Sw) S w is zero on the support and <= 0 off it.
    for sigma, p0 in CLIPPING:
        w = pwrd_weights(sigma, p0).omega
        Sw = sigma @ w
        r = (p0 - (w @ p0) / (w @ Sw) * Sw) / np.abs(p0).max()
        support = w > 0
        assert (~support).any()
        assert np.abs(r[support]).max() <= 1e-12
        assert r[~support].max() <= 1e-12


def test_clipped_groups_are_the_zero_weight_groups():
    for sigma, p0 in CLIPPING:
        w = pwrd_weights(sigma, p0)
        assert w.clipped_groups == tuple(np.flatnonzero(w.omega == 0))
        assert w.fallback is False


def test_repeated_calls_are_bit_identical():
    rng = np.random.default_rng(7)
    # strong correlation forces clipping on most draws
    A = rng.normal(size=(4, 4))
    sigma = A @ A.T + 0.05 * np.eye(4)
    p0 = rng.uniform(0.05, 1.0, size=4)
    first = pwrd_weights(sigma, p0)
    second = pwrd_weights(sigma, p0)
    assert np.array_equal(first.omega, second.omega)
    assert first.fallback == second.fallback


# ----------------------------------------------------------------------
# aggregate test arithmetic

class _Groups:
    def __init__(self, d, S, df=np.inf):
        self.estimates = np.asarray(d, dtype=float)
        self.sigma_hat = np.asarray(S, dtype=float)
        self.df = df


def test_null_equal_estimate_gives_unit_pvalue():
    g = _Groups([0.3, -0.1], np.diag([0.01, 0.01]))
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    out = aggregate_test(g, g, w, delta0=np.array([0.3, -0.1]), alternative="two-sided")
    assert out.t_stat == pytest.approx(0.0, abs=1e-12)
    assert out.p_value == pytest.approx(1.0, abs=1e-12)


def test_single_group_weighting_reduces_to_single_t():
    g = _Groups([0.25, 0.4], np.diag([0.04, 0.09]))
    w = AggregationWeights(omega=np.array([1.0, 0.0]), scheme="custom")
    out = aggregate_test(g, g, w)
    assert out.t_stat == pytest.approx(0.25 / 0.2, rel=1e-12)
    assert out.se == pytest.approx(0.2, rel=1e-12)


def test_hand_computed_two_group_case():
    d = np.array([0.3, 0.1])
    S = np.array([[0.04, 0.01], [0.01, 0.09]])
    w = np.array([0.6, 0.4])
    g = _Groups(d, S, df=10.0)
    out = aggregate_test(g, g, AggregationWeights(omega=w, scheme="custom"))
    est = 0.6 * 0.3 + 0.4 * 0.1
    var = w @ S @ w
    assert out.estimate == pytest.approx(est, rel=1e-14)
    assert out.se == pytest.approx(np.sqrt(var), rel=1e-14)
    assert out.df == 10.0
    assert out.p_value == pytest.approx(stats.t(10.0).sf(est / np.sqrt(var)), rel=1e-12)


def test_two_sided_doubles_the_tail():
    g = _Groups([0.3, 0.1], np.diag([0.04, 0.09]), df=17.0)
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    one = aggregate_test(g, g, w, alternative="greater")
    two = aggregate_test(g, g, w, alternative="two-sided")
    assert two.p_value == pytest.approx(2 * one.p_value, rel=1e-12)


def test_infinite_df_uses_normal_reference():
    g = _Groups([0.3, 0.1], np.diag([0.04, 0.09]))
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    out = aggregate_test(g, g, w)
    assert out.p_value == pytest.approx(stats.norm.sf(out.t_stat), rel=1e-12)


def test_scalar_delta0_broadcasts():
    g = _Groups([0.3, 0.1], np.diag([0.04, 0.09]))
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    a = aggregate_test(g, g, w, delta0=0.05)
    b = aggregate_test(g, g, w, delta0=np.array([0.05, 0.05]))
    assert a.t_stat == b.t_stat
    assert a.null_value == pytest.approx(0.05, abs=1e-15)


TAIL_DFS = (0.5, 1.0, 1.5, 3.0, 17.5, 24.0, 50.0, 102.0, 1e3, 1e4, 1e6, np.inf)
TAIL_TS = np.concatenate(
    [np.linspace(-40.0, 40.0, 81), np.random.default_rng(5).uniform(-40.0, 40.0, 200)]
)


@pytest.mark.parametrize("df", TAIL_DFS)
def test_t_p_value_matches_scipy_stats(df):
    # scipy.stats is the oracle: 1e-12 relative wherever its tail is at
    # least 1e-300, and exactly 0 where it underflows
    dist = stats.norm if np.isinf(df) else stats.t(df)
    for t in TAIL_TS:
        wanted = {
            "greater": float(dist.sf(t)),
            "less": float(dist.cdf(t)),
            "two-sided": float(2.0 * dist.sf(abs(t))),
        }
        for alternative, want in wanted.items():
            got = t_p_value(t, df, alternative)
            if want >= 1e-300:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, alternative)
            elif want == 0.0:
                assert got == 0.0, (t, alternative)
            else:
                assert got < 1e-300, (t, alternative)


@pytest.mark.parametrize("df", [0.5, 24.0, 1e6, np.inf])
def test_t_p_value_at_infinite_and_nan_statistics(df):
    assert t_p_value(np.inf, df, "greater") == 0.0
    assert t_p_value(-np.inf, df, "greater") == 1.0
    assert t_p_value(np.inf, df, "less") == 1.0
    assert t_p_value(-np.inf, df, "two-sided") == 0.0
    assert t_p_value(0.0, df, "two-sided") == 1.0
    assert t_p_value(0.0, df, "greater") == 0.5
    with pytest.raises(NumericalError, match="NaN"):
        t_p_value(np.nan, df, "greater")


def test_import_does_not_load_scipy_stats():
    src_dir = Path(pwrd.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    code = (
        "import sys, pwrd; print('scipy.stats' in sys.modules); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "[]"]


def test_nonpositive_df_refused():
    g = _Groups([0.3, 0.1], np.diag([0.04, 0.09]), df=0.0)
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    with pytest.raises(DegenerateDataError, match="df"):
        aggregate_test(g, g, w)


def test_mismatched_group_coverage_refused():
    class A(_Groups):
        def group_ordinals(self):
            return (0, 1)

    class B(_Groups):
        def group_ordinals(self):
            return (0, 2)

    a = A([0.3, 0.1], np.diag([0.04, 0.09]))
    b = B([0.3, 0.1], np.diag([0.04, 0.09]))
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    with pytest.raises(ValueError, match="different groups"):
        aggregate_test(a, b, w)


# ----------------------------------------------------------------------
# slopes and efficiency

def test_slope_arithmetic():
    w = AggregationWeights(omega=np.array([0.5, 0.5]), scheme="custom")
    s = slope_of(w, np.array([0.5, 0.5]), np.eye(2))
    assert s == pytest.approx(0.5 / np.sqrt(0.5), rel=1e-14)


def test_slope_homogeneous_in_p0():
    rng = np.random.default_rng(3)
    sigma, p0 = random_problem(rng, 4)
    w = pwrd_weights(sigma, p0)
    f = AggregationWeights(omega=np.full(4, 0.25), scheme="flat")
    s = slope_of(w, p0, sigma)
    assert slope_of(w, 3.0 * p0, sigma) == pytest.approx(3.0 * s, rel=1e-12)
    re = pitman_relative_efficiency(w, f, p0, sigma)
    assert pitman_relative_efficiency(w, f, 3.0 * p0, sigma) == pytest.approx(re, rel=1e-12)


def test_self_efficiency_is_one():
    w = AggregationWeights(omega=np.array([0.3, 0.7]), scheme="custom")
    assert pitman_relative_efficiency(w, w, np.array([0.2, 0.9]), np.eye(2)) == 1.0


def test_zero_denominator_slope_refused():
    num = AggregationWeights(omega=np.array([0.0, 1.0]), scheme="custom")
    den = AggregationWeights(omega=np.array([1.0, 0.0]), scheme="custom")
    p0 = np.array([0.0, 1.0])
    with pytest.raises(NumericalError, match="zero slope"):
        pitman_relative_efficiency(num, den, p0, np.eye(2))


# ----------------------------------------------------------------------
# external aggregation

def test_external_single_group_is_a_z_test():
    out = aggregate_external([0.3], p0=[0.5], se=[0.1])
    assert out.weights.omega[0] == pytest.approx(1.0, abs=1e-15)
    assert out.test.t_stat == pytest.approx(3.0, rel=1e-12)
    assert out.test.p_value == pytest.approx(stats.norm.sf(3.0), rel=1e-12)


def test_external_identity_covariance_averages():
    d = np.array([0.1, 0.4, -0.2])
    out = aggregate_external(d, p0=[0.5, 0.5, 0.5], cov=np.eye(3))
    assert out.test.estimate == pytest.approx(d.mean(), rel=1e-12)


def test_external_se_path_matches_diagonal_cov_path():
    d = [0.02, -0.01, 0.05]
    p0 = [0.3, 0.6, 0.9]
    se = np.array([0.01, 0.02, 0.015])
    a = aggregate_external(d, p0=p0, se=se)
    b = aggregate_external(d, p0=p0, cov=np.diag(se**2))
    assert np.array_equal(a.weights.omega, b.weights.omega)
    assert a.test.p_value == b.test.p_value


def test_external_diagonal_weights_closed_form():
    p0 = np.array([0.25, 0.5, 0.75])
    se = np.array([0.023, 0.019, 0.021])
    out = aggregate_external([0.0, 0.0, 0.0], p0=p0, se=se)
    raw = p0 / se**2
    np.testing.assert_allclose(out.weights.omega, raw / raw.sum(), atol=1e-12)


def test_external_requires_exactly_one_covariance_input():
    with pytest.raises(ValueError, match="exactly one"):
        aggregate_external([0.1], p0=[0.5])
    with pytest.raises(ValueError, match="exactly one"):
        aggregate_external([0.1], p0=[0.5], se=[0.1], cov=np.eye(1))


def test_external_rejects_nonpositive_se():
    with pytest.raises(ValueError, match="positive"):
        aggregate_external([0.1, 0.2], p0=[0.5, 0.5], se=[0.1, 0.0])
