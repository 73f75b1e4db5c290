"""Aggregation weights and the weighted intention-to-treat test.

The weighting scheme at the heart of the package maximizes the slope of
the aggregate test statistic in the direction of the expected effect
profile: with covariance S and control test-in proportions p, the slope of
weights w is (w'p) / sqrt(w'Sw). The slope is scale invariant, and its
maximizer over nonnegative weights is the direction of
argmin_{v >= 0} v'Sv / 2 - p'v. With S = LL' that is the nonnegative least
squares problem min ||L'v - L^{-1}p|| over v >= 0, solved exactly by the
Lawson-Hanson active-set method. When nothing clips, v = S^{-1} p.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateDataError, InputError, NumericalError

PD_GATE = 1e-12
RIDGE_FACTOR = 1e-8
WEIGHT_SUM_TOL = 1e-12
SCHEMES = ("pwrd", "flat", "exit", "custom")
ALTERNATIVES = ("two-sided", "greater", "less")


def _vector(x, attr: str) -> np.ndarray:
    arr = np.asarray(getattr(x, attr) if hasattr(x, attr) else x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{attr} must be a nonempty vector, got shape {arr.shape}")
    return arr


def _matrix(x) -> np.ndarray:
    arr = getattr(x, "sigma_hat") if hasattr(x, "sigma_hat") else x
    S = np.asarray(arr, dtype=np.float64)
    if S.ndim == 1:
        S = np.diag(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"covariance must be a square matrix, got shape {S.shape}")
    return S


@dataclass(frozen=True, eq=False)
class AggregationWeights:
    """Nonnegative weights summing to one over the included groups.

    ``clipped_groups`` lists the groups ``pwrd_weights`` gave exactly zero
    weight; it is empty for other schemes.
    """

    omega: np.ndarray
    scheme: str
    clipped_groups: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise InputError(f"scheme must be one of {SCHEMES}")
        w = self.omega
        if w.ndim != 1 or len(w) == 0:
            raise InputError("omega must be a nonempty vector")
        if w.min() < 0:
            raise InputError("weights must be nonnegative")
        if not abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
            raise InputError("weights must sum to 1")

    @property
    def fallback(self) -> bool:
        """Always False: kept so readers of the ``fallback`` JSON key keep working."""
        return False


@dataclass(frozen=True)
class AggregatedTest:
    """Weighted aggregate estimate and its reference-distribution test."""

    estimate: float
    null_value: float
    se: float
    t_stat: float
    df: float
    p_value: float
    alternative: str

    def __post_init__(self) -> None:
        if self.se <= 0:
            raise InputError("se must be positive")
        if not 0.0 <= self.p_value <= 1.0:
            raise InputError("p_value out of range")
        recomputed = (self.estimate - self.null_value) / self.se
        if abs(recomputed - self.t_stat) > 1e-12 * max(1.0, abs(self.t_stat)):
            raise InputError("t_stat inconsistent with estimate, null_value, se")

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "null_value": self.null_value,
            "se": self.se,
            "t": self.t_stat,
            "df": self.df,
            "p": self.p_value,
            "alternative": self.alternative,
        }


def _gate_matrix(S: np.ndarray, ridge: bool) -> np.ndarray:
    G = S.shape[0]
    tr = float(np.trace(S))
    if not np.isfinite(S).all():
        raise NumericalError("covariance contains non-finite entries")
    if tr <= 0:
        raise NumericalError("covariance has nonpositive trace")
    if ridge:
        S = S + (RIDGE_FACTOR * tr / G) * np.eye(G)
        tr = float(np.trace(S))
    eigmin = float(np.linalg.eigvalsh(S).min())
    if eigmin <= PD_GATE * tr / G:
        raise NumericalError(
            "covariance is singular or near singular "
            f"(min eigenvalue {eigmin:.3e} vs gate {PD_GATE * tr / G:.3e}); "
            "enable the ridge option to proceed with a regularized matrix"
        )
    return S


# ----------------------------------------------------------------------
# public operations

def pwrd_weights(sigma, p0, ridge: bool = False) -> AggregationWeights:
    """Slope-maximizing nonnegative weights for the group effect vector.

    One exact solve: with sigma = LL' (after the positive-definiteness
    gate and optional ridge), v = NNLS(L', L^{-1} p0) minimizes
    v'sigma v / 2 - p0'v over v >= 0, and v / sum(v) maximizes the slope
    (w'p0) / sqrt(w'sigma w) over nonnegative weights summing to one. When
    nothing clips, v = sigma^{-1} p0. ``clipped_groups`` lists the groups
    the optimum gives exactly zero weight.
    """
    S = _gate_matrix(_matrix(sigma), ridge)
    p = _vector(p0, "p_hat")
    G = S.shape[0]
    if len(p) != G:
        raise InputError(f"p0 has length {len(p)}, covariance is {G}x{G}")
    if not (np.isfinite(p) & (p >= 0)).all():
        raise InputError("test-in proportions must be finite and nonnegative")
    if p.max() <= 0:
        raise DegenerateDataError("no test-in signal: p0 is zero in every group")

    # Deferred: about 0.3 s of import that the flat, mixed and exit paths never need.
    from scipy.optimize import nnls

    L = np.linalg.cholesky(S)
    try:
        v, _ = nnls(L.T, np.linalg.solve(L, p))
    except RuntimeError as exc:
        raise NumericalError(f"weight solver failed: {exc}") from exc
    clipped = tuple(int(i) for i in np.flatnonzero(v == 0))
    return AggregationWeights(omega=v / v.sum(), scheme="pwrd", clipped_groups=clipped)


def flat_weights(effects) -> AggregationWeights:
    """Group-size proportional weights n_g / N."""
    n = _vector(effects, "n")
    if n.min() <= 0:
        raise InputError("group sizes must be positive")
    return AggregationWeights(omega=n / n.sum(), scheme="flat")


def t_p_value(t: float, df: float, alternative: str) -> float:
    """P-value of statistic ``t`` against a t reference on ``df`` degrees of
    freedom, or the standard normal when ``df`` is infinite."""
    cdf = special.ndtr if np.isinf(df) else functools.partial(special.stdtr, df)
    if alternative == "greater":
        return float(cdf(-t))
    if alternative == "less":
        return float(cdf(t))
    if alternative == "two-sided":
        return float(2.0 * cdf(-abs(t)))
    raise InputError(f"unknown alternative '{alternative}'; expected one of {ALTERNATIVES}")


def aggregate_test(
    effects,
    cov,
    weights,
    delta0: np.ndarray | None = None,
    alternative: str = "greater",
    df: float | None = None,
) -> AggregatedTest:
    """Weighted aggregate effect and its t reference test.

    The statistic is (w'delta_hat - w'delta0) / sqrt(w'Sigma_hat w) with a
    t reference on the covariance's degrees of freedom (normal when df is
    infinite). ``delta0`` defaults to the zero vector.
    """
    d = _vector(effects, "estimates")
    S = _matrix(cov)
    w = _vector(weights, "omega")
    if not (len(d) == S.shape[0] == len(w)):
        raise InputError("effects, covariance, and weights must have matching lengths")
    if hasattr(effects, "group_ordinals") and hasattr(cov, "group_ordinals"):
        if effects.group_ordinals() != cov.group_ordinals():
            raise InputError("effects and covariance cover different groups")

    if delta0 is None:
        null_value = 0.0
    else:
        d0 = np.asarray(delta0, dtype=np.float64)
        if d0.shape == ():
            d0 = np.full(len(d), float(d0))
        if len(d0) != len(d):
            raise InputError("delta0 length mismatch")
        null_value = float(w @ d0)

    if df is None:
        df = float(getattr(cov, "df", np.inf))
    if not df > 0:
        raise DegenerateDataError(f"refusing to test with df = {df}")

    var = float(w @ S @ w)
    if var <= 0:
        raise NumericalError("weighted variance is not positive")
    se = float(np.sqrt(var))
    estimate = float(w @ d)
    t = (estimate - null_value) / se

    p = t_p_value(t, df, alternative)
    return AggregatedTest(
        estimate=estimate,
        null_value=null_value,
        se=se,
        t_stat=float(t),
        df=float(df),
        p_value=min(p, 1.0),
        alternative=alternative,
    )


def test_slope(weights, p0, sigma) -> float:
    """Slope (w'p0) / sqrt(w'Sigma w) of a weighting."""
    w = _vector(weights, "omega")
    p = _vector(p0, "p_hat")
    S = _matrix(sigma)
    var = float(w @ S @ w)
    if var <= 0:
        raise NumericalError("weighted variance is not positive")
    return float(w @ p / np.sqrt(var))


def pitman_relative_efficiency(weights_num, weights_den, p0, sigma) -> float:
    """Squared ratio of test slopes: efficiency of the first weighting."""
    h1 = test_slope(weights_num, p0, sigma)
    h2 = test_slope(weights_den, p0, sigma)
    if h2 == 0:
        raise NumericalError("denominator weighting has zero slope")
    return float((h1 / h2) ** 2)


@dataclass(frozen=True, eq=False)
class ExternalAggregate:
    """Weights plus test computed from user-supplied group summaries."""

    weights: AggregationWeights
    test: AggregatedTest
    slope: float

    def to_json_dict(self) -> dict:
        return {
            "omega": [float(v) for v in self.weights.omega],
            "clipped_groups": list(self.weights.clipped_groups),
            "fallback": self.weights.fallback,
            "slope": self.slope,
            "test": self.test.to_json_dict(),
        }


def aggregate_external(
    delta_hat,
    p0,
    cov=None,
    se=None,
    delta0=None,
    alternative: str = "greater",
    df: float = np.inf,
    ridge: bool = False,
) -> ExternalAggregate:
    """Weights and test from externally supplied effect summaries.

    Supply either a full covariance matrix or a vector of standard errors;
    standard errors imply a diagonal covariance, in which case the weights
    reduce to p0_g / se_g^2, renormalized. The reference distribution is
    normal unless a finite ``df`` is given.
    """
    d = _vector(delta_hat, "delta_hat")
    if not np.isfinite(d).all():
        raise InputError("delta_hat must be finite")
    if (cov is None) == (se is None):
        raise InputError("supply exactly one of cov or se")
    if se is not None:
        s = _vector(se, "se")
        if not (np.isfinite(s) & (s > 0)).all():
            raise InputError("standard errors must be finite and positive")
        S = np.diag(s**2)
    else:
        S = _matrix(cov)
    if len(d) != S.shape[0]:
        raise InputError("delta_hat and covariance have mismatched lengths")

    w = pwrd_weights(S, p0, ridge=ridge)
    test = aggregate_test(d, S, w, delta0=delta0, alternative=alternative, df=float(df))
    return ExternalAggregate(weights=w, test=test, slope=test_slope(w, p0, S))
