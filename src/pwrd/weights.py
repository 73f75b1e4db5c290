"""Aggregation weights and the weighted intention-to-treat test.

The weighting scheme at the heart of the package maximizes the slope of
the aggregate test statistic in the direction of the expected effect
profile: with covariance S and control test-in proportions p, the slope of
weights w is (w'p) / sqrt(w'Sw). The slope is scale invariant, and its
maximizer over nonnegative weights is the direction of
argmin_{v >= 0} v'Sv / 2 - p'v. ``pwrd_weights`` solves that problem
exactly with the Lawson-Hanson active-set method in Gram form, directly
on S and p: it starts with every group clipped, frees the group with the
largest positive gradient entry p - Sv, and solves S[F, F] z = p[F] on the
free set F, stepping back whenever a free entry of z is not positive.
When nothing clips, v = S^{-1} p. ``pwrd_weights`` is
``pwrd_weights_stack`` on one problem. The stack takes each problem
through the gates and the solver in turn; a problem whose p0 equals an
earlier one's first solves on that one's free set, keeping the solution
when Lawson-Hanson's stopping test holds there by a margin.

The aggregate test divides the weighted estimate by its standard error
and reads its p-value from the t or normal reference tails of ``tails``,
which the simulator's calibration also loads without this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError, attempt, one
from .tails import _refuse_df, t_p_value

PD_GATE = 1e-12
RIDGE_FACTOR = 1e-8
WEIGHT_SUM_TOL = 1e-12
SCHEMES = ("pwrd", "flat", "custom")
# The weight solver's cap on linear solves, per group, as in Lawson & Hanson.
SOLVER_STEPS_PER_GROUP = 3
# The share of the largest weight and test-in proportion by which a face's
# stopping test must hold before the solve on it is kept (``_on_face``).
FACE_MARGIN = 1e-9
# A test variance at most this share of the outcome's mean square is rounding,
# not variation: a standard error below 1e-12 of the outcome's root mean square.
ROUNDING_FLOOR = 1e-24


def _vector(x, attr: str) -> np.ndarray:
    arr = np.asarray(getattr(x, attr) if hasattr(x, attr) else x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{attr} must be a nonempty vector, got shape {arr.shape}")
    return arr


def _matrix(x) -> np.ndarray:
    raw = not hasattr(x, "sigma_hat")  # a CovarianceEstimate checks its own symmetry
    S = np.asarray(x if raw else x.sigma_hat, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError(f"covariance must be a square matrix, got shape {S.shape}")
    # CovarianceEstimate's tolerance: eigvalsh reads one triangle, the solver both
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite S fails the gate
        if raw and np.abs(S - S.T).max(initial=0.0) > 1e-10 * max(np.abs(S).max(initial=0.0), 1.0):
            raise InputError("cov must be a symmetric matrix")
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

    def to_json_dict(self) -> dict:
        return {
            "omega": [float(v) for v in self.omega],
            "clipped_groups": list(self.clipped_groups),
            "fallback": self.fallback,
        }


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
        """The test's fields; ``df`` is None (JSON null) for the normal reference."""
        return {
            "estimate": self.estimate,
            "null_value": self.null_value,
            "se": self.se,
            "t": self.t_stat,
            "df": self.df if math.isfinite(self.df) else None,
            "p": self.p_value,
            "alternative": self.alternative,
        }


def _nonnegative_minimizer(S: np.ndarray, p: np.ndarray) -> np.ndarray:
    """argmin over v >= 0 of v'Sv / 2 - p'v for positive definite S.

    Lawson-Hanson on the Gram form: the dual vector of NNLS(L', L^{-1}p)
    with S = LL' is p - Sv, so no factor of S is needed. The free set
    grows by the clipped group with the largest positive entry of p - Sv;
    when the free-set solve has an entry that is not positive, v moves
    toward it until the first free entry reaches zero, which is clipped
    again. A group whose first solve is not positive stays clipped until
    v moves, as in Lawson & Hanson.
    """
    G = len(p)
    v = np.zeros(G)
    free = np.zeros(G, dtype=bool)
    refused = np.zeros(G, dtype=bool)
    residual = p.copy()
    steps = SOLVER_STEPS_PER_GROUP * G
    while True:
        candidates = np.where(free | refused, -np.inf, residual)
        j = int(np.argmax(candidates))
        if not candidates[j] > 0:
            return v
        free[j] = True
        entering = True
        while True:
            if steps <= 0:
                raise NumericalError(
                    f"weight solver failed: no optimum in {SOLVER_STEPS_PER_GROUP * G} steps"
                )
            steps -= 1
            idx = np.flatnonzero(free)
            z = np.linalg.solve(S[idx[:, None], idx], p[idx])
            if entering and not z[np.searchsorted(idx, j)] > 0:
                free[j] = False
                refused[j] = True
                break
            entering = False
            if z.min() > 0:
                v[:] = 0.0
                v[idx] = z
                refused[:] = False
                break
            vi = v[idx]
            out = np.flatnonzero(z <= 0)
            ratios = vi[out] / (vi[out] - z[out])
            first = int(np.argmin(ratios))
            vi += ratios[first] * (z - vi)
            vi[out[first]] = 0.0
            vi[vi <= 0] = 0.0
            v[idx] = vi
            free[idx] = vi > 0
            if not free.any():
                break
        residual = p - S @ v


def _on_face(S: np.ndarray, p: np.ndarray, free: np.ndarray) -> np.ndarray | None:
    """The solution of ``_nonnegative_minimizer`` when its free set is
    ``free``, or None when that is not shown. On that set v solves
    S[F, F] z = p[F] and is zero off it; it is the optimum when
    Lawson-Hanson's own stopping test holds: every free entry positive, and
    no clipped group with a positive entry of p - Sv. The test must hold by
    ``FACE_MARGIN``, relative to the largest entry of z and of p: a group on
    the boundary, with a weight or gradient near zero, could leave rounding
    to choose between two faces that both pass it. With the margin the
    optimum, which is unique, lies on this face, so Lawson-Hanson's search
    ends here and its last solve is this one."""
    idx = np.flatnonzero(free)
    z = np.linalg.solve(S[idx[:, None], idx], p[idx])
    if not z.min() > FACE_MARGIN * z.max():
        return None
    v = np.zeros(len(p))
    v[idx] = z
    if not (np.where(free, -np.inf, p - S @ v) < -FACE_MARGIN * p.max()).all():
        return None
    return v


def _problem(sigma, p0, ridge: bool) -> tuple:
    """The matrix and proportions one weight problem solves on, after the
    gates of ``pwrd_weights`` one by one: the error of the first that
    refuses it, with its text, is raised."""
    S = _matrix(sigma)
    G = S.shape[0]
    tr = float(np.trace(S))
    if not np.isfinite(S).all():
        raise NumericalError("covariance contains non-finite entries")
    if tr <= 0:
        raise NumericalError("covariance has nonpositive trace")
    # the smallest eigenvalue of a CovarianceEstimate spares a second
    # decomposition; the ridge moves the eigenvalues, so it is then unread
    eigmin = None if ridge else getattr(sigma, "min_eigenvalue", None)
    if ridge:
        S = S + (RIDGE_FACTOR * tr / G) * np.eye(G)
        tr = float(np.trace(S))
    if eigmin is None:
        eigmin = float(np.linalg.eigvalsh(S).min())
    if eigmin <= PD_GATE * tr / G:
        raise NumericalError(
            "covariance is singular or near singular "
            f"(min eigenvalue {eigmin:.3e} vs gate {PD_GATE * tr / G:.3e}); "
            "enable the ridge option to proceed with a regularized matrix"
        )
    p = _vector(p0, "p_hat")
    if len(p) != G:
        raise InputError(f"p0 has length {len(p)}, covariance is {G}x{G}")
    if not (np.isfinite(p) & (p >= 0)).all():
        raise InputError("test-in proportions must be finite and nonnegative")
    if p.max() <= 0:
        raise DegenerateDataError("no test-in signal: p0 is zero in every group")
    return S, p


def _solution(S: np.ndarray, p: np.ndarray, faces: dict) -> AggregationWeights:
    """The pwrd weights of a problem that passed its gates. ``faces`` maps
    the bytes of each p already solved to its optimum's free set: the
    problem is solved on that set if it is its optimum's, else by
    Lawson-Hanson, and a new p adds its own."""
    key = p.tobytes()
    v = _on_face(S, p, faces[key]) if key in faces else None
    if v is None:
        v = _nonnegative_minimizer(S, p)
    faces.setdefault(key, v > 0)
    clipped = tuple(np.flatnonzero(v == 0).tolist())
    return AggregationWeights(omega=v / v.sum(), scheme="pwrd", clipped_groups=clipped)


# ----------------------------------------------------------------------
# public operations

def pwrd_weights(sigma, p0, ridge: bool = False) -> AggregationWeights:
    """Slope-maximizing nonnegative weights for the group effect vector.

    One exact solve: after the positive-definiteness gate and optional
    ridge, v minimizes v'sigma v / 2 - p0'v over v >= 0 (see
    ``_nonnegative_minimizer``), and v / sum(v) maximizes the slope
    (w'p0) / sqrt(w'sigma w) over nonnegative weights summing to one. When
    nothing clips, v = sigma^{-1} p0. ``clipped_groups`` lists the groups
    the optimum gives exactly zero weight.
    """
    return one(pwrd_weights_stack([(sigma, p0)], ridge))


def pwrd_weights_stack(items, ridge: bool) -> list:
    """``pwrd_weights`` of each (sigma, p0) item: AggregationWeights, or the
    package error that refuses the item.

    Each item passes the gates (``_problem``), which raise its error, and
    is solved by Lawson-Hanson, except that an item whose gated p0 equals, byte for
    byte, that of an earlier solved item first tries that item's free set
    (``_on_face``), and solves from scratch when that set is not shown to be
    its optimum's. The effect levels of a Monte Carlo replicate share p0
    and mostly their clipped groups. The weights match the call on the item
    alone bit for bit, except that an item whose search from scratch would
    run out of steps gets its optimum when an earlier item of its p0 gave
    its face.
    """
    faces: dict = {}
    return [attempt(lambda: _solution(*_problem(s, p, ridge), faces)) for s, p in items]


def flat_weights(effects) -> AggregationWeights:
    """Group-size proportional weights n_g / N."""
    n = _vector(effects, "n")
    if n.min() <= 0:
        raise InputError("group sizes must be positive")
    return AggregationWeights(omega=n / n.sum(), scheme="flat")


# ----------------------------------------------------------------------
# the aggregate test

def check_finite(*named: tuple[str, float]) -> None:
    """Refuse the first of the (name, value) pairs whose value is not finite:
    an outcome too large to square overflows to inf, or to nan once an inf
    is subtracted, and an overflow is not rounding."""
    for name, value in named:
        if not math.isfinite(value):
            raise NumericalError(f"{name} {value:.3g} is not finite")


def check_test_variance(variance: float, mean_square: float, df: float) -> None:
    """Refuse ``df <= 0`` (degenerate data), then a variance or mean square
    that overflowed, then a variance at most ``ROUNDING_FLOOR`` times the
    outcome's mean square or a lower bound of it (numerical failures)."""
    _refuse_df(df)
    check_finite(("test variance", variance), ("outcome mean square", mean_square))
    if variance <= ROUNDING_FLOOR * mean_square:
        raise NumericalError(f"zero standard error: test variance {variance:.3g} is rounding")


def check_estimate_variance(variance: float, mean_square: float, n_clusters: int) -> None:
    """``check_test_variance`` on the n_clusters - 2 df of an estimate,
    unless they are 0 or fewer: its test refuses them first."""
    if n_clusters > 2:
        check_test_variance(variance, mean_square, n_clusters - 2)


def estimate_p_value(estimate: float, se: float, df: float, alternative: str) -> float:
    """t test of an estimate on ``df`` df, after ``check_test_variance`` of se**2."""
    check_test_variance(se**2, 0.0, df)
    return t_p_value(estimate / se, df, alternative)


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
    infinite). ``delta0`` defaults to the zero vector and must be finite.
    A variance that is rounding of the effects' arm means is refused.
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
        if not np.isfinite(d0).all():
            raise InputError("delta0 must be finite")
        null_value = float(w @ d0)

    df = float(getattr(cov, "df", np.inf) if df is None else df)
    mean_square = effects.cells.mean_square if hasattr(effects, "cells") else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # refused by check_test_variance
        variance = float(w @ S @ w)
        estimate = float(w @ d)
    check_test_variance(variance, mean_square, df)
    se = math.sqrt(variance)
    t = (estimate - null_value) / se
    if not math.isfinite(t):
        raise NumericalError("test statistic is not finite")
    return AggregatedTest(
        estimate=estimate,
        null_value=null_value,
        se=se,
        t_stat=t,
        df=df,
        p_value=t_p_value(t, df, alternative),
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
            **self.weights.to_json_dict(),
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
    normal unless a finite ``df`` is given; a ``df`` must be positive.
    """
    if not df > 0:
        raise InputError(f"df must be positive, got {df}")
    d = _vector(delta_hat, "delta_hat")
    if not np.isfinite(d).all():
        raise InputError("delta_hat must be finite")
    if (cov is None) == (se is None):
        raise InputError("supply exactly one of cov or se")
    if se is not None:
        s = _vector(se, "se")
        if not (np.isfinite(s) & (s > 0)).all():
            raise InputError("standard errors must be finite and positive")
        with np.errstate(over="ignore"):  # an overflowed variance fails the covariance gate
            S = np.diag(s**2)
    else:
        S = _matrix(cov)
    if len(d) != S.shape[0]:
        raise InputError("delta_hat and covariance have mismatched lengths")

    w = pwrd_weights(S, p0, ridge=ridge)
    test = aggregate_test(d, S, w, delta0=delta0, alternative=alternative, df=float(df))
    return ExternalAggregate(weights=w, test=test, slope=test_slope(w, p0, S))
