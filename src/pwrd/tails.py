"""The test's reference tails, and the analysis options the command line offers.

The tails are computed without scipy. The normal tail is
0.5 * erfc(z / sqrt(2)), one ``math.erfc`` call (``normal_tail``; the
simulator's test-in profile uses the same helper). The t tail on df
degrees of freedom is the regularized incomplete beta,
P(|T| > |t|) = I_x(df/2, 1/2) with x = df / (df + t^2): a Lentz continued
fraction (Numerical Recipes 6.4) below df 20 or for t^2 > (e - 1) df, and
otherwise the large-df expansion of the same integral in upper incomplete
gammas of half-integer order, led by the normal tail (DiDonato & Morris
1992, BGRAT). Its log prefactor takes lgamma(a) - lgamma(a + 1/2) from
Stirling's series for a >= 10, where the plain difference of ``lgamma``
values cancels. Each one-sided tail is computed directly, never as one
less a number near one, so small p-values keep their relative accuracy:
within 5e-13 of scipy's over df 0.5 to 1e300 and |t| <= 40.
P-values below the smallest normal double read 0.

The analysis options are defined here, once each: the estimators
(``METHODS``), the cluster sandwich variants (``VARIANTS``), the rules for
the test's degrees of freedom (``DF_RULES``) and the alternatives. The
command line's parser offers them to every subcommand, and ``pwrd
simulate`` loads this module but no estimator.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError

METHODS = ("pwrd", "flat", "mixed", "exit")
VARIANTS = ("cr0", "cr2")
DF_RULES = ("clusters-2", "satterthwaite")
ALTERNATIVES = ("two-sided", "greater", "less")

_SQRT_HALF = math.sqrt(0.5)
_SQRT_PI = math.sqrt(math.pi)
_LOG_SQRT_PI = math.log(_SQRT_PI)  # lgamma(1/2)
_TAIL_EPS = 2.0**-53
_TAIL_MAX_TERMS = 1000
# Below this df, or for t^2 > (e - 1) df, the continued fraction; else the expansion.
_EXPANSION_DF = 20.0


def normal_tail(z) -> np.ndarray:
    """P(Z > z) for a standard normal Z, elementwise, in ``z``'s shape (a
    0-d array for a number): one ``math.erfc`` call per element."""
    z = np.asarray(z, dtype=np.float64)
    half = map(math.erfc, (z * _SQRT_HALF).ravel().tolist())
    return 0.5 * np.fromiter(half, np.float64, z.size).reshape(z.shape)


def _stirling_remainder(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), for z >= 10."""
    r = 1.0 / z
    r2 = r * r
    inner = 1 / 1188 - r2 * (691 / 360360 - r2 / 156)
    return r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 * inner))))


def _lgamma_half_step(a: float) -> float:
    """lgamma(a) - lgamma(a + 1/2), from Stirling's series for a >= 10."""
    if a < 10.0:
        return math.lgamma(a) - math.lgamma(a + 0.5)
    return (
        -(a - 0.5) * math.log1p(0.5 / a)
        - 0.5 * math.log(a + 0.5)
        + 0.5
        + _stirling_remainder(a)
        - _stirling_remainder(a + 0.5)
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (Numerical Recipes 6.4, Lentz),
    fast for x < (a + 1) / (a + b + 2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / (1.0 - qab * x / qap)
    h = d
    for m in range(1, _TAIL_MAX_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        step = d * c
        h *= step
        if abs(step - 1.0) < _TAIL_EPS:
            return h
    raise NumericalError(f"t tail did not converge in {_TAIL_MAX_TERMS} terms")


def _half_gamma_series_coefficients(n: int) -> tuple[float, ...]:
    """Coefficients of (sinh(s/2) / (s/2))^(-1/2) in powers of s^2: the
    power -1/2 of sinh(u)/u by Miller's recurrence, then u = s/2."""
    c = [1.0 / math.factorial(2 * k + 1) for k in range(n)]
    g = [1.0]
    for m in range(1, n):
        g.append(sum((0.5 * k - m) * c[k] * g[m - k] for k in range(1, m + 1)) / m)
    return tuple(gm / 4.0**m for m, gm in enumerate(g))


_EXPANSION_COEFFICIENTS = _half_gamma_series_coefficients(30)


def _large_df_tail(a: float, log_ratio: float) -> float:
    """I_x(a, 1/2) for a = df/2 >= 10 and -log x = ``log_ratio`` <= 1.

    With x = e^-s the integrand of I_x is e^(-lam s) s^(-1/2) times
    (sinh(s/2) / (s/2))^(-1/2), lam = a - 1/4; expanding that factor in s^2
    turns the integral into a sum of Gamma(1/2 + 2n, lam log_ratio) / lam^(2n),
    whose first term is the normal tail. The expansion in s^2 converges for
    s < 2 pi; what lies beyond is about e^(-lam (2 pi - 1)) <= 1e-22 of the sum.
    """
    lam = a - 0.25
    z = lam * log_ratio
    root = math.sqrt(z)
    gamma_up = _SQRT_PI * math.erfc(root)  # Gamma(1/2, z)
    power = math.exp(-z) * root  # z^s e^-z at s = 1/2
    s = 0.5
    total = gamma_up
    scale = 1.0
    step = 1.0 / (lam * lam)
    for coefficient in _EXPANSION_COEFFICIENTS[1:]:
        for _ in range(2):  # Gamma(s + 1, z) = s Gamma(s, z) + z^s e^-z
            gamma_up = s * gamma_up + power
            power *= z
            s += 1.0
        scale *= step
        term = coefficient * scale * gamma_up
        total += term
        if abs(term) <= _TAIL_EPS * total:
            break
    return math.exp(-_lgamma_half_step(a) - 0.5 * math.log(lam)) * total / _SQRT_PI


def _t_tails(t: float, df: float) -> tuple[float, float]:
    """(P(|T| > |t|), P(|T| < |t|)) for T on ``df`` degrees of freedom; the
    smaller of the two is computed directly."""
    t2 = t * t
    if t2 == 0.0:
        return 1.0, 0.0
    a = 0.5 * df
    if math.isinf(t2):  # |t| > 1.3e154: the logs from log|t|, where t^2 overflows
        log_ratio = 2.0 * math.log(abs(t)) - math.log(df) + math.log1p(df / t / t)
    else:
        log_ratio = math.log1p(t2 / df)  # -log x, x = df / (df + t^2)
    if df >= _EXPANSION_DF and log_ratio <= 1.0:
        outer = _large_df_tail(a, log_ratio)
        return outer, 1.0 - outer
    log_y = -math.log1p(df / t / t)  # log(1 - x)
    front = math.exp(-a * log_ratio + 0.5 * log_y - _lgamma_half_step(a) - _LOG_SQRT_PI)
    x = math.exp(-log_ratio)
    outer_first = x * (a + 2.5) < a + 1.0
    if front == 0.0:  # skips a fraction whose terms would overflow
        small = 0.0
    elif outer_first:
        small = front * _beta_fraction(a, 0.5, x) / a
    else:
        small = front * _beta_fraction(0.5, a, math.exp(log_y)) / 0.5
    return (small, 1.0 - small) if outer_first else (1.0 - small, small)


def _refuse_df(df: float) -> None:
    if not df > 0:
        raise DegenerateDataError(f"refusing to test with df = {df}")


def t_p_value(t: float, df: float, alternative: str) -> float:
    """P-value of statistic ``t`` against a t reference on ``df`` degrees of
    freedom, or the standard normal when ``df`` is infinite. Refuses
    ``df <= 0`` and a NaN ``t``; ``t = +-inf`` gives exactly 0 or 1."""
    _refuse_df(df)
    if alternative not in ALTERNATIVES:
        raise InputError(f"unknown alternative '{alternative}'; expected one of {ALTERNATIVES}")
    t = float(t)
    if math.isnan(t):
        raise NumericalError("test statistic is NaN")
    if alternative == "less":
        t = -t
    if math.isinf(df):
        p = float(2.0 * normal_tail(abs(t)) if alternative == "two-sided" else normal_tail(t))
    else:
        outer, inner = _t_tails(t, float(df))
        if alternative == "two-sided":
            p = outer
        else:
            p = 0.5 * outer if t > 0 else 0.5 + 0.5 * inner
    return min(p, 1.0) if p >= sys.float_info.min else 0.0
