"""Cluster-robust covariance for the vector of per-group effect estimates.

The estimate vector solves stacked estimating equations, one mean per
(arm, group) cell, so the sandwich needs no row finer than the cell table
the effects carry (``GroupEffects.cells``): per (cluster, group) row counts
m and value sums s, with each cluster's arm. For difference in means the
values are the outcome; for the regression-adjusted estimator they are the
control-fit residuals, so the variance belongs to the contrast actually
taken. The bread comes from the arm totals of m, and a cluster's score in
a cell is its residual sum s - m * mean. Because treatment is constant
within a cluster, each cluster touches only one arm, and the covariance of
the contrast vector is the sum of the two arm blocks. One sandwich serves
every contrast: the group effects' table, and the exit contrast's
one-group table built on the exit rows. What a table's counts fix (the
arm totals and the clusters with rows) is computed once per counts tier
and shared by every table that differs only in its sums
(``CellTable.counts``).

The sandwich runs on a stack of tables (``panel.CellStack``): the tables
of many replicates that share a counts layout, with a leading replicate
axis on every array below the rows. A stack of one table is the single
case, and each table's result does not depend on its neighbours in the
stack. The batched entry points (``covariances``, ``satterthwaite_dfs``)
return, per item, the result or the package error that refuses it.

Two variants are provided. CR0 uses the raw residual sums. CR2 (Bell &
McCaffrey 2002) rescales each cluster's residuals by (I - H_cc)^(-1/2),
H_cc its leverage block, with 1 - d floored at ``EIG_FLOOR`` for each
eigenvalue d by one function (``_inverse_root``), on one of two routes.
The cell route (``_terms``) serves the contrasts of cell tables (difference
in means, Peters-Belson, exit): there H_cc is block diagonal by cell with
equicorrelated blocks, so the root acts on a cell's residual sum as the
scalar (1 - m/n)^(-1/2), m the cluster's row count in the cell and n its
arm total. The block route (``cr2_direction``) serves the random-intercept
fit (``mixed``), whose H_cc = Y_c F F' Y_c' couples a cluster's design rows
Y_c; Y_c the cell indicators and F = diag(n^(-1/2)) give the cell route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError, PwrdError, attempt, one
from .panel import CellStack, CellTable, GroupInfo, PanelDataset
from .tails import VARIANTS
from .weights import check_estimate_variance

if TYPE_CHECKING:
    from .effects import GroupEffects

EIG_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Covariance matrix of the per-group effect estimates.

    ``min_eigenvalue`` is the smallest eigenvalue of ``sigma_hat`` (0 for an
    empty matrix), from the check that refuses a substantially negative one;
    ``weights.pwrd_weights`` gates on it rather than decomposing again.
    """

    sigma_hat: np.ndarray
    variant: str
    n_clusters: int
    df: float
    groups: tuple[GroupInfo, ...]
    min_eigenvalue: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._check(None)

    @classmethod
    def _checked(cls, eigmin: float, sigma_hat, variant, n_clusters, df, groups):
        """The estimate, given the smallest eigenvalue of ``sigma_hat`` from a
        batched ``eigvalsh`` over a stack; every check of the constructor runs."""
        est = object.__new__(cls)
        fields = zip(("sigma_hat", "variant", "n_clusters", "df", "groups"),
                     (sigma_hat, variant, n_clusters, df, groups))
        for name, value in fields:
            object.__setattr__(est, name, value)
        est._check(eigmin)
        return est

    def _check(self, eigmin: float | None) -> None:
        S = self.sigma_hat
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise InputError("sigma_hat must be square")
        if len(self.groups) != S.shape[0]:
            raise InputError("groups and sigma_hat must align")
        if not np.isfinite(S).all():
            raise NumericalError("covariance contains non-finite entries")
        scale = max(np.abs(S).max(), 1.0)
        if np.abs(S - S.T).max() > 1e-10 * scale:
            raise NumericalError("covariance matrix is not symmetric")
        if eigmin is None:
            eigmin = float(np.linalg.eigvalsh(S).min()) if S.size else 0.0
        if eigmin < -1e-10 * max(np.trace(S), 1e-300):
            raise NumericalError("covariance matrix has a substantially negative eigenvalue")
        object.__setattr__(self, "min_eigenvalue", eigmin)

    def group_ordinals(self) -> tuple[int, ...]:
        return tuple(gi.g for gi in self.groups)


def _active_clusters(cells: CellTable) -> np.ndarray:
    """The mask of clusters with rows, after the checks that the table's
    counts support a contrast.

    Refuses fewer than two clusters, then any empty (arm, column) cell,
    numbered arm * K + column, since its mean has no bread.
    """
    active = cells.m.sum(axis=1) > 0
    n_clusters = int(active.sum())
    if n_clusters < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {n_clusters}")
    n = cells.n
    if (n == 0).any():
        empty = np.flatnonzero(n == 0).tolist()
        raise NumericalError(f"singular bread: empty (arm, group) cells {empty}")
    return active


def _active(cells: CellTable) -> np.ndarray:
    return cells.counts.get("active", lambda: _active_clusters(cells))


def stacks(tables) -> tuple[list, list[tuple[list[int], CellStack]]]:
    """Each table's counts check, and the tables that pass it as stacks.

    ``tables`` holds cell tables, or the package errors of items that have
    none. Returns, per table, the error that refuses it or None; and the
    passing tables' indices grouped by what a stack's tables share, their
    counts layout ``m`` and number of control clusters, in order of first
    appearance, each with the stack of its tables.
    """
    errors: list = []
    groups: dict = {}
    for i, cells in enumerate(tables):
        found = cells if isinstance(cells, PwrdError) else attempt(lambda: _active(cells))
        if isinstance(found, PwrdError):
            errors.append(found)
        else:
            errors.append(None)
            groups.setdefault((id(cells.m), int(np.count_nonzero(cells.z == 0))), []).append(i)
    return errors, [(idx, CellStack([tables[i] for i in idx])) for idx in groups.values()]


def _inverse_root(d: np.ndarray) -> np.ndarray:
    """(1 - d)^(-1/2) of leverages ``d``, with 1 - d floored at ``EIG_FLOOR``."""
    return 1.0 / np.sqrt(np.maximum(1.0 - d, EIG_FLOOR))


def _terms(stack: CellStack, variant: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Each cluster's arm total per column, (R, C, K), its sign in the
    contrast, (R, C, 1), and its CR2 scale per column, (R, C, K), of the
    cell route: (1 - m/n)^(-1/2) per cluster cell. CR0 has no scale (None)."""
    treated = stack.z[:, :, None] == 1
    n_z = np.where(treated, stack.n[:, 1:], stack.n[:, :1])
    sign = np.where(treated, 1.0, -1.0)
    if variant == "cr0":
        return n_z, sign, None
    return n_z, sign, _inverse_root(stack.m / n_z)


def _coefficients(d: np.ndarray) -> np.ndarray:
    """((1 - d)^(-1/2) - 1) / d of eigenvalues ``d`` of H_cc clipped at 0,
    the root from ``_inverse_root``; 1/2, its limit, at d <= 1e-12."""
    d = np.clip(d, 0.0, None)
    big = d > 1e-12
    return np.where(big, (_inverse_root(d) - 1.0) / np.where(big, d, 1.0), 0.5)


def _cr2_coefficients(M: np.ndarray) -> np.ndarray:
    """Q diag(c) Q' for each symmetric block Q diag(d) Q' of ``M`` (..., k,
    k), c the ``_coefficients`` of d, reading M's lower triangle as ``eigh``
    does. A 2 x 2 block [[a, b], [b, c]] (the default fit on grade) is in
    closed form: its eigenvalues are mid -/+ r, mid = (a + c) / 2 and r =
    hypot((a - c) / 2, b), and the projector on the larger is [[1 + (a - c)
    / 2r, b / r], [b / r, 1 - (a - c) / 2r]] / 2, so Q diag(c) Q' = c_lo I +
    (c_hi - c_lo) P: ratios of r, accurate however close the eigenvalues,
    and c_hi - c_lo = 0 at r = 0, where P is not defined. Blocks of other
    dimensions take ``np.linalg.eigh``."""
    if M.shape[-1] != 2:
        d, Q = np.linalg.eigh(M)
        return (Q * _coefficients(d)[..., None, :]) @ np.swapaxes(Q, -1, -2)
    a, b, c = M[..., 0, 0], M[..., 1, 0], M[..., 1, 1]
    half = (a - c) / 2.0
    r = np.hypot(half, b)
    mid = (a + c) / 2.0
    lo, hi = _coefficients(np.stack([mid - r, mid + r]))
    step = (hi - lo) / 2.0
    r = np.where(r > 0, r, 1.0)
    out = np.empty(M.shape)
    out[..., 0, 0] = lo + step * (1.0 + half / r)
    out[..., 1, 1] = lo + step * (1.0 - half / r)
    out[..., 0, 1] = out[..., 1, 0] = step * (b / r)
    return out


def cr2_direction(F: np.ndarray, G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t + F h F'G t for each cluster's bread factor ``F`` and Gram block
    ``G`` (..., k, k) and direction ``t`` (..., k, 1), h the
    ``_cr2_coefficients`` of F'GF (the block route). When H_cc = Y_c F F'
    Y_c' and G = Y_c'Y_c, the nonzero eigenvalues of H_cc are those of
    F'GF, so (I - H_cc)^(-1/2) = I + Y_c F h F' Y_c', and t'Y_c'(I -
    H_cc)^(-1/2) e_c is this direction times the raw score Y_c'e_c."""
    FG = np.swapaxes(F, -1, -2) @ G
    return t + F @ (_cr2_coefficients(FG @ F) @ (FG @ t))


def sandwich(stack: CellStack, variant: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Treated-minus-control contrasts of a stack's cell means and their
    cluster sandwiches.

    Returns the (R, K) contrasts, their (R, K, K) covariances and the
    number of clusters with rows. Non-finite means give a non-finite
    sandwich, which the caller refuses, so numpy does not warn of it.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    means, z = stack.means, stack.z[:, :, None]
    active = _active(stack.tables[0])
    n_z, sign, scales = _terms(stack, variant)
    with np.errstate(over="ignore", invalid="ignore"):
        R = stack.s - stack.m * np.where(z == 1, means[:, 1:], means[:, :1])
        if variant == "cr2":
            R = R * scales
        U = (sign * R / n_z)[:, active]
        Us = np.take_along_axis(U, _canonical_order(U)[:, :, None], axis=1)
        V = np.swapaxes(Us, 1, 2) @ Us
    return stack.contrasts, V, U.shape[1]


def _canonical_order(U: np.ndarray) -> np.ndarray:
    """Each item's order of the rows of ``U`` (R, C, K) by their values,
    first column first: the order of one stable ``np.lexsort`` on all K
    columns. Canonical row order makes the accumulated sum independent of
    cluster labels. The lexsort's primary key is the first column, so a
    stable sort on that column alone gives its order unless the column
    holds a tie or a NaN."""
    first = U[:, :, 0]
    order = np.argsort(first, axis=-1, kind="stable")
    ranked = np.take_along_axis(first, order, axis=-1)
    if (ranked[:, 1:] == ranked[:, :-1]).any() or np.isnan(ranked).any():
        order = np.lexsort(U.transpose(2, 0, 1)[::-1], axis=-1)
    return order


def min_eigenvalues(V: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each finite matrix of ``V`` (R, K, K), from
    one batched ``eigvalsh``; NaN for a matrix with a non-finite entry,
    which ``CovarianceEstimate`` refuses before it reads this."""
    eigmin = np.full(len(V), np.nan)
    finite = np.isfinite(V).all(axis=(1, 2))
    if finite.any():
        eigmin[finite] = np.linalg.eigvalsh(V[finite]).min(axis=1)
    return eigmin


def covariances(effects, variant: str = "cr2") -> list:
    """``cluster_covariance`` of each of ``effects``, from one sandwich and
    one batched ``eigvalsh`` per stack of their cell tables: a
    CovarianceEstimate, or the package error that refuses it."""
    out, found = stacks([e.cells for e in effects])
    for idx, stack in found:
        _, V, n_clusters = sandwich(stack, variant)
        items = zip(idx, V, stack.mean_square.tolist(), min_eigenvalues(V).tolist())
        for i, S, ms, eigmin in items:
            out[i] = attempt(
                lambda: _covariance(effects[i].groups, S, ms, variant, n_clusters, eigmin))
    return out


def _covariance(groups, S, mean_square, variant, n_clusters, eigmin) -> CovarianceEstimate:
    check_estimate_variance(float(np.trace(S)), mean_square, n_clusters)
    return CovarianceEstimate._checked(
        eigmin, S, variant, n_clusters, float(n_clusters - 2), groups)


def cluster_covariance(
    panel: PanelDataset,
    effects: GroupEffects,
    variant: str = "cr2",
) -> CovarianceEstimate:
    """Sandwich covariance of the group effect vector, clustered by cluster.

    Reads only the cell table the effects carry, so the variance is that of
    the contrast the estimator took. A trace at rounding level is refused
    (``check_test_variance``) unless df <= 0, which the test refuses first:
    nonnegative weights summing to one give w'Vw <= tr V, so no aggregate
    test on this matrix could pass.
    """
    return one(covariances([effects], variant))


def satterthwaite_dfs(effects, omegas) -> list:
    """``satterthwaite_df`` of each (effects, omega) pair, from one
    computation per stack of the effects' cell tables: the df, or the
    package error that refuses the effects' table."""
    out, found = stacks([e.cells for e in effects])
    for idx, stack in found:
        active = _active(stack.tables[0])
        n_z, sign, scales = _terms(stack, "cr2")
        omega = np.stack([omegas[i] for i in idx])[:, None, :]
        phi = (sign * omega / n_z * scales)[:, active]
        m, n_z, z = stack.m[active], n_z[:, active], stack.z[:, active]
        # a cell holding all of its arm's rows in a column adds exactly 0 to
        # Om below, and its floored CR2 scale would only add rounding; in C
        # order, so each item's sums below run as they would alone
        phi = np.ascontiguousarray(np.where(m < n_z, phi, 0.0))
        # Om = V'(I - H)V for the per-cluster coefficient vectors V; the cell
        # projector H couples only clusters of the same arm.
        a = (m * phi**2).sum(axis=2)
        F = m * phi / np.sqrt(n_z)
        Om = np.where(z[:, :, None] == z[:, None, :], -(F @ np.swapaxes(F, 1, 2)), 0.0)
        diagonal = np.arange(len(m))
        Om[:, diagonal, diagonal] += a
        tr = np.trace(Om, axis1=1, axis2=2)
        denom = (Om**2).sum(axis=(1, 2))
        fallback = float(len(m) - 2)
        for i, t, d in zip(idx, tr.tolist(), denom.tolist()):
            df = t * t / d if d > 0 and math.isfinite(d) and math.isfinite(t) else math.inf
            out[i] = df if math.isfinite(df) else fallback
    return out


def satterthwaite_df(
    panel: PanelDataset,
    effects: GroupEffects,
    omega: np.ndarray,
    variant: str = "cr2",
) -> float:
    """Approximate degrees of freedom for the weighted contrast.

    Treats the CR2 variance estimator of omega' delta_hat as a quadratic
    form in the outcomes under an independent homoskedastic working model
    and matches its first two moments. Falls back to n_clusters - 2 when
    the computation is not finite. With 2 clusters this returns 0 and the
    downstream test must refuse to run.
    """
    if variant != "cr2":
        raise InputError("Satterthwaite degrees of freedom require the cr2 variant")
    omega = np.asarray(omega, dtype=np.float64)
    if len(omega) != effects.n_groups:
        raise InputError("omega length must match the number of included groups")
    return one(satterthwaite_dfs([effects], [omega]))
