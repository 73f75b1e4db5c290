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
arm totals, the clusters with rows and the CR2 scale factors) is computed
once per counts tier and shared by every table that differs only in its
sums (``CellTable.counts``).

Two variants are provided. CR0 uses the raw residual sums. CR2 rescales
each cluster's residuals by the symmetric inverse square root of the
cluster's (I - H) leverage block before summing. For cell-mean estimating
equations the leverage block is block diagonal by cell with equicorrelated
blocks, so that inverse square root acts on a cell's residual sum as the
scalar (1 - m/n)^(-1/2), where m is the cluster's row count in the cell and
n the arm total. Eigenvalues of I - H below the floor are clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDataError, InputError, NumericalError
from .panel import CellTable, GroupInfo, PanelDataset
from .weights import check_test_variance

if TYPE_CHECKING:
    from .effects import GroupEffects

EIG_FLOOR = 1e-12
VARIANTS = ("cr0", "cr2")


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Covariance matrix of the per-group effect estimates."""

    sigma_hat: np.ndarray
    variant: str
    n_clusters: int
    df: float
    groups: tuple[GroupInfo, ...]
    def __post_init__(self) -> None:
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
        eigmin = float(np.linalg.eigvalsh(S).min()) if S.size else 0.0
        if eigmin < -1e-10 * max(np.trace(S), 1e-300):
            raise NumericalError("covariance matrix has a substantially negative eigenvalue")

    def group_ordinals(self) -> tuple[int, ...]:
        return tuple(gi.g for gi in self.groups)


def _cr2_scales(m: np.ndarray, n_cell: np.ndarray) -> np.ndarray:
    """Residual-sum scaling implementing (I - H_c)^(-1/2) per cluster cell."""
    return 1.0 / np.sqrt(np.maximum(1.0 - m / n_cell, EIG_FLOOR))


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


def _arm_means(cells: CellTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-arm counts and means of a (C, K) table, (2, K) each, and the mask
    of clusters with rows. The table's contrast is means[1] - means[0]."""
    active = cells.counts.get("active", lambda: _active_clusters(cells))
    return cells.n, cells.means, active


def _cluster_terms(cells: CellTable) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's arm total per column, (C, K), and its sign in the
    contrast, (C, 1)."""
    z = cells.z
    return cells.n[z], np.where(z == 1, 1.0, -1.0)[:, None]


def _sandwich(cells: CellTable, variant: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Treated-minus-control contrast of cell means and its cluster sandwich.

    Returns the K contrasts of the (C, K) table, their K x K covariance and
    the number of clusters with rows.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    n, mean, active = _arm_means(cells)
    m, s, z = cells.m, cells.s, cells.z
    n_z, sign = cells.counts.get("cluster terms", lambda: _cluster_terms(cells))
    R = s - m * mean[z]
    if variant == "cr2":
        R = R * cells.counts.get("cr2 scales", lambda: _cr2_scales(m, n_z))
    U = (sign * R / n_z)[active]
    # Canonical row order makes the accumulated sum independent of cluster labels.
    Us = U[np.lexsort(U.T[::-1])]
    return mean[1] - mean[0], Us.T @ Us, len(U)


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
    _, V, n_clusters = _sandwich(effects.cells, variant)
    if n_clusters > 2:
        check_test_variance(float(np.trace(V)), effects.cells.mean_square, n_clusters - 2)
    return CovarianceEstimate(
        sigma_hat=V,
        variant=variant,
        n_clusters=n_clusters,
        df=float(n_clusters - 2),
        groups=effects.groups,
    )


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
    G = effects.n_groups
    if len(omega) != G:
        raise InputError("omega length must match the number of included groups")

    cells = effects.cells
    active = cells.counts.get("active", lambda: _active_clusters(cells))
    m, z = cells.m, cells.z
    fallback = float(active.sum() - 2)

    n_z, sign = cells.counts.get("cluster terms", lambda: _cluster_terms(cells))
    scales = cells.counts.get("cr2 scales", lambda: _cr2_scales(m, n_z))
    phi = (sign * omega[None, :] / n_z * scales)[active]
    m, n_z, z = m[active], n_z[active], z[active]

    # Om = V'(I - H)V for the per-cluster coefficient vectors V; the cell
    # projector H couples only clusters of the same arm.
    a = (m * phi**2).sum(axis=1)
    F = m * phi / np.sqrt(n_z)
    Om = np.diag(a) - np.where(z[:, None] == z[None, :], F @ F.T, 0.0)
    tr = float(np.trace(Om))
    denom = float((Om**2).sum())
    if denom <= 0 or not np.isfinite(denom) or not np.isfinite(tr):
        return fallback
    df = tr * tr / denom
    if not np.isfinite(df):
        return fallback
    return float(df)
