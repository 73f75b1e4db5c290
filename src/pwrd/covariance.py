"""Cluster-robust covariance for the vector of per-group effect estimates.

The estimate vector solves stacked estimating equations, one mean per
(group, arm) cell. The sandwich covariance takes the bread from the cell
counts and the meat from per-cluster sums of score contributions. Because
treatment is constant within a cluster, each cluster touches only one arm,
and the covariance of the contrast vector is the sum of the two arm blocks.

Two variants are provided. CR0 uses the raw residual sums. CR2 rescales
each cluster's residuals by the symmetric inverse square root of the
cluster's (I - H) leverage block before summing. For cell-mean estimating
equations the leverage block is block diagonal by cell with equicorrelated
blocks, so that inverse square root acts on a cell's residual sum as the
scalar (1 - m/n)^(-1/2), where m is the cluster's row count in the cell and
n the cell total. Eigenvalues of I - H below the floor are clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effects import GroupEffects
from .errors import DegenerateDataError, InputError, NumericalError
from .panel import GroupInfo, PanelDataset

EIG_FLOOR = 1e-12
VARIANTS = ("cr0", "cr2")
CENTERS = ("both-arms", "control-only")


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Covariance matrix of the per-group effect estimates."""

    sigma_hat: np.ndarray
    variant: str
    n_clusters: int
    df: float
    groups: tuple[GroupInfo, ...]
    center: str = "both-arms"

    def __post_init__(self) -> None:
        S = self.sigma_hat
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise InputError("sigma_hat must be square")
        if len(self.groups) != S.shape[0]:
            raise InputError("groups and sigma_hat must align")
        scale = max(np.abs(S).max(), 1.0)
        if np.abs(S - S.T).max() > 1e-10 * scale:
            raise NumericalError("covariance matrix is not symmetric")
        eigmin = float(np.linalg.eigvalsh(S).min()) if S.size else 0.0
        if eigmin < -1e-10 * max(np.trace(S), 1e-300):
            raise NumericalError("covariance matrix has a substantially negative eigenvalue")

    @property
    def n_groups(self) -> int:
        return self.sigma_hat.shape[0]

    def group_ordinals(self) -> tuple[int, ...]:
        return tuple(gi.g for gi in self.groups)


def _cr2_scales(m: np.ndarray, n_cell: np.ndarray) -> np.ndarray:
    """Residual-sum scaling implementing (I - H_c)^(-1/2) per cluster cell."""
    with np.errstate(divide="ignore"):
        lam = 1.0 - m / n_cell
    lam = np.maximum(lam, EIG_FLOOR)
    scales = 1.0 / np.sqrt(lam)
    scales[m == 0] = 1.0
    return scales


def _cell_layout(panel: PanelDataset, effects: GroupEffects):
    """Compact per-row cell ids over the included groups.

    Returns (g, z, cl, y, n_cell, m, R, active_clusters) where cells are
    numbered z * G + g over the G included groups, m holds per
    (cluster, cell) counts, and R per (cluster, cell) residual sums.
    """
    idx = np.asarray(effects.group_ordinals(), dtype=np.int64)
    G = len(idx)
    compact = np.full(panel.n_groups, -1, dtype=np.int64)
    compact[idx] = np.arange(G)
    gg = compact[panel.group_ids]
    keep = gg >= 0
    g = gg[keep]
    z = panel.treatment[keep].astype(np.int64)
    cl = panel.cluster[keep]
    y = panel.outcome[keep]

    cell = z * G + g
    n_cell = np.bincount(cell, minlength=2 * G).astype(np.float64)
    if (n_cell == 0).any():
        empty = [int(c) for c in np.flatnonzero(n_cell == 0)]
        raise NumericalError(f"singular bread: empty (arm, group) cells {empty}")
    mean_cell = np.bincount(cell, weights=y, minlength=2 * G) / n_cell
    resid = y - mean_cell[cell]

    C = panel.n_clusters
    key = cl * (2 * G) + cell
    m = np.bincount(key, minlength=C * 2 * G).reshape(C, 2 * G).astype(np.float64)
    R = np.bincount(key, weights=resid, minlength=C * 2 * G).reshape(C, 2 * G)
    active = np.flatnonzero(m.sum(axis=1) > 0)
    return g, z, cl, y, n_cell, m, R, active


def cluster_covariance(
    panel: PanelDataset,
    effects: GroupEffects,
    variant: str = "cr2",
    center: str = "both-arms",
) -> CovarianceEstimate:
    """Sandwich covariance of the group effect vector, clustered by cluster.

    ``center='control-only'`` is a sensitivity variant that builds the meat
    from control clusters alone and scales it up for the treated arm; it is
    exact when the two arms have comparable cluster compositions.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    if center not in CENTERS:
        raise InputError(f"center must be one of {CENTERS}")

    G = effects.n_groups
    _, _, _, _, n_cell, m, R, active = _cell_layout(panel, effects)
    n_clusters = len(active)
    if n_clusters < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {n_clusters}")

    if variant == "cr2":
        R = R * _cr2_scales(m, n_cell[None, :])

    # Each cluster has rows in exactly one arm, so exactly one of the two
    # halves below is nonzero for any cluster.
    U = R[:, G:] / n_cell[None, G:] - R[:, :G] / n_cell[None, :G]
    U = U[active]

    z_active = panel.z_by_cluster[active]
    c1 = int((z_active == 1).sum())
    c0 = n_clusters - c1
    if center == "control-only":
        if c0 < 1 or c1 < 1:
            raise DegenerateDataError("control-only centering needs clusters in both arms")
        U = U[z_active == 0] * np.sqrt(1.0 + c0 / c1)

    # Canonical row order makes the accumulated sum independent of cluster labels.
    order = np.lexsort(U.T[::-1]) if len(U) else np.arange(0)
    Us = U[order]
    V = Us.T @ Us

    return CovarianceEstimate(
        sigma_hat=V,
        variant=variant,
        n_clusters=n_clusters,
        df=float(n_clusters - 2),
        groups=effects.groups,
        center=center,
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

    _, _, _, _, n_cell, m, _, active = _cell_layout(panel, effects)
    n_clusters = len(active)
    if n_clusters < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {n_clusters}")
    fallback = float(n_clusters - 2)

    scales = _cr2_scales(m, n_cell[None, :])
    sign = np.concatenate([-np.ones(G), np.ones(G)])
    w2 = np.concatenate([omega, omega])
    phi = sign[None, :] * w2[None, :] / n_cell[None, :] * scales
    phi[m == 0] = 0.0
    phi = phi[active]
    ma = m[active]

    a = (ma * phi**2).sum(axis=1)
    F = ma * phi / np.sqrt(n_cell)[None, :]
    Om = np.diag(a) - F @ F.T
    tr = float(np.trace(Om))
    denom = float((Om**2).sum())
    if denom <= 0 or not np.isfinite(denom) or not np.isfinite(tr):
        return fallback
    df = tr * tr / denom
    if not np.isfinite(df):
        return fallback
    return float(df)


def pooled_difference_variance(
    values: np.ndarray, cluster: np.ndarray, z: np.ndarray, variant: str = "cr2"
) -> tuple[float, int]:
    """Cluster-robust variance of a pooled two-arm mean difference.

    Same sandwich as ``cluster_covariance`` with a single group.
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}")
    values = np.asarray(values, dtype=np.float64)
    z = np.asarray(z, dtype=np.int64)
    _, cl = np.unique(np.asarray(cluster), return_inverse=True)
    C = int(cl.max()) + 1
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")

    n_arm = np.bincount(z, minlength=2).astype(np.float64)
    mean_arm = np.bincount(z, weights=values, minlength=2) / n_arm
    resid = values - mean_arm[z]
    key = cl * 2 + z
    m = np.bincount(key, minlength=2 * C).reshape(C, 2).astype(np.float64)
    R = np.bincount(key, weights=resid, minlength=2 * C).reshape(C, 2)
    if variant == "cr2":
        R = R * _cr2_scales(m, n_arm[None, :])
    u = R[:, 1] / n_arm[1] - R[:, 0] / n_arm[0]
    var = float(np.sort(u**2).sum())
    return var, C
