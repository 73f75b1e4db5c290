"""Independent reference computations used to check the library.

Everything here is written against the definitions alone, not against the
library's internals, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "best_slope_by_enumeration",
    "best_slope_by_projected_gradient",
    "random_intercept_robust_se",
    "slope",
    "random_problem",
]


def slope(w: np.ndarray, sigma: np.ndarray, p0: np.ndarray) -> float:
    denom = float(w @ sigma @ w)
    if denom <= 0:
        return -np.inf
    return float(w @ p0) / float(np.sqrt(denom))


def best_slope_by_enumeration(sigma: np.ndarray, p0: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact maximizer of w'p0 / sqrt(w'Sigma w) over the simplex.

    The objective is scale invariant, so any maximizer with support A is,
    after restriction to A, proportional to inv(Sigma_AA) p0_A and has all
    positive components there. Enumerating every support therefore visits
    the global maximizer; single points cover the vertex cases. Exact up
    to linear algebra roundoff, feasible for small G.
    """
    G = len(p0)
    best = (-np.inf, None)
    for r in range(1, G + 1):
        for A in itertools.combinations(range(G), r):
            idx = np.array(A)
            try:
                v = np.linalg.solve(sigma[np.ix_(idx, idx)], p0[idx])
            except np.linalg.LinAlgError:
                continue
            if v.min() < 0 or v.sum() <= 0:
                continue
            w = np.zeros(G)
            w[idx] = v / v.sum()
            s = slope(w, sigma, p0)
            if s > best[0]:
                best = (s, w)
    return best[0], best[1]


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection; sort-based threshold.
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u > css / np.arange(1, len(v) + 1))[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def best_slope_by_projected_gradient(
    sigma: np.ndarray,
    p0: np.ndarray,
    restarts: int = 8,
    iters: int = 2000,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Ascent on log slope with simplex projection, several starts."""
    G = len(p0)
    rng = np.random.default_rng(seed)
    starts = [np.full(G, 1.0 / G)]
    starts += [rng.dirichlet(np.ones(G)) for _ in range(restarts - 1)]
    best = (-np.inf, None)
    for w in starts:
        w = w.copy()
        step = 1.0
        val = slope(w, sigma, p0)
        for _ in range(iters):
            Sw = sigma @ w
            quad = float(w @ Sw)
            lin = float(w @ p0)
            if lin <= 0:
                grad = p0
            else:
                grad = p0 / lin - Sw / quad
            improved = False
            while step > 1e-12:
                cand = _project_to_simplex(w + step * grad)
                cval = slope(cand, sigma, p0)
                if cval > val + 1e-15:
                    w, val = cand, cval
                    improved = True
                    step *= 1.3
                    break
                step *= 0.5
            if not improved:
                break
        if val > best[0]:
            best = (val, w)
    return best[0], best[1]


def random_problem(rng: np.random.Generator, G: int) -> tuple[np.ndarray, np.ndarray]:
    """Random positive definite covariance and test-in vector in (0, 1]."""
    A = rng.normal(size=(G, G))
    sigma = A @ A.T + G * np.diag(rng.uniform(0.05, 1.0, size=G))
    scale = rng.uniform(0.01, 10.0)
    p0 = rng.uniform(0.05, 1.0, size=G)
    return sigma * scale, p0


def random_intercept_robust_se(
    X: np.ndarray,
    y: np.ndarray,
    cluster: np.ndarray,
    sigma2_eps: float,
    sigma2_mu: float,
    variant: str,
    coef: int = 1,
    eig_floor: float = 1e-12,
) -> float:
    """Cluster-robust standard error of one GLS coefficient, by definition.

    Each cluster block is whitened by the inverse square root of its
    covariance sigma2_eps * I + sigma2_mu * J, taken from a dense
    eigendecomposition. On the whitened data X~, with K = (X~'X~)^-1 and
    OLS residuals e~, the sandwich is K M K with M = sum_c u_c u_c' and
    u_c = X~_c' A_c e~_c. CR0 takes A_c = I; CR2 takes A_c = (I - H_cc)^-1/2
    with H_cc = X~_c K X~_c', its eigenvalues floored at ``eig_floor``.
    """
    blocks = []
    for c in np.unique(cluster):
        rows = np.flatnonzero(cluster == c)
        k = len(rows)
        lam, vec = np.linalg.eigh(sigma2_eps * np.eye(k) + sigma2_mu * np.ones((k, k)))
        whiten = (vec / np.sqrt(lam)) @ vec.T
        blocks.append((whiten @ X[rows], whiten @ y[rows]))
    Xw = np.vstack([b[0] for b in blocks])
    yw = np.concatenate([b[1] for b in blocks])
    K = np.linalg.inv(Xw.T @ Xw)
    beta = K @ (Xw.T @ yw)
    M = np.zeros_like(K)
    for Xc, yc in blocks:
        e = yc - Xc @ beta
        if variant == "cr2":
            lam, vec = np.linalg.eigh(np.eye(len(e)) - Xc @ K @ Xc.T)
            e = (vec / np.sqrt(np.maximum(lam, eig_floor))) @ vec.T @ e
        u = Xc.T @ e
        M += np.outer(u, u)
    V = K @ M @ K
    return float(np.sqrt(V[coef, coef]))
