"""Independent reference computations used to check the library.

Everything here is written against the definitions alone, not against the
library's internals, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math

import numpy as np

__all__ = [
    "analyze_replicate",
    "best_slope_by_enumeration",
    "bisection_by_profile",
    "blocked_assignment",
    "best_slope_by_projected_gradient",
    "cell_mean_sandwich",
    "differs_from_first_seen",
    "flagged_shares_by_grid",
    "ingest_rows",
    "persisted_flags",
    "pooled_share",
    "random_intercept_by_rows",
    "random_intercept_robust_se",
    "replicate_exit",
    "replicate_loop",
    "replicate_mixed",
    "replicate_sandwich",
    "replicate_satterthwaite",
    "replicate_test",
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


def random_intercept_by_rows(
    X: np.ndarray,
    y: np.ndarray,
    cluster: np.ndarray,
    group: np.ndarray,
    n_groups: int,
    variant: str,
    eig_floor: float = 1e-12,
) -> dict:
    """Random-intercept fit on the rows themselves, one cluster block at a time.

    Components by moments: with OLS residuals e, their cluster means r_c,
    SSW = sum (e - r_c)^2, SSB = sum_c m_c r_c^2 and q design columns
    constant within every cluster, sigma2_eps = SSW / (n - C) and sigma2_mu
    = max(0, (SSB / (C - q) - sigma2_eps) / n0), n0 = (n - sum m_c^2 / n) /
    (C - q). One row per cluster, or C <= q, falls back to OLS: sigma2_mu = 0
    and sigma2_eps = e'e / (n - p). The GLS fit quasi-demeans each cluster by
    lambda_c = 1 - sqrt(sigma2_eps / (sigma2_eps + m_c sigma2_mu)); the model
    se scales K = (X~'X~)^-1 by the transformed residual variance, and the
    cluster-robust se is K M K with M = sum_c u_c u_c', u_c = X~_c' A_c e~_c,
    A_c = I for CR0 and (I - X~_c K X~_c')^-1/2 for CR2, floored at
    ``eig_floor``. The implied group weights sum, by group, the treated rows'
    entries of the treatment row of the GLS estimator.
    """
    n, p = X.shape
    blocks = [np.flatnonzero(cluster == c) for c in np.unique(cluster)]
    C = len(blocks)
    m = np.array([len(b) for b in blocks], dtype=np.float64)
    e = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    rbar = np.array([e[b].mean() for b in blocks])
    ssw = sum(((e[b] - r) ** 2).sum() for b, r in zip(blocks, rbar))
    ssb = float((m * rbar**2).sum())
    q = sum(all(np.allclose(X[b, j], X[b[0], j]) for b in blocks) for j in range(p))
    if n == C or C <= q:
        sigma2_eps, sigma2_mu = float(e @ e) / max(n - p, 1), 0.0
    else:
        sigma2_eps = ssw / (n - C)
        n0 = (n - (m**2).sum() / n) / (C - q)
        sigma2_mu = max((ssb / (C - q) - sigma2_eps) / n0, 0.0)
    lam = 1.0 - np.sqrt(sigma2_eps / (sigma2_eps + m * sigma2_mu))
    Xt, yt = X.astype(np.float64), y.astype(np.float64)
    for b, lc in zip(blocks, lam):
        Xt[b] -= lc * X[b].mean(axis=0)
        yt[b] -= lc * y[b].mean()
    K = np.linalg.inv(Xt.T @ Xt)
    beta = K @ (Xt.T @ yt)
    u = yt - Xt @ beta
    M = np.zeros((p, p))
    for b in blocks:
        a = u[b]
        if variant == "cr2":
            ev, vec = np.linalg.eigh(np.eye(len(b)) - Xt[b] @ K @ Xt[b].T)
            a = (vec / np.sqrt(np.maximum(ev, eig_floor))) @ vec.T @ a
        score = Xt[b].T @ a
        M += np.outer(score, score)
    v = Xt @ K[:, 1]
    for b, lc in zip(blocks, lam):
        v[b] -= lc * v[b].mean()
    return {
        "tau_hat": float(beta[1]),
        "se_model": float(np.sqrt(u @ u / max(n - p, 1) * K[1, 1])),
        "se_cr": float(np.sqrt((K @ M @ K)[1, 1])),
        "sigma2_eps": sigma2_eps,
        "sigma2_mu": sigma2_mu,
        "coefficients": beta,
        "implied_group_weights": np.bincount(group, weights=v * X[:, 1], minlength=n_groups),
    }


def cell_mean_sandwich(
    y: np.ndarray,
    cluster: np.ndarray,
    z: np.ndarray,
    group: np.ndarray,
    variant: str,
    omega: np.ndarray | None = None,
    eig_floor: float = 1e-12,
) -> tuple[np.ndarray, float | None]:
    """Cluster sandwich of the treated-minus-control group means, by definition.

    Rows carry group ids 0..G-1 and fall into (arm, group) cells
    k = z * G + group. With the n x 2G cell-indicator design X,
    K = (X'X)^-1 (``LinAlgError`` when a cell is empty), per-row residuals
    e = y - X K X'y and the hat matrix H = X K X', each cluster scores
    u_c = X_c' A_c e_c; CR0 takes A_c = I, CR2 A_c = (I - H_cc)^-1/2 from a
    dense eigendecomposition floored at ``eig_floor``. The covariance of
    L beta, L = [-I, I], is L K (sum_c u_c u_c') K L'.

    With ``omega`` given, also returns the Satterthwaite degrees of freedom
    of omega' L beta: the variance estimate is y'Q'Qy with the rows
    q_c = omega' L K X_c' A_c (I - H)_c, so under iid unit-variance errors
    its mean is tr(QQ') and its variance 2 ||QQ'||_F^2.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.int64)
    group = np.asarray(group, dtype=np.int64)
    n = len(y)
    G = int(group.max()) + 1
    X = np.zeros((n, 2 * G))
    X[np.arange(n), z * G + group] = 1.0
    K = np.linalg.inv(X.T @ X)
    e = y - X @ (K @ (X.T @ y))
    I_H = np.eye(n) - X @ K @ X.T
    L = np.hstack([-np.eye(G), np.eye(G)])
    M = np.zeros((2 * G, 2 * G))
    Q = []
    for c in np.unique(cluster):
        rows = np.flatnonzero(cluster == c)
        A = np.eye(len(rows))
        if variant == "cr2":
            lam, vec = np.linalg.eigh(I_H[np.ix_(rows, rows)])
            A = (vec / np.sqrt(np.maximum(lam, eig_floor))) @ vec.T
        u = X[rows].T @ A @ e[rows]
        M += np.outer(u, u)
        if omega is not None:
            Q.append(omega @ L @ K @ X[rows].T @ A @ I_H[rows])
    sigma = L @ K @ M @ K @ L.T
    if omega is None:
        return sigma, None
    QQ = np.asarray(Q) @ np.asarray(Q).T
    return sigma, float(np.trace(QQ) ** 2 / (QQ**2).sum())


def differs_from_first_seen(key: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Rows whose value differs from the first value seen for their key,
    walking the rows in order."""
    first: dict = {}
    out = np.zeros(len(key), dtype=bool)
    for i, (k, v) in enumerate(zip(key.tolist(), value.tolist())):
        out[i] = first.setdefault(k, v) != v
    return out


def persisted_flags(raw: np.ndarray, unit: np.ndarray, year: np.ndarray) -> np.ndarray:
    """1 from a unit's first flagged year on, by a walk over each unit's years."""
    out = np.zeros(len(raw), dtype=np.int8)
    for u in np.unique(unit):
        rows = np.flatnonzero(unit == u)
        seen = False
        for i in rows[np.argsort(year[rows], kind="stable")]:
            seen = seen or bool(raw[i])
            out[i] = seen
    return out


def blocked_assignment(coins: np.ndarray, n_clusters: int) -> np.ndarray:
    """Each cluster's arm, coin by coin: block b holds clusters 2b and 2b + 1,
    its coin names the treated member, and a trailing singleton block's
    coin is its cluster's arm."""
    z = np.zeros(n_clusters, dtype=np.int8)
    for b, coin in enumerate(coins):
        members = [c for c in (2 * b, 2 * b + 1) if c < n_clusters]
        if len(members) == 2:
            z[members[coin]] = 1
        else:
            z[members[0]] = coin
    return z


@functools.lru_cache(maxsize=1)
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """96-node Gauss-Hermite nodes, and weights normalized to the standard normal."""
    x, w = np.polynomial.hermite.hermgauss(96)
    return x, w / np.sqrt(np.pi)


def pooled_share(scenario, thresholds: dict[int, float], k: int) -> float:
    """Year k's test-in share, pooled over the tracks that reach year k.

    A track's share is 1 less the Gauss-Hermite average over the cluster
    intercept of its survival: its normal tails in years 1..k, multiplied
    left to right. The pool sums units times share over the tracks, in
    track order, over their units.
    """
    x, w = _hermite_rule()
    mu = np.sqrt(2.0 * scenario.sigma2_mu) * x
    sd = np.sqrt(scenario.sigma2_eps)
    total = den = 0.0
    for cs in scenario.cohorts:
        for eg in cs.entry_grades:
            if min(scenario.exit_grade - eg + 1, scenario.n_years - cs.entry_year + 1) < k:
                continue
            surv = None
            for g in range(eg, eg + k):
                z = (thresholds[g] - scenario.beta0 - scenario.beta1 * g - mu) / sd
                tail = 0.5 * np.asarray([math.erfc(v * math.sqrt(0.5)) for v in z.tolist()])
                surv = tail if surv is None else surv * tail
            total += cs.units_per_grade * (1.0 - w @ surv)
            den += cs.units_per_grade
    return total / den


def flagged_shares_by_grid(
    scenario, thresholds: dict[int, float], grades: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Flagged share of each (track, year) and its gradient in the cutoffs
    of ``grades``, on one (track, year, node) grid.

    A track is a (cohort, entry grade) pair, in the scenario's order,
    followed for min(exit_grade - entry grade + 1, n_years - entry_year + 1)
    years. A cell past a track's last year has a tail of 1, survival is the
    ``np.cumprod`` of the tails over the years, and the share is 1 less the
    Gauss-Hermite dot of each survival row. The gradient in grade g's cutoff
    swaps g's tails for the normal density over the noise sd and takes the
    same cumprod, from the year the track meets g on. Shapes are (tracks,
    years) and (tracks, years, grades), zero past a track's last year.
    """
    x, wnorm = _hermite_rule()
    entry, length = [], []
    for cs in scenario.cohorts:
        for eg in cs.entry_grades:
            n = min(scenario.exit_grade - eg + 1, scenario.n_years - cs.entry_year + 1)
            if n >= 1:
                entry.append(eg)
                length.append(n)
    n_years = max(length)
    grade = np.asarray(entry)[:, None] + np.arange(n_years)
    present = np.arange(n_years) < np.asarray(length)[:, None]
    levels, inverse = np.unique(grade[present], return_inverse=True)
    mu = np.sqrt(2.0 * scenario.sigma2_mu) * x
    sd = np.sqrt(scenario.sigma2_eps)
    cut = np.asarray([thresholds[g] for g in levels.tolist()])
    zscore = ((cut - scenario.beta0 - scenario.beta1 * levels)[:, None] - mu) / sd
    half = map(math.erfc, (zscore * math.sqrt(0.5)).ravel().tolist())
    tail = np.ones(grade.shape + (len(x),))
    tail[present] = (0.5 * np.fromiter(half, np.float64, zscore.size).reshape(zscore.shape))[inverse]

    def average(surv: np.ndarray) -> np.ndarray:
        return np.asarray([wnorm @ row for row in surv])

    flagged = np.zeros(grade.shape)
    flagged[present] = 1.0 - average(np.cumprod(tail, axis=1)[present])
    grad = np.zeros(grade.shape + (len(grades),))
    for c, g in enumerate(grades):
        hit = (grade == g) & present
        after = (np.cumsum(hit, axis=1) > 0) & present
        factors = tail.copy()
        i = levels.tolist().index(g)
        factors[hit] = np.exp(-0.5 * zscore[i] ** 2) / (np.sqrt(2.0 * np.pi) * sd)
        grad[after, c] = average(np.cumprod(factors, axis=1)[after])
    return flagged, grad


def bisection_by_profile(scenario, targets: dict[int, float]) -> dict[int, float]:
    """The calibration's bisection, each step recomputing year k's pooled
    share from every cutoff (``pooled_share``).

    Year k halves [mean -/+ 12 total sd] of grade k - 1 sixty times; a grade
    no year moves keeps the start, mean - 0.3 total sd.
    """
    total_sd = np.sqrt(scenario.sigma2_eps + scenario.sigma2_mu)
    grades = {
        eg + j
        for cs in scenario.cohorts
        for eg in cs.entry_grades
        for j in range(min(scenario.exit_grade - eg + 1, scenario.n_years - cs.entry_year + 1))
    }
    thr = {g: scenario.beta0 + scenario.beta1 * g - 0.3 * total_sd for g in grades}
    for k in sorted(targets):
        g = k - 1
        lo = scenario.beta0 + scenario.beta1 * g - 12.0 * total_sd
        hi = scenario.beta0 + scenario.beta1 * g + 12.0 * total_sd
        for _ in range(60):
            thr[g] = 0.5 * (lo + hi)
            if pooled_share(scenario, thr, k) < targets[k]:
                lo = thr[g]
            else:
                hi = thr[g]
        thr[g] = 0.5 * (lo + hi)
    return thr


def ingest_rows(source, schema=None):
    """Reference ingest of a text stream: walk the records one at a time,
    as ``csv.DictReader`` yields them, parsing each field.

    The per-row rules are the contract ``pwrd.ingest_panel`` keeps: the
    outcome is read first and a blank one drops the row; then unit,
    cluster, treatment, cohort, grade, year, block and tested_in (when the
    first record has them), the covariates and the score column, each
    stripped except the last two. A missing column stops at once; a value
    that does not parse is collected, and collection stops at the eighth.
    Text the reader cannot read (undecodable, or a ``csv.Error``) stops
    where the reader meets it. Type checks after parsing reuse the
    library's array validation.
    """
    from pwrd.errors import InputError
    from pwrd.panel import (
        _MAX_REPORTED_ROWS,
        IDENTITY_SCHEMA,
        IngestReport,
        PanelDataset,
        _int64_column,
        _validate_arrays,
        persist_flags,
    )

    schema = IDENTITY_SCHEMA if schema is None else schema
    reader = csv.DictReader(source)

    def records():
        try:
            yield from reader
        except csv.Error as exc:
            raise InputError(f"panel input, line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"panel input is not UTF-8 text: {exc.reason}") from exc

    col = dict(schema.columns)
    rule = schema.tested_in_rule

    rows = records()
    first = next(rows, None)
    if first is not None:
        rows = itertools.chain([first], rows)
        for optional in ("block", "tested_in"):
            if optional in col and col[optional] not in first:
                del col[optional]
    has_block = "block" in col
    has_flag = "tested_in" in col
    if has_flag and rule is not None:
        raise InputError("schema maps a tested_in column and also provides a threshold rule")

    fields = [("unit", str), ("cluster", str)]
    fields += [(k, int) for k in ("treatment", "cohort", "grade", "year")]
    if has_block:
        fields.append(("block", str))
    if has_flag:
        fields.append(("tested_in", int))
    raw = {k: [] for k, _ in fields + [("outcome", float)]}
    cov_raw = {c: [] for c in schema.covariates}
    score_raw = []
    kept_row_numbers = []
    dropped = []
    errors = []
    n_read = 0

    def need(record, physical, rownum):
        if physical not in record or record[physical] is None:
            raise InputError(f"row {rownum}: missing column '{physical}'")
        return record[physical]

    for rownum, record in enumerate(rows, start=2):  # row 1 is the header
        n_read += 1
        try:
            out_text = need(record, col["outcome"], rownum).strip()
            if out_text == "":
                dropped.append((rownum, "missing outcome"))
                continue
            raw["outcome"].append(float(out_text))
            for k, parse in fields:
                raw[k].append(parse(need(record, col[k], rownum).strip()))
            for c in schema.covariates:
                cov_raw[c].append(float(need(record, c, rownum)))
            if rule is not None:
                score_raw.append(float(need(record, rule.score_column, rownum)))
            kept_row_numbers.append(rownum)
        except InputError:
            raise
        except (ValueError, TypeError) as exc:
            errors.append(f"row {rownum}: {exc}")
            if len(errors) >= _MAX_REPORTED_ROWS:
                break

    if errors:
        raise InputError("could not parse input: " + "; ".join(errors))
    if not raw["unit"]:
        raise InputError("no usable rows in input")

    row_numbers = np.asarray(kept_row_numbers)
    unit_labels, unit = np.unique(np.asarray(raw["unit"]), return_inverse=True)
    cluster_labels, cluster = np.unique(np.asarray(raw["cluster"]), return_inverse=True)
    ints = {k: _int64_column(raw[k], col[k], row_numbers) for k, parse in fields if parse is int}
    treatment, cohort, grade, year = (ints[k] for k in ("treatment", "cohort", "grade", "year"))
    outcome = np.asarray(raw["outcome"], dtype=np.float64)
    block = block_labels = None
    if has_block:
        block_labels, block = np.unique(np.asarray(raw["block"]), return_inverse=True)

    tested_in = ints.get("tested_in")
    derived = tested_in is None and rule is not None
    if derived:
        missing = sorted(set(grade.tolist()) - set(rule.cutoffs))
        if missing:
            raise InputError(f"threshold rule lacks cutoffs for grades {missing}")
        cut = np.asarray([rule.cutoffs[g] for g in grade.tolist()])
        tested_in = persist_flags(np.asarray(score_raw) < cut, unit, year)

    _validate_arrays(
        unit=unit, cluster=cluster, treatment=treatment, year=year, outcome=outcome,
        tested_in=tested_in, block=block, row_numbers=row_numbers,
    )
    panel = PanelDataset(
        unit=unit, cluster=cluster, treatment=treatment, cohort=cohort, grade=grade,
        year=year, outcome=outcome, tested_in=tested_in, block=block,
        covariates={c: np.asarray(v) for c, v in cov_raw.items()},
        unit_labels=unit_labels, cluster_labels=cluster_labels, block_labels=block_labels,
        validate=False,
    )
    panel.ingest_report = IngestReport(
        n_read=n_read, n_kept=panel.n_obs, dropped_rows=tuple(dropped), derived_tested_in=derived,
    )
    return panel


# ----------------------------------------------------------------------
# the per-replicate reference pipeline
#
# The Monte Carlo engine analyzes stacks of panels at once. These are the
# per-replicate implementations it replaced, one panel and one (C, K) cell
# table at a time, with the same checks and error messages. They read the
# library's panel tiers and call its unchanged pieces (p0, the weight
# solver, the flat weights and the t tail), so a difference from the engine
# is a difference in the batched stages.

_REJECTED = "pwrd", "flat", "mixed", "exit"


def _arm_totals(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.stack([np.sort(x[z == arm], axis=0).sum(axis=0) for arm in (0, 1)])


def replicate_sandwich(m, s, z, variant: str):
    """Contrasts of a (C, K) table's arm means, their cluster sandwich, the
    number of clusters with rows and the table's mean square."""
    from pwrd.errors import DegenerateDataError, NumericalError

    active = m.sum(axis=1) > 0
    if active.sum() < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {int(active.sum())}")
    n = np.array([z == 0, z == 1], dtype=np.float64) @ m
    if (n == 0).any():
        raise NumericalError(f"singular bread: empty (arm, group) cells {np.flatnonzero(n == 0).tolist()}")
    mean = _arm_totals(s, z) / n
    n_z, sign = n[z], np.where(z == 1, 1.0, -1.0)[:, None]
    R = s - m * mean[z]
    if variant == "cr2":
        R = R * (1.0 / np.sqrt(np.maximum(1.0 - m / n_z, 1e-12)))
    U = (sign * R / n_z)[active]
    Us = U[np.lexsort(U.T[::-1])]
    mean_square = float((n * mean**2).sum() / n.sum())
    return mean[1] - mean[0], Us.T @ Us, len(U), mean_square


def _checked_covariance(V: np.ndarray) -> np.ndarray:
    from pwrd.errors import NumericalError

    if not np.isfinite(V).all():
        raise NumericalError("covariance contains non-finite entries")
    if np.abs(V - V.T).max() > 1e-10 * max(np.abs(V).max(), 1.0):
        raise NumericalError("covariance matrix is not symmetric")
    if np.linalg.eigvalsh(V).min() < -1e-10 * max(np.trace(V), 1e-300):
        raise NumericalError("covariance matrix has a substantially negative eigenvalue")
    return V


def replicate_satterthwaite(m, z, omega) -> float:
    """Satterthwaite df of omega' delta_hat on a (C, K) table's counts."""
    active = m.sum(axis=1) > 0
    n = np.array([z == 0, z == 1], dtype=np.float64) @ m
    n_z, sign = n[z], np.where(z == 1, 1.0, -1.0)[:, None]
    scales = 1.0 / np.sqrt(np.maximum(1.0 - m / n_z, 1e-12))
    phi = (sign * omega[None, :] / n_z * scales)[active]
    m, n_z, z = m[active], n_z[active], z[active]
    a = (m * phi**2).sum(axis=1)
    F = m * phi / np.sqrt(n_z)
    Om = np.diag(a) - np.where(z[:, None] == z[None, :], F @ F.T, 0.0)
    tr, denom = float(np.trace(Om)), float((Om**2).sum())
    df = tr * tr / denom if denom > 0 and math.isfinite(denom) and math.isfinite(tr) else math.inf
    return df if math.isfinite(df) else float(active.sum() - 2)


def replicate_test(d, V, w, df: float, mean_square: float) -> float:
    """One-sided p-value of w'd against the t reference on ``df``."""
    from pwrd.errors import NumericalError
    from pwrd.tails import t_p_value
    from pwrd.weights import check_test_variance

    var = float(w @ V @ w)
    check_test_variance(var, mean_square, df)
    t = float(w @ d) / float(np.sqrt(var))
    if not math.isfinite(t):
        raise NumericalError("test statistic is not finite")
    return t_p_value(t, df, "greater")


def replicate_mixed(panel, covariates=("grade",), variant="cr2") -> tuple[float, float, float]:
    """(tau_hat, cluster-robust se, df) of the random-intercept fit on the
    fit's records, one panel at a time."""
    from pwrd.errors import DegenerateDataError, NumericalError
    from pwrd.mixed import _records
    from pwrd.weights import ROUNDING_FLOOR, check_finite, check_test_variance

    n, C = panel.n_obs, panel.n_clusters
    if C < 2:
        raise DegenerateDataError(f"need at least 2 clusters, found {C}")
    rec = _records(panel, covariates)
    cl, w, X, starts, m = rec.cl, rec.w, rec.X, rec.starts, rec.m
    s = np.bincount(rec.row, weights=panel.outcome, minlength=len(w))
    p = X.shape[1]
    ybar = s / w
    beta_ols, _, rank, _ = np.linalg.lstsq(rec.swX, rec.sw * ybar, rcond=None)
    if rank < p:
        raise NumericalError("rank-deficient design matrix")
    e = ybar - X @ beta_ols
    ss_within = float(np.bincount(rec.row, weights=(panel.outcome - ybar[rec.row]) ** 2).sum())
    if (rec.counts == 0).any():
        raise DegenerateDataError("a cluster has no observations")
    q = rec.q
    rbar = np.add.reduceat(w * e, starts) / m
    if n == C or C <= q:
        sigma2_eps, sigma2_mu = (ss_within + float((w * e**2).sum())) / max(n - p, 1), 0.0
    else:
        sigma2_eps = (ss_within + float((w * (e - rbar[cl]) ** 2).sum())) / (n - C)
        n0 = (n - float((m**2).sum()) / n) / (C - q)
        sigma2_mu = max((float((m * rbar**2).sum()) / (C - q) - sigma2_eps) / n0, 0.0)
    total = sigma2_eps + sigma2_mu
    if (sigma2_mu / total if total > 0 else 0.0) >= 1.0:
        raise DegenerateDataError(
            "zero within-cluster residual variance: the outcome does not vary"
            " within clusters beyond the covariates"
        )
    mean_square = (ss_within + float(w @ ybar**2)) / n
    check_finite(("residual variance", total), ("outcome mean square", mean_square))
    if total <= ROUNDING_FLOOR * mean_square:
        raise NumericalError(f"residual variance {total:.3g} is rounding of the outcome")
    lam = 1.0 - np.sqrt(sigma2_eps / (sigma2_eps + m * sigma2_mu)) if sigma2_mu > 0 else np.zeros(C)
    yt = ybar - lam[cl] * (np.add.reduceat(s, starts) / m)[cl]
    Xt = X - lam[cl][:, None] * rec.xbar
    XtX = Xt.T @ (w[:, None] * Xt)
    try:
        K = np.linalg.inv(XtX)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular transformed design") from exc
    beta = K @ (Xt.T @ (w * yt))
    u = yt - Xt @ beta
    wXt = w[:, None] * Xt
    B = np.add.reduceat(wXt * u[:, None], starts, axis=0)
    if variant == "cr2":
        eva, evec = np.linalg.eigh(XtX)
        if eva.min() <= 0:
            raise NumericalError("singular design in cluster adjustment")
        Khalf = (evec / np.sqrt(eva)) @ evec.T
        j, k = np.array([(a, b) for a in range(p) for b in range(a, p)]).T
        G = np.empty((len(starts), p, p))
        G[:, j, k] = G[:, k, j] = np.add.reduceat(wXt[:, j] * Xt[:, k], starts, axis=0)
        d, Q = np.linalg.eigh(Khalf @ G @ Khalf)
        d = np.clip(d, 0.0, None)
        big = d > 1e-12
        scale = 1.0 / np.sqrt(np.maximum(1.0 - d, 1e-12)) - 1.0
        coef = np.where(big, scale / np.where(big, d, 1.0), 0.5)
        t = coef * (np.swapaxes(Q, 1, 2) @ (B @ Khalf.T)[:, :, None])[:, :, 0]
        B = B + (G @ (Khalf @ (Q @ t[:, :, None])))[:, :, 0]
    V = K @ (B.T @ B) @ K
    if C > 2:
        check_test_variance(float(V[1, 1]), mean_square, C - 2)
    return float(beta[1]), float(np.sqrt(V[1, 1])), float(C - 2)


def replicate_exit(panel, variant="cr2") -> tuple[float, float, float]:
    """(estimate, se, df) of the exit rows' difference in means."""
    from pwrd.errors import DegenerateDataError
    from pwrd.weights import check_test_variance

    rows = np.flatnonzero(panel.exit_mask())
    cluster = panel.cluster[rows]
    m = np.bincount(cluster, minlength=panel.n_clusters).astype(np.float64).reshape(-1, 1)
    z = panel.z_by_cluster
    if min(np.array([z == 0, z == 1], dtype=np.float64) @ m[:, 0]) == 0:
        raise DegenerateDataError("exit subset lacks one arm entirely")
    s = np.bincount(cluster, weights=panel.outcome[rows], minlength=m.size).reshape(m.shape)
    delta, V, n_clusters, mean_square = replicate_sandwich(m, s, z, variant)
    if n_clusters > 2:
        check_test_variance(float(V[0, 0]), mean_square, n_clusters - 2)
    return float(delta[0]), float(np.sqrt(V[0, 0])), float(n_clusters - 2)


def analyze_replicate(panel, methods=_REJECTED, cov_variant="cr2", df_rule="clusters-2") -> dict:
    """Each method's one-sided p-value, and its weights for pwrd and flat,
    by the per-replicate pipeline; a refused panel raises its error."""
    from pwrd.effects import estimate_p0, included_groups
    from pwrd.errors import DegenerateDataError
    from pwrd.tails import t_p_value
    from pwrd.weights import check_test_variance, flat_weights, pwrd_weights

    out = {}
    if "pwrd" in methods or "flat" in methods:
        kept, _ = included_groups(panel)
        if not kept:
            raise DegenerateDataError("no group has observations in both arms")
        idx = np.asarray([gi.g for gi in kept])
        m = panel.cell_counts.m[:, idx]
        s, z = panel.cells.s[:, idx], panel.z_by_cluster
        d, V, n_clusters, mean_square = replicate_sandwich(m, s, z, cov_variant)
        if n_clusters > 2:
            check_test_variance(float(np.trace(V)), mean_square, n_clusters - 2)
        V = _checked_covariance(V)
        p0 = None
        if "pwrd" in methods or panel.tested_in is not None:
            p0 = estimate_p0(panel).on_groups(kept)
    for method in ("pwrd", "flat"):
        if method in methods:
            if method == "pwrd":
                w = pwrd_weights(V, p0).omega
            else:
                w = flat_weights(np.array([gi.n for gi in kept], dtype=np.float64)).omega
            df = float(n_clusters - 2)
            if df_rule == "satterthwaite":
                df = replicate_satterthwaite(m, panel.z_by_cluster, w)
            out[method] = (replicate_test(d, V, w, df, mean_square), w)
    if "mixed" in methods:
        tau, se, df = replicate_mixed(panel, variant=cov_variant)
        check_test_variance(se**2, 0.0, df)
        out["mixed"] = (t_p_value(tau / se, df, "greater"), None)
    if "exit" in methods:
        est, se, df = replicate_exit(panel, cov_variant)
        check_test_variance(se**2, 0.0, df)
        out["exit"] = (t_p_value(est / se, df, "greater"), None)
    return out


def replicate_loop(scenario, levels, reps, methods=_REJECTED, alpha=0.05, cov_variant="cr2",
                   df_rule="clusters-2"):
    """Rejections per (replicate, level, method), -1 where the replicate
    failed, each p-value (None where it failed), and the failures, one
    replicate and one level at a time."""
    from pwrd import apply_effect, generate_panel
    from pwrd.errors import PwrdError

    hits = np.full((len(reps), len(levels), len(methods)), -1, dtype=np.int8)
    p_values: dict = {}
    failures = []
    for i, rep in enumerate(reps):
        base = generate_panel(scenario, rep)
        for j, lv in enumerate(levels):
            try:
                panel = apply_effect(base, scenario.effect.with_level(lv), rep)
                found = analyze_replicate(panel, methods, cov_variant, df_rule)
            except PwrdError as exc:
                failures.append((rep, lv, f"{type(exc).__name__}: {exc}"))
                continue
            hits[i, j] = [found[m][0] <= alpha for m in methods]
            p_values[rep, lv] = found
    return hits, p_values, failures
