#!/usr/bin/env python3
"""Size and power of the Peters-Belson pwrd test.

The design is ``default_scenario()`` (effect1) plus a cluster-level
baseline covariate: x_c ~ N(0, 1) per cluster and y += COEF * x_c, with x
passed to the regression-adjusted estimator. Each replicate runs the pwrd
test (CR2, C - 2 df, one-sided at ALPHA) on the adjusted effects, with the
sandwich of the control-fit residuals, the variance of the contrast
actually taken (``cluster_covariance``): the ``residual`` row.

Prints one row per tau in LEVELS: the rejection rate, its Monte Carlo
standard error, the replicate count and the excluded replicates.

    PYTHONPATH=src python scripts/peters_belson_variance.py --reps 1000
"""

import argparse
import time

import numpy as np

from pwrd import (
    EffectSpec,
    PanelDataset,
    PwrdError,
    aggregate_test,
    apply_effect,
    cluster_covariance,
    default_scenario,
    estimate_effects_peters_belson,
    estimate_p0,
    generate_panel,
    pwrd_weights,
)

COEF = 6.0  # outcome slope on the covariate
ALPHA = 0.05
LEVELS = (0.0, 5.5)  # effect1 tau: the null and the power level
SEED = 20260822


def with_covariate(p: PanelDataset, x_cluster: np.ndarray, coef: float) -> PanelDataset:
    x = x_cluster[p.cluster]
    return PanelDataset(
        unit=p.unit,
        cluster=p.cluster,
        treatment=p.treatment,
        cohort=p.cohort,
        grade=p.grade,
        year=p.year,
        outcome=p.outcome + coef * x,
        tested_in=p.tested_in,
        block=p.block,
        covariates={"x": x},
        validate=False,
    )


def one_replicate(panel: PanelDataset) -> bool:
    """Whether the pwrd test rejects."""
    eff = estimate_effects_peters_belson(panel, covariates=("x",))
    p0 = estimate_p0(panel).on_groups(eff.groups)
    cov = cluster_covariance(panel, eff)
    w = pwrd_weights(cov, p0)
    return aggregate_test(eff, cov, w, alternative="greater").p_value <= ALPHA


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=1000, help="replicates per level")
    args = ap.parse_args()

    sc = default_scenario(effect=EffectSpec("effect1", tau=5.5), seed=SEED)
    print("variance  level   rate     mc_se    reps   excluded")
    start = time.perf_counter()
    for level in LEVELS:
        rejections = []
        excluded = 0
        for r in range(args.reps):
            base = generate_panel(sc, r)
            panel = apply_effect(base, sc.effect.with_level(level), r) if level else base
            x_cluster = np.random.default_rng([SEED, r, 7]).normal(size=sc.n_clusters)
            try:
                rejections.append(one_replicate(with_covariate(panel, x_cluster, COEF)))
            except PwrdError:
                excluded += 1
        rate = float(np.mean(rejections))
        n = len(rejections)
        print(
            f"{'residual':<9} {level:<7g} {rate:<8.4f} {np.sqrt(rate * (1 - rate) / n):<8.4f} "
            f"{n:<6} {excluded}"
        )
    print(f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
