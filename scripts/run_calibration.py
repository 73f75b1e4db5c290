#!/usr/bin/env python3
"""Inspect threshold calibration for the stock scenarios.

For each scenario this prints the calibrated grade thresholds, the exact
test-in profile they imply, the worst deviation from the targets, and the
wall time of the cold calibration.
With --panels N it also measures the achieved control-arm profile over N
simulated panels, which is the honest end-to-end check: the multi-grade
design cannot hit all four targets exactly, so the calibrator leaves a
deliberate minimax residual that shows up identically in both columns.
"""

import argparse
import time

import numpy as np

from pwrd import default_scenario, expected_testin_profile, generate_panel, single_track_scenario
from pwrd.simulate import DEFAULT_TESTIN_TARGETS, SPILLOVER_TESTIN_TARGETS, spillover_scenario

STOCK = {
    "default": (default_scenario, DEFAULT_TESTIN_TARGETS),
    "single-track": (single_track_scenario, DEFAULT_TESTIN_TARGETS),
    "spillover": (spillover_scenario, SPILLOVER_TESTIN_TARGETS),
}


def measured_profile(scenario, n_panels: int) -> dict[int, float]:
    flagged = None
    total = None
    for rep in range(n_panels):
        panel = generate_panel(scenario, rep)
        if flagged is None:
            top = max(gi.follow_up_year for gi in panel.catalog) + 1
            flagged = np.zeros(top)
            total = np.zeros(top)
        year_of_group = np.asarray([gi.follow_up_year for gi in panel.catalog])
        ctrl = panel.treatment == 0
        row_year = year_of_group[panel.group_ids[ctrl]]
        flagged += np.bincount(row_year, weights=panel.tested_in[ctrl].astype(np.float64),
                               minlength=len(flagged))
        total += np.bincount(row_year, minlength=len(total))
    return {k: flagged[k] / total[k] for k in range(1, len(total)) if total[k]}


def report(
    name: str, scenario, targets: dict[int, float], n_panels: int, seconds: float
) -> None:
    expected = expected_testin_profile(scenario)
    print(f"== {name} (icc {scenario.icc:.2f}, {scenario.n_clusters} clusters)")
    print("  thresholds: " + "  ".join(
        f"grade {g}: {thr:.4f}" for g, thr in sorted(scenario.threshold_map.items())
    ))
    measured = measured_profile(scenario, n_panels) if n_panels else {}
    header = "  year  target  expected     dev"
    if measured:
        header += "  measured"
    print(header)
    worst = 0.0
    for year in sorted(targets):
        dev = expected[year] - targets[year]
        worst = max(worst, abs(dev))
        line = f"  {year:4d}  {targets[year]:.4f}  {expected[year]:.4f}  {dev:+.4f}"
        if measured:
            line += f"    {measured[year]:.4f}"
        print(line)
    print(f"  worst expected deviation {worst:.10f}, calibrated in {seconds:.3f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenario", nargs="?", default="all",
                    choices=("all", *STOCK), help="which stock scenario to inspect")
    ap.add_argument("--icc", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=20260822)
    ap.add_argument("--panels", type=int, default=0,
                    help="measure the achieved profile over this many panels")
    args = ap.parse_args(argv)

    names = list(STOCK) if args.scenario == "all" else [args.scenario]
    for name in names:
        factory, targets = STOCK[name]
        start = time.perf_counter()
        sc = factory(seed=args.seed, icc=args.icc)
        report(name, sc, targets, args.panels, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
