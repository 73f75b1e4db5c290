#!/usr/bin/env python3
"""Reproduce the headline power comparisons at configurable scale.

Studies:
  size       null rejection rates for the three pipelines
  effect1    power against the flagged-only persistent gain, over a tau grid
  icc        power across intraclass correlations, thresholds recalibrated
  spillover  power when unflagged units lose what flagged units gain
  effect3    power when every treated observation gains regardless of flags

Each study prints one table and can append the cells to a CSV, so curves
can be assembled across invocations at different replication counts.
The defaults match the acceptance gate's frozen numbers at --reps 1000.
"""

import argparse
import csv
import os
import sys
import time

from pwrd import (
    EffectSpec,
    default_scenario,
    estimate_power,
    icc_sweep,
    negative_effect_sweep,
    spillover_scenario,
)

ICC_GRID = (0.05, 0.10, 0.15, 0.20, 0.25)
SPILL_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _grid(arg: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if arg is None:
        return default
    return tuple(float(v) for v in arg.split(","))


def run_study(args: argparse.Namespace):
    if args.study == "size":
        sc = default_scenario(seed=args.seed)
        return estimate_power(sc, n_reps=args.reps, workers=args.workers)
    if args.study == "effect1":
        taus = _grid(args.levels, (2.75, 5.5, 8.25))
        sc = default_scenario(effect=EffectSpec(regime="effect1", tau=taus[0]), seed=args.seed)
        return estimate_power(sc, effect_levels=taus, n_reps=args.reps, workers=args.workers)
    if args.study == "icc":
        sc = default_scenario(effect=EffectSpec(regime="effect1", tau=5.5), seed=args.seed)
        return icc_sweep(sc, icc_grid=_grid(args.levels, ICC_GRID),
                         n_reps=args.reps, workers=args.workers)
    if args.study == "spillover":
        sc = spillover_scenario(seed=args.seed)
        return negative_effect_sweep(sc, spill_grid=_grid(args.levels, SPILL_GRID),
                                     n_reps=args.reps, workers=args.workers)
    if args.study == "effect3":
        levels = _grid(args.levels, (1.5, 3.0, 4.5, 6.0))
        sc = default_scenario(effect=EffectSpec(regime="effect3", tau=levels[0]),
                              seed=args.seed)
        return estimate_power(sc, effect_levels=levels, n_reps=args.reps, workers=args.workers)
    raise SystemExit(f"unknown study {args.study!r}")


def print_table(rows: list[dict]) -> None:
    cols = ("method", "regime", "effect_level", "icc", "p_spill", "power", "mc_se", "n_reps")
    widths = {c: max(len(c), 12) for c in cols}
    print("  ".join(c.rjust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(
            (f"{r[c]:.4f}" if isinstance(r[c], float) else str(r[c])).rjust(widths[c])
            for c in cols
        ))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("study", choices=("size", "effect1", "icc", "spillover", "effect3"))
    ap.add_argument("--reps", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=20260822)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--levels", default=None,
                    help="comma separated grid (tau, icc, or spill fraction)")
    ap.add_argument("--out", default=None, help="append cells to this CSV")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    result = run_study(args)
    rows = result.to_rows()
    print_table(rows)
    if result.failures:
        print(f"note: {len(result.failures)} replicates excluded", file=sys.stderr)
    print(f"{args.study}: {len(rows)} cells in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)

    if args.out:
        fresh = not os.path.exists(args.out)
        with open(args.out, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            if fresh:
                writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
