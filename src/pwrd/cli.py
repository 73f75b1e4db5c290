"""Command line front end.

Four subcommands:

* ``analyze``   run an estimator on a panel CSV and report the test
* ``weights``   aggregate externally computed group estimates
* ``simulate``  draw one synthetic panel and write it as CSV
* ``power``     Monte Carlo power study over one or more effect levels

All JSON output embeds a manifest with the resolved configuration, the
package version, and a checksum of every input file, so a result can be
traced back to exactly what produced it. Exit codes: 2 for bad input,
3 for degenerate data, 4 for numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .covariance import cluster_covariance, satterthwaite_df
from .effects import (
    effects_to_json_dict,
    estimate_effects_diffmeans,
    estimate_effects_peters_belson,
    estimate_p0,
    exit_observation_estimate,
)
from .errors import InputError, PwrdError
from .mixed import fit_random_intercept
from .panel import IDENTITY_SCHEMA, PanelSchema, ingest_panel
from .simulate import (
    EffectSpec,
    default_scenario,
    estimate_power,
    generate_panel,
    apply_effect,
    single_track_scenario,
    spillover_scenario,
)
from .weights import (
    aggregate_external,
    aggregate_test,
    flat_weights,
    pwrd_weights,
    t_p_value,
    test_slope,
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _manifest(command: str, config: dict, inputs: list[str]) -> dict:
    return {
        "tool": "pwrd",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _weights_table(omega, groups) -> str:
    lines = ["group  cohort  entry_grade  year  n      weight"]
    for gi, w in zip(groups, omega):
        lines.append(
            f"{gi.g:>5}  {gi.cohort:>6}  {gi.entry_grade:>11}  "
            f"{gi.follow_up_year:>4}  {gi.n:<5}  {w:.6f}"
        )
    return "\n".join(lines)


def _scenario_from_args(args) -> tuple:
    effect = EffectSpec(
        regime=args.effect,
        tau=args.tau,
        spill_fraction=args.spill,
        effect_mean=args.effect_mean,
    )
    common = dict(effect=effect, seed=args.seed, icc=args.icc)
    if args.preset == "default":
        sc = default_scenario(n_clusters=args.clusters or 52, **common)
    elif args.preset == "single-track":
        sc = single_track_scenario(
            n_clusters=args.clusters or 20,
            units_per_cluster=args.units or 25,
            **common,
        )
    elif args.preset == "spillover":
        sc = spillover_scenario(
            n_clusters=args.clusters or 52,
            units_per_cluster=args.units or 25,
            **common,
        )
    else:
        raise InputError(f"unknown preset '{args.preset}'")
    config = {
        "preset": args.preset,
        "n_clusters": sc.n_clusters,
        "icc": sc.icc,
        "seed": sc.seed,
        "effect": {
            "regime": effect.regime,
            "tau": effect.tau,
            "spill_fraction": effect.spill_fraction,
            "effect_mean": effect.effect_mean,
        },
        "thresholds": {str(g): v for g, v in sc.thresholds},
    }
    return sc, config


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preset", default="default", choices=["default", "single-track", "spillover"]
    )
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--units", type=int, default=None, help="units per grade and cluster")
    p.add_argument("--icc", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument(
        "--effect", default="null", choices=["effect1", "effect2", "effect3", "null"]
    )
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--spill", type=float, default=0.0)
    p.add_argument("--effect-mean", type=float, default=0.0)


def cmd_analyze(args) -> int:
    schema = PanelSchema.from_json(args.schema) if args.schema else IDENTITY_SCHEMA
    panel = ingest_panel(args.panel, schema=schema)
    covs = tuple(args.covariates.split(",")) if args.covariates else ()
    config = {
        "estimator": args.estimator,
        "method": args.method,
        "covariates": list(covs),
        "alpha": args.alpha,
        "alternative": args.alternative,
        "cov_variant": args.cov_variant,
        "df_rule": args.df_rule,
        "ridge": args.ridge,
        "delta0": args.delta0,
    }
    inputs = [args.panel] + ([args.schema] if args.schema else [])
    payload: dict = {"manifest": _manifest("analyze", config, inputs)}
    report = getattr(panel, "ingest_report", None)
    if report is not None:
        payload["ingest"] = {
            "n_read": report.n_read,
            "n_kept": report.n_kept,
            "n_dropped": len(report.dropped_rows),
            "derived_tested_in": report.derived_tested_in,
        }

    if args.estimator == "mixed":
        fit = fit_random_intercept(panel, covariates=covs or ("grade",), variant=args.cov_variant)
        payload["mixed"] = fit.to_json_dict()
        payload["p_value"] = fit.p_value(args.alternative)
        _emit(payload, args.out)
        return 0
    if args.estimator == "exit":
        method = "difference-in-means" if args.method == "diffmeans" else args.method
        ex = exit_observation_estimate(
            panel, method=method, covariates=covs, variant=args.cov_variant
        )
        t = ex.estimate / ex.se
        payload["exit"] = {
            "estimate": ex.estimate,
            "se": ex.se,
            "df": ex.df,
            "t_stat": t,
            "p_value": t_p_value(t, ex.df, args.alternative),
            "n": ex.n,
        }
        _emit(payload, args.out)
        return 0

    if args.method == "peters-belson":
        effects = estimate_effects_peters_belson(panel, covariates=covs)
    else:
        effects = estimate_effects_diffmeans(panel)
    cov = cluster_covariance(panel, effects, variant=args.cov_variant, center=args.center)
    p0 = estimate_p0(panel)
    if p0.group_ordinals() != effects.group_ordinals():
        raise InputError("test-in proportions and effects cover different groups")

    if args.estimator == "flat":
        w = flat_weights(effects)
    else:
        w = pwrd_weights(cov, p0, ridge=args.ridge)
    df = None
    if args.df_rule == "satterthwaite":
        df = satterthwaite_df(panel, effects, w.omega, variant=args.cov_variant)
    test = aggregate_test(
        effects, cov, w, delta0=args.delta0, alternative=args.alternative, df=df
    )

    flat = flat_weights(effects)
    slope_w = test_slope(w.omega, p0.p_hat, cov.sigma_hat)
    slope_flat = test_slope(flat.omega, p0.p_hat, cov.sigma_hat)
    payload.update(
        {
            "effects": effects_to_json_dict(effects, p0),
            "weights": {
                "scheme": w.scheme,
                "omega": [float(v) for v in w.omega],
                "clipped_groups": list(w.clipped_groups),
                "fallback": w.fallback,
            },
            "test": test.to_json_dict(),
            "slopes": {
                "selected": slope_w,
                "flat": slope_flat,
                "relative_efficiency_vs_flat": (
                    (slope_w / slope_flat) ** 2 if slope_flat > 0 else float("inf")
                ),
            },
        }
    )
    if args.json or args.out:
        _emit(payload, args.out)
    if not args.json:
        print(_weights_table(w.omega, effects.groups))
        print(
            f"\nestimate {test.estimate:.6f}   se {test.se:.6f}   "
            f"t {test.t_stat:.4f}   df {test.df:g}   p {test.p_value:.6f}"
        )
    return 0


def _summary_array(data: dict, key: str) -> np.ndarray | None:
    if data.get(key) is None:
        return None
    try:
        return np.asarray(data[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"summary field '{key}' is not a numeric array") from exc


def cmd_weights(args) -> int:
    with open(args.summary) as fh:
        data = json.load(fh)
    for key in ("delta_hat", "p0"):
        if key not in data:
            raise InputError(f"summary file is missing '{key}'")
    result = aggregate_external(
        delta_hat=_summary_array(data, "delta_hat"),
        p0=_summary_array(data, "p0"),
        cov=_summary_array(data, "cov"),
        se=_summary_array(data, "se"),
        delta0=args.delta0,
        alternative=args.alternative,
        df=args.df if args.df is not None else float("inf"),
        ridge=args.ridge,
    )
    payload = {
        "manifest": _manifest(
            "weights",
            {
                "alternative": args.alternative,
                "delta0": args.delta0,
                "df": args.df,
                "ridge": args.ridge,
            },
            [args.summary],
        ),
        **result.to_json_dict(),
    }
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    sc, config = _scenario_from_args(args)
    config["replicate"] = args.replicate
    panel = generate_panel(sc, args.replicate)
    panel = apply_effect(panel, sc.effect, args.replicate)
    out = args.out or "panel.csv"
    panel.to_csv(out)
    manifest = _manifest("simulate", config, [])
    manifest["output"] = {"path": out, "sha256": _sha256(out), "n_rows": panel.n_obs}
    with open(out + ".manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {panel.n_obs} rows to {out}")
    return 0


def cmd_power(args) -> int:
    sc, config = _scenario_from_args(args)
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("PWRD_WORKERS", "1"))
    methods = tuple(args.methods.split(","))
    levels = (
        tuple(float(v) for v in args.levels.split(",")) if args.levels else None
    )
    config.update(
        {
            "methods": list(methods),
            "reps": args.reps,
            "alpha": args.alpha,
            "levels": list(levels) if levels else None,
            "cov_variant": args.cov_variant,
            "df_rule": args.df_rule,
            "workers": workers,
        }
    )
    result = estimate_power(
        sc,
        methods=methods,
        effect_levels=levels,
        n_reps=args.reps,
        alpha=args.alpha,
        cov_variant=args.cov_variant,
        df_rule=args.df_rule,
        workers=workers,
    )
    print("method  regime    level      power    mc_se    reps")
    for c in result.cells:
        print(
            f"{c.method:<7} {c.regime:<9} {c.effect_level:<9g} "
            f"{c.rejection_rate:<8.4f} {c.mc_se:<8.4f} {c.n_reps}"
        )
    if result.failures:
        print(f"excluded {len(result.failures)} replicate runs", file=sys.stderr)
    payload = {
        "manifest": _manifest("power", config, []),
        "cells": result.to_rows(),
        "failures": [
            {"replicate": r, "effect_level": lv, "error": msg}
            for r, lv, msg in result.failures
        ],
    }
    if args.out:
        _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pwrd",
        description="Power-weighted aggregation of group effects from repeated measurement trials",
    )
    ap.add_argument("--version", action="version", version=f"pwrd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate and test on a panel CSV")
    p.add_argument("panel")
    p.add_argument("--schema", default=None, help="JSON column mapping")
    p.add_argument(
        "--estimator", default="pwrd", choices=["pwrd", "flat", "mixed", "exit"]
    )
    p.add_argument(
        "--method", default="diffmeans", choices=["diffmeans", "peters-belson"]
    )
    p.add_argument("--covariates", default=None, help="comma separated column names")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--alternative", default="greater", choices=["greater", "less", "two-sided"]
    )
    p.add_argument("--cov-variant", default="cr2", choices=["cr0", "cr2"])
    p.add_argument("--center", default="both-arms", choices=["both-arms", "control-only"])
    p.add_argument(
        "--df-rule", default="clusters-2", choices=["clusters-2", "satterthwaite"]
    )
    p.add_argument("--ridge", action="store_true")
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("weights", help="aggregate externally computed estimates")
    p.add_argument("summary", help="JSON with delta_hat, p0, and cov or se")
    p.add_argument(
        "--alternative", default="greater", choices=["greater", "less", "two-sided"]
    )
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--df", type=float, default=None)
    p.add_argument("--ridge", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("simulate", help="write one synthetic panel as CSV")
    _add_scenario_flags(p)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("power", help="Monte Carlo power study")
    _add_scenario_flags(p)
    p.add_argument("--methods", default="pwrd,flat,mixed")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--levels", default=None, help="comma separated effect levels")
    p.add_argument("--cov-variant", default="cr2", choices=["cr0", "cr2"])
    p.add_argument(
        "--df-rule", default="clusters-2", choices=["clusters-2", "satterthwaite"]
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_power)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PwrdError as exc:
        print(f"pwrd: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
