"""Command line front end.

Four subcommands:

* ``analyze``   run an estimator on a panel CSV and report the test
* ``weights``   aggregate externally computed group estimates
* ``simulate``  draw one synthetic panel and write it as CSV
* ``power``     Monte Carlo power study over one or more effect levels

All JSON output embeds a manifest with the resolved configuration, the
package version, and a checksum of every input file, so a result can be
traced back to exactly what produced it. Exit codes: 1 for a closed
stdout, 2 for bad input, 3 for degenerate data, 4 for numerical failure.

The commands import the generator and the estimators inside their
handlers, so ``simulate`` loads no estimator, ``analyze`` no generator and
``weights`` only ``weights``. The option lists come from ``tails``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import InputError, PwrdError
from .panel import IDENTITY_SCHEMA, PanelSchema, ingest_panel, load_json_object
from .tails import ALTERNATIVES, DF_RULES, METHODS, PRESETS, REGIMES, VARIANTS


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


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into an InputError naming it."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _json_text(payload: dict) -> str:
    """``payload`` as JSON text; a NaN or infinite value raises ValueError,
    since neither is JSON (RFC 8259)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write_json(payload: dict, path: str) -> None:
    with _writing(path), open(path, "w") as fh:
        fh.write(_json_text(payload) + "\n")


def _emit(payload: dict, out: str | None) -> None:
    if out:
        _write_json(payload, out)
    else:
        print(_json_text(payload))


def _weights_table(omega, groups) -> str:
    lines = ["group  cohort  entry_grade  year  n      weight"]
    for gi, w in zip(groups, omega):
        lines.append(
            f"{gi.g:>5}  {gi.cohort:>6}  {gi.entry_grade:>11}  "
            f"{gi.follow_up_year:>4}  {gi.n:<5}  {w:.6f}"
        )
    return "\n".join(lines)


def _scenario_from_args(args) -> tuple:
    from . import simulate

    tau = 0.0 if args.tau is None else args.tau
    effect = simulate.EffectSpec(regime=args.effect, tau=tau, spill_fraction=args.spill)
    sizes = {"n_clusters": args.clusters, "units_per_grade": args.units}
    given = {name: value for name, value in sizes.items() if value is not None}
    build = {  # each preset's builder; the sizes default in the builder
        "default": simulate.default_scenario,
        "single-track": simulate.single_track_scenario,
        "spillover": simulate.spillover_scenario,
    }[args.preset]
    sc = build(effect=effect, seed=args.seed, icc=args.icc, **given)
    config = {
        "preset": args.preset,
        "n_clusters": sc.n_clusters,
        "icc": sc.icc,
        "seed": sc.seed,
        "effect": {
            "regime": effect.regime,
            "tau": effect.tau,
            "spill_fraction": effect.spill_fraction,
        },
        "thresholds": {str(g): v for g, v in sc.thresholds},
    }
    return sc, config


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="default", choices=PRESETS)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--units", type=int, default=None, help="units per grade and cluster")
    p.add_argument("--icc", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--effect", default="null", choices=REGIMES)
    p.add_argument("--tau", type=float, default=None, help="effect size; under effect3 the mean")
    p.add_argument("--spill", type=float, default=0.0)


def _refuse_unread_flags(args) -> None:
    """Refuse an ``analyze`` flag given a value the chosen estimator never reads."""
    aggregate = args.estimator in ("pwrd", "flat")
    unread = {
        "--df-rule": not aggregate and args.df_rule != "clusters-2",
        "--delta0": not aggregate and args.delta0 is not None,
        "--ridge": args.estimator != "pwrd" and args.ridge,
    }
    for flag, refused in unread.items():
        if refused:
            raise InputError(f"{flag} has no effect on the {args.estimator} estimator")


def cmd_analyze(args) -> int:
    from .effects import effects_to_json_dict
    from .power import _analyze
    from .weights import flat_weights, test_slope

    covs = tuple(args.covariates.split(",")) if args.covariates else ()
    if "" in covs:
        raise InputError("--covariates has an empty entry")
    _refuse_unread_flags(args)
    schema = PanelSchema.from_json(args.schema) if args.schema else IDENTITY_SCHEMA
    panel = ingest_panel(args.panel, schema=schema)
    config = {
        "estimator": args.estimator,
        "covariates": list(covs),
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
            "dropped_rows": [[row, reason] for row, reason in report.dropped_rows],
            "derived_tested_in": report.derived_tested_in,
        }

    p_value, found = _analyze(
        panel, (args.estimator,), args.cov_variant, args.df_rule, alternative=args.alternative,
        covariates=covs, ridge=args.ridge, delta0=args.delta0,
    )[args.estimator]
    if args.estimator == "mixed":
        payload["mixed"] = found.to_json_dict()
        payload["p_value"] = p_value
        _emit(payload, args.out)
        return 0
    if args.estimator == "exit":
        payload["exit"] = {
            "estimate": found.estimate,
            "se": found.se,
            "df": found.df,
            "t_stat": found.estimate / found.se,
            "p_value": p_value,
            "n": found.n,
        }
        _emit(payload, args.out)
        return 0

    # the flat test reads no flag, so without flags it reports no p0 and no slopes
    effects, cov, p0, w, test = found
    payload.update(
        {
            "effects": effects_to_json_dict(effects, p0),
            "weights": {"scheme": w.scheme, **w.to_json_dict()},
            "test": test.to_json_dict(),
        }
    )
    if p0 is not None:
        slope_w = test_slope(w.omega, p0.p_hat, cov.sigma_hat)
        slope_flat = test_slope(flat_weights(effects).omega, p0.p_hat, cov.sigma_hat)
        payload["slopes"] = {
            "selected": slope_w,
            "flat": slope_flat,
            "relative_efficiency_vs_flat": (slope_w / slope_flat) ** 2 if slope_flat > 0 else None,
        }
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
    from .weights import aggregate_external

    data = load_json_object(args.summary, "summary")
    for key in ("delta_hat", "p0"):
        if data.get(key) is None:
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
                "df": args.df if args.df is not None and math.isfinite(args.df) else None,
                "ridge": args.ridge,
            },
            [args.summary],
        ),
        **result.to_json_dict(),
    }
    _emit(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import apply_effect, generate_panel

    sc, config = _scenario_from_args(args)
    config["replicate"] = args.replicate
    panel = generate_panel(sc, args.replicate)
    panel = apply_effect(panel, sc.effect, args.replicate)
    out = args.out or "panel.csv"
    with _writing(out):
        panel.to_csv(out)
    manifest = _manifest("simulate", config, [])
    manifest["output"] = {"path": out, "sha256": _sha256(out), "n_rows": panel.n_obs}
    _write_json(manifest, out + ".manifest.json")
    print(f"wrote {panel.n_obs} rows to {out}")
    return 0


def _number(kind, text: str, source: str):
    """``text`` as a ``kind`` number; one that does not parse is an
    ``InputError`` naming the flag it came from."""
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{source}: cannot read {text!r} as {kind.__name__}") from None


def cmd_power(args) -> int:
    from .power import estimate_power

    if args.levels is not None and args.tau is not None:
        raise InputError("--tau has no effect when --levels is given: each level is an effect size")
    sc, config = _scenario_from_args(args)
    methods = tuple(args.methods.split(","))
    levels = (
        tuple(_number(float, v, "--levels") for v in args.levels.split(","))
        if args.levels is not None
        else None
    )
    config.update(
        {
            "methods": list(methods),
            "reps": args.reps,
            "alpha": args.alpha,
            "levels": list(levels) if levels else None,
            "cov_variant": args.cov_variant,
            "df_rule": args.df_rule,
            "workers": args.workers,
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
        workers=args.workers,
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
    p.add_argument("--estimator", default="pwrd", choices=METHODS)
    p.add_argument(
        "--covariates", default=None,
        help="comma separated column names: the mixed fit's covariates, and for the other"
        " estimators a Peters-Belson adjustment on them",
    )
    p.add_argument("--alternative", default="greater", choices=ALTERNATIVES)
    p.add_argument("--cov-variant", default="cr2", choices=VARIANTS)
    p.add_argument(
        "--df-rule", default="clusters-2", choices=DF_RULES
    )
    p.add_argument("--ridge", action="store_true")
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("weights", help="aggregate externally computed estimates")
    p.add_argument("summary", help="JSON with delta_hat, p0, and cov or se")
    p.add_argument("--alternative", default="greater", choices=ALTERNATIVES)
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
    p.add_argument("--cov-variant", default="cr2", choices=VARIANTS)
    p.add_argument(
        "--df-rule", default="clusters-2", choices=DF_RULES
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_power)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except PwrdError as exc:
        print(f"pwrd: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # stdout's reader is gone: flush the rest at exit into the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
