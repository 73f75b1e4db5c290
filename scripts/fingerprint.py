#!/usr/bin/env python3
"""One sha256 per estimator over seeded replicates, and one each for the
Monte Carlo engine, `pwrd analyze` on ordered and on shuffled rows,
`pwrd weights`, the reference tails and
weight solver, the presets' calibration and `pwrd simulate`.

Two commits whose results agree bit for bit print the same lines, so a
plain ``diff`` of two runs shows whether a change moved any result:

    PYTHONPATH=src python scripts/fingerprint.py --reps 200 > after.txt
    diff before.txt after.txt

To tell how far a moved line moved, save the raw values behind each line
on one commit and compare the other's with them:

    PYTHONPATH=src python scripts/fingerprint.py --dump before.npz
    PYTHONPATH=src python scripts/fingerprint.py --against before.npz

``--dump FILE`` writes, with ``np.savez``, each line's digest and the
numbers fed to it in order (the floats and integers of its results and of
the CLI's JSON payloads; the CSV bytes of ``simulate`` are hashed only).
``--against FILE`` prints, per line, whether its digest matches the file's
and, if not, the largest relative difference between the two runs' numbers.

The replicates are ``default_scenario(EffectSpec("effect1", tau=5.5))``
at effect levels 0 and 5.5, each analyzed under CR0 and CR2. Each line
hashes, over every replicate, level and variant:

  pwrd    the diff-in-means effects, their sandwich, p0, the pwrd weights
          and the test's p-values: on C - 2 df, and under CR2 also on
          Satterthwaite df, which take no other variant
  flat    the flat weights and the same p-values
  mixed   every field of the random-intercept fit, for each covariate set
          in MIXED_COVARIATES; then of the fit of each ``peters-belson``
          panel (below) on its cluster covariate x, and on x replaced by a
          row covariate 2e4 + N(0, 1) from ``default_rng([seed, r, 8])``
  exit    every field of the exit estimate and its p-value

The ``peters-belson`` line hashes the same replicates with a cluster
covariate, the design of ``scripts/peters_belson_variance.py``: x_c ~
N(0, 1) per cluster from ``default_rng([seed, r, 7])``, PB_COEF * x_c
added to the outcome and x named as the covariate, on each replicate's
group layout and design tier. Per replicate, level and variant it hashes
the public per-panel calls: the Peters-Belson effects, their sandwich,
p0 on their groups, the pwrd and flat weights and their p-values, as on
the ``pwrd`` line. Then it hashes one ``power._analyze_panels`` list of
every such panel, for ``pwrd``, ``flat`` and ``exit`` under each of
PB_ANALYSES: each panel's p-values, effects, sandwich, p0, weights,
tests and exit estimates.

A computation that raises hashes the error's type and message instead.
The ``power`` line hashes the cells and failures of ``estimate_power`` on
the same scenario, every method in ``METHODS`` at the same levels and
``--reps`` replicates, under each (variant, df rule) pair of VARIANTS and
DF_RULES; CR0 with Satterthwaite df hashes its refusal. Each run is made
with 1 and with 2 workers, and the script stops if the two differ. The
per-estimator lines call the public per-replicate functions, so only this
line covers the engine's own loop and its batched stages.
The ``analyze`` line hashes the ``--json`` payload of each variant in
ANALYZE_FLAGS, less its manifest, on one panel that ``pwrd simulate``
writes to a temporary directory; ``--covariates`` makes the exit variant
Peters-Belson's and names the mixed fit's covariates. The ``ingest``
line hashes the payloads of each variant in INGEST_FLAGS on the same
panel with its data rows in a seeded random order (INGEST_SEED), once with
its ``tested_in`` column and once with flags derived by a schema's
``tested_in_rule`` (INGEST_RULE), so that ingest persists the flags and
validation checks them on rows out of (unit, year) order. The ``weights``
line hashes the ``pwrd weights`` payload, less its manifest, on the
README's summary in each way of WEIGHTS_RUNS: with ``se``, with the same
variances as ``cov``, and with ``se`` under a finite df, a nonzero null
and a two-sided test. The
``tails`` line hashes the ``float.hex`` of ``t_p_value`` at every df in
TAIL_DFS, t in TAIL_TS and alternative, then of the ``pwrd_weights`` of
acceptance 01's 500 random instances (``tests/oracles.py::random_problem``
at seed 20260822). The ``calibrate`` line hashes the ``float.hex`` of each
preset's variance components and cutoffs at every ICC in CALIBRATE_ICCS,
and the error the default preset raises at ICC 0.05.
The ``simulate`` line hashes the CSV bytes ``pwrd simulate`` writes for
each preset under each variant in SIMULATE_FLAGS.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from pwrd import (
    EffectSpec,
    NumericalError,
    PanelDataset,
    PwrdError,
    aggregate_test,
    apply_effect,
    cluster_covariance,
    default_scenario,
    estimate_effects_diffmeans,
    estimate_effects_peters_belson,
    estimate_p0,
    estimate_power,
    exit_observation_estimate,
    fit_random_intercept,
    flat_weights,
    generate_panel,
    pwrd_weights,
    satterthwaite_df,
    single_track_scenario,
    spillover_scenario,
)
from pwrd.cli import main as cli_main
from pwrd.panel import LOGICAL_COLUMNS
from pwrd.power import _analyze_panels
from pwrd.tails import ALTERNATIVES, DF_RULES, METHODS, VARIANTS, t_p_value

LEVELS = (0.0, 5.5)
MIXED_COVARIATES = (("grade",), ("grade", "cohort"), (), ("follow_up_year",))
PB_COEF = 6.0
PB_METHODS = ("pwrd", "flat", "exit")
PB_ANALYSES = (("cr0", "clusters-2"), ("cr2", "clusters-2"), ("cr2", "satterthwaite"))
ANALYZE_FLAGS = (
    (),
    ("--df-rule", "satterthwaite"),
    ("--estimator", "flat"),
    ("--estimator", "mixed"),
    ("--estimator", "exit"),
    ("--estimator", "exit", "--covariates", "grade"),
    ("--cov-variant", "cr0", "--estimator", "mixed", "--covariates", "grade,cohort"),
    ("--ridge", "--delta0", "0.5", "--alternative", "two-sided"),
)
INGEST_FLAGS = (("--estimator", "pwrd"), ("--estimator", "exit"))
INGEST_SEED = 20260822
INGEST_RULE = {"score_column": "outcome", "cutoffs": {"0": 95.0, "1": 105.0, "2": 115.0, "3": 125.0}}
PRESETS = {
    "default": default_scenario,
    "single-track": single_track_scenario,
    "spillover": spillover_scenario,
}
CALIBRATE_ICCS = (0.1, 0.2, 0.3)
SIMULATE_FLAGS = ((), ("--effect", "effect1", "--tau", "3", "--replicate", "2"))
README_SE = (0.023, 0.019, 0.021, 0.019)
README_SUMMARY = {"delta_hat": (-0.001, -0.030, -0.035, -0.035), "p0": (0.25, 0.5, 0.75, 1.0)}
WEIGHTS_RUNS = (
    ({"se": README_SE}, ()),
    ({"cov": np.diag(np.square(README_SE)).tolist()}, ()),
    ({"se": README_SE}, ("--df", "30", "--delta0", "0.01", "--alternative", "two-sided")),
)

TAIL_DFS = (0.5, 1.0, 1.5, 3.0, 17.5, 24.0, 50.0, 102.0, 1e3, 1e4, 1e6, float("inf"))
TAIL_TS = np.concatenate(
    [np.linspace(-40.0, 40.0, 81), np.random.default_rng(5).uniform(-40.0, 40.0, 200)]
)
ORACLES = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"


class Line:
    """One printed line: the sha256 of what is fed to it, and the numbers
    among what is fed, in order (what ``--dump`` saves)."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()
        self.values: list = []

    def update(self, data: bytes) -> None:
        self.h.update(data)

    def record(self, numbers) -> None:
        self.values.append(np.asarray(numbers, dtype=np.float64).ravel())

    def hexdigest(self) -> str:
        return self.h.hexdigest()

    def numbers(self) -> np.ndarray:
        return np.concatenate(self.values) if self.values else np.empty(0)


def json_numbers(payload) -> list:
    """The numbers of a JSON payload, keys in sorted order."""
    if isinstance(payload, dict):
        return [x for k in sorted(payload) for x in json_numbers(payload[k])]
    if isinstance(payload, list):
        return [x for v in payload for x in json_numbers(v)]
    if isinstance(payload, (int, float)):
        return [payload]
    return []


def feed(h, value) -> None:
    """Add a result to the hash: arrays by dtype, shape and bytes, dataclasses
    field by field, containers item by item, anything else by its repr
    (exact for floats). Numeric arrays and numbers are also recorded."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
        if value.dtype.kind in "biuf":
            h.record(value)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            feed(h, f.name)
            feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        for k, v in value.items():
            feed(h, k)
            feed(h, v)
    elif isinstance(value, (tuple, list)):
        h.update(b"[")
        for v in value:
            feed(h, v)
        h.update(b"]")
    else:
        if isinstance(value, (int, float, np.number)):
            h.record(value)
        h.update(repr(value).encode())
    h.update(b";")


def guarded(h, compute) -> None:
    """Feed ``compute()``, or the package error it raises."""
    try:
        value = compute()
    except PwrdError as exc:
        value = f"{type(exc).__name__}: {exc}"
    feed(h, value)


def p_values(panel, effects, cov, w, variant):
    dfs = (None, satterthwaite_df(panel, effects, w.omega)) if variant == "cr2" else (None,)
    return [aggregate_test(effects, cov, w, df=d).p_value for d in dfs]


def group_line(h_pwrd, h_flat, panel, variant) -> None:
    def pwrd():
        effects = estimate_effects_diffmeans(panel)
        cov = cluster_covariance(panel, effects, variant=variant)
        p0 = estimate_p0(panel)
        w = pwrd_weights(cov, p0)
        p = p_values(panel, effects, cov, w, variant)
        return effects.estimates, cov.sigma_hat, p0.p_hat, w.omega, p

    def flat():
        effects = estimate_effects_diffmeans(panel)
        cov = cluster_covariance(panel, effects, variant=variant)
        w = flat_weights(effects)
        return w.omega, p_values(panel, effects, cov, w, variant)

    guarded(h_pwrd, pwrd)
    guarded(h_flat, flat)


def with_covariate(panel, x, outcome):
    """``panel`` with ``outcome`` and the one covariate x, on the panel's
    group layout and design tier."""
    return PanelDataset(
        unit=panel.unit, cluster=panel.cluster, treatment=panel.treatment,
        cohort=panel.cohort, grade=panel.grade, year=panel.year,
        outcome=outcome, tested_in=panel.tested_in,
        covariates={"x": x}, validate=False,
        _layout=(panel.catalog, panel.group_ids), _design=panel.design_tier,
    )


def peters_belson_fit(h, panel, variant) -> None:
    def fit():
        effects = estimate_effects_peters_belson(panel, covariates=("x",))
        cov = cluster_covariance(panel, effects, variant=variant)
        p0 = estimate_p0(panel).on_groups(effects.groups)
        out = [effects.estimates, effects.method, cov.sigma_hat, p0.p_hat]
        for w in (pwrd_weights(cov, p0), flat_weights(effects)):
            out += [w.omega, p_values(panel, effects, cov, w, variant)]
        return out

    guarded(h, fit)


def analyzed(h, panels) -> None:
    """One ``_analyze_panels`` list of ``panels`` under each of PB_ANALYSES."""
    for variant, df_rule in PB_ANALYSES:
        feed(h, [variant, df_rule])
        for found in _analyze_panels(panels, PB_METHODS, variant, df_rule, covariates=("x",)):
            if isinstance(found, PwrdError):
                feed(h, f"{type(found).__name__}: {found}")
                continue
            for method, (p, computed) in found.items():
                if method == "exit":
                    feed(h, [method, p, computed])
                    continue
                effects, cov, p0, w, test = computed
                feed(h, [method, p, effects.estimates, effects.method, effects.group_ordinals(),
                         cov.sigma_hat, p0.p_hat, w.omega, test])


def mixed_fit(panel, covariates, variant):
    fit = fit_random_intercept(panel, covariates=covariates, variant=variant)
    return fit, fit.p_value("greater")


def exit_fit(panel, variant):
    ex = exit_observation_estimate(panel, variant=variant)
    return ex, ex.p_value("greater")


def power_run(sc, reps: int, variant: str, df_rule: str, workers: int) -> Line:
    """One ``estimate_power`` run's cells and failures, fed to a line."""
    h = Line()

    def run():
        res = estimate_power(
            sc, methods=METHODS, effect_levels=LEVELS, n_reps=reps,
            cov_variant=variant, df_rule=df_rule, workers=workers,
        )
        return res.cells, res.failures

    guarded(h, run)
    return h


def power_digest(sc, reps: int) -> Line:
    h = Line()
    for variant in VARIANTS:
        for df_rule in DF_RULES:
            serial, pooled = (power_run(sc, reps, variant, df_rule, w) for w in (1, 2))
            if serial.h.digest() != pooled.h.digest():
                raise SystemExit(f"power: 1 and 2 workers differ under {variant}, {df_rule}")
            feed(h, [variant, df_rule])
            h.update(serial.h.digest())
            h.record(serial.numbers())
    return h


def cli_json(h, argv) -> None:
    """Add the JSON that ``pwrd argv`` prints, less its manifest, or its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    payload = json.loads(out.getvalue()) if code == 0 else {"exit": code}
    payload.pop("manifest", None)
    h.update(json.dumps(payload, sort_keys=True).encode())
    h.record(json_numbers(payload))


def write_analyze_panel(path: str) -> None:
    """The panel the ``analyze`` and ``ingest`` lines read, written by ``pwrd simulate``."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["simulate", "--effect", "effect1", "--tau", "5.5", "--out", path])


def analyze_digest() -> Line:
    h = Line()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "panel.csv")
        write_analyze_panel(path)
        for flags in ANALYZE_FLAGS:
            feed(h, list(flags))
            cli_json(h, ["analyze", path, "--json", *flags])
    return h


def ingest_digest() -> Line:
    h = Line()
    with tempfile.TemporaryDirectory() as work:
        path, shuffled, schema = (
            os.path.join(work, name) for name in ("panel.csv", "shuffled.csv", "schema.json")
        )
        write_analyze_panel(path)
        with open(path) as fh:
            header, *rows = fh.readlines()
        order = np.random.default_rng(INGEST_SEED).permutation(len(rows))
        with open(shuffled, "w") as fh:
            fh.writelines([header, *(rows[i] for i in order)])
        columns = {c: c for c in LOGICAL_COLUMNS if c != "tested_in"}
        with open(schema, "w") as fh:
            json.dump({"columns": columns, "tested_in_rule": INGEST_RULE}, fh)
        for source, schema_flags in (("tested_in", ()), ("tested_in_rule", ("--schema", schema))):
            for flags in INGEST_FLAGS:
                feed(h, [source, list(flags)])
                cli_json(h, ["analyze", shuffled, "--json", *schema_flags, *flags])
    return h


def weights_digest() -> Line:
    h = Line()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "summary.json")
        for spread, flags in WEIGHTS_RUNS:
            with open(path, "w") as fh:
                json.dump({**README_SUMMARY, **spread}, fh)
            feed(h, [sorted(spread), list(flags)])
            cli_json(h, ["weights", path, *flags])
    return h


def tails_digest() -> Line:
    h = Line()
    for df in TAIL_DFS:
        for t in TAIL_TS:
            feed(h, [t_p_value(t, df, alternative).hex() for alternative in ALTERNATIVES])
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    rng = np.random.default_rng(20260822)
    for i in range(500):
        sigma, p0 = oracles.random_problem(rng, 2 + i % 4)
        guarded(h, lambda: [v.hex() for v in pwrd_weights(sigma, p0).omega.tolist()])
    return h


def calibrate_digest() -> Line:
    h = Line()
    for name, build in PRESETS.items():
        for icc in CALIBRATE_ICCS:
            sc = build(icc=icc)
            feed(h, [name, icc, sc.sigma2_mu.hex(), sc.sigma2_eps.hex()])
            feed(h, [(g, v.hex()) for g, v in sc.thresholds])
    try:
        default_scenario(icc=0.05)
        feed(h, "converged")
    except NumericalError as exc:
        feed(h, str(exc))
    return h


def simulate_digest() -> Line:
    h = Line()
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "panel.csv")
        for preset in PRESETS:
            for flags in SIMULATE_FLAGS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(["simulate", "--preset", preset, *flags, "--out", path])
                feed(h, [preset, list(flags), code])
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |a - b| / max(|a|, |b|) over entries that differ; inf
    where only one is NaN, and 0 where nothing differs."""
    with np.errstate(invalid="ignore", divide="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(np.isnan(rel), np.inf, rel)
    return float(rel[~same].max()) if (~same).any() else 0.0


def compare(lines: dict, path: str) -> None:
    """Each line's digest and numbers against those ``--dump`` saved at ``path``."""
    saved = np.load(path)
    for name, line in lines.items():
        if f"{name}.sha256" not in saved:
            print(f"{name:<10} not in {path}")
            continue
        if str(saved[f"{name}.sha256"]) == line.hexdigest():
            print(f"{name:<10} matches")
            continue
        old, new = saved[name], line.numbers()
        if old.shape != new.shape:
            print(f"{name:<10} moved: {new.size} numbers against {old.size}")
        else:
            print(f"{name:<10} moved: largest relative difference "
                  f"{relative_difference(old, new):.3g} over {new.size} numbers")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=200, help="replicates per effect level")
    ap.add_argument("--dump", metavar="FILE", help="save each line's digest and numbers (np.savez)")
    ap.add_argument("--against", metavar="FILE", help="compare each line with a --dump file")
    args = ap.parse_args()

    sc = default_scenario(EffectSpec("effect1", tau=5.5))
    lines = {name: Line() for name in ("pwrd", "flat", "mixed", "exit", "peters-belson")}
    adjusted = []
    for r in range(args.reps):
        base = generate_panel(sc, r)
        for level in LEVELS:
            panel = apply_effect(base, sc.effect.with_level(level), r)
            x = np.random.default_rng([sc.seed, r, 7]).normal(size=panel.n_clusters)[panel.cluster]
            adjusted.append(with_covariate(panel, x, panel.outcome + PB_COEF * x))
            x = 2e4 + np.random.default_rng([sc.seed, r, 8]).normal(size=panel.n_obs)
            row_adjusted = with_covariate(adjusted[-1], x, adjusted[-1].outcome)
            for variant in VARIANTS:
                group_line(lines["pwrd"], lines["flat"], panel, variant)
                for covariates in MIXED_COVARIATES:
                    guarded(lines["mixed"], lambda: mixed_fit(panel, covariates, variant))
                for fitted in (adjusted[-1], row_adjusted):
                    guarded(lines["mixed"], lambda: mixed_fit(fitted, ("x",), variant))
                guarded(lines["exit"], lambda: exit_fit(panel, variant))
                peters_belson_fit(lines["peters-belson"], adjusted[-1], variant)
    analyzed(lines["peters-belson"], adjusted)
    for name, h in lines.items():
        print(f"{name:<8} {h.hexdigest()}")
    for name, digest in (
        ("power", lambda: power_digest(sc, args.reps)),
        ("analyze", analyze_digest),
        ("ingest", ingest_digest),
        ("weights", weights_digest),
        ("tails", tails_digest),
        ("calibrate", calibrate_digest),
        ("simulate", simulate_digest),
    ):
        lines[name] = digest()
        print(f"{name:<8} {lines[name].hexdigest()}")
    if args.dump:
        saved = {name: line.numbers() for name, line in lines.items()}
        saved.update({f"{name}.sha256": np.array(line.hexdigest()) for name, line in lines.items()})
        np.savez(args.dump, **saved)
    if args.against:
        compare(lines, args.against)


if __name__ == "__main__":
    main()
