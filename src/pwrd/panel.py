"""Observation-level data model for longitudinal cluster randomized panels.

A panel holds unit-year records from a trial in which whole clusters
(schools, hospitals, counties) were assigned to one of two arms. Units enter
in cohorts, possibly at different grades within a cohort, and contribute one
record per year of follow-up. Records are partitioned into cohort-year
groups: units that entered in the same cohort at the same grade, observed in
the same follow-up year. Downstream estimation operates on these groups.

The group catalog is a static layout (``group_layout``): each group's key
and row count, which the design fixes. Panels that share a design, such
as the replicates of one simulated scenario, share one catalog object.
``group_rows`` is the package's one group-by: the catalog, the mixed
fit's records, validation's row checks, flag persistence
(``persist_flags``), each unit's exit row (``PanelDataset.exit_mask``) and
the cutoff lookup (``grade_cutoffs``) of simulated and ingested flags use
it. ``simulate.generate_panel`` persists its flags on its own: its frame
holds each unit's years side by side, so an in-place OR along them takes
about a third of the time of numbering the units, in a stage that runs
once per replicate.

Everything else a panel's estimators read is computed once, on first use,
at the tier that fixes it:

* the design tier (``design_tier``), keyed on the rows' units, clusters,
  grades, years and groups: the (cluster, group) cell key and row counts
  ``m``, the columns of ``m`` of each set of kept groups, each unit's exit
  row and its cluster, and the random-intercept fit's record layout when
  its covariates are design columns (``DESIGN_COVARIATES``). The
  replicates of one simulated scenario share it; any other panel builds its
  own, so a panel that shares only the catalog (relabeled clusters, say)
  never reads another layout's counts. Tables and fits whose layout is one
  object stack across replicates (``CellStack``,
  ``mixed.fits_random_intercept``).
* the assignment tier (``assignment_tier``), keyed on the design plus the
  arms and the test-in flags: the cell table's counts without its sums
  (``cell_counts``) with their per-(arm, group) totals (``CellTable.n``),
  the kept groups, p0, the exit table's counts, and
  the fit's design matrix, its between-cluster columns and, when a schema
  covariate is named, its record layout. Panels that differ only in their
  outcome (``with_outcome``) share it.
* the outcome tier, the panel itself: the outcome sums of the cell table
  (``cells``), computed on first read.

Integer counts are exact in any summation order, so they are summed
without the sort that keeps outcome sums invariant to cluster relabeling.

Panels are immutable once constructed. Derived views (``with_outcome``)
share column arrays with their parent rather than copying.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, NoReturn, TypeVar

import numpy as np

from .errors import InputError

# Logical column names understood by schemas and by the CSV round trip.
LOGICAL_COLUMNS = (
    "unit",
    "cluster",
    "block",
    "treatment",
    "cohort",
    "grade",
    "year",
    "outcome",
    "tested_in",
)
REQUIRED_COLUMNS = ("unit", "cluster", "treatment", "cohort", "grade", "year", "outcome")
# Covariate names of the columns the design fixes, and the panel attribute
# of each; any other covariate is a schema column.
DESIGN_COVARIATES = {"grade": "grade", "cohort": "cohort", "follow_up_year": "year"}

_MAX_REPORTED_ROWS = 8

_T = TypeVar("_T")


class Tier:
    """Values fixed by one tier of a panel (its design or its assignment),
    by a cell table's counts or by the mixed fit's record layout, each
    computed once, on first use, and shared by everything that tier serves.

    ``get(name, build)`` returns the value stored under ``name``, storing
    ``build()`` there first if there is none. A build that raises stores
    nothing. Shared arrays are made read-only.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict = {}

    def get(self, name, build: Callable[[], _T]) -> _T:
        try:
            return self.values[name]
        except KeyError:
            value = build()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self.values[name] = value
            return value


@dataclass(frozen=True)
class GroupInfo:
    """Catalog entry for one cohort-year group: its key and its row count,
    both fixed by the design, not by the assignment."""

    g: int
    cohort: int
    entry_grade: int
    follow_up_year: int
    n: int


@dataclass(frozen=True)
class ThresholdRule:
    """Per-grade cutoff rule used to derive test-in flags at ingestion.

    A unit tests in the first year its score falls below the cutoff for its
    grade; the flag persists for all later years.
    """

    score_column: str
    cutoffs: Mapping[int, float]


def load_json_object(source: str | os.PathLike | io.TextIOBase, what: str) -> dict:
    """A JSON object from a path (past any UTF-8 byte-order mark) or a text
    stream; one that cannot be read or holds anything else is an ``InputError`` naming it."""
    path = isinstance(source, (str, os.PathLike))
    name = os.fspath(source) if path else "input"
    try:
        if path:
            with open(source, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        else:
            raw = json.load(source)
    except OSError as exc:
        raise InputError(f"cannot read {what} {name}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"{what} {name} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{what} {name} must be a JSON object, not {type(raw).__name__}")
    return raw


@dataclass(frozen=True)
class PanelSchema:
    """Mapping from logical column names to physical column names.

    ``columns`` maps logical names (see ``LOGICAL_COLUMNS``) to the names
    that actually appear in the source. ``covariates`` lists physical
    columns carried along as numeric covariates. ``tested_in_rule``
    optionally derives test-in flags when no flag column exists.
    """

    columns: Mapping[str, str]
    covariates: tuple[str, ...] = ()
    tested_in_rule: ThresholdRule | None = None

    def __post_init__(self) -> None:
        unknown = set(self.columns) - set(LOGICAL_COLUMNS)
        if unknown:
            raise InputError(f"unknown logical columns in schema: {sorted(unknown)}")
        missing = [c for c in REQUIRED_COLUMNS if c not in self.columns]
        if missing:
            raise InputError(f"schema missing required logical columns: {missing}")
        score = [self.tested_in_rule.score_column] if self.tested_in_rule is not None else []
        if not all(isinstance(name, str) for name in [*self.columns.values(), *score]):
            raise InputError("schema column names must be strings")

    @classmethod
    def from_json(cls, source: str | os.PathLike | io.TextIOBase) -> "PanelSchema":
        raw = load_json_object(source, "schema")
        rule = None
        if "tested_in_rule" in raw and raw["tested_in_rule"] is not None:
            spec = raw["tested_in_rule"]
            try:
                cutoffs = {int(k): float(v) for k, v in spec["cutoffs"].items()}
                rule = ThresholdRule(score_column=spec["score_column"], cutoffs=cutoffs)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"malformed tested_in_rule in schema: {exc}") from exc
        covariates = raw.get("covariates", [])
        if not isinstance(covariates, list) or not all(isinstance(c, str) for c in covariates):
            raise InputError("schema field 'covariates' must be a list of column names")
        try:
            columns = dict(raw["columns"])
        except KeyError as exc:
            raise InputError(f"malformed schema: {exc}") from exc
        except (TypeError, ValueError) as exc:  # not a mapping, nor a list of pairs
            raise InputError(
                f"schema field 'columns' must map logical to physical column names: {exc}"
            ) from exc
        return cls(columns=columns, covariates=tuple(covariates), tested_in_rule=rule)


@dataclass(frozen=True)
class IngestReport:
    """What ingestion dropped or derived, for the caller's records."""

    n_read: int
    n_kept: int
    dropped_rows: tuple[tuple[int, str], ...] = ()
    derived_tested_in: bool = False


@dataclass(frozen=True, eq=False)
class CellTable:
    """Per (cluster, group) sums over a panel's rows, shape (C, G) each.

    ``m`` counts rows, ``s`` sums the values (the outcome, in a panel's own
    table) and ``f`` counts flagged rows, or is None without flags. ``z``
    is each cluster's arm; treatment is constant within a cluster, so each
    (cluster, group) cell lies in exactly one (arm, group) cell.

    A table of counts only, as an assignment tier holds, has ``s`` None;
    ``with_sums`` gives it sums. ``counts`` holds what ``m`` and ``z`` fix,
    such as ``n``, and is shared by every table made from it. ``means`` and
    ``mean_square`` are those of the last ``CellStack`` that held this
    table, or of a stack of this one table; every stack computes the same
    values for it.
    """

    m: np.ndarray
    s: np.ndarray | None
    f: np.ndarray | None
    z: np.ndarray
    counts: Tier = field(default_factory=Tier, repr=False)

    def with_sums(self, s: np.ndarray) -> CellTable:
        """This table's counts with the sums ``s``."""
        return CellTable(self.m, s, self.f, self.z, self.counts)

    @property
    def n(self) -> np.ndarray:
        """Row counts per (arm, column), shape (2, K): the arm totals of ``m``."""
        return self.counts.get("n", lambda: arm_counts(self.m, self.z))

    @cached_property
    def means(self) -> np.ndarray:
        """Per (arm, column) means of the values, shape (2, K); read only
        once every (arm, column) cell has rows."""
        return CellStack((self,)).means[0]

    @cached_property
    def mean_square(self) -> float:
        """Count-weighted mean square of the (arm, column) means: at most the values'."""
        return float(CellStack((self,)).mean_square[0])


class CellStack:
    """Cell tables of one counts layout, their arrays stacked on a leading
    replicate axis: ``z`` (R, C), ``s`` (R, C, K), ``n`` and ``means``
    (R, 2, K), the treated-minus-control ``contrasts`` of the means (R, K),
    and ``mean_square`` (R,).

    The tables share ``m`` (taken from the first) and have the same number
    of control clusters; every (arm, column) cell has rows. The stack
    computes its ``means`` and ``mean_square`` and stores each table's on
    that table. An overflowed sum gives non-finite means, which the tests refuse
    (``weights.check_test_variance``), so numpy does not warn of it.
    """

    def __init__(self, tables) -> None:
        self.tables = tuple(tables)
        self.m = self.tables[0].m
        self.z = np.stack([t.z for t in self.tables])
        self.s = np.stack([t.s for t in self.tables])
        self.n = np.stack([t.n for t in self.tables])
        n = self.n
        with np.errstate(over="ignore", invalid="ignore"):
            self.means = arm_totals(self.s, self.z) / n
            self.mean_square = (n * self.means**2).sum(axis=(1, 2)) / n.sum(axis=(1, 2))
            self.contrasts = self.means[:, 1] - self.means[:, 0]
        for t, mean, ms in zip(self.tables, self.means, self.mean_square.tolist()):
            vars(t).update(means=mean, mean_square=ms)


def arm_totals(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Column totals per arm of stacked (C, K) cell arrays, ``x`` (R, C, K)
    with arms ``z`` (R, C), shape (R, 2, K). Every row of ``z`` has the
    same number of control clusters.

    Each arm's entries are sorted before summing, so the totals are
    bit-for-bit the same however the clusters are numbered.
    """
    arms = (x[z == arm].reshape(len(x), -1, x.shape[2]) for arm in (0, 1))
    return np.stack([np.sort(a, axis=1).sum(axis=1) for a in arms], axis=1)


def arm_counts(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Column totals per arm of a (C, K) array of integer counts, shape
    (2, K), as one product with the arm indicators: integers below 2**53
    add exactly in any order, so no sort is needed."""
    return np.array([z == 0, z == 1], dtype=np.float64) @ x


def group_rows(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group (int64), numbered in lexicographic order of the rows'
    ``keys`` tuples, and each group's lowest row index, from one stable
    ``np.lexsort``. Keys compare as numpy compares them: -0.0 equals 0.0."""
    order = np.lexsort(keys[::-1])
    new = np.ones(len(order), dtype=bool)
    ranked = [key[order] for key in keys]
    new[1:] = np.any([r[1:] != r[:-1] for r in ranked], axis=0)
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes, order[new]


def grade_cutoffs(cutoffs: Mapping[int, float], grade: np.ndarray, lacking: str) -> np.ndarray:
    """The cutoff of each entry of ``grade``, each distinct grade looked up
    once (``group_rows``); grades without one are an ``InputError``: the
    text ``lacking``, then their sorted list."""
    codes, first = group_rows(grade)
    grades = grade[first].tolist()
    missing = [g for g in grades if g not in cutoffs]
    if missing:
        raise InputError(f"{lacking} {missing}")
    return np.asarray([cutoffs[g] for g in grades], dtype=np.float64)[codes]


def group_layout(
    cohort: np.ndarray, grade: np.ndarray, year: np.ndarray
) -> tuple[tuple[GroupInfo, ...], np.ndarray]:
    """The group catalog of these rows and each row's group ordinal.

    One group per observed (cohort, entry grade, follow-up year), where
    entry grade = grade - (follow_up_year - 1), in lexicographic key order.
    """
    entry = grade - (year - 1)
    group, first = group_rows(cohort, entry, year)
    counts = np.bincount(group, minlength=len(first)).tolist()
    keys = zip(cohort[first].tolist(), entry[first].tolist(), year[first].tolist(), counts)
    return tuple(GroupInfo(g, *key) for g, key in enumerate(keys)), group


def persist_flags(raw: np.ndarray, unit: np.ndarray, year: np.ndarray) -> np.ndarray:
    """Carry a 0/1 flag forward in time within each unit.

    Once a unit's raw flag is 1 in some year, the returned flag is 1 for
    that year and every later year of the same unit. So the rows of a
    repeated (unit, year) pair, which validation refuses, all read 1 from
    the unit's first flagged year on, whatever their order.
    """
    flagged, year = np.asarray(raw) != 0, np.asarray(year)
    return _persisted(flagged, group_rows(unit), year).astype(np.int8)


def _persisted(
    flagged: np.ndarray, units: tuple[np.ndarray, np.ndarray], year: np.ndarray
) -> np.ndarray:
    """Whether each row's year is at or after the first ``flagged`` year of
    its unit, the units numbered by ``group_rows``."""
    codes, first = units
    at = codes[flagged]
    earliest = np.full(len(first), year.max(initial=0))  # at or above every year
    np.minimum.at(earliest, at, year[flagged])
    ever = np.zeros(len(first), dtype=bool)
    ever[at] = True
    return ever[codes] & (year >= earliest[codes])


def _fail_rows(rows: np.ndarray, mask: np.ndarray, what: str) -> NoReturn:
    """Raise InputError naming the first rows where ``mask`` holds."""
    bad = rows[mask][:_MAX_REPORTED_ROWS].tolist()
    more = int(mask.sum()) - len(bad)
    suffix = f" (+{more} more)" if more > 0 else ""
    raise InputError(f"{what}: rows {bad}{suffix}")


def _validate_arrays(
    *,
    unit: np.ndarray,
    cluster: np.ndarray,
    treatment: np.ndarray,
    year: np.ndarray,
    outcome: np.ndarray,
    tested_in: np.ndarray | None,
    block: np.ndarray | None,
    row_numbers: np.ndarray | None = None,
) -> None:
    """Raise InputError naming offending rows when an invariant fails."""
    rows = row_numbers if row_numbers is not None else np.arange(len(unit))
    dup = _differs_from_first(group_rows(unit, year), np.arange(len(unit)))  # a pair's later rows
    by_cluster, by_unit = group_rows(cluster), group_rows(unit)
    checks = [(unit < 0, "negative unit code"), (cluster < 0, "negative cluster code")]
    if block is not None:
        checks.append((block < 0, "negative block code"))
    checks += [
        (~np.isin(treatment, (0, 1)), "non-binary treatment"),
        (year < 1, "follow_up_year below 1"),
        (~np.isfinite(outcome), "non-finite outcome"),
    ]
    if tested_in is not None:
        checks.append((~np.isin(tested_in, (0, 1)), "non-binary tested_in flag"))
    checks += [
        (dup, "duplicate (unit, follow_up_year) pair"),
        (_differs_from_first(by_cluster, treatment), "treatment varies within a cluster"),
    ]
    if block is not None:
        checks.append((_differs_from_first(by_cluster, block), "block varies within a cluster"))
    checks.append((_differs_from_first(by_unit, cluster), "unit appears in more than one cluster"))
    if tested_in is not None:
        drops = _persisted(tested_in != 0, by_unit, year) != tested_in
        checks.append((drops, "tested_in flag drops back to 0 within a unit"))
    for bad, what in checks:  # the first failing check names its rows
        if bad.any():
            _fail_rows(rows, bad, what)
    beyond = cluster[cluster >= len(cluster)]  # C codes need C rows; before bincount sizes by them
    if beyond.size:
        raise InputError(
            f"cluster codes must run from 0 to C - 1; code {int(beyond.max())} "
            f"is not below the row count {len(cluster)}"
        )
    skipped = np.flatnonzero(np.bincount(cluster) == 0)
    if skipped.size:
        raise InputError(
            f"cluster codes must run from 0 to C - 1; missing codes {skipped.tolist()}"
        )


def _refuse_non_integral(**columns) -> None:
    """Raise InputError naming the rows of an integer column that hold a
    non-integral or non-finite float; a column that is not float passes."""
    for name, values in columns.items():
        values = np.asarray(values)
        if values.dtype.kind == "f":
            bad = ~np.isfinite(values) | (values != np.trunc(values))
            if bad.any():
                _fail_rows(np.arange(len(values)), bad, f"non-integral value in column '{name}'")


def _differs_from_first(groups: tuple[np.ndarray, np.ndarray], value: np.ndarray) -> np.ndarray:
    """Rows whose value differs from that of their group's first row (``group_rows``)."""
    codes, first = groups
    return value != value[first][codes]


class PanelDataset:
    """Immutable column store for one panel plus its group catalog.

    Rows are indexed 0..n-1. Units and clusters are held as contiguous
    integer codes; original labels, when known, live in ``unit_labels`` and
    ``cluster_labels`` (arrays indexed by code). The group catalog and
    each row's group ordinal come from ``group_layout`` at construction,
    or are taken as given from ``_layout`` when the caller already holds
    the layout of the same design. ``_design`` is the design tier of a
    panel with the same units, clusters, grades, years and groups; a
    panel given none starts its own.
    """

    def __init__(
        self,
        *,
        unit: np.ndarray,
        cluster: np.ndarray,
        treatment: np.ndarray,
        cohort: np.ndarray,
        grade: np.ndarray,
        year: np.ndarray,
        outcome: np.ndarray,
        tested_in: np.ndarray | None = None,
        block: np.ndarray | None = None,
        covariates: Mapping[str, np.ndarray] | None = None,
        unit_labels: np.ndarray | None = None,
        cluster_labels: np.ndarray | None = None,
        block_labels: np.ndarray | None = None,
        meta: Mapping | None = None,
        validate: bool = True,
        _layout: tuple[tuple[GroupInfo, ...], np.ndarray] | None = None,
        _design: Tier | None = None,
    ) -> None:
        if validate:  # before the integer casts below truncate a value
            _refuse_non_integral(
                unit=unit, cluster=cluster, treatment=treatment, cohort=cohort, grade=grade,
                year=year, tested_in=tested_in, block=block,
            )
        self.unit = np.asarray(unit, dtype=np.int64)
        self.cluster = np.asarray(cluster, dtype=np.int64)
        self.treatment = np.asarray(treatment, dtype=np.int8)
        self.cohort = np.asarray(cohort, dtype=np.int64)
        self.grade = np.asarray(grade, dtype=np.int64)
        self.year = np.asarray(year, dtype=np.int64)
        self.outcome = np.asarray(outcome, dtype=np.float64)
        self.tested_in = None if tested_in is None else np.asarray(tested_in, dtype=np.int8)
        self.block = None if block is None else np.asarray(block, dtype=np.int64)
        self.covariates = {k: np.asarray(v, dtype=np.float64) for k, v in (covariates or {}).items()}
        self.unit_labels = unit_labels
        self.cluster_labels = cluster_labels
        self.block_labels = block_labels
        self.meta = dict(meta) if meta else {}

        n = len(self.unit)
        for name, col in (
            ("cluster", self.cluster),
            ("treatment", self.treatment),
            ("cohort", self.cohort),
            ("grade", self.grade),
            ("year", self.year),
            ("outcome", self.outcome),
        ):
            if len(col) != n:
                raise InputError(f"column '{name}' has length {len(col)}, expected {n}")
        if self.tested_in is not None and len(self.tested_in) != n:
            raise InputError("tested_in column length mismatch")
        for name, col in self.covariates.items():
            if len(col) != n:
                raise InputError(f"covariate '{name}' length mismatch")
            if not np.isfinite(col).all():
                raise InputError(f"covariate '{name}' contains non-finite values")

        if validate:
            # the flags as given: the int8 cast would wrap 256 to 0
            _validate_arrays(
                unit=self.unit,
                cluster=self.cluster,
                treatment=np.asarray(treatment, dtype=np.int64),
                year=self.year,
                outcome=self.outcome,
                tested_in=None if tested_in is None else np.asarray(tested_in, dtype=np.int64),
                block=self.block,
            )

        self.n_clusters = int(self.cluster.max()) + 1 if n else 0
        self.z_by_cluster = np.zeros(self.n_clusters, dtype=np.int8)
        if n:
            self.z_by_cluster[self.cluster] = self.treatment

        if _layout is None:
            _layout = group_layout(self.cohort, self.grade, self.year)
        self.catalog, self.group_ids = _layout
        self.design_tier = _design if _design is not None else Tier()
        self.assignment_tier = Tier()

    # ------------------------------------------------------------------

    @property
    def n_obs(self) -> int:
        return len(self.unit)

    @property
    def n_groups(self) -> int:
        return len(self.catalog)

    def column(self, name: str) -> np.ndarray:
        """Numeric column by name, covering design columns and covariates."""
        if name in DESIGN_COVARIATES:
            return getattr(self, DESIGN_COVARIATES[name]).astype(np.float64)
        if name in self.covariates:
            return self.covariates[name]
        raise InputError(f"unknown covariate column '{name}'")

    def columns(self, names: tuple[str, ...]) -> list[np.ndarray]:
        """The ``column`` of each name, as every estimator reads its covariate
        list; a repeated name is refused, as its copy adds only collinearity."""
        for name in names:
            if names.count(name) > 1:
                raise InputError(f"covariate '{name}' is named more than once")
        return [self.column(name) for name in names]

    @cached_property
    def cells(self) -> CellTable:
        """The panel's (cluster, group) cell table, built on first use: the
        outcome sums of ``cell_counts``."""
        key, m = self.cell_layout
        s = np.bincount(key, weights=self.outcome, minlength=m.size).reshape(m.shape)
        return self.cell_counts.with_sums(s)

    @property
    def cell_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's (cluster, group) cell key and the rows per cell, (C, G),
        from the design tier."""
        return self.design_tier.get("cell layout", self._cell_layout)

    @property
    def cell_counts(self) -> CellTable:
        """The row and flag counts of ``cells``, without sums, from the
        assignment tier."""
        return self.assignment_tier.get("cell counts", self._count_table)

    def _cell_layout(self) -> tuple[np.ndarray, np.ndarray]:
        shape = (self.n_clusters, self.n_groups)
        key = self.cluster * self.n_groups + self.group_ids
        m = np.bincount(key, minlength=shape[0] * shape[1]).astype(np.float64).reshape(shape)
        return key, m

    def _count_table(self) -> CellTable:
        key, m = self.cell_layout
        f = None
        if self.tested_in is not None:
            f = np.bincount(key, weights=self.tested_in, minlength=m.size).reshape(m.shape)
            f.flags.writeable = False
        return CellTable(m, None, f, self.z_by_cluster)

    def with_outcome(self, outcome: np.ndarray) -> "PanelDataset":
        """Copy of this panel with a replaced outcome column.

        All other columns, the catalog and the design and assignment tiers
        are shared, not copied.
        """
        outcome = np.asarray(outcome, dtype=np.float64)
        if outcome.shape != self.outcome.shape:
            raise InputError("replacement outcome has wrong shape")
        new = object.__new__(PanelDataset)
        new.__dict__.update(self.__dict__)
        new.__dict__.pop("cells", None)  # the cached table sums the old outcome
        new.outcome = outcome
        new.meta = dict(self.meta)
        return new

    def exit_mask(self) -> np.ndarray:
        """Boolean mask selecting each unit's exit observation, its last
        follow-up year."""
        codes, first = group_rows(self.unit)
        last_year = self.year[first]
        np.maximum.at(last_year, codes, self.year)
        return self.year == last_year[codes]

    # ------------------------------------------------------------------

    def to_csv(self, destination: str | os.PathLike | io.TextIOBase) -> None:
        """Write the panel using canonical logical column names, one whole
        column at a time; floats print as their repr."""
        columns = [
            ("unit", _label_text(self.unit, self.unit_labels, "u", 7)),
            ("cluster", _label_text(self.cluster, self.cluster_labels, "c", 4)),
        ]
        if self.block is not None:
            columns.append(("block", _label_text(self.block, self.block_labels, "b", 4)))
        columns += [
            (name, getattr(self, name).tolist())
            for name in ("treatment", "cohort", "grade", "year", "outcome")
        ]
        if self.tested_in is not None:
            columns.append(("tested_in", self.tested_in.tolist()))
        columns += [(name, col.tolist()) for name, col in self.covariates.items()]

        own = isinstance(destination, (str, os.PathLike))
        fh = open(destination, "w", newline="", encoding="utf-8") if own else destination
        try:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([name for name, _ in columns])
            writer.writerows(zip(*(col for _, col in columns)))
        finally:
            if own:
                fh.close()


def _label_text(codes: np.ndarray, labels: np.ndarray | None, prefix: str, width: int) -> list:
    """Each code's label, or the code zero-padded behind ``prefix``."""
    if labels is not None:
        return labels[codes].tolist()
    return list(map(f"{prefix}%0{width}d".__mod__, codes.tolist()))


IDENTITY_SCHEMA = PanelSchema(columns={c: c for c in LOGICAL_COLUMNS})


_CHUNK_ROWS = 4096  # lines read per step (rows, past a hand-off); it bounds the text held


def ingest_panel(
    source: str | os.PathLike | io.TextIOBase, schema: PanelSchema = IDENTITY_SCHEMA
) -> PanelDataset:
    """Read a CSV file or text stream into a PanelDataset.

    Lines are read in chunks, tokenized (see ``_csv_chunks`` for which text
    is split on commas and which goes through ``csv.reader``) and converted
    a whole column at a time. Rows that fail type coercion raise
    ``InputError`` naming the row. Rows with a missing outcome are dropped
    and recorded in the panel's ``ingest_report``. When the schema maps no
    ``tested_in`` column but provides a threshold rule, flags are derived
    from the designated score column with persistence across years. A file
    may begin with a UTF-8 byte-order mark; it is not part of the header.
    """
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
        try:
            fh = open(source, "r", newline="", encoding="utf-8-sig")
        except OSError as exc:
            raise InputError(f"cannot read panel {name}: {exc.strerror}") from exc
        with fh:
            return _ingest_chunks(_csv_chunks(fh, name), schema)
    return _ingest_chunks(_csv_chunks(source, "input"), schema)


def _csv_chunks(fh: io.TextIOBase, name: str) -> Iterator:
    """The header row (None for empty text), then the nonblank rows in
    chunks, each as (row count, columns); a short row's missing fields are
    None. Undecodable or unparsable text is an InputError, raised after the
    rows before it and naming the line ``csv.DictReader`` names.

    Lines are read ``_CHUNK_ROWS`` at a time, the header's line alone. A
    chunk is plain when it holds no quote or carriage return
    (``_NOT_PLAIN``), no line longer than ``csv.field_size_limit()``, no
    blank line, and, past the header, only lines of the header's width:
    ``csv.reader`` would read each line as the line split on commas, so the
    chunk is split on commas at once. At the first chunk that is not plain,
    ``csv.reader`` takes over and reads to the end of the text (the
    hand-off), since it alone reads quoted fields, which may span lines,
    CRLF line ends, and blank, short and long rows. ``PanelDataset.to_csv``
    output whose labels hold no comma or quote is plain throughout.
    """
    limit, lines = csv.field_size_limit(), iter(fh)
    header, consumed, error = None, 0, None
    chunk, undecodable = _read_lines(lines, 1)
    while chunk and _is_plain(text := "".join(chunk), chunk, limit, header):
        n = len(chunk)
        if header is None:  # the header's line
            header = next(csv.reader(chunk))
            yield header
        else:
            flat, width = text.replace("\n", ",").split(","), len(header)
            yield n, [flat[k : n * width : width] for k in range(width)]
        consumed += n
        if undecodable is not None:
            break
        chunk, undecodable = _read_lines(lines, _CHUNK_ROWS)
    else:  # csv.reader reads this chunk and the rest, numbering lines on from `consumed`
        rest = lines if undecodable is None else _raising(undecodable)  # where the reader meets it
        reader, rows, undecodable = csv.reader(itertools.chain(chunk, rest)), [], None
        line, blank = consumed, False
        try:
            if not consumed:
                header = next(reader, None)
                line = reader.line_num
                yield header
            for row in reader:
                line = consumed + reader.line_num if row or not blank else line
                blank = not row
                if row:
                    rows.append(row)
                if len(rows) == _CHUNK_ROWS:
                    yield _columns(rows, len(header))
                    rows = []
        except UnicodeDecodeError as exc:
            undecodable = exc
        except csv.Error as exc:
            error = InputError(f"panel {name}, line {line}: {exc}")
        yield from [_columns(rows, len(header))] if rows else []
    if undecodable is not None:
        error = InputError(f"panel {name} is not UTF-8 text: {undecodable.reason}")
    if error is not None:
        raise error


def _read_lines(lines: Iterator[str], n: int) -> tuple[list[str], UnicodeDecodeError | None]:
    """Up to ``n`` more lines, and the decoding error that cut them short, if any."""
    chunk: list[str] = []
    try:
        chunk += itertools.islice(lines, n)
    except UnicodeDecodeError as exc:
        return chunk, exc
    return chunk, None


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator that raises ``exc`` when first read."""
    raise exc
    yield  # makes this a generator, so the raise waits for the first read


# Characters csv.reader may read otherwise than a comma split would:
# quotes, a record end, and a NUL, which it refuses before Python 3.11.
# Text holding one goes to csv.reader on every version.
_NOT_PLAIN = ('"', "\r", "\0")


def _is_plain(text: str, chunk: list[str], limit: int, header: list | None) -> bool:
    """Whether ``csv.reader`` reads each line of ``chunk`` (joined, ``text``)
    as the line split on commas into as many fields as ``header`` has (any
    number for the header's own line), and no line is blank."""
    if any(c in text for c in _NOT_PLAIN) or max(map(len, chunk)) > limit or "\n" in chunk:
        return False
    return header is None or set(map(str.count, chunk, itertools.repeat(","))) == {len(header) - 1}


def _columns(rows: list[list], width: int) -> tuple[int, list]:
    """Row count and columns of ``csv.reader`` rows; a short row lacks its last columns."""
    if min(map(len, rows)) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    return len(rows), list(zip(*rows))


class _LabelCodes:
    """One label column's codes over one ingest: calling it on a chunk's
    texts gives each stripped label its code, the same in every chunk, and
    ``decode`` turns every code into its label's index in the sorted
    labels."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}

    def __call__(self, texts) -> np.ndarray:
        labels, codes = list(map(str.strip, texts)), self.codes
        codes.update(zip(set(labels) - codes.keys(), itertools.count(len(codes))))
        return np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The labels in numpy's code-point order and each code's index
        among them, as ``np.unique`` of the labels' ``<U`` array: labels
        that differ only by trailing NULs are one label."""
        labels, index = np.unique(np.array(list(self.codes), dtype=str), return_inverse=True)
        return labels, index[codes]  # the dict holds codes 0, 1, ... in order


def _integers(texts) -> np.ndarray:
    values = {text: int(str.strip(text)) for text in dict.fromkeys(texts)}  # each text parsed once
    try:
        return np.fromiter(map(values.__getitem__, texts), np.int64, len(texts))
    except OverflowError:  # exact for now; _int64_column names the rows once all parse
        return np.array(list(map(values.__getitem__, texts)), dtype=object)


def _floats(texts) -> np.ndarray:
    return np.fromiter(map(float, texts), dtype=np.float64)


_FIELD_CONVERTERS = dict(  # in the order a row's fields are checked
    outcome=_floats, unit=_LabelCodes, cluster=_LabelCodes, treatment=_integers,
    cohort=_integers, grade=_integers, year=_integers, block=_LabelCodes, tested_in=_integers,
)


def _int64_column(values: np.ndarray, column: str, row_numbers: np.ndarray) -> np.ndarray:
    """Parsed integers as int64, naming the rows whose values do not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        beyond = np.asarray([not -(2**63) <= v < 2**63 for v in values])
        _fail_rows(row_numbers, beyond, f"column '{column}' beyond the 64-bit integer range")


def _convert(convert, column, physical: str, row: int):
    """``convert(column)``, where a missing value is an InputError naming ``row``."""
    try:
        return convert(column)
    except TypeError:
        if None in column:
            raise InputError(f"row {row}: missing column '{physical}'") from None
        raise


def _convert_chunk(fields: list, columns: list, start: int) -> tuple:
    """One chunk's kept row numbers, dropped rows and converted columns.

    Fields convert in the order a row's are checked, so on a one-row chunk
    the first failure is the row's own: a missing value raises InputError
    naming the row, a value that does not parse ValueError or TypeError.
    """
    kept = np.arange(start, start + len(columns[0]))
    outcome = _convert(lambda texts: list(map(str.strip, texts)), columns[0], fields[0][1], start)
    dropped = []
    if "" in outcome:  # rows with a missing outcome are dropped by a mask
        keep = np.array([text != "" for text in outcome])
        dropped = [(row, "missing outcome") for row in kept[~keep].tolist()]
        kept, outcome = kept[keep], list(itertools.compress(outcome, keep))
        columns = [list(itertools.compress(column, keep)) for column in columns]
    values = [_floats(outcome)]
    values += [_convert(f, c, p, start) for (_, p, f), c in zip(fields[1:], columns[1:])]
    return kept, dropped, values


def _ingest_chunks(chunks: Iterator, schema: PanelSchema) -> PanelDataset:
    col = dict(schema.columns)
    rule = schema.tested_in_rule
    header, first = next(chunks), next(chunks, None)

    # Optional logical columns are used only when the source actually has
    # them, so the identity schema works on sources with or without flags.
    if first is not None:
        chunks = itertools.chain([first], chunks)
        for optional in ("block", "tested_in"):
            if optional in col and col[optional] not in header:
                del col[optional]
    if "tested_in" in col and rule is not None:
        raise InputError("schema maps a tested_in column and also provides a threshold rule")

    # (logical name, physical column, converter) in the order a row's
    # fields are checked; the outcome comes first, as it decides whether a
    # row is kept. Each label column gets codes of its own for this call.
    fields = [
        (k, col[k], convert() if convert is _LabelCodes else convert)
        for k, convert in _FIELD_CONVERTERS.items()
        if k in col
    ]
    fields += [(None, c, _floats) for c in schema.covariates]
    fields += [("score", rule.score_column, _floats)] if rule is not None else []
    index = {name: i for i, name in enumerate(header or ())}  # a repeated name: the last wins
    parts: list[list[np.ndarray]] = [[] for _ in range(len(fields) + 1)]  # row numbers, fields
    dropped: list[tuple[int, str]] = []
    errors: list[str] = []
    n_read = 0
    for n, table in chunks:
        start, n_read = n_read + 2, n_read + n  # row 1 is the header
        absent = (None,) * n
        columns = [table[index[p]] if p in index else absent for _, p, _ in fields]
        try:
            kept, chunk_dropped, values = _convert_chunk(fields, columns, start)
        except (ValueError, TypeError):  # walk the chunk's rows to name the failures
            for i in range(n):
                try:
                    _convert_chunk(fields, [column[i : i + 1] for column in columns], start + i)
                except InputError:
                    raise
                except (ValueError, TypeError) as exc:
                    errors.append(f"row {start + i}: {exc}")
                    if len(errors) == _MAX_REPORTED_ROWS:
                        raise InputError("could not parse input: " + "; ".join(errors)) from None
            continue
        dropped += chunk_dropped
        for part, column in zip(parts, [kept, *values]):
            part.append(column)

    if errors:
        raise InputError("could not parse input: " + "; ".join(errors))
    if not sum(map(len, parts[0])):
        raise InputError("no usable rows in input")
    row_numbers, *values = (np.concatenate(part) for part in parts)
    raw = {k: v for (k, _, _), v in zip(fields, values) if k is not None}
    labels = {k: f.decode(raw[k]) for k, _, f in fields if isinstance(f, _LabelCodes)}
    unit_labels, unit = labels["unit"]
    cluster_labels, cluster = labels["cluster"]
    ints = {k: _int64_column(raw[k], p, row_numbers) for k, p, f in fields if f is _integers}
    treatment, cohort, grade, year = (ints[k] for k in ("treatment", "cohort", "grade", "year"))
    outcome = raw["outcome"]
    block_labels, block = labels.get("block", (None, None))

    tested_in = ints.get("tested_in")
    derived = tested_in is None and rule is not None
    if derived:
        cut = grade_cutoffs(rule.cutoffs, grade, "threshold rule lacks cutoffs for grades")
        tested_in = persist_flags(raw["score"] < cut, unit, year)

    _validate_arrays(
        unit=unit, cluster=cluster, treatment=treatment, year=year, outcome=outcome,
        tested_in=tested_in, block=block, row_numbers=row_numbers,
    )
    panel = PanelDataset(
        unit=unit, cluster=cluster, treatment=treatment, cohort=cohort, grade=grade, year=year,
        outcome=outcome, tested_in=tested_in, block=block,
        covariates={p: v for (k, p, _), v in zip(fields, values) if k is None},
        unit_labels=unit_labels, cluster_labels=cluster_labels, block_labels=block_labels,
        validate=False,
    )
    panel.ingest_report = IngestReport(n_read, panel.n_obs, tuple(dropped), derived)
    return panel

