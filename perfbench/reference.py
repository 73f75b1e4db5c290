"""Fixed reference work, timed beside a workload to take the host's speed out of its metrics.

On a shared host the same work runs up to 1.5x slower for minutes at a
time, which no run length averages out. Each run therefore also times
reference work that pwrd does not run, interleaved with its own:

* `kernel`, in-process work of the kind the replicate pipeline does:
  grouped sums over 10k rows, small dense solves and a Python loop over a
  dict;
* `process`, a fresh interpreter that imports numpy and the standard
  library modules the pwrd CLI loads.

A run scales its times by the host's slowdown, the median reference time
over its nominal time: the figures read as on a host that runs the
reference in its nominal time. The nominal times are the medians measured
on the 2-core Xeon VM where the benchmark was defined, so there the scaled
and raw figures agree on average. A change to pwrd leaves the reference
work unchanged, so it moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import run_python

KERNEL_NOMINAL_S = 0.013
PROCESS_NOMINAL_S = 0.215
PROCESS_ARGS = ["-c", "import argparse, csv, hashlib, json, numpy"]


def kernel() -> float:
    rng = np.random.default_rng(20260822)
    x = rng.normal(size=(10_000, 16))
    groups = rng.integers(0, 208, 10_000)
    acc = 0.0
    for k in range(60):
        sums = np.bincount(groups, weights=x[:, k % 16], minlength=208)
        block = x[k * 100 : k * 100 + 100]
        gram = block.T @ block + np.eye(16)
        acc += float(np.linalg.solve(gram, sums[:16]).sum())
        acc += float(np.linalg.eigvalsh(gram[:4, :4])[-1])
        cells = {i: i * 0.5 for i in range(200)}
        acc += sum(v for v in cells.values() if v > 10.0) * 1e-9
    return acc


class Reference:
    """Reference timings of one run, kept in named series."""

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd
        self.walls: dict[str, list[float]] = defaultdict(list)

    def kernel(self, series: str) -> None:
        start = time.perf_counter()
        kernel()
        self.walls[series].append(time.perf_counter() - start)

    def process(self, series: str) -> None:
        wall, proc = run_python(PROCESS_ARGS, self.cwd)
        if proc.returncode:
            raise SystemExit(f"perfbench: reference process failed:\n{proc.stderr}")
        self.walls[series].append(wall)

    def slowdown(self, series: str, nominal_s: float) -> float:
        """The series' median time over the nominal time; above 1 the host is slower."""
        return statistics.median(self.walls[series]) / nominal_s

    def report(self) -> dict:
        return {
            series: {"p50_s": statistics.median(walls), "n": len(walls)}
            for series, walls in self.walls.items()
        }
