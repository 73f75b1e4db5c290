"""Paths of the checkout under test and how the benchmark starts pwrd."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
)


def run_python(args: list[str], cwd: Path, timeout: float = 150.0):
    """Run a fresh interpreter on the checkout's sources; returns (wall s, process)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=timeout
    )
    return time.perf_counter() - start, proc


def import_pwrd():
    """Import pwrd from the checkout's `src/`, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import pwrd

    if Path(pwrd.__file__).resolve().parent != SRC / "pwrd":
        raise SystemExit(f"perfbench: imported pwrd from {pwrd.__file__}, not from {SRC}")
    return pwrd
