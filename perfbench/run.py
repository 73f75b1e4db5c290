"""pwrd benchmark: Monte Carlo throughput, CLI latency and cold calibration.

Run from the repository root:

    python3 perfbench/run.py --workload power --seed 7 --seconds 20 --trace 0

Workloads are closed loops from this one client process: `power` calls
`estimate_power` in-process, `analyze` and `simulate` run the `pwrd` CLI as
subprocesses. With `--trace 0` the last line of stdout is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run that profiles every layer (see layers.py). Earlier lines carry the
run record and a report with per-call detail; both are also written, with
the spans of a traced run, to `.perfbench/` in the repository root.
"""

from __future__ import annotations

import os

# BLAS gets one thread per process; set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from common import ROOT, SRC, import_pwrd, run_python
from reference import PROCESS_NOMINAL_S, Reference

OUT = ROOT / ".perfbench"
WORKLOADS = ("power", "analyze", "simulate")
DEFAULT_SEED = 20260822
SETUP_REPEATS = 5


def set_up(workload: str, seed: int, work: Path) -> tuple[float, dict]:
    """Time what every user pays first, then build the workload's inputs untimed.

    Set-up is `import pwrd`, timed in several fresh interpreters, each after a
    reference process (see reference.py). The median is reported, scaled by
    the host's slowdown over those reference processes. The inputs use the
    default design with cutoffs from the single-track calibration (bisection
    only). The default preset's own minimax calibration runs 10-21 s on a
    shared 2-core host, so it is profiled in the traced run rather than paid
    here.
    """
    reference = Reference(work)
    samples = []
    for _ in range(SETUP_REPEATS):
        reference.process("setup")
        wall, proc = run_python(["-c", "import pwrd"], work)
        if proc.returncode:
            raise SystemExit(f"perfbench: import pwrd failed:\n{proc.stderr}")
        samples.append(wall)
    setup_s = statistics.median(samples) / reference.slowdown("setup", PROCESS_NOMINAL_S)
    pwrd = import_pwrd()
    import workloads

    state = {"pwrd": pwrd, "import_samples": samples, "reference": reference}
    if workload == "power":
        state["scenario"] = workloads.default_design(pwrd, seed, 52)
    elif workload == "analyze":
        state["panels"] = {}
        for size, panel in workloads.analyze_panels(pwrd, seed).items():
            path = work / f"panel_{size}.csv"
            panel.to_csv(path)
            state["panels"][size] = (path, panel)
    return setup_s, state


def host_load() -> dict:
    """Load average and cumulative CPU steal, read from /proc (reading only)."""
    out = {}
    try:
        out["loadavg"] = [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = [int(v) for v in Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
        out["steal_jiffies"] = cpu[7] if len(cpu) > 7 else 0
        out["total_jiffies"] = sum(cpu[:8])
    except OSError:
        pass
    return out


def run_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pwrd" / "__init__.py").is_file():
        print(f"perfbench: no pwrd sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("perfbench: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    load_before = host_load()
    try:
        if args.trace:
            pwrd = import_pwrd()
            import layers

            stem = OUT / f"trace-{args.workload}-{args.seed}"
            result, report = layers.traced_run(pwrd, ROOT, args.seed, args.seconds, work, stem)
        else:
            setup_s, state = set_up(args.workload, args.seed, work)
            import workloads

            result, report = workloads.run(args.workload, state, ROOT, args.seed, args.seconds, work)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = host_load()

    record = run_record(args.workload, args.seed, args.trace)
    record["host_before"], record["host_after"] = load_before, load_after
    if "total_jiffies" in load_before and "total_jiffies" in load_after:
        total = load_after["total_jiffies"] - load_before["total_jiffies"]
        steal = load_after["steal_jiffies"] - load_before["steal_jiffies"]
        record["steal_frac"] = steal / total if total > 0 else 0.0
    detail = {"record": record, "report": report, "result": result}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n"
    )
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print("perfbench report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
