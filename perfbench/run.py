"""Request-stream benchmark for qastates.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spin-verify --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  Each one is a closed loop with
a single client in one fresh process (``worker.py``), so its peak memory is
its own.  With ``--trace 0`` the run first starts the workload process
``SETUPS - 1`` times for set-up only, then once more for the timed passes,
and prints the end-to-end metrics:

* ``setup_s``: from starting the workload process to its first timed
  request (interpreter, numpy and qastates imports, input generation, one
  discarded warm-up request); the median over the ``SETUPS`` processes.
* ``req_per_s``: requests completed per second of time spent inside
  ``qastates.cli.main``, over whole passes of the request list.
* ``req_p50_ms``, ``req_p90_ms``: per-request latency percentiles over all
  samples of the run (at least 100 per pass).
* ``peak_rss_mb``: peak resident memory of the timed workload process.

Every time above is calibrated for the drift of the host's speed (see
``calibrate.py``); the uncalibrated figures and every (latency, kernel
time) sample go to ``.bench_build/perfbench/run-*.json`` with the run's
provenance.

Failed requests (wrong exit code, a failed payload or correctness check, or
an exception) are the result's ``failed`` count out of ``attempted``, which
is ``failed_frac`` without a metric that is zero whenever all is well.

With ``--trace 1`` the workload process runs one untraced pass and one
traced pass of the same requests (see ``tracer.py``), checks that both
produced identical payloads, writes the spans as JSON lines under
``.bench_build/perfbench/`` and prints the per-layer metrics.

The first stdout line is the run's provenance; the last is the result
object.  The exit status is 2, with no result, when the checkout holds no
qastates sources or the workload process cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / WORK_DIR
WORKER = HERE / "worker.py"

# Fresh processes set up per run; setup_s is their median.
SETUPS = 9
CHILD_TIMEOUT_S = 150.0
# Matrices here are at most 51x51; a BLAS thread pool only adds start-up
# time and scheduling noise on a small machine.
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": BLAS_ENV,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def _worker(args, mode: str) -> tuple[dict, float, float]:
    """Run one workload process.

    Returns its last stdout line, its start time, and the calibration
    kernel time measured just before it started.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **BLAS_ENV}
    kernel = statistics.median(calibrate.kernel_seconds() for _ in range(5))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1]), started, kernel


def run(args) -> tuple[dict, dict]:
    """(result object, detailed record) of one benchmark run."""
    setups, kernels = [], []
    failures = []
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            ready, started, kernel = _worker(args, "setup")
            setups.append(ready["ready"] - started)
            kernels.append(kernel)
            failures += [f"set-up warm-up: {p}" for p in ready["failures"]]
    record, started, kernel = _worker(args, "run")
    metrics = record["metrics"]
    if args.trace == 0:
        setups.append(record["ready"] - started)
        kernels.append(kernel)
        setup_s = statistics.median(calibrate.calibrated(setups, kernels))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        record["uncalibrated"]["setup_s"] = statistics.median(setups)
    record["setup_samples_s"] = setups
    attempted = record["attempted"] + len(failures)
    failed = min(record["failed"] + len(failures), attempted)
    record["failures"] = failures + record["failures"]
    record["failed_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qastates" / "__init__.py").is_file():
        print(f"benchmark error: no qastates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        prov = provenance(args)
        print(json.dumps({"provenance": prov}), flush=True)
        result, record = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    log = WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"provenance": prov, "result": result, "record": record},
                              indent=1), encoding="utf-8")
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
