"""One workload process: set up, warm up, then run timed passes.

Started by ``run.py`` with the checkout root as working directory.  In
``setup`` mode it imports the package, builds the inputs, runs the warm-up
request and reports the moment it became ready.  In ``run`` mode it goes on
to send the requests in a closed loop with one client: each request is one
in-process ``qastates.cli.main(argv)`` call with stdout and stderr captured,
and the next is sent only after the previous one returned and was checked.
Only the ``main`` call is timed.  The last line of stdout is one JSON
object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import qastates  # noqa: E402
from qastates import cli  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / workloads.WORK_DIR


def _call(argv: list[str]) -> tuple[int, str, float]:
    """One request: (exit code, captured stdout, seconds spent in main)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


@dataclass
class Pass:
    """Outcome of sending every request of the list once."""

    latencies: list[float] = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    payload_bytes: int = 0
    directions_verified: float = 0.0
    symmetry_checks: int = 0


def run_pass(requests: list[dict], expect: checks.Expectations, tracer=None) -> Pass:
    result = Pass()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        kernel = calibrate.kernel_seconds()
        try:
            code, out, elapsed = _call(request["argv"])
        except Exception as exc:  # a raise is a failed request, not a crash
            result.failures.append(f"{request['argv']}: raised {exc!r}")
            result.digests.append(None)
            continue
        result.latencies.append(elapsed)
        result.kernel_times.append(kernel)
        result.digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
        result.payload_bytes += len(out.encode())
        problems = checks.check(request, code, out, expect)
        if problems:
            result.failures.append(f"{request['argv']}: {'; '.join(problems)}")
            continue
        if request["kind"] in ("spin-verify", "golden"):
            try:
                reports = checks.reports(json.loads(out))
                result.directions_verified += sum(
                    r["metrics"]["directions"] for r in reports if r["subject"] == "prop1")
            except (KeyError, TypeError) as exc:
                result.failures.append(f"{request['argv']}: prop1 directions unreadable: {exc!r}")
                continue
        result.symmetry_checks += {"symmetry-bundled": 1, "symmetry-family": 1,
                                   "golden": len(workloads.BUNDLED_MODELS)}.get(request["kind"], 0)
    return result


def _timing_metrics(latencies: list[float]) -> dict[str, tuple[float, str]]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "req_per_s": (len(latencies) / sum(latencies), "1/s"),
        "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "req_p90_ms": (1e3 * deciles[8], "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path(qastates.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported qastates from {qastates.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    warmup, requests = workloads.build(args.workload, args.seed)
    workloads.write_models(ROOT, [warmup, *requests])
    expect = checks.Expectations(ROOT)
    code, out, _ = _call(warmup["argv"])
    warmup_problems = checks.check(warmup, code, out, expect)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "failures": warmup_problems}))
        return 0

    failures = [f"warm-up {warmup['argv']}: {'; '.join(warmup_problems)}"] if warmup_problems else []
    attempted = 1
    record: dict = {"ready": ready}
    if args.trace == 0:
        latencies: list[float] = []
        kernel_times: list[float] = []
        start = time.monotonic()
        passes = 0
        while True:
            pass_start = time.monotonic()
            result = run_pass(requests, expect)
            passes += 1
            attempted += len(requests)
            failures += result.failures
            latencies += result.latencies
            kernel_times += result.kernel_times
            now = time.monotonic()
            if now - start + (now - pass_start) > args.seconds:
                break
        metrics = _timing_metrics(calibrate.calibrated(latencies, kernel_times))
        record["uncalibrated"] = {k: v for k, (v, _) in _timing_metrics(latencies).items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record.update(passes=passes, samples=len(latencies),
                      latency_and_kernel_s=list(zip(latencies, kernel_times)))
    else:
        plain = run_pass(requests, expect)
        with tracing.Tracer() as tracer:
            traced = run_pass(requests, expect, tracer)
        attempted += 2 * len(requests)
        failures += plain.failures + traced.failures
        failures += [
            f"{request['argv']}: traced payload differs from untraced"
            for request, a, b in zip(requests, plain.digests, traced.digests)
            if a != b
        ]
        metrics = tracing.layer_metrics(
            tracer, traced.directions_verified, traced.symmetry_checks, traced.payload_bytes)
        if plain.latencies and traced.latencies:
            overhead = (sum(calibrate.calibrated(traced.latencies, traced.kernel_times))
                        / sum(calibrate.calibrated(plain.latencies, plain.kernel_times)) - 1.0)
        else:
            overhead = 0.0
        metrics["trace.overhead_frac"] = (overhead, "frac")
        spans_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_file)
        record.update(passes=2, samples=len(traced.latencies),
                      spans=len(tracer.spans), spans_file=str(spans_file.relative_to(ROOT)))

    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
