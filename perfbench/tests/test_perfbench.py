"""Tests of the benchmark itself: inputs, checks and the tracer.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qastates import cli, linalg, spin, symmetry  # noqa: E402

EXPECT = checks.Expectations(worker.ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_list_is_a_function_of_the_seed(workload):
    first = workloads.encode(*workloads.build(workload, 7))
    assert first == workloads.encode(*workloads.build(workload, 7))
    assert first != workloads.encode(*workloads.build(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_leaves_ten_samples_beyond_p90(workload):
    _, requests = workloads.build(workload, 0)
    assert len(requests) >= 100
    assert len(requests) - math.ceil(0.9 * len(requests)) >= 10


def _check_model(path: Path) -> dict:
    code, out, _ = worker._call(["symmetry", "check", "--model", str(path)])
    payload = json.loads(out)
    return {
        "exit": code,
        "verdicts": [r["verdict"] for r in payload["reports"]],
        "words": {r["metrics"]["words_visited"] for r in payload["reports"]
                  if "words_visited" in r["metrics"]},
    }


@pytest.mark.parametrize("n,reflection,rotation", [(3, 0, 1), (3, 2, 2), (4, 1, 3), (5, 3, 2), (6, 4, 5)])
def test_dihedral_family_matches_structural_example(tmp_path, n, reflection, rotation):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(workloads.dihedral_model(n, reflection, rotation)))
    result = _check_model(path)
    assert result["verdicts"] == EXPECT.verdicts["structural_example"]
    assert result["exit"] == 1
    if n == 3:
        assert result["words"] == {EXPECT.structural_words} == {55}


def test_checks_reject_wrong_answers():
    golden = {"kind": "golden", "argv": ["report", "--golden"], "expect": {}}
    text = EXPECT.golden_bytes.decode()
    assert checks.check(golden, EXPECT.golden_exit, text, EXPECT) == []
    assert checks.check(golden, EXPECT.golden_exit, text.replace("pass", "fail", 1), EXPECT)
    assert checks.check(golden, 1 - EXPECT.golden_exit, text, EXPECT)

    _, requests = workloads.build("spin-catalog", 0)
    request = next(r for r in requests if r["kind"] == "spin-catalog")
    code, out, _ = worker._call(request["argv"])
    assert checks.check(request, code, out, EXPECT) == []
    payload = json.loads(out)
    k = request["expect"]["spot_checks"][0]
    swapped = json.loads(out)
    swapped["states"][k]["amplitudes"] = payload["states"][k - 1 if k else k + 1]["amplitudes"]
    assert checks.check(request, code, json.dumps(swapped), EXPECT)

    # A state built for another direction that reports that direction.
    x, y, z = payload["parameters"]["dir"]
    other = [y, z, x]
    wrong_dir = ["spin", "state", "--j", request["argv"][3], f"--dir={','.join(map(repr, other))}",
                 "--h", repr(payload["states"][k]["h"])]
    _, state_out, _ = worker._call(wrong_dir)
    moved = json.loads(out)
    moved["states"][k] = json.loads(state_out)
    problems = checks.check(request, code, json.dumps(moved), EXPECT)
    assert any("dir=" in p for p in problems)
    assert any("overlap" in p for p in problems)


def test_payload_missing_a_field_fails_its_request():
    _, requests = workloads.build("spin-catalog", 0)
    request = next(r for r in requests if r["kind"] == "spin-catalog")
    code, out, _ = worker._call(request["argv"])
    for field in ("states", "gram_defect", "parameters"):
        payload = json.loads(out)
        del payload[field]
        assert checks.check(request, code, json.dumps(payload), EXPECT) == [
            f"check raised {KeyError(field)!r}"]


def _sample(workload: str, per_kind: int) -> list[dict]:
    _, requests = workloads.build(workload, 3)
    taken: dict[str, int] = {}
    out = []
    for request in requests:
        if taken.get(request["kind"], 0) < per_kind:
            taken[request["kind"]] = taken.get(request["kind"], 0) + 1
            out.append(request)
    return out


def test_traced_and_untraced_payloads_are_equal():
    requests = _sample("cli-mix", 2) + _sample("symmetry-family", 1)
    workloads.write_models(worker.ROOT, requests)
    originals = (linalg.hermitian_eig, linalg.inner, symmetry.inner,
                 spin.QuestionAnswerState.__post_init__, cli.main)

    plain = worker.run_pass(requests, EXPECT)
    with tracing.Tracer() as tracer:
        assert symmetry.inner is not originals[2]
        traced = worker.run_pass(requests, EXPECT, tracer)

    assert plain.failures == traced.failures == []
    assert plain.digests == traced.digests
    assert (linalg.hermitian_eig, linalg.inner, symmetry.inner,
            spin.QuestionAnswerState.__post_init__, cli.main) == originals
    assert tracer.calls["cli.main"] == len(requests)
    assert tracer.calls["symmetry.compose_permutations"] > 0
    assert tracer.calls["linalg.inner"] > 0
    metrics = tracing.layer_metrics(tracer, traced.directions_verified,
                                    traced.symmetry_checks, traced.payload_bytes)
    assert metrics["symmetry.scan_words.calls_per_check"][0] == 3
    assert all(metrics[f"{t.name}.errors"][0] == 0 for t in tracing.TARGETS)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "req_per_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
