"""Correctness checks on captured request outputs.

Every check runs outside the timed region.  Spin states are compared with
``numpy.linalg.eigh`` applied to angular momentum matrices built here, so
the reference shares no code with the package.  Symmetry verdicts and the
golden battery are judged against the repository's own
``tests/golden/battery.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GOLDEN = Path("tests/golden/battery.json")
OVERLAP_FLOOR = 1.0 - 1e-9
GRAM_CEILING = 1e-9
# Largest component gap between a reported direction and the requested one.
DIR_TOLERANCE = 1e-12


class Expectations:
    """What the golden battery says the bundled models and the battery yield."""

    def __init__(self, root: Path):
        self.golden_bytes = (root / GOLDEN).read_bytes()
        battery = json.loads(self.golden_bytes)
        sections = {s["name"]: s["reports"] for s in battery["sections"]}
        self.verdicts = {
            name: [r["verdict"] for r in sections[f"symmetry {name}"]]
            for name in ("structural_example", "designed_failure")
        }
        structural = {r["subject"]: r for r in sections["symmetry structural_example"]}
        # The n=3 family member is structural_example up to relabeling, so
        # it must visit the same number of words (55 at the time of writing).
        self.structural_words = structural["assumption_3b"]["metrics"]["words_visited"]
        self.golden_exit = _exit_for(
            [r["verdict"] for reports in sections.values() for r in reports]
        )


def _exit_for(verdicts: list[str]) -> int:
    return 1 if "fail" in verdicts else 0


def _spin_eigenvector(j: float, direction, h: float) -> np.ndarray:
    d = round(2 * j) + 1
    m = -j + np.arange(d)
    jp = np.diag(np.sqrt(np.maximum((j - m[:-1]) * (j + m[:-1] + 1.0), 0.0)), -1)
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2.0j
    op = direction[0] * jx + direction[1] * jy + direction[2] * np.diag(m)
    _, vecs = np.linalg.eigh(op)
    return vecs[:, round(h + j)]


def _ket(record: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in record["amplitudes"]])


def _direction_errors(label: str, reported, asked: list[float]) -> list[str]:
    if len(reported) != 3 or max(abs(a - b) for a, b in zip(asked, reported)) > DIR_TOLERANCE:
        return [f"{label} answers dir={reported}, asked {asked}"]
    return []


def _state_errors(record: dict, j: float, h: float, direction: list[float]) -> list[str]:
    """Problems with one state, judged against the requested j, h and
    direction rather than against what the state says about itself."""
    label = f"state j={j} h={h}"
    errors = _direction_errors(label, record["dir"], direction)
    if record["j"] != j or record["h"] != h:
        errors.append(f"{label} answers j={record['j']} h={record['h']}")
    ref = _spin_eigenvector(j, direction, h)
    overlap = abs(np.vdot(ref, _ket(record)))
    if overlap < OVERLAP_FLOOR:
        errors.append(f"{label}: overlap {overlap!r} with eigh reference")
    return errors


def _arg(argv: list[str], flag: str) -> str | None:
    for i, token in enumerate(argv):
        if token == flag:
            return argv[i + 1]
        if token.startswith(flag + "="):
            return token[len(flag) + 1:]
    return None


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _unit(text: str) -> list[float]:
    v = _floats(text)
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def reports(payload: dict) -> list[dict]:
    if "sections" in payload:
        return [r for s in payload["sections"] for r in s["reports"]]
    return payload.get("reports", [])


def _all_pass(payload: dict) -> list[str]:
    bad = [r["subject"] for r in reports(payload) if r["verdict"] != "pass"]
    if not reports(payload):
        return ["no reports in payload"]
    return [f"reports not passing: {bad}"] if bad else []


def expected_exit(request: dict, exp: Expectations) -> int:
    kind = request["kind"]
    if kind == "golden":
        return exp.golden_exit
    if kind == "symmetry-bundled":
        return _exit_for(exp.verdicts[request["expect"]["model"]])
    if kind == "symmetry-family":
        return _exit_for(exp.verdicts["structural_example"])
    return request["expect"]["exit"]


def check(request: dict, code: int, out: str, exp: Expectations) -> list[str]:
    """Problems with one request's exit code and output; empty when correct.

    A payload that lacks a field the check reads is a problem of that
    request, not an error of the benchmark.
    """
    try:
        return _check(request, code, out, exp)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def _check(request: dict, code: int, out: str, exp: Expectations) -> list[str]:
    want = expected_exit(request, exp)
    if code != want:
        return [f"exit code {code}, expected {want}"]
    kind = request["kind"]
    if kind == "golden":
        return [] if out.encode() == exp.golden_bytes else ["golden battery bytes differ"]
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"payload is not JSON: {exc}"]
    argv = request["argv"]

    if kind in ("spin-verify", "spin-overlap", "qubit-prop2"):
        return _all_pass(payload)

    if kind == "spin-catalog":
        j = float(_arg(argv, "--j"))
        asked = _unit(_arg(argv, "--dir"))
        states = payload["states"]
        errors = _direction_errors("catalog", payload["parameters"]["dir"], asked)
        if len(states) != round(2 * j) + 1:
            errors.append(f"catalog holds {len(states)} states for j={j}")
        if not payload["gram_defect"] <= GRAM_CEILING:
            errors.append(f"gram defect {payload['gram_defect']!r}")
        for k, state in enumerate(states):
            errors += _direction_errors(f"state {k}", state["dir"], asked)
        for k in request["expect"]["spot_checks"]:
            if k < len(states):
                errors += _state_errors(states[k], j, -j + k, asked)
        return errors

    if kind == "spin-state":
        return _state_errors(payload, float(_arg(argv, "--j")), float(_arg(argv, "--h")),
                             _unit(_arg(argv, "--dir")))

    if kind == "qubit-bloch":
        asked = _unit(_arg(argv, "--dir"))
        gap = max(abs(a - b) for a, b in zip(asked, payload["bloch"]))
        errors = [] if gap <= 1e-9 else [f"bloch vector off by {gap!r}"]
        errors += _direction_errors("bloch", payload["parameters"]["dir"], asked)
        if not payload["roundtrip_angle"] <= 1e-8:
            errors.append(f"round trip angle {payload['roundtrip_angle']!r}")
        return errors + _state_errors(payload["state"], 0.5, 0.5, asked)

    if kind == "evar-coarse-grain":
        mapped = _floats(_arg(argv, "--map"))
        coarse = sorted(set(mapped))
        classes = [[i for i, u in enumerate(mapped) if u == c] for c in coarse]
        errors = _all_pass(payload)
        if payload["classes"] != classes or payload["coarse_values"] != coarse:
            errors.append("coarse classes do not follow the map")
        return errors

    if kind == "evar-maximal":
        values = _floats(_arg(argv, "--values"))
        mapped = _arg(argv, "--map")
        spectrum = sorted(_floats(mapped)) if mapped else values
        errors = []
        if payload["maximal"] != (len(set(spectrum)) == len(spectrum)):
            errors.append(f"maximal={payload['maximal']} for spectrum {spectrum}")
        scale = max(1.0, max(abs(v) for v in spectrum))
        gap = max(abs(a - b) for a, b in zip(payload["eigenvalues"], spectrum))
        if len(payload["eigenvalues"]) != len(spectrum) or gap > 1e-9 * scale:
            errors.append(f"eigenvalues {payload['eigenvalues']} vs {spectrum}")
        return errors

    if kind in ("symmetry-bundled", "symmetry-family"):
        model = request["expect"].get("model", "structural_example")
        verdicts = [r["verdict"] for r in payload["reports"]]
        errors = []
        if verdicts != exp.verdicts[model]:
            errors.append(f"verdicts {verdicts}, expected {exp.verdicts[model]}")
        if request["expect"].get("n") == 3:
            words = {r["metrics"].get("words_visited") for r in payload["reports"]}
            words.discard(None)
            if words != {exp.structural_words}:
                errors.append(f"D_3 visits {sorted(words)} words, expected {exp.structural_words}")
        return errors

    return [f"no check for request kind {kind!r}"]
