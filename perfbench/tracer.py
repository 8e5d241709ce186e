"""In-process tracer for the traced benchmark run.

The tracer replaces package functions in place: each target is rebound at
its module attribute, so calls from inside the module are caught, and at
every other ``qastates`` module attribute that holds the same object, so
``from .linalg import inner`` style imports are caught too.  Span targets
record (id, name, start, end, parent id, request id, tag) in memory; hot
leaf functions get call counts only, because a span per call would cost
more than the call.  Every target counts the exceptions that leave it.
:meth:`Tracer.remove` puts every original object back.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

PACKAGE = "qastates"


@dataclass(frozen=True)
class Target:
    module: str  # package module, e.g. "linalg"
    attr: str  # attribute path, e.g. "QuestionAnswerState.__post_init__"
    spans: bool = True
    # Small value stored on the span, computed from (args, result).
    tag: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr.removesuffix('.__post_init__')}"


def _dimension(args, result):
    return len(args[0])


def _words_visited(args, result):
    return result.words_visited


TARGETS = (
    Target("linalg", "hermitian_eig", tag=_dimension),
    Target("linalg", "operator_norm"),
    Target("linalg", "inner", spans=False),
    Target("linalg", "norm", spans=False),
    Target("spin", "eigenstate_recursion"),
    Target("spin", "eigenstate_oracle"),
    Target("spin", "state_catalog"),
    Target("spin", "verify_eigenstates"),
    Target("spin", "verify_orthogonality"),
    Target("spin", "verify_ray_collisions"),
    Target("spin", "component_operator"),
    Target("spin", "QuestionAnswerState.__post_init__"),
    Target("spin", "ladder_coefficients", spans=False),
    Target("qubit", "verify_prop2"),
    Target("qubit", "verify_homomorphism"),
    Target("qubit", "pauli_matrices", spans=False),
    Target("evariables", "coarse_grain"),
    Target("evariables", "coarse_grain_report"),
    Target("evariables", "is_maximally_accessible"),
    Target("symmetry", "load_model"),
    Target("symmetry", "validate_model"),
    Target("symmetry", "check_assumptions"),
    Target("symmetry", "scan_words", tag=_words_visited),
    Target("symmetry", "detect_multivaluedness"),
    Target("symmetry", "verify_word_kernel"),
    Target("symmetry", "build_question_states"),
    Target("symmetry", "verify_theorem1"),
    Target("symmetry", "group_closure"),
    Target("symmetry", "compose_permutations", spans=False),
    Target("report", "VerificationReport.__post_init__", spans=False),
    Target("cli", "main"),
    Target("cli", "render_payload"),
)


class Tracer:
    """Context manager that wraps the targets while it is open."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in TARGETS:
                self._install(target)
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, target: Target) -> None:
        owner = sys.modules[f"{PACKAGE}.{target.module}"]
        *path, attr = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self._span_wrapper(target, original) if target.spans else self._count_wrapper(target, original)
        self._patch(owner, attr, wrapper)
        if path:
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, alias, wrapper)

    def _count_wrapper(self, target: Target, fn):
        name, calls, errors = target.name, self.calls, self.errors

        def counted(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, target: Target, fn):
        name, tag, calls, errors = target.name, target.tag, self.calls, self.errors
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            calls[name] += 1
            result, value = None, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if tag is not None and result is not None:
                    value = tag(args, result)
                spans.append((sid, name, start, end, parent, self.request, value))
            return result

        traced.__wrapped__ = fn
        return traced

    def write_jsonl(self, path: Path) -> None:
        """Write the spans as JSON lines, then one line of call counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, name, start, end, parent, request, tag in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end,
                          "parent": parent or None, "request": request}
                if tag is not None:
                    record["tag"] = tag
                out.write(json.dumps(record) + "\n")
            out.write(json.dumps({"calls": dict(self.calls), "errors": dict(self.errors)}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


EIG_DIMENSIONS = range(2, 10)


def layer_metrics(tracer: Tracer, directions_verified: float, symmetry_checks: int,
                  payload_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``directions_verified`` is the number of directions the pass's prop1
    reports cover and ``symmetry_checks`` the number of full model checks
    it ran; both come from the requests and payloads, not from the trace.
    """
    parent, name_of = {}, {}
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, start, end, up, _, _ in tracer.spans:
        parent[sid], name_of[sid] = up, name
        total[name] += end - start
        child_time[up] += end - start
    self_time: dict[str, float] = defaultdict(float)
    eig_by_dim: dict[int, list] = defaultdict(list)
    oracle_eigs = 0
    words = 0
    for sid, name, start, end, up, _, tag in tracer.spans:
        self_time[name] += end - start - child_time[sid]
        if name == "linalg.hermitian_eig":
            eig_by_dim[tag].append(end - start)
            ancestors = set()
            while up:
                ancestors.add(name_of[up])
                up = parent[up]
            if "spin.verify_eigenstates" in ancestors and "linalg.operator_norm" not in ancestors:
                oracle_eigs += 1
        elif name == "symmetry.scan_words" and tag is not None:
            words += tag

    calls = tracer.calls
    states = calls["spin.QuestionAnswerState"]
    recursions = calls["spin.eigenstate_recursion"]
    m: dict[str, tuple[float, str]] = {
        "linalg.hermitian_eig.calls": (calls["linalg.hermitian_eig"], "count"),
        "linalg.hermitian_eig.self_s": (self_time["linalg.hermitian_eig"], "s"),
    }
    for d in EIG_DIMENSIONS:
        times = eig_by_dim.get(d, [])
        m[f"linalg.hermitian_eig.ms_per_call.d{d}"] = (
            1e3 * sum(times) / len(times) if times else 0.0, "ms")
    m.update({
        "linalg.operator_norm.calls": (calls["linalg.operator_norm"], "count"),
        "linalg.inner.calls": (calls["linalg.inner"], "count"),
        "linalg.norm.calls": (calls["linalg.norm"], "count"),
        "spin.oracle.eig_per_direction": (
            oracle_eigs / directions_verified if directions_verified else 0.0, "eig/dir"),
        "spin.eigenstate_oracle.self_s": (self_time["spin.eigenstate_oracle"], "s"),
        "spin.eigenstate_recursion.calls": (recursions, "count"),
        "spin.eigenstate_recursion.us_per_state": (
            1e6 * total["spin.eigenstate_recursion"] / recursions if recursions else 0.0, "us"),
        "spin.state_catalog.s": (total["spin.state_catalog"], "s"),
        "spin.verify_ray_collisions.s": (total["spin.verify_ray_collisions"], "s"),
        "spin.component_operator.calls": (calls["spin.component_operator"], "count"),
        "spin.component_operator.per_state": (
            calls["spin.component_operator"] / recursions if recursions else 0.0, "1/state"),
        "spin.QuestionAnswerState.calls": (states, "count"),
        "spin.QuestionAnswerState.s": (total["spin.QuestionAnswerState"], "s"),
        "spin.ladder_coefficients.calls": (calls["spin.ladder_coefficients"], "count"),
        "qubit.verify_prop2.s": (total["qubit.verify_prop2"], "s"),
        "qubit.verify_homomorphism.s": (total["qubit.verify_homomorphism"], "s"),
        "qubit.pauli_matrices.calls": (calls["qubit.pauli_matrices"], "count"),
        "evariables.coarse_grain.calls": (calls["evariables.coarse_grain"], "count"),
        "evariables.coarse_grain_report.s": (total["evariables.coarse_grain_report"], "s"),
        "evariables.is_maximally_accessible.s": (total["evariables.is_maximally_accessible"], "s"),
        "symmetry.scan_words.calls": (calls["symmetry.scan_words"], "count"),
        "symmetry.scan_words.calls_per_check": (
            calls["symmetry.scan_words"] / symmetry_checks if symmetry_checks else 0.0, "1/check"),
        "symmetry.scan_words.self_s": (self_time["symmetry.scan_words"], "s"),
        "symmetry.words_visited": (words, "count"),
        "symmetry.compose_permutations.calls": (calls["symmetry.compose_permutations"], "count"),
        "symmetry.group_closure.calls": (calls["symmetry.group_closure"], "count"),
        "symmetry.group_closure.s": (total["symmetry.group_closure"], "s"),
        "symmetry.check_assumptions.s": (total["symmetry.check_assumptions"], "s"),
        "symmetry.validate_model.s": (total["symmetry.validate_model"], "s"),
        "symmetry.build_question_states.s": (total["symmetry.build_question_states"], "s"),
        "symmetry.verify_theorem1.self_s": (self_time["symmetry.verify_theorem1"], "s"),
        "symmetry.load_model.s": (total["symmetry.load_model"], "s"),
        "report.VerificationReport.calls": (calls["report.VerificationReport"], "count"),
        "cli.render_payload.s": (total["cli.render_payload"], "s"),
        "cli.payload_bytes": (payload_bytes, "bytes"),
        "cli.main.self_s": (self_time["cli.main"], "s"),
    })
    for target in TARGETS:
        m[f"{target.name}.errors"] = (tracer.errors[target.name], "count")
    return m


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order (plus the overhead)."""
    return [*layer_metrics(Tracer(), 0.0, 0, 0), "trace.overhead_frac"]
