"""Shared verification report record.

Every checker in the package reduces its outcome to the same small record so
the command line tool can serialize batteries of checks uniformly.  The
record is deliberately strict: unknown subjects and verdicts are rejected,
metrics must be finite numbers, and a failing verdict must carry witnesses.
The verifiers and ``linalg.phase_equal`` share one tolerance rule,
:func:`check_eps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

SUBJECTS = (
    "prop1",
    "prop2",
    "cor1",
    "cor2",
    "coarse_grain",
    "lemma1",
    "lemma2",
    "prop3",
    "assumption_1",
    "assumption_2",
    "assumption_3a",
    "assumption_3b",
    "assumption_3c",
    "theorem1",
)

VERDICTS = ("pass", "fail", "undetermined")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check.

    metrics maps metric names to finite floats; witnesses is a tuple of
    JSON-ready dicts pinpointing concrete failures (indices, values,
    deviations).  A "fail" verdict without at least one witness is invalid.
    """

    subject: str
    verdict: str
    metrics: Mapping[str, float] = field(default_factory=dict)
    witnesses: tuple = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if self.subject not in SUBJECTS:
            raise ValueError(f"unknown report subject {self.subject!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        clean: dict[str, float] = {}
        for key, value in dict(self.metrics).items():
            if not isinstance(key, str):
                raise ValueError("metric names must be strings")
            num = float(value)
            if not math.isfinite(num):
                raise ValueError(f"metric {key!r} is not finite: {value!r}")
            clean[key] = num
        object.__setattr__(self, "metrics", clean)
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.verdict == "fail" and not self.witnesses:
            raise ValueError(f"failing report for {self.subject!r} carries no witnesses")

    def to_json_dict(self) -> dict[str, Any]:
        """Plain dict with a stable field order, ready for json.dumps."""
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "metrics": dict(self.metrics),
            "witnesses": [dict(w) for w in self.witnesses],
            "notes": self.notes,
        }


def check_eps(eps: float) -> None:
    """The one rule for a verifier's tolerance: ``eps`` lies in (0, 1), so
    NaN, 0, 1 and anything outside are rejected."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def summarize(reports: Iterable[VerificationReport]) -> str:
    """One human-readable line per report, in order, for stderr summaries;
    a repeated subject is numbered from 2, as in ``prop2.2``."""
    counts: dict[str, int] = {}
    lines = []
    for rep in reports:
        n = counts[rep.subject] = counts.get(rep.subject, 0) + 1
        name = rep.subject if n == 1 else f"{rep.subject}.{n}"
        lines.append(f"{name}: {rep.verdict} ({len(rep.witnesses)} witnesses)")
    return "\n".join(lines)
