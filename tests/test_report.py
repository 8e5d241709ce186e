"""Tests for the shared report record, its stderr summary and the
verifiers' tolerance rule."""

import math

import pytest

from qastates import qubit, spin
from qastates.report import VerificationReport, check_eps, summarize


def report(subject, verdict="pass", witnesses=()):
    return VerificationReport(subject=subject, verdict=verdict, witnesses=witnesses)


class TestSummarize:
    def test_one_line_per_report_in_order(self):
        reports = [report("cor1"), report("prop1", "fail", ({"x": 1}, {"x": 2}))]
        assert summarize(reports) == (
            "cor1: pass (0 witnesses)\nprop1: fail (2 witnesses)"
        )

    def test_repeated_subjects_are_numbered_from_two(self):
        reports = [report("prop2"), report("cor1"), report("prop2"), report("prop2")]
        assert summarize(reports).splitlines() == [
            "prop2: pass (0 witnesses)",
            "cor1: pass (0 witnesses)",
            "prop2.2: pass (0 witnesses)",
            "prop2.3: pass (0 witnesses)",
        ]

    def test_accepts_any_iterable(self):
        assert summarize(iter([report("lemma1")])) == "lemma1: pass (0 witnesses)"
        assert summarize([]) == ""


VERIFIERS = {
    "verify_eigenstates": lambda eps: spin.verify_eigenstates(
        spin.SpinSystem(1.0), samples=1, eps=eps
    ),
    "verify_orthogonality": lambda eps: spin.verify_orthogonality(
        spin.SpinSystem(1.0), samples=1, eps=eps
    ),
    "verify_ray_collisions": lambda eps: spin.verify_ray_collisions(
        spin.SpinSystem(1.0), samples=1, eps=eps
    ),
    "verify_prop2": lambda eps: qubit.verify_prop2(samples=1, eps=eps),
    "verify_homomorphism": lambda eps: qubit.verify_homomorphism(pairs=1, eps=eps),
}


class TestEpsRule:
    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, -1.0, math.nan])
    @pytest.mark.parametrize("verifier", sorted(VERIFIERS))
    def test_every_verifier_rejects_eps_outside_unit_interval(self, verifier, eps):
        with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1\), got "):
            VERIFIERS[verifier](eps)

    def test_message_shows_the_value(self):
        for eps, shown in ((2.0, "2.0"), (math.nan, "nan"), (0, "0")):
            with pytest.raises(ValueError) as info:
                check_eps(eps)
            assert str(info.value) == f"eps must lie in (0, 1), got {shown}"
        check_eps(1e-9)
