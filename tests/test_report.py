"""Tests for the shared report record and its stderr summary."""

from qastates.report import VerificationReport, summarize


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
