"""PERF rule family: sweep-scale anti-patterns stay out of the tree."""

from __future__ import annotations

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)


def test_bad_fixture_matches_markers():
    path = FIXTURES / "perf001_bad.py"
    assert_matches_markers(check(path), path)


def test_clean_twin_is_clean():
    path = FIXTURES / "perf001_clean.py"
    assert observed(check(path)) == []


def test_perf001_names_the_call():
    report = check(FIXTURES / "perf001_bad.py", select=["PERF001"])
    messages = sorted({f.message for f in report.findings})
    assert messages == [
        "simulate_trace() runs once per config in a loop over candidate "
        "configs",
        "simulate_trace_multi() runs once per config in a loop over "
        "candidate configs",
    ]


def test_perf001_is_a_warning():
    report = check(FIXTURES / "perf001_bad.py", select=["PERF001"])
    assert report.findings
    assert all(f.severity == "warning" for f in report.findings)
