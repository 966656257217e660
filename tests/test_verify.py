"""Tests for the identity-verification framework."""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from polytri import verify
from polytri.verify import Check, RunReport, run_suites

LINE_RE = re.compile(
    r"^(PASS|FAIL|ERRATUM)  [a-z0-9-]+  n=\S+ params=.* expected=.* got=.*$"
)


def test_suite_registry_order_is_fixed():
    assert list(verify.SUITES) == [
        "core",
        "compositions",
        "formulas",
        "disjoint-2ear",
        "disjoint-3ear",
        "parallel",
        "signature",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"])


def test_max_n_must_be_at_least_three():
    with pytest.raises(ValueError, match="max_n"):
        run_suites(max_n=2)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_each_suite_passes_at_small_cap(suite):
    report = run_suites([suite], max_n=7)
    assert report.counts["FAIL"] == 0
    assert all(c.status in ("PASS", "ERRATUM") for c in report.checks)


def test_full_run_has_exactly_one_erratum():
    report = run_suites(max_n=8)
    assert report.counts["FAIL"] == 0
    errata = [c for c in report.checks if c.status == "ERRATUM"]
    assert len(errata) == 1
    (e,) = errata
    assert e.check_id == "three-ear-published-variant"
    assert (e.n, e.expected, e.got) == ("6", "4", "1")
    assert "(1, 1, 1)" in e.params
    assert report.exit_code == 0


def test_erratum_check_absent_below_its_range():
    report = run_suites(["disjoint-3ear"], max_n=5)
    assert not [c for c in report.checks if c.check_id == "three-ear-published-variant"]
    assert report.counts["FAIL"] == 0


def test_line_format():
    report = run_suites(["parallel"], max_n=8)
    body = report.render_text().splitlines()
    for line in body[:-1]:
        assert LINE_RE.match(line), line
    assert body[-1].startswith("checked ")


def test_exit_code_two_on_any_fail():
    bad = Check("FAIL", "demo", "5", "-", "1", "2")
    report = RunReport(("core",), 5, (bad,), 0.0)
    assert report.exit_code == 2
    assert "1 fail" in report.render_text()


def test_results_identical_on_a_warm_cache_rerun():
    # the second run finds the counting caches filled by the first
    first = run_suites(max_n=7).render_text()
    assert run_suites(max_n=7).render_text() == first


def test_suites_run_on_the_calling_thread_through_the_registry(monkeypatch):
    plain = run_suites(["core", "parallel"], max_n=6)
    calls = []
    suite = verify.SUITES["parallel"]

    def wrapper(max_n):
        calls.append((threading.get_ident(), max_n))
        return suite(max_n)

    # replaced as a tracer would, after the module was imported
    monkeypatch.setitem(verify.SUITES, "parallel", wrapper)
    report = run_suites(["core", "parallel"], max_n=6)
    assert calls == [(threading.get_ident(), 6)]
    assert report.render_text() == plain.render_text()
    assert [name for name, _ in report.suite_times] == list(report.suites) == ["core", "parallel"]
    assert sum(seconds for _, seconds in report.suite_times) <= report.wall_time
    assert verify.thread_count() == 1


def test_json_rendering_round_trips():
    report = run_suites(["core", "parallel"], max_n=6)
    payload = json.loads(report.render_json())
    assert payload["suites"] == ["core", "parallel"]
    assert payload["max_n"] == 6
    assert len(payload["checks"]) == len(report.checks)
    assert payload["counts"] == report.counts
    first = payload["checks"][0]
    assert set(first) == {"status", "id", "n", "params", "expected", "got"}


def test_suites_run_in_registry_order_regardless_of_request_order():
    report = run_suites(["parallel", "core"], max_n=6)
    # Requested order is honored as given (callers pick the order)...
    assert report.suites == ("parallel", "core")
    ids = [c.check_id for c in report.checks]
    # ...and all parallel-suite checks precede all core-suite checks.
    assert ids.index("catalan-enumeration") > ids.index("snake-residue-diagonals")


def test_cap_above_default_stops_at_each_ceiling():
    report = run_suites(["parallel", "signature"], max_n=14)
    top = {}
    for c in report.checks:
        top[c.check_id] = max(top.get(c.check_id, 0), int(c.n))
    assert top == {
        "snake-residue-diagonals": 12,
        "parallel-two-residues": 12,
        "parallel-one-residue-even": 12,
        "signature-determines-disjoint": 10,
    }
    assert report.counts["FAIL"] == 0


def test_repeated_suite_runs_once_in_first_order():
    report = run_suites(["parallel", "core", "parallel", "core"], max_n=6)
    assert report.suites == ("parallel", "core")
    assert report.checks == run_suites(["parallel", "core"], max_n=6).checks
    assert json.loads(report.render_json())["suites"] == ["parallel", "core"]


def test_signature_lines_match_the_full_report_golden():
    """The signature row up to its ceiling, n = 4..10, against the full
    report golden (the max-n 8 goldens stop at n = 8)."""
    golden = Path(__file__).parent.parent / "perfbench" / "golden" / "verify.txt"
    expected = [
        line for line in golden.read_text().splitlines()
        if "  signature-determines-disjoint  " in line
    ]
    assert len(expected) == 7
    assert [c.line() for c in run_suites(["signature"]).checks] == expected
