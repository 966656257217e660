"""Tests for the identity-verification framework."""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest
from helpers import (
    all_triangulations,
    canonical_orbit_constant_by_images,
    images_read_in_class_by_images,
)

from polytri import cli, compositions, disjoint, verify
from polytri.disjoint import arrow, snake
from polytri.triangulation import Triangulation
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
    # the wrapped suite still times its rows, in table order
    assert [check_id for check_id, _ in report.row_times] == [
        row.check_id for row in verify.CHECKS if row.suite in ("core", "parallel")
    ]
    assert sum(seconds for _, seconds in report.row_times) <= report.wall_time
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


def test_suites_run_in_requested_order():
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


# -- table rows against their per-image oracles ------------------------------------

# check id -> (the triangulations it tallies at n, its per-image predicate)
IMAGE_ORACLES = {
    "canonical-orbit-constant": (all_triangulations, canonical_orbit_constant_by_images),
    "image-readings-in-class": (
        lambda n: [t for t in all_triangulations(n) if t.ear_count() == 2],
        images_read_in_class_by_images,
    ),
}


def _row(check_id: str) -> verify.Row:
    (row,) = [row for row in verify.CHECKS if row.check_id == check_id]
    return row


def _oracle_tally(check_id: str, n: int) -> tuple[int, int]:
    items, holds = IMAGE_ORACLES[check_id]
    return verify._tally(items(n), holds)


def _reported_tally(suite: str, check_id: str, n: int) -> tuple[str, int, int]:
    """(status, total, good) of the row's line at n in the suite's report."""
    (check,) = [c for c in run_suites([suite], max_n=n).checks
                if c.check_id == check_id and c.n == str(n)]
    return check.status, int(check.expected), int(check.got)


@pytest.mark.parametrize("check_id, n", [
    (check_id, n) for check_id in IMAGE_ORACLES
    for n in range(_row(check_id).first, _row(check_id).ceiling + 1)
])
def test_table_rows_equal_their_per_image_oracles(check_id, n):
    assert _row(check_id).body(n) == _oracle_tally(check_id, n)


def test_canonical_row_fails_under_a_one_class_fault(monkeypatch):
    """canonical() returns each member of the fan's class itself, which is
    not its least image but for one member: the row must fail on exactly
    the triangulations the per-image oracle rejects."""
    n = 7
    least = Triangulation.canonical
    fan = least(arrow(n))

    def faulty(self):
        c = least(self)
        return self if c == fan else c

    monkeypatch.setattr(Triangulation, "canonical", faulty)
    status, total, good = _reported_tally("core", "canonical-orbit-constant", n)
    assert status == "FAIL" and 0 < good < total
    assert (total, good) == _oracle_tally("canonical-orbit-constant", n)


def test_image_row_fails_under_one_misread_reflection(monkeypatch):
    """composition_of reads the snake's reflection as the fan's composition,
    outside the snake's class: the row must fail on exactly the
    triangulations the per-image oracle rejects."""
    n = 8
    reading = compositions.composition_of
    mirror = snake(n).reflected()
    wrong = reading(arrow(n))
    assert mirror != snake(n)
    assert wrong not in compositions.composition_class(reading(mirror))

    def faulty(t):
        return wrong if t.diagonals == mirror.diagonals else reading(t)

    monkeypatch.setattr(compositions, "composition_of", faulty)
    status, total, good = _reported_tally("compositions", "image-readings-in-class", n)
    assert status == "FAIL" and 0 < good < total
    assert (total, good) == _oracle_tally("image-readings-in-class", n)


def _off_by_one_when(fault):
    """A fault that adds 1 to what a function returns when `fault(*args)`
    holds, so only the rows fed those arguments disagree."""
    def patch(original):
        return lambda *args: original(*args) + bool(fault(*args))
    return patch


@pytest.mark.parametrize("function, patch, argv, line", [
    # parallel-two-residues reports each route's value when they disagree
    ("count_avoiding_parallel", _off_by_one_when(lambda n, residues: n == 5),
     ["--suite", "parallel", "--max-n", "5"],
     "FAIL  parallel-two-residues  n=5 params=residues={1,2} expected=2 got=avoid=3,snake=2"),
    # the fan-avoidance row names the first apex whose count is off
    ("count_avoiding", _off_by_one_when(lambda n, forbidden: tuple(forbidden) == ((1, 3),)),
     ["--suite", "disjoint-3ear", "--max-n", "4"],
     "FAIL  fan-avoidance-formula  n=4 params=m=0..1 expected=all-apexes-match "
     "got=m=1,apex=1,expected=1,got=2"),
    # a published variant that agrees everywhere is a failure, not a pass
    ("three_ear_disjoint_published", lambda original: disjoint.three_ear_disjoint,
     ["--suite", "disjoint-3ear", "--max-n", "6"],
     "FAIL  three-ear-published-variant  n=6..6 params=- expected=discrepancy got=none-found"),
], ids=["agreed", "fan-witness", "published-none-found"])
def test_failure_reports_name_the_disagreement(capsys, monkeypatch, function, patch, argv, line):
    monkeypatch.setattr(disjoint, function, patch(getattr(disjoint, function)))
    assert cli.run(["verify", *argv]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [x for x in lines if x.startswith("FAIL")] == [line]
    assert lines[-1].endswith(" 1 fail, 0 erratum")
