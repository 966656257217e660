"""Tests for the identity-verification framework."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from helpers import (
    all_triangulations,
    canonical_orbit_constant_by_images,
    child_env,
    count_forks,
    images_read_in_class_by_images,
    no_child_left,
)

from polytri import _workers, cli, compositions, disjoint, verify
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
    with pytest.raises(ValueError) as info:
        run_suites(["core"], 6.5)
    assert str(info.value) == "max_n must be an int, got 6.5"


def test_a_bare_string_of_suites_is_refused_by_name():
    with pytest.raises(ValueError) as info:
        run_suites("core")
    assert str(info.value) == "suites must be a list of suite names, got 'core'"


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
    first = run_suites(max_n=7).render_text()
    assert run_suites(max_n=7).render_text() == first


def test_registry_entries_return_the_checks_run_suites_reports():
    report = run_suites(["core", "parallel"], max_n=6)
    suite_of = {row.check_id: row.suite for row in verify.CHECKS}
    # each entry, called directly, runs its rows in this process
    direct = {name: verify.SUITES[name](6) for name in report.suites}
    for name, rows in direct.items():
        assert [c for _, _, checks in rows for c in checks] == [
            c for c in report.checks if suite_of[c.check_id] == name]
    from_registry = tuple(c for rows in direct.values() for _, _, checks in rows for c in checks)
    assert RunReport(report.suites, 6, from_registry, 0.0).render_text() == report.render_text()
    assert [name for name, _ in report.suite_times] == list(report.suites) == ["core", "parallel"]
    assert [check_id for check_id, _ in report.row_times] == [
        row.check_id for row in verify.CHECKS if row.suite in ("core", "parallel")
    ]
    # a suite's time is the sum of its rows' times, wherever they ran
    for name, seconds in report.suite_times:
        assert seconds == sum(t for check_id, t in report.row_times if suite_of[check_id] == name)
    assert verify.thread_count() == 1


# -- in this process and in worker processes ------------------------------------------


def _run_with_cpus(monkeypatch, cpus, *args, **kwargs):
    """run_suites as if `cpus` CPUs were usable: 1 runs the rows in this
    process, 2 in forked workers where the platform allows."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    return run_suites(*args, **kwargs)


@pytest.mark.parametrize("suites, max_n, render", [
    (None, 6, RunReport.render_text),
    (None, 8, RunReport.render_text),
    (["compositions"], 16, RunReport.render_text),
    (None, 8, RunReport.render_json),
], ids=["max-n-6", "max-n-8", "compositions-16", "max-n-8-json"])
def test_workers_report_the_same_bytes_as_this_process(monkeypatch, suites, max_n, render):
    alone = _run_with_cpus(monkeypatch, 1, suites, max_n)
    pooled = _run_with_cpus(monkeypatch, 2, suites, max_n)
    assert render(pooled) == render(alone)
    assert [c for c, _ in pooled.row_times] == [c for c, _ in alone.row_times]
    assert no_child_left()


def _pid(n):
    return os.getpid(), os.getpid()


def _pid_rows():
    """Two rows whose lines report the pid of the process that ran them."""
    return tuple(verify.Row("core", f"pid-{i}", 4, 4, 4, 1, "-", _pid) for i in range(2))


@pytest.mark.parametrize("cpus", [1, 2])
def test_rows_leave_this_process_only_when_more_than_one_cpu_is_usable(monkeypatch, cpus):
    monkeypatch.setattr(verify, "CHECKS", _pid_rows())
    report = _run_with_cpus(monkeypatch, cpus, ["core"])
    pids = {int(c.got) for c in report.checks}
    assert (pids == {os.getpid()}) == (cpus == 1)
    assert no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_row_that_raises_reaches_the_caller_unchanged(monkeypatch, cpus):
    def boom(n):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "CHECKS", tuple(
        row._replace(body=boom) if row.check_id == "parallel-two-residues" else row
        for row in verify.CHECKS))
    with pytest.raises(ValueError) as info:
        _run_with_cpus(monkeypatch, cpus, ["core", "parallel"], max_n=6)
    assert type(info.value) is ValueError and str(info.value) == "boom"
    assert no_child_left()


def _pid_of_row(max_n, index):
    """A row's (check id, seconds, checks), whose check id is the pid of the
    process that ran it."""
    return str(os.getpid()), 0.0, []


def test_a_window_below_the_fork_threshold_runs_every_row_here(monkeypatch):
    monkeypatch.setattr(verify, "_run_row", _pid_of_row)
    forks = count_forks(monkeypatch)
    below = _run_with_cpus(monkeypatch, 2, max_n=_workers.FORK_FROM["max_n"] - 1)
    assert [pid for pid, _ in below.row_times] == [str(os.getpid())] * len(verify.CHECKS)
    assert forks == []
    # a full run, each row over its own window, still forks one worker per
    # CPU, and unlike a listing this process takes no row beside them, so
    # the rows' working memory stays out of its peak RSS
    full = _run_with_cpus(monkeypatch, 2)
    monkeypatch.undo()
    assert str(os.getpid()) not in {pid for pid, _ in full.row_times}
    assert len(full.row_times) == len(verify.CHECKS)
    assert forks == [os.getpid()] * 2
    assert no_child_left()


def _child(script: str) -> subprocess.CompletedProcess:
    """A fresh Python process running script with the package under test."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(PYTHONUNBUFFERED=None), timeout=60)


def test_text_buffered_before_the_workers_start_is_written_once():
    proc = _child(
        "from polytri import _workers, verify\n"
        "_workers._usable_cpus = lambda: 2\n"
        "print('buffered', end='')\n"
        "verify.run_suites(max_n=5)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered", "")


@pytest.mark.parametrize("setup", [
    "_workers._usable_cpus = lambda: 1",
    "_workers._usable_cpus = lambda: 2\n"
    "del os.fork",
    # a lock another thread held at a fork would stay held in the worker
    "_workers._usable_cpus = lambda: 2\n"
    "done = threading.Event()\n"
    "threading.Thread(target=done.wait).start()",
], ids=["one-cpu", "no-fork", "another-thread"])
def test_rows_stay_in_this_process_without_two_cpus_fork_and_one_thread(setup):
    proc = _child(
        "import os, threading\n"
        "from polytri import _workers, verify\n"
        "def pid(n):\n"
        "    return os.getpid(), os.getpid()\n"
        "verify.CHECKS = tuple(verify.Row('core', f'pid-{i}', 4, 4, 4, 1, '-', pid)\n"
        "                      for i in range(2))\n"
        f"{setup}\n"
        "report = verify.run_suites(['core'])\n"
        "print(*{c.got for c in report.checks} - {str(os.getpid())})\n"
        "if threading.active_count() > 1:\n"
        "    done.set()\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def _die_in_a_worker(n, parent=os.getpid()):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return 0, 0


def test_a_worker_that_dies_ends_the_call_with_a_named_error(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", tuple(
        verify.Row("core", f"die-{i}", 4, 4, 4, 1, "-", _die_in_a_worker) for i in range(2)))
    with pytest.raises(verify.WorkerDied, match="^a verify worker died$"):
        _run_with_cpus(monkeypatch, 2, ["core"])
    assert no_child_left()


def test_a_worker_that_dies_ends_verify_with_exit_1_and_one_line():
    proc = _child(
        "import os, signal, sys\n"
        "from polytri import cli, verify\n"
        "def die(n, parent=os.getpid()):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return 0, 0\n"
        "verify.CHECKS = (verify.Row('core', 'die', 4, 4, 4, 1, '-', die),) * 2\n"
        "from polytri import _workers\n"
        "_workers._usable_cpus = lambda: 2\n"
        "sys.exit(cli.run(['verify']))\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "polytri: error: a verify worker died\n")


def test_a_second_call_still_runs_its_rows_in_workers(monkeypatch):
    """The runner starts no thread, so the next call still finds this
    process free to fork."""
    monkeypatch.setattr(verify, "CHECKS", _pid_rows())
    for _ in range(2):
        report = _run_with_cpus(monkeypatch, 2, ["core"])
        assert os.getpid() not in {int(c.got) for c in report.checks}
        assert threading.active_count() == 1
    assert no_child_left()


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
