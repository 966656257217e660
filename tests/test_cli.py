"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import contextlib
import errno
import functools
import hashlib
import importlib
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import textwrap
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from helpers import (
    child_env,
    count_forks,
    listing_by_recursion,
    no_child_left,
    open_fds,
    refused_at,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import _workers, cli, compositions, counting, disjoint, svgfig, triangulation, verify
from polytri.counting import catalan, symmetry_classes_2ear
from polytri.verify import Check, RunReport

GOLDEN_DIR = Path(__file__).parent / "golden"

# Python's default limit on the digits of an int written in decimal
INT_DIGITS = 4300


@pytest.fixture
def default_int_digits():
    """Pin the int-to-decimal digit limit at Python's default for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_DIGITS)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def int_digits():
    """sys.set_int_max_str_digits, with the old limit put back after the test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


def assert_too_long_reported(err, command, ns):
    """err names each n (or span 'a..b') in ns as too long to print, and
    nothing else."""
    assert err.splitlines() == [
        f"{cli.PROG}: {command}: n={n}: value too long to print "
        f"(over {INT_DIGITS} decimal digits)"
        for n in ns
    ]


def assert_single_value_too_long(captured):
    """A one-value command printed nothing and refused its value as too long."""
    assert captured.out == ""
    assert captured.err == (
        f"{cli.PROG}: error: value too long to print (over {INT_DIGITS} decimal digits)\n"
    )


# a size whose counts would take gigabytes to hold, far past any digit limit
HUGE = "10000000000"

# the ceilings of three rows of the CLI's domain table
ORBIT_CEILING = cli.DOMAINS["orbit"].ceiling
COUNT_DISJOINT_CEILING = cli.DOMAINS["count_disjoint"].ceiling
SVG_CEILING = cli.DOMAINS["svg"].ceiling


def invoke(argv):
    """Run the CLI in-process; a SystemExit escaping `run` fails the test."""
    return cli.run(argv)


# -- enumerate ------------------------------------------------------------------


def test_enumerate_square(capsys):
    assert invoke(["enumerate", "--n", "4"]) == 0
    assert capsys.readouterr().out == "4:0-2\n4:1-3\n"


def test_enumerate_count_only(capsys):
    assert invoke(["enumerate", "--n", "6", "--count-only"]) == 0
    assert capsys.readouterr().out == "14\n"


def test_enumerate_ear_filtered_count(capsys):
    assert invoke(["enumerate", "--n", "6", "--ears", "3", "--count-only"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_enumerate_ear_filtered_listing(capsys):
    assert invoke(["enumerate", "--n", "6", "--ears", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["6:0-2,0-4,2-4", "6:1-3,1-5,3-5"]


@pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["listing", "count-only"])
def test_enumerate_refuses_fewer_than_two_ears(capsys, count_only):
    assert invoke(["enumerate", "--n", "4", "--ears", "1", *count_only]) == 1
    captured = capsys.readouterr()
    assert "every triangulation has >= 2 ears" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ears", [1, 0, -3])
def test_listing_refuses_fewer_than_two_ears(ears):
    with pytest.raises(ValueError, match=f"every triangulation has >= 2 ears, got k={ears}$"):
        triangulation.listing(12, ears)


def test_enumerate_listing_above_max_ears_is_empty(capsys):
    assert invoke(["enumerate", "--n", "6", "--ears", "4"]) == 0
    assert capsys.readouterr().out == ""


# Every ear count of n <= 11 (2 to n/2, and one or two above for n <= 7),
# at the shape cache's bound and at two lower ones.  Above the bound a
# size is split, and a left part is asked for several ear counts at once:
# bound 5 catches cached shapes yielded grouped by count instead of in
# order (at bound 3 every cached size has a single shape).
@pytest.mark.parametrize(
    "n, ears, bound",
    [pytest.param(n, k, bound, id=f"{n}-{k}{suffix}")
     for bound, suffix in [(11, ""), (3, "-bound3"), (5, "-bound5")]
     for n in range(3, 12)
     for k in ([None] if n == 3 else [None, *sorted({2, 3, 4, n // 2})])],
)
def test_enumerate_listing_matches_recursive_oracle(capsys, monkeypatch, n, ears, bound):
    monkeypatch.setattr(triangulation, "_SHAPE_CACHE_MAX", bound)
    filters = [] if ears is None else ["--ears", str(ears)]
    assert invoke(["enumerate", "--n", str(n), *filters]) == 0
    assert capsys.readouterr().out.splitlines() == listing_by_recursion(n, ears)


# sha256 of `polytri enumerate --n 14 --ears k` stdout, written by the
# listing that enumerated all C(12) triangulations and kept those with k ears
N14_LISTING_SHA256 = {
    2: "0d42c2eecc0154aff5db426b1bd429f2836ae3828a5c3054bf71067150a6e2df",
    3: "dcba88b969aa28d450fec6a2143441f0f79ddbaa3d3c9f73a60f522b9e1cbced",
    4: "b88370bad634b78ab5f57c3c1fe0b705d9348fb01ef30af86d8eb1b00633310a",
    5: "72c9dbcf88d39fa775bf89ac0489416b470607a8c74cf9a646f3173c5a92622d",
    6: "7af814ec0397ad5ec68d9baf7332f48a8e458d3f1bfbcca2ca76b24ca9909f32",
    7: "2e40b7478ed5b17bc0e7b98f36d400d3be658b6daef11921bf45571a98144681",
}


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so a listing above the fork bound forks its workers."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("ears", sorted(N14_LISTING_SHA256))
def test_enumerate_n14_ear_listing_is_pinned(capsys, two_cpus, ears):
    assert invoke(["enumerate", "--n", "14", "--ears", str(ears)]) == 0
    out = capsys.readouterr().out.encode()
    assert out.count(b"\n") == counting.hurtado_noy(14, ears)
    assert hashlib.sha256(out).hexdigest() == N14_LISTING_SHA256[ears]


# sha256 of the stdout of unfiltered listings above the shape cache bound,
# written by the enumerator that kept its own split loop apart from the
# ear-filtered listing's
UNFILTERED_LISTING_SHA256 = {
    "13": "a19bb69231d5c864e94e36d49bdbbbd056a42ccc241604c02b883c79138d3c28",
    "14": "976af95ef3fe3474d50c2ddb40ca439ddd02276d9ecef712a38c1d9cbbdaa212",
    "12-json": "6b569dbec05ed2c7b818bc81088f9a883978171fa54d47242cb52f5250ceaa2e",
}


@pytest.mark.parametrize("case", sorted(UNFILTERED_LISTING_SHA256))
def test_enumerate_unfiltered_listing_is_pinned(capsys, two_cpus, case):
    n, _, fmt = case.partition("-")
    formats = ["--format", fmt] if fmt else []
    assert invoke(["enumerate", "--n", n, *formats]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == UNFILTERED_LISTING_SHA256[case]


@pytest.mark.parametrize("argv, digest", [
    *((["--n", "14", "--ears", str(k)], digest) for k, digest in N14_LISTING_SHA256.items()),
    *((["--n", case.partition("-")[0], *(["--format", "json"] if "json" in case else [])],
       digest) for case, digest in UNFILTERED_LISTING_SHA256.items()),
], ids=[*(f"14-{k}" for k in N14_LISTING_SHA256), *UNFILTERED_LISTING_SHA256])
def test_pinned_listings_are_the_same_bytes_on_one_cpu(capsys, monkeypatch, argv, digest):
    # the apexes' chunks made one after another in this process
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    assert invoke(["enumerate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("call", [1, 2], ids=["first-fork", "second-fork"])
@pytest.mark.parametrize("argv", [["verify", "--max-n", "9"], ["enumerate", "--n", "13"]],
                         ids=["verify", "listing"])
def test_a_refused_fork_answers_in_this_process(capsys, monkeypatch, argv, call):
    # fork refused with EAGAIN at the first or the second worker: every
    # task runs here, with the bytes of one usable CPU, and the worker
    # forked before is reaped.  verify forks one worker per usable CPU
    # from --max-n 9 up; a listing forks one fewer, as this process lists
    # apexes beside them, so it sees three CPUs to fork a second one
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    assert invoke(argv) == 0
    one_cpu = capsys.readouterr()
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2 if argv[0] == "verify" else 3)
    fds = open_fds()
    monkeypatch.setattr(os, "fork", refused_at(os.fork, call))
    forks = count_forks(monkeypatch)
    assert invoke(argv) == 0
    monkeypatch.undo()
    assert len(forks) == call  # the refused fork is one the command makes
    out, err = capsys.readouterr()
    assert (out, err) == one_cpu and err == ""
    if argv[0] == "enumerate":
        assert hashlib.sha256(out.encode()).hexdigest() == UNFILTERED_LISTING_SHA256["13"]
    assert no_child_left()
    assert open_fds() == fds


def _ignore_sigchld() -> None:
    """Run in the child before it execs: an ignored SIGCHLD stays ignored
    across exec, as under `bash -c "trap '' CHLD; ..."`."""
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


@pytest.mark.parametrize("argv", [["verify", "--max-n", "9"], ["enumerate", "--n", "13"]],
                         ids=["verify", "listing"])
def test_polytri_answers_with_sigchld_ignored(capsys, monkeypatch, argv):
    # two usable CPUs, and a call that forks there (verify from --max-n 9),
    # so the command would fork its workers on any machine: it answers
    # with the bytes of one usable CPU
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    assert invoke(argv) == 0
    one_cpu = capsys.readouterr().out.encode()
    launch = ("from polytri import _workers\nfrom polytri.__main__ import main\n"
              "_workers._usable_cpus = lambda: 2\nmain()\n")
    done = subprocess.run([sys.executable, "-c", launch, *argv], capture_output=True,
                          env=child_env(), preexec_fn=_ignore_sigchld, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, b"", one_cpu)
    if argv[0] == "enumerate":
        assert hashlib.sha256(done.stdout).hexdigest() == UNFILTERED_LISTING_SHA256["13"]


@pytest.mark.parametrize("argv, lines, tasks", [
    (["--n", "3"], 1, [2]),
    (["--n", "9"], 429, [2, 8, 3, 7, 4, 6, 5]),
    (["--n", "13", "--ears", "5"], 8736, [2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]),
    (["--n", "12", "--format", "json"], 16796, [2, 11, 3, 10, 4, 9, 5, 8, 6, 7]),
    (["--n", "13"], 58786, [2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7]),
], ids=["3", "9", "13-5", "12-json", "13"])
def test_every_listing_is_one_task_per_apex_outer_first(capsys, monkeypatch, argv, lines,
                                                         tasks):
    seen = []

    def recorded(fn, given, **flags):
        seen.extend(given)
        # the runner decides from the line count whether to fork, and this
        # process lists apexes beside any workers
        assert flags == {"here": True, "lines": lines}
        return [fn(task) for task in given]

    monkeypatch.setattr(_workers, "map", recorded)
    assert invoke(["enumerate", *argv]) == 0
    assert seen == tasks


@pytest.mark.parametrize("argv, lines, forks", [
    (["--n", "13", "--ears", "5"], 8736, 0),
    (["--n", "12", "--format", "json"], 16796, 1),
], ids=["13-5", "12-json"])
def test_a_listing_forks_one_worker_only_from_the_line_threshold(
        capsys, monkeypatch, two_cpus, argv, lines, forks):
    # the apexes this process lists; with a worker, its first one waits
    # until the worker has listed one, so that each lists some
    parent, here = os.getpid(), []
    ran_r, ran_w = os.pipe()
    listing_chunk = cli._listing_chunk

    def chunk(n, k, as_json, apex):
        if os.getpid() == parent:
            here.append(apex)
            if forks and len(here) == 1:
                select.select([ran_r], [], [], 10)
        text = listing_chunk(n, k, as_json, apex)
        if os.getpid() != parent:
            os.write(ran_w, b"x")
        return text

    monkeypatch.setattr(cli, "_listing_chunk", chunk)
    forked = count_forks(monkeypatch)
    try:
        assert invoke(["enumerate", *argv]) == 0
    finally:
        os.close(ran_r)
        os.close(ran_w)
    assert forked == [parent] * forks
    apexes = int(argv[1]) - 2
    assert (0 < len(here) < apexes) if forks else len(here) == apexes
    out = capsys.readouterr().out
    assert (len(json.loads(out)["triangulations"]) if "json" in argv
            else out.count("\n")) == lines
    assert no_child_left()


@pytest.mark.parametrize("argv, err", [
    (["--n", "3", "--ears", "2"], "ears are undefined for n < 4"),
    (["--n", "14", "--ears", "1"], "every triangulation has >= 2 ears, got k=1"),
    (["--n", "15"], "full listings are supported for 3 <= n <= 14, got n=15 "
                    "(use --count-only for larger n)"),
    (["--n", "15", "--ears", "1"], "full listings are supported for 3 <= n <= 14, got n=15 "
                                   "(use --count-only for larger n)"),
], ids=["n-3-ears-2", "n-14-ears-1", "n-15", "n-15-ears-1"])
def test_enumerate_refuses_a_listing_in_one_line(capsys, argv, err):
    assert invoke(["enumerate", *argv]) == 1
    assert capsys.readouterr() == ("", f"{cli.PROG}: error: {err}\n")


def test_a_listing_worker_that_dies_exits_1_with_one_line():
    # the calling process lists apexes too: its own wait until the worker
    # has taken one, so that a worker dies
    proc = subprocess.run([sys.executable, "-c", (
        "import os, select, signal, sys\n"
        "from polytri import _workers, cli\n"
        "died_r, died_w = os.pipe()\n"
        "def die(n, k, as_json, apex, parent=os.getpid()):\n"
        "    if os.getpid() != parent:\n"
        "        os.write(died_w, b'x')\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    select.select([died_r], [], [], 10)\n"
        "    return ''\n"
        "cli._listing_chunk = die\n"
        "_workers._usable_cpus = lambda: 2\n"
        "sys.exit(cli.run(['enumerate', '--n', '13']))\n")],
        capture_output=True, text=True, env=child_env(PYTHONUNBUFFERED=None), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"{cli.PROG}: error: a listing worker died\n")


def test_a_second_listing_forks_workers_that_inherit_the_shape_tables():
    # in a process of its own, so the tables start cold: the first forked
    # listing builds them here, and the second one's worker and this
    # process, each task reporting its pid and the table's misses, build
    # none of them again; this process's tasks wait until the worker has
    # run one, so that the worker takes a task
    proc = subprocess.run([sys.executable, "-c", (
        "import contextlib, io, os, select\n"
        "from polytri import _workers, cli, triangulation\n"
        "_workers._usable_cpus = lambda: 2\n"
        "shapes = triangulation._cached_shapes\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['enumerate', '--n', '13']) == 0\n"
        "built = shapes.cache_info()\n"
        "listing_chunk = cli._listing_chunk\n"
        "ran_r, ran_w = os.pipe()\n"
        "def chunk(*args, parent=os.getpid()):\n"
        "    if os.getpid() == parent:\n"
        "        select.select([ran_r], [], [], 10)\n"
        "    listing_chunk(*args)\n"
        "    if os.getpid() != parent:\n"
        "        os.write(ran_w, b'x')\n"
        "    return f'{os.getpid()} {shapes.cache_info().misses}\\n'\n"
        "cli._listing_chunk = chunk\n"
        "print(os.getpid(), built.currsize, built.misses)\n"
        "assert cli.run(['enumerate', '--n', '13']) == 0\n")],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    head, *tasks = proc.stdout.splitlines()
    parent, size, misses = map(int, head.split())
    assert size > 0
    assert len(tasks) == 11  # apexes 2..12
    pids = set()
    for task in tasks:
        pid, task_misses = map(int, task.split())
        pids.add(pid)
        assert task_misses == misses
    assert len(pids - {parent}) == 1  # one worker, which took a task


def test_enumerate_ear_filter_above_max_ears_skips_enumeration(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the listing enumerated or forked for an empty ear filter")

    for name in ("_cached_shapes", "_split_shapes"):
        monkeypatch.setattr(triangulation, name, refuse)
    monkeypatch.setattr(_workers, "_forked", refuse)
    assert invoke(["enumerate", "--n", "14", "--ears", "8"]) == 0
    assert capsys.readouterr().out == ""
    assert invoke(["enumerate", "--n", "14", "--ears", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 14, "ears": 8, "triangulations": []}


def test_enumerate_count_only_scales_past_listing_cap(capsys):
    assert invoke(["enumerate", "--n", "20", "--count-only"]) == 0
    assert capsys.readouterr().out == "477638700\n"


@pytest.mark.parametrize("ears", [[], ["--ears", "3"]], ids=["all", "3-ears"])
def test_enumerate_count_only_refuses_huge_n_up_front(capsys, default_int_digits, ears):
    assert invoke(["enumerate", "--n", HUGE, *ears, "--count-only"]) == 1
    assert_single_value_too_long(capsys.readouterr())


def test_zero_ear_counts_print_at_huge_n(capsys, default_int_digits):
    k = str(int(HUGE) // 2 + 1)
    assert invoke(["enumerate", "--n", HUGE, "--ears", k, "--count-only"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert invoke(["sequence", "--what", f"hurtado-noy:{k}", "--n", HUGE]) == 0
    assert capsys.readouterr().out == "0\n"


def test_refusal_bound_is_below_every_count():
    """Each count the CLI refuses up front at size n really is too long:
    checked at the first refused n under the least digit limit, 640."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = 2 * (640 * 10 // 3 + 3)
        cli._refuse("printed", n - 1)
        with pytest.raises(ValueError, match="value too long to print"):
            cli._refuse("printed", n)
    finally:
        sys.set_int_max_str_digits(old)
    floor = 10 ** 640
    counts = [
        catalan(n - 2), catalan(n - 3), counting.symmetry_classes_2ear(n),
        counting.symmetry_classes_3ear(n), compositions.count_classes(n, "closed"),
        disjoint.disjoint_two_eared(n), disjoint.three_ear_disjoint(n, (1, 1, n - 5)),
        disjoint.three_ear_disjoint(n, (n // 3, n // 3, n - 3 - 2 * (n // 3))),
        *(counting.hurtado_noy(n, k) for k in (2, 3, n // 4, n // 2 - 1, n // 2)),
    ]
    assert all(count >= floor for count in counts)


@pytest.mark.parametrize("limit", [640, 4300])
def test_printable_agrees_with_str_at_the_digit_limit(int_digits, limit):
    int_digits(limit)
    for value in (10 ** limit - 1, -(10 ** limit - 1), 10 ** limit, -(10 ** limit)):
        try:
            str(value)
            written = True
        except ValueError:
            written = False
        assert written is (abs(value) < 10 ** limit)
        if written:
            assert cli._printable(value) == value
        else:
            with pytest.raises(cli._TooLarge, match="value too long to print"):
                cli._printable(value)
    int_digits(0)
    assert cli._printable(10 ** limit) == 10 ** limit


def test_enumerate_listing_capped(capsys):
    assert invoke(["enumerate", "--n", "15"]) == 1
    assert "3 <= n <= 14" in capsys.readouterr().err


def test_enumerate_refuses_n_below_3_in_one_wording(capsys):
    errs = []
    for count_only in ([], ["--count-only"]):
        assert invoke(["enumerate", "--n", "2", *count_only]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs == [f"{cli.PROG}: error: polygon needs at least 3 vertices, got n=2\n"] * 2


def test_enumerate_json(capsys):
    assert invoke(["enumerate", "--n", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 4, "ears": None, "triangulations": ["4:0-2", "4:1-3"]}


def test_enumerate_triangle_has_empty_diagonal_list(capsys):
    assert invoke(["enumerate", "--n", "3"]) == 0
    assert capsys.readouterr().out == "3:\n"


@pytest.mark.parametrize(
    "argv, golden",
    [
        # the full listing order, 429 lines
        (["--n", "9"], "enumerate-n-9.txt"),
        # an ear filter and the JSON envelope
        (["--n", "10", "--ears", "3", "--format", "json"], "enumerate-n-10-ears-3.json"),
    ],
)
def test_enumerate_listing_matches_golden_bytes(capsys, argv, golden):
    assert invoke(["enumerate", *argv]) == 0
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().out.encode() == expected


# -- symmetry -------------------------------------------------------------------


def test_symmetry_range_both_methods(capsys):
    assert invoke(["symmetry", "--n", "6..8", "--ears", "2", "--method", "both"]) == 0
    assert capsys.readouterr().out == "6 2 2\n7 3 3\n8 6 6\n"


def test_symmetry_single_value_is_bare(capsys):
    assert invoke(["symmetry", "--n", "6", "--ears", "all"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_symmetry_three_ears_nonagon(capsys):
    assert invoke(["symmetry", "--n", "9", "--ears", "3"]) == 0
    assert capsys.readouterr().out == "14\n"


def test_symmetry_csv(capsys):
    assert invoke(["symmetry", "--n", "6..7", "--ears", "2", "--method", "both",
                   "--format", "csv"]) == 0
    assert capsys.readouterr().out == "n,closed,orbit\n6,2,2\n7,3,3\n"


def test_symmetry_json_round_trips(capsys):
    assert invoke(["symmetry", "--n", "5..7", "--ears", "2", "--method", "closed",
                   "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [
        {"n": 5, "ears": "2", "closed": 1},
        {"n": 6, "ears": "2", "closed": 2},
        {"n": 7, "ears": "2", "closed": 3},
    ]


def test_symmetry_closed_form_outside_domain(capsys):
    assert invoke(["symmetry", "--n", "4..5", "--ears", "2", "--method", "closed"]) == 1
    captured = capsys.readouterr()
    assert "n=4" in captured.err
    assert captured.out == "5 1\n"  # surviving row keeps its n column


def test_symmetry_no_closed_form_for_all_ears(capsys):
    assert invoke(["symmetry", "--n", "6", "--ears", "all", "--method", "closed"]) == 1
    assert "closed forms exist only" in capsys.readouterr().err


@pytest.mark.parametrize("ears", ["2", "3"])
def test_symmetry_closed_refuses_huge_n_up_front(capsys, default_int_digits, ears):
    assert invoke(["symmetry", "--n", HUGE, "--ears", ears, "--method", "closed"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_too_long_reported(captured.err, "symmetry", [HUGE])


def test_symmetry_orbit_infeasible_beyond_ceiling(capsys):
    assert invoke(["symmetry", "--n", str(ORBIT_CEILING + 1), "--ears", "2"]) == 1
    assert f"orbit counting is feasible for n <= {ORBIT_CEILING}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["orbit", "both"])
def test_symmetry_orbit_range_past_the_ceiling_is_refused_whole(capsys, default_int_digits,
                                                                method):
    span = f"{ORBIT_CEILING + 1}..{PRINTABLE_BOUND}"
    start = time.perf_counter()
    assert invoke(["symmetry", "--n", span, "--ears", "2", "--method", method]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"polytri: symmetry: n={span}: orbit counting is feasible for n <= {ORBIT_CEILING}"
    ]


def test_symmetry_range_straddling_the_orbit_ceiling_ends_at_one_line(capsys, monkeypatch):
    monkeypatch.setitem(cli.DOMAINS, "orbit", cli.DOMAINS["orbit"]._replace(ceiling=7))
    assert invoke(["symmetry", "--n", "6..9", "--ears", "2", "--method", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "6 2 2\n7 3 3\n"
    assert captured.err.splitlines() == [
        "polytri: symmetry: n=8..9: orbit counting is feasible for n <= 7"
    ]


def test_symmetry_json_ends_at_the_first_refused_row(capsys, monkeypatch):
    monkeypatch.setitem(cli.DOMAINS, "orbit", cli.DOMAINS["orbit"]._replace(ceiling=7))
    argv = ["symmetry", "--n", "6..9", "--ears", "2", "--method", "both", "--format", "json"]
    assert invoke(argv) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"n": 6, "ears": "2", "closed": 2, "orbit": 2},
        {"n": 7, "ears": "2", "closed": 3, "orbit": 3},
        {"n": 8, "ears": "2", "closed": symmetry_classes_2ear(8), "orbit": None},
    ]


def test_symmetry_mismatch_and_refusal_lines_keep_n_order(capsys, monkeypatch):
    monkeypatch.setitem(cli.DOMAINS, "orbit", cli.DOMAINS["orbit"]._replace(ceiling=6))
    monkeypatch.setattr(cli.counting, "symmetry_classes_orbit", lambda n, ears=None: 999)
    assert invoke(["symmetry", "--n", "5..7", "--ears", "2", "--method", "both"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "5 1 999\n6 2 999\n"
    assert captured.err.splitlines() == [
        "polytri: symmetry: n=5: closed=1 orbit=999 MISMATCH",
        "polytri: symmetry: n=6: closed=2 orbit=999 MISMATCH",
        "polytri: symmetry: n=7: orbit counting is feasible for n <= 6",
    ]


@pytest.mark.parametrize("ears", ["2", "3"])
def test_symmetry_orbit_answers_above_old_ceiling(capsys, ears):
    assert invoke(["symmetry", "--n", "15", "--ears", ears, "--method", "both"]) == 0
    n, closed, orbit = capsys.readouterr().out.split()
    assert n == "15" and closed == orbit


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_symmetry_reports_values_too_long_to_print(capsys, default_int_digits, fmt):
    assert symmetry_classes_2ear(14290) < 10 ** INT_DIGITS <= symmetry_classes_2ear(14291)
    argv = ["symmetry", "--n", "14290..14300", "--ears", "2", "--method", "closed",
            "--format", fmt]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert_too_long_reported(captured.err, "symmetry", ["14291..14300"])
    value = symmetry_classes_2ear(14290)
    if fmt == "json":
        assert json.loads(captured.out) == [
            {"n": 14290, "ears": "2", "closed": value},
            {"n": 14291, "ears": "2", "closed": None},
        ]
    elif fmt == "csv":
        assert captured.out == f"n,closed\n14290,{value}\n"
    else:
        assert captured.out == f"14290 {value}\n"


def test_symmetry_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.counting, "symmetry_classes_orbit",
                        lambda n, ears=None: 999)
    assert invoke(["symmetry", "--n", "6", "--ears", "2", "--method", "both"]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err
    assert captured.out == "6 2 999\n"


# -- disjoint -------------------------------------------------------------------


def test_disjoint_arrow_both(capsys):
    assert invoke(["disjoint", "--arrow", "--n", "6", "--method", "both"]) == 0
    assert capsys.readouterr().out == "5 5\n"


def test_disjoint_three_ear_type_prints_erratum_note(capsys):
    assert invoke(["disjoint", "--type", "1,1,2", "--n", "7", "--method", "both"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "11 11"
    assert out[1].startswith("note:")
    assert "evaluates to 5" in out[1]


def test_disjoint_inline_brute(capsys):
    assert invoke(["disjoint", "--t", "6:0-2,2-4,0-4", "--method", "brute"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_disjoint_snake_matches_catalan(capsys):
    assert invoke(["disjoint", "--snake", "--n", "11", "--method", "both"]) == 0
    assert capsys.readouterr().out == "1430 1430\n"


def test_disjoint_formula_rejects_four_ears(capsys):
    four_eared = "8:0-2,0-4,0-6,2-4,4-6"
    assert invoke(["disjoint", "--t", four_eared, "--method", "formula"]) == 1
    assert "4-eared" in capsys.readouterr().err


def test_disjoint_requires_exactly_one_shape(capsys):
    assert invoke(["disjoint", "--arrow", "--snake", "--n", "6"]) == 1
    assert invoke(["disjoint"]) == 1


def test_disjoint_shape_flags_need_n(capsys):
    assert invoke(["disjoint", "--arrow"]) == 1
    assert "requires --n" in capsys.readouterr().err


def test_disjoint_json(capsys):
    assert invoke(["disjoint", "--type", "1,1,1", "--n", "6", "--method", "both",
                   "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["brute"] == payload["formula"] == 4
    assert payload["shape"] == "type"
    assert payload["note"].startswith("note:")
    # n and the text form lead the keys, whichever method ran
    assert list(payload) == ["n", "triangulation", "shape", "method", "brute", "formula", "note"]
    assert out.startswith('{"n": 6, "triangulation": "6:0-2,0-4,2-4", "shape": "type", ')
    assert invoke(["disjoint", "--t", "6:2-4,0-4,0-2", "--format", "json"]) == 0
    assert capsys.readouterr().out == ('{"n": 6, "triangulation": "6:0-2,0-4,2-4", '
                                       '"shape": "inline", "method": "brute", "brute": 4}\n')


def test_disjoint_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.disjoint, "count_disjoint", lambda t: 0)
    assert invoke(["disjoint", "--arrow", "--n", "6", "--method", "both"]) == 2
    assert "MISMATCH" in capsys.readouterr().err


def _no_dp(*args):
    raise AssertionError("count_disjoint ran above its ceiling")


# the least polygon size count_disjoint refuses, and a 3-eared type
# (three branches summing to n - 3) of that size
ABOVE_CEILING = COUNT_DISJOINT_CEILING + 1
_THIRD = (ABOVE_CEILING - 3) // 3
TYPE_ABOVE_CEILING = f"{_THIRD},{_THIRD},{ABOVE_CEILING - 3 - 2 * _THIRD}"


@pytest.mark.parametrize("method", ["brute", "both"])
@pytest.mark.parametrize(
    "shape",
    [["--arrow", "--n", str(ABOVE_CEILING)], ["--snake", "--n", str(ABOVE_CEILING)],
     ["--type", TYPE_ABOVE_CEILING, "--n", str(ABOVE_CEILING)],
     ["--t", str(disjoint.arrow(ABOVE_CEILING))]],
    ids=["arrow", "snake", "type", "inline"],
)
def test_disjoint_brute_refuses_above_ceiling(capsys, monkeypatch, shape, method):
    monkeypatch.setattr(cli.disjoint, "count_disjoint", _no_dp)
    assert invoke(["disjoint", *shape, "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "polytri: error: disjointness counts by the O(n^2) tree knapsack are feasible "
        f"for n <= {COUNT_DISJOINT_CEILING}, got n={ABOVE_CEILING} (use --method formula)\n"
    )


def test_brute_ceiling_covers_benchmark_sizes():
    # the disjoint benchmark workload runs --method both up to n = 200
    assert COUNT_DISJOINT_CEILING >= 200


def test_disjoint_formula_answers_above_ceiling(capsys):
    argv = ["disjoint", "--method", "formula", "--arrow", "--n", str(ABOVE_CEILING)]
    assert invoke(argv) == 0
    assert capsys.readouterr().out == f"{catalan(ABOVE_CEILING - 3)}\n"


def test_disjoint_both_answers_above_old_ceiling(capsys):
    assert invoke(["disjoint", "--snake", "--n", "600", "--method", "both"]) == 0
    assert capsys.readouterr().out == f"{catalan(597)} {catalan(597)}\n"


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--count-only", "--n", "8000"],
     ["enumerate", "--count-only", "--n", "8000", "--format", "json"],
     ["disjoint", "--arrow", "--n", "9000", "--method", "formula"],
     ["disjoint", "--arrow", "--n", "9000", "--method", "formula", "--format", "json"],
     ["disjoint", "--type", "3000,3000,2997", "--n", "9000", "--method", "formula"]],
    ids=["enumerate-text", "enumerate-json", "disjoint-text", "disjoint-json", "disjoint-type"],
)
def test_single_value_too_long_to_print(capsys, default_int_digits, argv):
    assert catalan(7998) >= 10 ** INT_DIGITS
    assert invoke(argv) == 1
    assert_single_value_too_long(capsys.readouterr())


@pytest.mark.parametrize(
    "route, argv",
    [("count_disjoint", ["--snake", "--n", "8", "--method", "brute"]),
     ("three_ear_disjoint", ["--type", "1,1,2", "--n", "7", "--method", "formula"]),
     ("three_ear_disjoint_published", ["--type", "1,1,2", "--n", "7", "--method", "both"])],
    ids=["brute", "three-ear", "published"],
)
def test_disjoint_counts_too_long_to_print(capsys, monkeypatch, default_int_digits,
                                           route, argv):
    # count_disjoint stops at its ceiling, far below the limit, so each
    # route is made to return a count past the limit; the unpatched 3-eared
    # route is the disjoint-type case of test_single_value_too_long_to_print
    monkeypatch.setattr(cli.disjoint, route, lambda *args: 10 ** INT_DIGITS)
    assert invoke(["disjoint", *argv]) == 1
    assert_single_value_too_long(capsys.readouterr())


def test_three_ear_formula_is_refused_before_either_sum(capsys, monkeypatch,
                                                        default_int_digits):
    # every 3-eared count is at least C(n-4), which is too long to print here
    def summed(*args):
        raise AssertionError("a count too long to print was summed")

    for route in ("three_ear_disjoint", "three_ear_disjoint_published"):
        monkeypatch.setattr(cli.disjoint, route, summed)
    argv = ["disjoint", "--type", "9556,9556,9556", "--n", "28671", "--method", "formula"]
    assert invoke(argv) == 1
    assert_single_value_too_long(capsys.readouterr())


@pytest.mark.parametrize(
    "shape",
    [["--snake"], ["--arrow"], ["--type", f"1,1,{int(HUGE) - 5}"]],
    ids=["snake", "arrow", "type"],
)
def test_disjoint_formula_refuses_huge_n_up_front(capsys, default_int_digits, shape):
    assert invoke(["disjoint", *shape, "--n", HUGE, "--method", "formula"]) == 1
    assert_single_value_too_long(capsys.readouterr())


@pytest.mark.parametrize("method", ["brute", "formula", "both"])
@pytest.mark.parametrize(
    "shape, message",
    [(["--arrow", "--snake"], "give exactly one of --t, --arrow, --snake, --type"),
     (["--type", "1,x,3"], "bad type '1,x,3'; expected 'p,q,r'"),
     (["--type", "1,1,1"], f"type (1, 1, 1) must sum to n-3 = {int(HUGE) - 3}")],
    ids=["two-shapes", "malformed-type", "type-sum"],
)
def test_disjoint_input_errors_come_before_the_size_checks(capsys, default_int_digits,
                                                          shape, message, method):
    assert invoke(["disjoint", *shape, "--n", HUGE, "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{cli.PROG}: error: {message}\n"


@pytest.mark.parametrize("method", [[], ["--method", "brute"], ["--method", "both"]],
                         ids=["default", "brute", "both"])
def test_disjoint_brute_at_huge_n_points_to_the_formula(capsys, default_int_digits, method):
    assert invoke(["disjoint", "--snake", "--n", HUGE, *method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"feasible for n <= {COUNT_DISJOINT_CEILING}" in captured.err
    assert "(use --method formula)" in captured.err


def test_disjoint_bad_inline_text(capsys):
    assert invoke(["disjoint", "--t", "6:0-2"]) == 1
    assert invoke(["disjoint", "--t", "oops"]) == 1


# --n with --t must name the text's own n; a different one is refused
# before any size check, so a huge --n reads as the conflict it is.
@pytest.mark.parametrize(
    "argv",
    [["svg", "--t", "5:0-2,0-3", "--n", "9"],
     ["svg", "--t", "5:0-2,0-3", "--n", HUGE],
     ["disjoint", "--t", "5:0-2,0-3", "--n", "9"],
     ["disjoint", "--t", "5:0-2,0-3", "--n", "4", "--method", "formula"],
     ["disjoint", "--t", "5:0-2,0-3", "--n", HUGE, "--method", "both"]],
    ids=["svg", "svg-huge", "disjoint", "disjoint-formula", "disjoint-huge"],
)
def test_n_contradicting_the_inline_text_is_refused(capsys, argv):
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"polytri: error: --n {argv[4]} contradicts the 5-gon given by --t\n"


@pytest.mark.parametrize("command", ["disjoint", "svg"])
def test_n_matching_the_inline_text_is_accepted(capsys, command):
    assert invoke([command, "--t", "6:0-2,2-4,0-4"]) == 0
    alone = capsys.readouterr()
    assert invoke([command, "--t", "6:0-2,2-4,0-4", "--n", "6"]) == 0
    assert capsys.readouterr() == alone


# -- verify ---------------------------------------------------------------------


def test_verify_small_run(capsys):
    assert invoke(["verify", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    assert "ERRATUM  three-ear-published-variant" in out
    assert "0 fail" in out.splitlines()[-1]


def test_verify_single_suite(capsys):
    assert invoke(["verify", "--suite", "parallel", "--max-n", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("PASS  snake-residue-diagonals")


def test_verify_json(capsys):
    assert invoke(["verify", "--suite", "core", "--max-n", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["FAIL"] == 0


def test_verify_deterministic_on_a_warm_cache_rerun(capsys):
    # the second run finds the counting caches filled by the first
    invoke(["verify", "--max-n", "7"])
    first = capsys.readouterr().out
    invoke(["verify", "--max-n", "7"])
    assert capsys.readouterr().out == first


def test_verify_fail_exits_two(capsys, monkeypatch):
    report = RunReport(("core",), 5, (Check("FAIL", "demo", "5", "-", "1", "2"),), 0.0)
    monkeypatch.setattr(cli.verify, "run_suites", lambda suites, max_n: report)
    assert invoke(["verify"]) == 2
    assert "FAIL  demo" in capsys.readouterr().out


def test_verify_timing_goes_to_stderr(capsys):
    assert invoke(["verify", "--suite", "parallel", "--max-n", "6", "--timing"]) == 0
    captured = capsys.readouterr()
    assert "wall-time" not in captured.out
    assert "wall-time" in captured.err


def test_verify_timing_lists_suite_times_without_touching_stdout(capsys):
    assert invoke(["verify", "--max-n", "6"]) == 0
    plain = capsys.readouterr()
    assert invoke(["verify", "--max-n", "6", "--timing"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = timed.err.splitlines()
    assert lines[0].startswith("wall-time: ")
    assert [line.split()[:2] for line in lines[1:]] == [
        ["suite-time:", name] for name in verify.SUITES
    ] + [["row-time:", row.check_id] for row in verify.CHECKS]
    assert len(lines) == 8 + len(verify.CHECKS)
    assert all(line.endswith("s") for line in lines)


def test_verify_rejects_tiny_max_n(capsys):
    assert invoke(["verify", "--max-n", "2"]) == 1


@pytest.mark.parametrize(
    "argv, golden",
    [
        # most windows are empty at cap 3; the fixed-limit series line still shows
        (["--max-n", "3"], "verify-max-n-3.txt"),
        # every check runs its lower window, and the erratum line is present
        (["--max-n", "8"], "verify-max-n-8.txt"),
        (["--max-n", "8", "--format", "json"], "verify-max-n-8.json"),
        # each composition row past its default window, up to its ceiling
        (["--suite", "compositions", "--max-n", "16"], "verify-compositions-max-n-16.txt"),
    ],
)
def test_verify_report_matches_golden_bytes(capsys, argv, golden):
    assert invoke(["verify", *argv]) == 0
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().out.encode() == expected


# -- svg ------------------------------------------------------------------------


def test_svg_stdout_is_well_formed(capsys):
    assert invoke(["svg", "--arrow", "--n", "8"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert root.tag.endswith("svg")


def test_svg_writes_file(tmp_path, capsys):
    out = tmp_path / "snake11.svg"
    assert invoke(["svg", "--snake", "--n", "11", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    root = ET.parse(out).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    labels = [el.text for el in root.iter(f"{ns}text")]
    assert labels == [str(i) for i in range(11)]
    assert len(root.findall(f"{ns}line")) == 8  # n-3 diagonals


def test_svg_highlight_shades_internal_triangle(capsys):
    assert invoke(["svg", "--t", "6:0-2,2-4,0-4", "--highlight", "internal"]) == 0
    out = capsys.readouterr().out
    root = ET.fromstring(out)
    ns = "{http://www.w3.org/2000/svg}"
    fills = [el.get("fill") for el in root.iter(f"{ns}polygon")]
    assert fills.count("#9fc5e8") == 1  # the single internal triangle


def test_svg_deterministic(capsys):
    invoke(["svg", "--snake", "--n", "9"])
    first = capsys.readouterr().out
    invoke(["svg", "--snake", "--n", "9"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv, golden",
    [
        # shaded ears and internal triangles under the edges
        (["--snake", "--n", "11", "--highlight", "both"], "svg-snake-n-11-both.svg"),
        # the smallest size, a zero stroke and a one-point font
        (["--type", "2,3,4", "--n", "12", "--highlight", "ears", "--size", "60",
          "--stroke-width", "0", "--font-size", "1"], "svg-type-2-3-4-n-12-ears-small.svg"),
        # no diagonals; the triangle is not shaded as an ear
        (["--t", "3:", "--highlight", "both"], "svg-triangle-both.svg"),
    ],
)
def test_svg_matches_golden_bytes(capsys, argv, golden):
    assert invoke(["svg", *argv]) == 0
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_svg_unwritable_path(capsys):
    rc = invoke(["svg", "--arrow", "--n", "6", "--out", "/no-such-dir/x.svg"])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ["--arrow", "--snake"])
def test_svg_deep_triangulation(shape, capsys):
    # n above the default recursion limit
    assert invoke(["svg", shape, "--n", "1200", "--highlight", "ears"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}line")) == 1200 - 3


def test_svg_renders_at_the_ceiling(capsys):
    assert invoke(["svg", "--snake", "--n", str(SVG_CEILING)]) == 0
    assert capsys.readouterr().out.count("<line ") == SVG_CEILING - 3


def fan_text(n):
    return f"{n}:" + ",".join(f"0-{b}" for b in range(2, n - 1))


@pytest.mark.parametrize("n", [SVG_CEILING + 1, int(HUGE)])
@pytest.mark.parametrize("shape", ["snake", "t"])
def test_svg_refuses_n_above_the_ceiling(capsys, n, shape):
    if shape == "snake":
        argv = ["svg", "--snake", "--n", str(n)]
    else:
        # a huge n cannot come with all its diagonals: the text is refused as invalid
        argv = ["svg", "--t", fan_text(n) if n == SVG_CEILING + 1 else f"{n}:0-2"]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polytri: error: ")
    assert "Traceback" not in captured.err
    if n == SVG_CEILING + 1:
        assert captured.err == (
            f"polytri: error: svg figures are feasible for n <= {SVG_CEILING}, got n={n}\n"
        )


def test_svg_triangle_with_highlight(capsys):
    assert invoke(["svg", "--t", "3:", "--highlight", "both"]) == 0
    ET.fromstring(capsys.readouterr().out)


@pytest.mark.parametrize(
    "flag, value",
    [("--font-size", "-1"), ("--font-size", "0"), ("--stroke-width", "nan"),
     ("--stroke-width", "inf"), ("--stroke-width", "-0.5")],
)
def test_svg_rejects_bad_font_size_and_stroke_width(capsys, flag, value):
    assert invoke(["svg", "--arrow", "--n", "6", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polytri: error: ")


def test_svg_refuses_a_size_below_60(capsys):
    assert invoke(["svg", "--snake", "--n", "5", "--size", "10"]) == 1
    assert capsys.readouterr() == ("", "polytri: error: size must be at least 60, got 10\n")


def test_svg_bad_highlight_flag(capsys):
    assert invoke(["svg", "--arrow", "--n", "6", "--highlight", "wings"]) == 1


# -- sequence -------------------------------------------------------------------


def test_sequence_sym2(capsys):
    assert invoke(["sequence", "--what", "sym2", "--n", "5..10"]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n6\n10\n20\n"


def test_sequence_disj2(capsys):
    assert invoke(["sequence", "--what", "disj2", "--n", "4..9"]) == 0
    assert capsys.readouterr().out == "1\n2\n5\n14\n42\n132\n"


def test_sequence_catalan(capsys):
    assert invoke(["sequence", "--what", "catalan", "--n", "0..6"]) == 0
    assert capsys.readouterr().out == "1\n1\n2\n5\n14\n42\n132\n"


@pytest.mark.parametrize("what, per_n, ns", [
    ("catalan", catalan, "0..400"),
    ("catalan", catalan, "7100..7150"),
    ("disj2", disjoint.disjoint_two_eared, "4..400"),
    ("disj2", disjoint.disjoint_two_eared, "7100..7150"),
])
def test_sequence_ratio_ranges_match_the_per_n_counts(capsys, what, per_n, ns):
    assert invoke(["sequence", "--what", what, "--n", ns]) == 0
    expected = "".join(f"{per_n(n)}\n" for n in cli.parse_range(ns))
    assert capsys.readouterr().out == expected


def test_stepped_count_steps_from_the_last_n_and_counts_after_a_gap_or_refusal():
    # 9.0 follows 8 but is no int, so count sees it and refuses it
    counted = []

    def count(n):
        counted.append(n)
        if n < 4:
            raise ValueError(f"no count at n={n}")
        return catalan(n - 3)

    at = cli._stepped(count, lambda n, before: counting.catalan_step(n - 3, before))
    values = {}
    for n in [*range(1, 41), *range(45, 60), 7, 8, 9.0]:
        with contextlib.suppress(ValueError):
            values[n] = at(n)
    assert counted == [1, 2, 3, 4, 45, 7, 9.0]
    assert values == {n: catalan(n - 3) for n in values}


def test_sequence_hurtado_noy_with_k(capsys):
    assert invoke(["sequence", "--what", "hurtado-noy:2", "--n", "4..8"]) == 0
    assert capsys.readouterr().out == "2\n5\n12\n28\n64\n"


def test_sequence_oeis_format(capsys):
    assert invoke(["sequence", "--what", "catalan", "--n", "0..3", "--format", "oeis"]) == 0
    assert capsys.readouterr().out == "0 1\n1 1\n2 2\n3 5\n"


def test_sequence_json(capsys):
    assert invoke(["sequence", "--what", "classes-compositions", "--n", "2..5",
                   "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["what"] == "classes-compositions"
    assert [r["value"] for r in payload["rows"]] == [1, 2, 3, 6]


@pytest.mark.parametrize(
    "what, ns, golden",
    [("sym3", "6..400", "sequence-sym3-n-6..400.txt"),
     ("hurtado-noy:3", "4..400", "sequence-hurtado-noy-3-n-4..400.txt")],
)
def test_sequence_closed_forms_match_golden_bytes(capsys, what, ns, golden):
    assert invoke(["sequence", "--what", what, "--n", ns]) == 0
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().out.encode() == expected



# Ranges printed row by row, pinned as the whole-list printing wrote them:
# golden file -> (argv, exit code, golden copy of stderr or None)
RANGE_GOLDENS = {
    "sequence-catalan-n-1..400.txt": (["sequence", "--what", "catalan", "--n", "1..400"], 0, None),
    "sequence-disj2-n-4..400.txt": (["sequence", "--what", "disj2", "--n", "4..400"], 0, None),
    "sequence-sym2-n-1..60.oeis": (
        ["sequence", "--what", "sym2", "--n", "1..60", "--format", "oeis"], 1,
        "sequence-sym2-n-1..60.oeis.stderr"),
    "sequence-hurtado-noy-3-n-1..60.json": (
        ["sequence", "--what", "hurtado-noy:3", "--n", "1..60", "--format", "json"], 1, None),
    # crosses the n < 6 refusals and ends at the orbit ceiling with n=17..18
    "symmetry-ears-3-n-3..18-both.json": (
        ["symmetry", "--n", "3..18", "--ears", "3", "--method", "both", "--format", "json"], 1,
        "symmetry-ears-3-n-3..18-both.json.stderr"),
}


@pytest.mark.parametrize("golden", RANGE_GOLDENS)
def test_range_output_matches_golden_bytes(capsys, golden):
    argv, code, err_golden = RANGE_GOLDENS[golden]
    assert invoke(argv) == code
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN_DIR / golden).read_bytes()
    if err_golden is not None:
        assert captured.err.encode() == (GOLDEN_DIR / err_golden).read_bytes()

@pytest.mark.parametrize(
    "ears, ns, golden",
    [("2", "5..16", "symmetry-ears-2-n-5..16-both.txt"),
     ("3", "6..16", "symmetry-ears-3-n-6..16-both.txt")],
)
def test_symmetry_by_ear_count_matches_golden_bytes(capsys, ears, ns, golden):
    # the orbit column up to the orbit ceiling, from the census capped at `ears`
    assert invoke(["symmetry", "--n", ns, "--ears", ears, "--method", "both"]) == 0
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().out.encode() == expected


def test_symmetry_all_ears_after_a_capped_run_matches_golden(capsys):
    # an --ears all run reuses no level of an --ears 3 run's census
    assert invoke(["symmetry", "--n", "4..13", "--ears", "3"]) == 0
    capsys.readouterr()
    assert invoke(["symmetry", "--n", "4..13", "--format", "csv"]) == 0
    expected = (GOLDEN_DIR / "symmetry-n-4..16.csv").read_text().splitlines()[:11]
    assert capsys.readouterr().out.splitlines() == expected


def _not_integral(n, k=None):
    """A count whose exact division leaves a remainder, with a numerator
    far past Python's default digit limit."""
    where = f"n={n}" if k is None else f"n={n}, k={k}"
    return counting._exact_quotient((1 << 20000) * n + 1, 2, f"broken formula at {where}")


@pytest.mark.parametrize(
    "argv",
    [["sequence", "--what", "sym3", "--n", "9"],
     ["symmetry", "--n", "9", "--ears", "3", "--method", "closed"]],
    ids=["sequence", "symmetry"],
)
def test_non_integral_count_is_refused_at_its_n(capsys, monkeypatch, default_int_digits, argv):
    monkeypatch.setitem(cli.SEQUENCES, "sym3", _not_integral)
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{cli.PROG}: {argv[0]}: n=9: broken formula at n=9 is not an integer\n"
    )


def test_non_integral_ear_count_is_refused(capsys, monkeypatch, default_int_digits):
    monkeypatch.setattr(cli.counting, "hurtado_noy", _not_integral)
    assert invoke(["enumerate", "--count-only", "--n", "9", "--ears", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{cli.PROG}: error: broken formula at n=9, k=3 is not an integer\n"
    )


def test_sequence_domain_errors_per_row(capsys):
    assert invoke(["sequence", "--what", "sym3", "--n", "5..7"]) == 1
    captured = capsys.readouterr()
    assert "n=5" in captured.err
    assert captured.out == "1\n1\n"


@pytest.mark.parametrize("fmt", ["plain", "oeis", "json"])
def test_sequence_reports_values_too_long_to_print(capsys, default_int_digits, fmt):
    ns = range(7150, 7161)
    printable = [n for n in ns if catalan(n) < 10 ** INT_DIGITS]
    assert printable == [7150, 7151, 7152]
    argv = ["sequence", "--what", "catalan", "--n", "7150..7160", "--format", fmt]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert_too_long_reported(captured.err, "sequence", ["7153..7160"])
    if fmt == "json":
        rows = json.loads(captured.out)["rows"]
        assert rows == [{"n": n, "value": catalan(n)} for n in printable]
    else:
        prefix = "{} " if fmt == "oeis" else ""
        assert captured.out.splitlines() == [
            prefix.format(n) + str(catalan(n)) for n in printable
        ]


@pytest.mark.parametrize("what", cli.SEQUENCE_WHATS)
def test_sequence_refuses_huge_n_up_front(capsys, default_int_digits, what):
    what = what.replace(":k", ":3")
    assert invoke(["sequence", "--what", what, "--n", HUGE]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_too_long_reported(captured.err, "sequence", [HUGE])


# the largest n that the up-front refusal lets through at Python's default limit
PRINTABLE_BOUND = 2 * (INT_DIGITS * 10 // 3 + 2) + 1


@pytest.mark.parametrize("argv", [
    ["sequence", "--what", "catalan", "--n", f"28000..{HUGE}"],
    ["symmetry", "--n", f"1..{HUGE}", "--method", "closed", "--ears", "2"],
    ["sequence", "--what", "catalan", "--n", f"{PRINTABLE_BOUND - 1}..{PRINTABLE_BOUND + 1}"],
])
def test_range_past_the_printable_bound_is_refused_whole(capsys, default_int_digits, argv):
    start = time.perf_counter()
    assert invoke(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"polytri: error: range {argv[argv.index('--n') + 1]!r} ends past "
        f"n = {PRINTABLE_BOUND}, above which counts are too long to print "
        f"(over {INT_DIGITS} decimal digits)\n"
    )


def test_range_ending_at_the_printable_bound_ends_at_one_line(capsys, default_int_digits):
    span = f"{PRINTABLE_BOUND - 1}..{PRINTABLE_BOUND}"
    assert invoke(["sequence", "--what", "catalan", "--n", span]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_too_long_reported(captured.err, "sequence", [span])


@pytest.mark.parametrize("name, argv, ns", [
    ("catalan", ["sequence", "--what", "catalan"], range(1, 3001)),
    ("sym2", ["symmetry", "--ears", "2", "--method", "closed"], range(5, 3001)),
], ids=["sequence", "symmetry"])
def test_no_n_past_the_first_size_refusal_is_computed(capsys, monkeypatch, int_digits,
                                                      name, argv, ns):
    int_digits(640)
    count = cli.SEQUENCES[name]
    first = next(n for n in ns if count(n) >= 10 ** 640)
    seen = []
    monkeypatch.setitem(cli.SEQUENCES, name, lambda n: seen.append(n) or count(n))
    assert invoke([*argv, "--n", f"{ns[0]}..{ns[-1]}"]) == 1
    assert seen == list(range(ns[0], first + 1))
    assert capsys.readouterr().err == (
        f"polytri: {argv[0]}: n={first}..{ns[-1]}: value too long to print "
        f"(over 640 decimal digits)\n"
    )



# Ranges over one count of `cli.SEQUENCES` (`symmetry --method closed`
# reads sym3 there), one case per output format, each argv ending in its range
ROW_FORMATS = {
    "plain": (["sequence", "--what", "catalan", "--n", "1..12"], "catalan"),
    "oeis": (["sequence", "--what", "catalan", "--format", "oeis", "--n", "1..12"], "catalan"),
    "text": (["symmetry", "--method", "closed", "--ears", "3", "--n", "6..16"], "sym3"),
    "csv": (["symmetry", "--method", "closed", "--ears", "3", "--format", "csv",
             "--n", "6..16"], "sym3"),
}


@pytest.mark.parametrize("fmt", ROW_FORMATS)
def test_each_row_is_printed_before_the_next_n_is_counted(monkeypatch, fmt):
    argv, name = ROW_FORMATS[fmt]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    count, printed = cli.SEQUENCES[name], []
    monkeypatch.setitem(cli.SEQUENCES, name, lambda n: printed.append(out.getvalue()) or count(n))
    assert cli.run(argv) == 0
    lines = out.getvalue().splitlines(keepends=True)
    header = 1 if fmt == "csv" else 0  # the CSV header goes first
    assert len(printed) == len(lines) - header == len(cli.parse_range(argv[-1]))
    assert printed == ["".join(lines[:header + i]) for i in range(len(printed))]


@pytest.mark.parametrize("argv, name, expected", [
    (["sequence", "--what", "catalan", "--n", "1..12", "--format", "json"], "catalan",
     {"what": "catalan", "rows": [{"n": n, "value": catalan(n)} for n in range(1, 13)]}),
    (["symmetry", "--method", "closed", "--ears", "3", "--n", "6..16", "--format", "json"],
     "sym3",
     [{"n": n, "ears": "3", "closed": counting.symmetry_classes_3ear(n)} for n in range(6, 17)]),
], ids=["sequence", "symmetry"])
def test_json_range_is_printed_whole_at_the_end(monkeypatch, argv, name, expected):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    count, printed = cli.SEQUENCES[name], []
    monkeypatch.setitem(cli.SEQUENCES, name, lambda n: printed.append(out.getvalue()) or count(n))
    assert cli.run(argv) == 0
    assert set(printed) == {""}
    assert out.getvalue() == json.dumps(expected) + "\n"


class _FailingStdout(io.StringIO):
    """A stdout with no file descriptor whose every write fails with `error`."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


CLOSED_PIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
FULL_DEVICE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", ROW_FORMATS)
def test_no_n_past_the_first_failed_write_is_computed(capsys, monkeypatch, fmt):
    argv, name = ROW_FORMATS[fmt]
    count, seen = cli.SEQUENCES[name], []
    monkeypatch.setitem(cli.SEQUENCES, name, lambda n: seen.append(n) or count(n))
    monkeypatch.setattr(sys, "stdout", _FailingStdout(CLOSED_PIPE))
    assert cli.run(argv) == 1
    first = cli.parse_range(argv[-1])[0]
    assert seen == ([] if fmt == "csv" else [first])  # the CSV header is the first write
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error, err", [
    (CLOSED_PIPE, ""),
    (FULL_DEVICE, f"polytri: error: cannot write output: {os.strerror(errno.ENOSPC)}\n"),
], ids=["closed-pipe", "full-device"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "6"],
    ["enumerate", "--n", "6", "--count-only"],
    ["disjoint", "--snake", "--n", "9"],
    ["svg", "--snake", "--n", "6"],
    ["verify", "--suite", "parallel", "--max-n", "5"],
], ids=["listing", "count", "disjoint", "svg", "verify"])
def test_failed_write_exits_1_with_at_most_one_line(capsys, monkeypatch, error, err, argv):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error))
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == err


# Each command writes more than a pipe holds, or writes once at its end.
# A short output stays in the buffer until the last flush, whose failure
# the interpreter would report again at exit unless stdout is dropped.
# Help text is written by argparse, which would swallow the failure.
FAILED_WRITE_ARGVS = {
    "sequence": ["sequence", "--what", "catalan", "--n", "1..3000"],
    "symmetry": ["symmetry", "--n", "6..3000", "--method", "closed", "--ears", "3"],
    "enumerate": ["enumerate", "--n", "13", "--format", "json"],
    "verify": ["verify", "--max-n", "6"],
    "short": ["sequence", "--what", "catalan", "--n", "1..10"],
    "help": ["--help"],
    "command-help": ["enumerate", "--help"],
}


def polytri_process(argv, buffering, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """The finished `python -m polytri` child, its streams given as file
    descriptors or subprocess.PIPE.  A buffered stream fails at a flush,
    an unbuffered one (PYTHONUNBUFFERED) at the write itself."""
    env = child_env(PYTHONUNBUFFERED="1" if buffering == "unbuffered" else None)
    return subprocess.run([sys.executable, "-m", "polytri", *argv], stdout=stdout,
                          stderr=stderr, text=True, env=env, timeout=60)


def run_polytri_into(stdout, argv, buffering):
    """The child writing into the file descriptor stdout: (exit code, stderr)."""
    proc = polytri_process(argv, buffering, stdout=stdout)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", FAILED_WRITE_ARGVS.values(), ids=FAILED_WRITE_ARGVS)
def test_process_writing_into_a_closed_pipe_exits_1_silently(argv, buffering):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child starts
    try:
        code, err = run_polytri_into(write, argv, buffering)
    finally:
        os.close(write)
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert (code, err) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", FAILED_WRITE_ARGVS.values(), ids=FAILED_WRITE_ARGVS)
def test_process_writing_into_a_full_device_exits_1_with_one_line(argv, buffering):
    with open("/dev/full", "wb") as full:
        code, err = run_polytri_into(full, argv, buffering)
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert (code, err) == (1, f"polytri: error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


# Commands that write to stderr, and whether their whole stdout comes
# before their first stderr line: `verify --timing` times the report after
# printing it, `symmetry` refuses n = 17 past the orbit ceiling after
# printing 5..16, and `sequence` refuses n = 1 before it prints any row.
FAILED_STDERR_ARGVS = {
    "verify-timing": (["verify", "--max-n", "3", "--timing"], True),
    "symmetry-past-ceiling": (["symmetry", "--n", "5..17", "--ears", "2"], True),
    "sequence-refused-first": (["sequence", "--what", "sym2", "--n", "1..8"], False),
    "usage-error": (["bogus"], False),
}


@functools.cache
def _stdout_with_working_stderr(argv):
    proc = polytri_process(argv, "buffered")
    assert proc.stderr, argv  # each case does write to stderr
    return proc.stdout


def _closed_pipe_fd():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child starts
    return write


def _full_device_fd():
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("sink", [
    _closed_pipe_fd,
    pytest.param(_full_device_fd, marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full on this system")),
], ids=["closed-pipe", "full-device"])
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, kept", FAILED_STDERR_ARGVS.values(), ids=FAILED_STDERR_ARGVS)
def test_process_failing_stderr_keeps_stdout_and_exits_1(argv, kept, buffering, sink):
    fd = sink()
    try:
        proc = polytri_process(argv, buffering, stderr=fd)
    finally:
        os.close(fd)
    expected = _stdout_with_working_stderr(tuple(argv)) if kept else ""
    assert "Traceback" not in proc.stdout and "Exception ignored" not in proc.stdout
    assert (proc.returncode, proc.stdout) == (1, expected)

# every count printed over a range: each `sequence --what`, with four k for
# hurtado-noy:k; `symmetry --method closed` prints sym2 and sym3
RANGE_COUNTS = [*(w for w in cli.SEQUENCE_WHATS if not w.endswith(":k")),
                *(f"hurtado-noy:{k}" for k in (2, 3, 50, 500))]


@pytest.mark.parametrize("what", RANGE_COUNTS)
def test_every_count_printed_over_a_range_is_nondecreasing(what):
    """A value too long to print at n is then too long at every larger n,
    which lets a range end at its first size refusal.  Checked on each
    count's domain up to n = 1,100:

    - catalan and disj2 (C(n-3)): C(k+1)/C(k) = 2(2k+1)/(k+2) >= 1;
    - sym2, sym3 and classes-compositions are led by a growing power of 2:
      2^(n-6), (n-4)(n-5) 2^(n-4)/48 and 2^(m-3);
    - hurtado-noy:k is 0 below n = 2k, and for n >= 2k
      H(n+1, k)/H(n, k) = 2(n+1)(n-3)/(n(n-2k+1)) > 1.
    """
    _, count = cli._sequence_column(what)
    values = {}
    for n in range(1101):
        with contextlib.suppress(ValueError):
            values[n] = count(n)
    domain = sorted(values)
    assert domain == list(range(domain[0], 1101))
    assert all(values[n] <= values[n + 1] for n in domain[:-1])


@pytest.mark.parametrize(
    "argv, message",
    [(["symmetry", "--n", f"5..{PRINTABLE_BOUND}", "--method", "closed"],
      "closed forms exist only for --ears 2 or 3"),
     (["symmetry", "--n", f"5..{PRINTABLE_BOUND}", "--method", "both"],
      "closed forms exist only for --ears 2 or 3"),
     (["sequence", "--what", "hurtado-noy:1", "--n", f"4..{PRINTABLE_BOUND}"],
      "every triangulation has >= 2 ears, got k=1"),
     (["sequence", "--what", "sym3", f"--n=-{HUGE}..6"],
      f"range '-{HUGE}..6' starts below n = 0, where no count is defined"),
     (["symmetry", "--n=-3..5", "--method", "orbit"],
      "range '-3..5' starts below n = 0, where no count is defined")],
    ids=["symmetry-closed", "symmetry-both", "hurtado-noy-1", "sequence-below-0",
         "symmetry-below-0"],
)
def test_refusal_that_does_not_depend_on_n_is_made_once(capsys, default_int_digits,
                                                        argv, message):
    start = time.perf_counter()
    assert invoke(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{cli.PROG}: error: {message}\n"


def test_range_starting_at_0_and_single_negative_n_keep_per_n_lines(capsys):
    assert invoke(["sequence", "--what", "sym3", "--n=-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "polytri: sequence: n=-3: 3-ear class formula requires n >= 6, got -3\n"
    assert invoke(["sequence", "--what", "sym3", "--n", "0..6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == "".join(
        f"polytri: sequence: n={n}: 3-ear class formula requires n >= 6, got {n}\n"
        for n in range(6)
    )


def test_sequence_unknown_what(capsys):
    assert invoke(["sequence", "--what", "primes", "--n", "1..3"]) == 1
    assert "unknown sequence" in capsys.readouterr().err


def test_sequence_help_names_every_sequence():
    parser = subcommand_parsers()["sequence"]
    (what,) = [a for a in parser._actions if "--what" in a.option_strings]
    names = what.help.removeprefix("one of: ").split(", ")
    for name in names:
        cli._sequence_column(name.replace(":k", ":3"))
    assert set(cli.SEQUENCES) <= set(names)


# -- shared plumbing ------------------------------------------------------------


def test_bad_range_rejected(capsys):
    assert invoke(["symmetry", "--n", "8..5"]) == 1
    assert invoke(["symmetry", "--n", "a..b"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert invoke(["enumerate", "--n", "4", "--bogus"]) == 1


def test_missing_subcommand_exits_one(capsys):
    assert invoke([]) == 1


def test_unknown_subcommand_exits_one(capsys):
    assert invoke(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert invoke(["--help"]) == 0


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["bogus"], 1), (["enumerate"], 1)])
def test_run_returns_the_parsers_exit_code(argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.run(argv) == code
    # the same text argparse writes when it exits on its own
    parser_out, parser_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(parser_out), contextlib.redirect_stderr(parser_err):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
    assert exc.value.code == code
    assert (out.getvalue(), err.getvalue()) == (parser_out.getvalue(), parser_err.getvalue())


def test_main_turns_ctrl_c_into_exit_130_and_run_lets_it_through(monkeypatch):
    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.SEQUENCES, "catalan", interrupted)
    monkeypatch.setattr(sys, "argv", ["polytri", "sequence", "--what", "catalan", "--n", "5"])
    with pytest.raises(KeyboardInterrupt):
        cli.run()
    with pytest.raises(SystemExit) as exc:
        importlib.import_module("polytri.__main__").main()
    assert exc.value.code == 130


def test_the_polytri_script_runs_what_python_m_polytri_runs():
    root = Path(__file__).parent.parent
    scripts = (root / "pyproject.toml").read_text().splitlines()
    assert 'polytri = "polytri.__main__:main"' in scripts
    source = (root / "src/polytri/__main__.py").read_text()
    assert source.endswith('\nif __name__ == "__main__":\n    main()\n')
    assert callable(importlib.import_module("polytri.__main__").main)


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = invoke(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


# In this order through the one shared parser: a usage error, help, a
# domain refusal, a count and a verify run.
REUSE_SEQUENCE = [
    (["enumerate", "--n", "x"], 1),
    (["--help"], 0),
    (["disjoint", "--snake", "--n", str(COUNT_DISJOINT_CEILING + 1)], 1),
    (["disjoint", "--t", "6:0-2,2-4,0-4", "--method", "both"], 0),
    (["verify", "--suite", "parallel", "--max-n", "6"], 0),
]


def test_shared_parser_runs_as_a_fresh_one(monkeypatch):
    shared = [run_captured(argv) for argv, _ in REUSE_SEQUENCE]
    assert [code for code, _, _ in shared] == [code for _, code in REUSE_SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_captured(argv) for argv, _ in REUSE_SEQUENCE]
    assert shared == fresh


def test_shared_parser_wraps_help_at_each_calls_width(monkeypatch):
    cli.build_parser()
    widths = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        widths[columns] = run_captured(["disjoint", "--help"])
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert run_captured(["disjoint", "--help"]) == widths[columns]
    assert widths["40"] != widths["200"]


# argv lists `run` dispatches to one command's parser, and argv lists it
# hands to the whole tree: each must exit, print and refuse as the tree does
DISPATCH_CASES = {
    "enumerate": ["enumerate", "--n", "5"],
    "symmetry": ["symmetry", "--n", "5..7", "--ears", "2", "--method", "both"],
    "disjoint": ["disjoint", "--t", "6:0-2,2-4,0-4", "--method", "both", "--format", "json"],
    "verify": ["verify", "--suite", "parallel", "--max-n", "6"],
    "svg": ["svg", "--t", "3:", "--highlight", "both"],
    "sequence": ["sequence", "--what", "catalan", "--n", "1..5", "--format", "oeis"],
    **{f"{command}-help": [command, "--help"]
       for command in ("enumerate", "symmetry", "disjoint", "verify", "svg", "sequence")},
    "missing-required": ["enumerate"],
    "missing-required-after-flags": ["sequence", "--n", "5"],
    "bad-choice": ["enumerate", "--n", "5", "--format", "yaml"],
    "unknown-flag": ["disjoint", "--bogus"],
    "unknown-flag-after-a-valid-call": ["enumerate", "--n", "5", "--bogus", "1"],
    "stray-positional": ["sequence", "--what", "sym2", "--n", "5", "extra"],
    "abbreviated": ["enumerate", "--n", "6", "--count", "--form", "json"],
    "abbreviated-help": ["disjoint", "--he"],
    "equals-form": ["enumerate", "--n=6", "--ears=3"],
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "leading-option": ["--n", "5", "enumerate"],
    "help-alone": ["--help"],
}


@pytest.mark.parametrize("argv", DISPATCH_CASES.values(), ids=DISPATCH_CASES)
def test_dispatch_runs_as_the_whole_tree(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    dispatched = run_captured(argv)
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli.build_parser.__wrapped__().parse_args(argv))
    assert dispatched == run_captured(argv)


def test_dispatched_namespace_is_the_whole_trees():
    for argv in [DISPATCH_CASES[command] for command in cli.build_parser().commands]:
        whole = cli.build_parser.__wrapped__().parse_args(argv)
        assert vars(cli._parse_args(argv)) == vars(whole)


@pytest.mark.parametrize("argv, golden", [
    (["disjoint", "--bogus"], "disjoint-bogus.stderr"),
    (["enumerate"], "enumerate-no-n.stderr"),
])
def test_usage_errors_match_their_golden_copies(monkeypatch, argv, golden):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN_DIR / golden).read_text()
    assert run_captured(argv) == (1, "", expected)


# -- exit-code contract ---------------------------------------------------------

# A refusal names the program, either as "polytri: ..." or, from argparse,
# as "polytri <command>: error: ...".
REFUSAL = re.compile(r"^polytri( [a-z]+)?: ", re.MULTILINE)

# Per subcommand: one n past its feasibility ceiling, a huge n and a
# malformed flag, each with the exit code it must give.
CONTRACT_CASES = {
    "enumerate-ceiling": (["enumerate", "--n", "15"], 1),
    "enumerate-huge": (["enumerate", "--n", HUGE, "--count-only"], 1),
    "enumerate-malformed": (["enumerate", "--n", "x"], 1),
    "symmetry-ceiling": (["symmetry", "--n", str(ORBIT_CEILING + 1)], 1),
    "symmetry-huge": (["symmetry", "--n", HUGE, "--method", "closed", "--ears", "2"], 1),
    "symmetry-malformed": (["symmetry", "--n", "1..x"], 1),
    "disjoint-ceiling": (["disjoint", "--snake", "--n", str(COUNT_DISJOINT_CEILING + 1)], 1),
    "disjoint-huge": (["disjoint", "--arrow", "--n", HUGE, "--method", "formula"], 1),
    "disjoint-malformed": (["disjoint", "--type", "1,x,1", "--n", "7"], 1),
    # the rows of verify cap --max-n at their own feasibility ceilings
    "verify-ceiling": (["verify", "--suite", "parallel", "--max-n", "13"], 0),
    "verify-huge": (["verify", "--suite", "parallel", "--max-n", HUGE], 0),
    "verify-malformed": (["verify", "--max-n", "2"], 1),
    "svg-ceiling": (["svg", "--snake", "--n", str(SVG_CEILING + 1)], 1),
    "svg-huge": (["svg", "--type", f"1,1,{int(HUGE) - 5}", "--n", HUGE], 1),
    "svg-malformed": (["svg", "--t", "6:0-2,2-x"], 1),
    "sequence-ceiling": (["sequence", "--what", "sym2", "--n", str(PRINTABLE_BOUND + 1)], 1),
    "sequence-huge": (["sequence", "--what", "catalan", "--n", f"5..{HUGE}"], 1),
    "sequence-malformed": (["sequence", "--what", "hurtado-noy:x", "--n", "5"], 1),
}


@pytest.mark.parametrize("argv, code", CONTRACT_CASES.values(), ids=CONTRACT_CASES)
def test_exit_code_contract(capsys, default_int_digits, argv, code):
    start = time.perf_counter()
    assert invoke(argv) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 1:
        assert REFUSAL.search(captured.err), captured.err


# Huge sizes with Python's digit limit off, where no count is too long to
# print: the CLI still refuses them up front at the default limit's bound.
NO_DIGIT_LIMIT_CASES = {
    "enumerate": ["enumerate", "--count-only", "--n", HUGE],
    "sequence": ["sequence", "--what", "catalan", "--n", f"1..{HUGE}"],
    "disjoint": ["disjoint", "--snake", "--n", HUGE, "--method", "formula"],
}

AS_LIMIT = 150 * 2**20  # bytes of address space for the child below


@pytest.mark.parametrize("argv", NO_DIGIT_LIMIT_CASES.values(), ids=NO_DIGIT_LIMIT_CASES)
def test_huge_n_is_refused_with_no_digit_limit(argv):
    # in a child process, so the digit limit is off from the start and the
    # address-space limit turns a shape built for 10^10 vertices into a
    # MemoryError instead of exhausting the machine
    code = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT}))
        from polytri import cli
        sys.exit(cli.run({argv!r}))
    """)
    env = child_env(PYTHONINTMAXSTRDIGITS="0")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    )
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("polytri: error: ")
    assert f"n = {PRINTABLE_BOUND}" in proc.stderr
    assert "over 0 decimal digits" not in proc.stderr


# Per row of the domain table: the argv that asks its route for a size n,
# and the module and name of the function the route would compute with.
ROUTE_CASES = {
    "listing": (lambda n: ["enumerate", "--n", str(n)], (cli, "listing")),
    "orbit": (lambda n: ["symmetry", "--n", str(n), "--method", "orbit"],
              (counting, "symmetry_classes_orbit")),
    "count_disjoint": (lambda n: ["disjoint", "--snake", "--n", str(n)],
                       (disjoint, "count_disjoint")),
    "svg": (lambda n: ["svg", "--snake", "--n", str(n)], (svgfig, "render_svg")),
    "printed": (lambda n: ["enumerate", "--count-only", "--n", str(n)], (counting, "catalan")),
}


def test_route_cases_cover_the_domain_table():
    assert set(ROUTE_CASES) == set(cli.DOMAINS)


@pytest.mark.parametrize("route", sorted(ROUTE_CASES))
def test_every_route_refuses_one_past_its_ceiling(capsys, monkeypatch, default_int_digits,
                                                  route):
    argv_at, (module, name) = ROUTE_CASES[route]

    def ran(*args, **kwargs):
        raise AssertionError(f"{name} ran past the {route} ceiling")

    monkeypatch.setattr(module, name, ran)
    start = time.perf_counter()
    assert invoke(argv_at((cli.DOMAINS[route].ceiling or cli._printable_bound()) + 1)) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and REFUSAL.match(captured.err), captured.err


def subcommand_parsers():
    """{name: parser} of the CLI's subcommands."""
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return sub.choices


def test_exit_code_contract_covers_every_subcommand():
    assert {case.split("-")[0] for case in CONTRACT_CASES} == set(subcommand_parsers())
    assert {case.split("-", 1)[1] for case in CONTRACT_CASES} == {"ceiling", "huge", "malformed"}


# Flag values for the argv property test: small sizes only, so every run
# is quick, plus values that are malformed or past a ceiling.
_SIZES = ["x", "-1", "0", "3", "4", "7", "11", "2..6", "6..3", HUGE]
_SHAPE_FLAGS = {
    "--t": ["6:0-2,2-4,0-4", "5:0-2", "4:", "3:", "7:0-3", "x", "6:0-2,0-2,0-4"],
    "--arrow": None,
    "--snake": None,
    "--type": ["1,1,1", "1,2,1", "1,x", "1,2,3,4", "0,2,2"],
    "--n": _SIZES,
}
CLI_FLAGS = {
    "enumerate": {
        "--n": _SIZES, "--ears": ["x", "0", "2", "3", "7", HUGE],
        "--count-only": None, "--format": ["text", "json", "xml"],
    },
    "symmetry": {
        "--n": _SIZES, "--ears": ["2", "3", "all", "4"],
        "--method": ["closed", "orbit", "both", "x"], "--format": ["text", "csv", "json", "x"],
    },
    "disjoint": {
        **_SHAPE_FLAGS, "--method": ["brute", "formula", "both", "x"],
        "--format": ["text", "json", "x"],
    },
    "verify": {
        "--max-n": ["x", "2", "3", "5"], "--suite": ["parallel", "disjoint-3ear", "bogus"],
        "--format": ["text", "json"], "--timing": None,
    },
    "svg": {
        **_SHAPE_FLAGS, "--highlight": ["none", "ears", "both", "wings"],
        "--size": ["x", "-1", "0", "60"], "--stroke-width": ["nan", "-1", "1.5"],
        "--font-size": ["0", "10"],
    },
    "sequence": {
        "--what": ["catalan", "sym2", "sym3", "disj2", "hurtado-noy:1", "hurtado-noy:2",
                   "hurtado-noy:x", "classes-compositions", "primes"],
        "--n": _SIZES, "--format": ["plain", "oeis", "json", "x"],
    },
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(CLI_FLAGS)))
    flags = CLI_FLAGS[command]
    names = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4))
    if command == "verify" and "--max-n" not in names:
        names.append("--max-n")  # the default window runs the full report
    argv = [command]
    for name in names:
        argv.append(name)
        if flags[name] is not None:
            argv.append(draw(st.sampled_from(flags[name])))
    return argv


def test_cli_flags_are_the_parsers_flags():
    parsers = subcommand_parsers()
    assert set(CLI_FLAGS) == set(parsers)
    for command, parser in parsers.items():
        real = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert set(CLI_FLAGS[command]) == real - {"--help", "--out"}  # --out writes files


@settings(max_examples=80, deadline=None)
@given(cli_argvs())
def test_nothing_but_exit_0_or_1_escapes_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert REFUSAL.search(err.getvalue()), (argv, err.getvalue())
