"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from helpers import listing_by_recursion
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import cli, compositions, counting, disjoint, triangulation, verify
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


def assert_too_long_reported(err, command, ns):
    """err names each n in ns as too long to print, and nothing else."""
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


def invoke(argv):
    """Run the CLI in-process, normalizing argparse's SystemExit."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


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


@pytest.mark.parametrize("ears", sorted(N14_LISTING_SHA256))
def test_enumerate_n14_ear_listing_is_pinned(capsys, ears):
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
def test_enumerate_unfiltered_listing_is_pinned(capsys, case):
    n, _, fmt = case.partition("-")
    formats = ["--format", fmt] if fmt else []
    assert invoke(["enumerate", "--n", n, *formats]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == UNFILTERED_LISTING_SHA256[case]


def test_enumerate_ear_filter_above_max_ears_skips_enumeration(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("the listing enumerated for an empty ear filter")

    for name in ("_diagonal_tuples", "_cached_shapes", "_split_shapes"):
        monkeypatch.setattr(triangulation, name, refuse)
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
        cli._refuse_too_long(n - 1)
        with pytest.raises(ValueError, match="value too long to print"):
            cli._refuse_too_long(n)
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


def test_enumerate_listing_capped(capsys):
    assert invoke(["enumerate", "--n", "15"]) == 1
    assert "3 <= n <= 14" in capsys.readouterr().err


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
    assert invoke(["symmetry", "--n", str(cli.ORBIT_CEILING + 1), "--ears", "2"]) == 1
    assert f"orbit counting is feasible for n <= {cli.ORBIT_CEILING}" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["orbit", "both"])
def test_symmetry_orbit_range_past_the_ceiling_is_refused_whole(capsys, default_int_digits,
                                                                method):
    span = f"{cli.ORBIT_CEILING + 1}..{PRINTABLE_BOUND}"
    start = time.perf_counter()
    assert invoke(["symmetry", "--n", span, "--method", method]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"polytri: error: range {span!r} starts past n = {cli.ORBIT_CEILING}; "
        f"orbit counting is feasible for n <= {cli.ORBIT_CEILING}"
    ]


def test_symmetry_range_straddling_the_orbit_ceiling_keeps_per_n_lines(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ORBIT_CEILING", 7)
    assert invoke(["symmetry", "--n", "6..9", "--ears", "2", "--method", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "6 2 2\n7 3 3\n"
    assert captured.err.splitlines() == [
        f"polytri: symmetry: n={n}: orbit counting is feasible for n <= 7" for n in (8, 9)
    ]


def test_symmetry_mismatch_and_refusal_lines_keep_n_order(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ORBIT_CEILING", 6)
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
    assert_too_long_reported(captured.err, "symmetry", range(14291, 14301))
    value = symmetry_classes_2ear(14290)
    if fmt == "json":
        rows = json.loads(captured.out)
        assert rows[0] == {"n": 14290, "ears": "2", "closed": value}
        assert [r["closed"] for r in rows[1:]] == [None] * 10
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
    payload = json.loads(capsys.readouterr().out)
    assert payload["brute"] == payload["formula"] == 4
    assert payload["shape"] == "type"
    assert payload["note"].startswith("note:")


def test_disjoint_mismatch_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli.disjoint, "count_disjoint", lambda t: 0)
    assert invoke(["disjoint", "--arrow", "--n", "6", "--method", "both"]) == 2
    assert "MISMATCH" in capsys.readouterr().err


def _no_dp(*args):
    raise AssertionError("the brute-force count ran above BRUTE_CEILING")


# the least polygon size the brute-force count refuses, and a 3-eared type
# (three branches summing to n - 3) of that size
ABOVE_CEILING = cli.BRUTE_CEILING + 1
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
    assert captured.err.startswith("polytri: error:")
    assert f"n <= {cli.BRUTE_CEILING}" in captured.err


def test_brute_ceiling_covers_benchmark_sizes():
    # the disjoint benchmark workload runs --method both up to n = 200
    assert cli.BRUTE_CEILING >= 200


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
    # count_disjoint stops at BRUTE_CEILING, far below the limit, so each
    # route is made to return a count past the limit; the unpatched 3-eared
    # route is the disjoint-type case of test_single_value_too_long_to_print
    monkeypatch.setattr(cli.disjoint, route, lambda *args: 10 ** INT_DIGITS)
    assert invoke(["disjoint", *argv]) == 1
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
    assert f"feasible for n <= {cli.BRUTE_CEILING}" in captured.err
    assert "(use --method formula)" in captured.err


def test_disjoint_bad_inline_text(capsys):
    assert invoke(["disjoint", "--t", "6:0-2"]) == 1
    assert invoke(["disjoint", "--t", "oops"]) == 1


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
    ]
    assert len(lines) == 8 and all(line.endswith("s") for line in lines)


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
    assert invoke(["svg", "--snake", "--n", str(cli.SVG_CEILING)]) == 0
    assert capsys.readouterr().out.count("<line ") == cli.SVG_CEILING - 3


def fan_text(n):
    return f"{n}:" + ",".join(f"0-{b}" for b in range(2, n - 1))


@pytest.mark.parametrize("n", [cli.SVG_CEILING + 1, int(HUGE)])
@pytest.mark.parametrize("shape", ["snake", "t"])
def test_svg_refuses_n_above_the_ceiling(capsys, n, shape):
    if shape == "snake":
        argv = ["svg", "--snake", "--n", str(n)]
    else:
        # a huge n cannot come with all its diagonals: the text is refused as invalid
        argv = ["svg", "--t", fan_text(n) if n == cli.SVG_CEILING + 1 else f"{n}:0-2"]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("polytri: error: ")
    assert "Traceback" not in captured.err
    if n == cli.SVG_CEILING + 1:
        assert captured.err == (
            f"polytri: error: svg figures are feasible for n <= {cli.SVG_CEILING}, got n={n}\n"
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
    assert_too_long_reported(captured.err, "sequence", ns[3:])
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


def test_range_ending_at_the_printable_bound_keeps_per_n_lines(capsys, default_int_digits):
    ns = [PRINTABLE_BOUND - 1, PRINTABLE_BOUND]
    assert invoke(["sequence", "--what", "catalan", "--n", f"{ns[0]}..{ns[1]}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_too_long_reported(captured.err, "sequence", ns)


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
    "symmetry-ceiling": (["symmetry", "--n", str(cli.ORBIT_CEILING + 1)], 1),
    "symmetry-huge": (["symmetry", "--n", HUGE, "--method", "closed", "--ears", "2"], 1),
    "symmetry-malformed": (["symmetry", "--n", "1..x"], 1),
    "disjoint-ceiling": (["disjoint", "--snake", "--n", str(cli.BRUTE_CEILING + 1)], 1),
    "disjoint-huge": (["disjoint", "--arrow", "--n", HUGE, "--method", "formula"], 1),
    "disjoint-malformed": (["disjoint", "--type", "1,x,1", "--n", "7"], 1),
    # the rows of verify cap --max-n at their own feasibility ceilings
    "verify-ceiling": (["verify", "--suite", "parallel", "--max-n", "13"], 0),
    "verify-huge": (["verify", "--suite", "parallel", "--max-n", HUGE], 0),
    "verify-malformed": (["verify", "--max-n", "2"], 1),
    "svg-ceiling": (["svg", "--snake", "--n", str(cli.SVG_CEILING + 1)], 1),
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
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert REFUSAL.search(err.getvalue()), (argv, err.getvalue())
