"""Acceptance suite: one test per headline claim, exact integer equality.

Each test prints `ACCEPTANCE PASS: <criterion> (<elapsed>s)` on success and
enforces the runtime budget it states, so `pytest -v tests/test_acceptance.py`
reads as a one-line-per-criterion report.
"""

from __future__ import annotations

import subprocess
import sys
import time

from polytri import compositions as comp
from polytri import counting, disjoint, verify
from polytri.triangulation import enumerate_triangulations

from helpers import child_env, conjugate_by_bars, count_disjoint_by_enumeration, segner_catalan


def _done(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded {budget:.0f}s budget"


def test_criterion_01_catalan_totals():
    started = time.perf_counter()
    for n in range(3, 13):
        seen = set(enumerate_triangulations(n))
        assert len(seen) == segner_catalan(n - 2), f"n={n}"
        assert all(len(t.diagonals) == n - 3 for t in seen)
    _done("catalan totals 3<=n<=12", started, 5.0)


def test_criterion_02_ear_census_formula():
    started = time.perf_counter()
    for n in range(4, 13):
        assert counting.ear_census(n, "formula") == counting.ear_census(n, "brute"), f"n={n}"
    for n in range(4, 31):
        total = sum(counting.hurtado_noy(n, k) for k in range(2, counting.max_ears(n) + 1))
        assert total == counting.catalan(n - 2), f"n={n}"
    _done("ear-count census formula 4<=n<=12, totals to n=30", started, 30.0)


def test_criterion_03_two_ear_symmetry_classes():
    started = time.perf_counter()
    assert counting.symmetry_classes_2ear(6) == 2
    for n in range(5, 15):
        assert counting.symmetry_classes_2ear(n) == counting.symmetry_classes_orbit(n, ears=2), f"n={n}"
    for n in range(5, 21):
        assert counting.symmetry_classes_2ear(n) == comp.count_classes(n - 3, "direct"), f"n={n}"
    _done("2-eared symmetry classes: closed=orbit (n<=14), =composition classes (n<=20)",
          started, 60.0)


def test_criterion_04_three_ear_symmetry_classes():
    started = time.perf_counter()
    assert counting.symmetry_classes_3ear(6) == 1
    assert counting.symmetry_classes_3ear(8) == 5
    assert counting.symmetry_classes_3ear(9) == 14
    for n in range(6, 15):
        closed = counting.symmetry_classes_3ear(n)  # raises if non-integral
        assert closed == counting.symmetry_classes_orbit(n, ears=3), f"n={n}"
    _done("3-eared symmetry classes integral and =orbit for 6<=n<=14", started, 60.0)


def test_criterion_05_fixed_composition_counts():
    started = time.perf_counter()
    for m in range(1, 17):
        comps = list(comp.enumerate_compositions(m))
        assert comp.count_fixed(m, "reversal") == sum(c[::-1] == c for c in comps)
        assert comp.count_fixed(m, "conjugation") == sum(conjugate_by_bars(c) == c for c in comps)
        assert comp.count_fixed(m, "conj_rev") == sum(
            conjugate_by_bars(c[::-1]) == c for c in comps
        )
    assert comp.count_fixed(6, "conj_rev") == 0  # even m: no fixed points
    assert comp.count_fixed(5, "conjugation") == 0  # only m=1 is self-conjugate
    _done("fixed compositions under reversal/conjugation/both, m<=16", started, 10.0)


def test_criterion_06_two_eared_disjoint_catalan():
    started = time.perf_counter()
    checked_at_11 = 0
    for n in range(4, 12):
        expected = counting.catalan(n - 3)
        for t in enumerate_triangulations(n):
            if t.ear_count() == 2:
                assert disjoint.count_disjoint(t) == expected, str(t)
                checked_at_11 += n == 11
    assert checked_at_11 == 704
    _done("2-eared disjointness = C(n-3), all 704+ cases to n=11", started, 120.0)


def test_criterion_07_inclusion_exclusion_and_series():
    started = time.perf_counter()
    for n in range(4, 19):
        assert disjoint.disjoint_inclusion_exclusion(n) == counting.catalan(n - 3), f"n={n}"
    assert disjoint.disjoint_series(20) == [segner_catalan(k) for k in range(21)]
    _done("inclusion-exclusion = C(n-3) to n=18; series = C_0..C_20", started, 10.0)


def test_criterion_08_fan_avoidance_formula():
    started = time.perf_counter()
    for n in range(4, 13):
        all_sets = [frozenset(t.diagonals) for t in enumerate_triangulations(n)]
        for m in range(0, n - 2):
            expected = disjoint.avoid_fan_formula(n, m)
            for apex in range(n):
                forbidden = frozenset(disjoint.fan_prefix_diagonals(n, apex, m))
                brute = sum(1 for s in all_sets if not (s & forbidden))
                assert brute == expected, f"n={n} m={m} apex={apex}"
                assert disjoint.count_avoiding(n, forbidden) == expected
    _done("fan-avoidance closed form = brute force, every apex, n<=12", started, 60.0)


def test_criterion_09_three_ear_disjoint_cases():
    started = time.perf_counter()
    for n in range(6, 13):
        for p in range(1, n - 4):
            for q in range(1, n - 3 - p):
                r = n - 3 - p - q
                value = disjoint.three_ear_disjoint(n, (p, q, r))
                rep = disjoint.three_ear_rep(n, (p, q, r))
                assert value == disjoint.count_disjoint(rep), f"n={n} {(p, q, r)}"
                assert value == count_disjoint_by_enumeration(rep), f"n={n} {(p, q, r)}"
                assert value == disjoint.three_ear_disjoint(n, (q, r, p))
                assert value == disjoint.three_ear_disjoint(n, (r, q, p))
    # r = 0 degeneration of the case-sum formula collapses to C(n-3).
    for n in range(5, 16):
        for p in range(1, n - 3):
            q = n - 3 - p
            degenerate = 2 * counting.catalan(n - 3) - (
                counting.catalan_partial_convolution(n, p - 1)
                + counting.catalan_partial_convolution(n, q - 1)
                + counting.catalan_partial_convolution(n, -1)
            )
            assert degenerate == counting.catalan(n - 3)
    # The published closed-form variant stays an erratum, witness n=6.
    assert disjoint.three_ear_disjoint(6, (1, 1, 1)) == 4
    assert disjoint.three_ear_disjoint_published(6, (1, 1, 1)) == 1
    report = verify.run_suites(["disjoint-3ear"], max_n=8)
    assert [c.check_id for c in report.checks if c.status == "ERRATUM"] == [
        "three-ear-published-variant"
    ]
    _done("3-eared case-sum formula = brute force, n<=12; published variant = erratum",
          started, 120.0)


def test_criterion_10_parallel_classes_and_snake():
    started = time.perf_counter()
    for n in range(4, 13):
        expected = counting.catalan(n - 3)
        assert disjoint.count_avoiding_parallel(n, [1, 2]) == expected, f"n={n}"
        assert disjoint.count_disjoint(disjoint.snake(n)) == expected, f"n={n}"
    for n in (6, 8, 10, 12):
        assert disjoint.count_avoiding_parallel(n, [1]) == 2 * counting.catalan(n - 3), f"n={n}"
    _done("parallel-class avoidance: {1,2} and snake give C(n-3); even {1} doubles",
          started, 60.0)


def test_criterion_11_internal_signature_invariance():
    started = time.perf_counter()
    for n in range(4, 11):
        groups = disjoint.signature_invariance_check(n)
        for sig, counts in groups.items():
            assert len(set(counts)) == 1, f"n={n}: {sig} {counts}"
    _done("disjointness constant on internal-signature groups, all pairs n<=10",
          started, 180.0)


def test_criterion_12_verify_report_determinism():
    started = time.perf_counter()
    cmd = [sys.executable, "-m", "polytri", "verify", "--max-n", "10"]
    env = child_env()
    outputs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stdout.decode()[-500:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1], "verify reports differ between two runs"
    assert b"ERRATUM" in outputs[0]
    _done("verify --max-n 10 byte-identical across two runs", started, 120.0)
