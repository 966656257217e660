"""Self-verification suites over the package's counting identities.

Each suite re-derives a family of identities and reports one line per
checked instance:

    PASS|FAIL|ERRATUM  <check-id>  n=<..> params=<..> expected=<..> got=<..>

ERRATUM is reserved for a known discrepancy that is reported rather than
failed: the published variant of the 3-eared disjointness formula (see
polytri.disjoint.three_ear_disjoint_published) disagrees with the case
analysis, witnessed already at n=6.

Suites run concurrently (POLYTRI_THREADS, default: all cores) but their
output is buffered per suite and emitted in a fixed order, so reports are
byte-identical regardless of thread count.  Every check ranges over an
explicit window: the spec'd feasibility ceiling bounds it above, and a
--max-n style cap can lower it.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

from polytri import compositions as comp
from polytri import counting, disjoint
from polytri.triangulation import Triangulation, enumerate_triangulations

THREADS_ENV = "POLYTRI_THREADS"


@dataclass(frozen=True)
class Check:
    status: str  # PASS | FAIL | ERRATUM
    check_id: str
    n: str
    params: str
    expected: str
    got: str

    def line(self) -> str:
        return (
            f"{self.status}  {self.check_id}  n={self.n} "
            f"params={self.params} expected={self.expected} got={self.got}"
        )

    def as_json(self) -> dict:
        return {
            "status": self.status,
            "id": self.check_id,
            "n": self.n,
            "params": self.params,
            "expected": self.expected,
            "got": self.got,
        }


def _check(cid: str, n, expected, got, params: str = "-") -> Check:
    status = "PASS" if expected == got else "FAIL"
    return Check(status, cid, str(n), params, str(expected), str(got))


def _hi(max_n: int | None, default: int, ceiling: int) -> int:
    return min(ceiling, default if max_n is None else max_n)


# -- suites -------------------------------------------------------------------


def suite_core(max_n: int | None) -> list[Check]:
    out = []
    for n in range(3, _hi(max_n, 12, 12) + 1):
        ts = list(enumerate_triangulations(n))
        distinct_valid = len(
            {t for t in ts if len(t.diagonals) == n - 3}
        )
        out.append(_check("catalan-enumeration", n, counting.catalan(n - 2), distinct_valid))
    for n in range(4, _hi(max_n, 10, 12) + 1):
        ts = list(enumerate_triangulations(n))
        good = sum(1 for t in ts if len(t.ears()) == len(t.internal_triangles()) + 2)
        out.append(_check("ear-internal-offset", n, len(ts), good))
    for n in range(4, _hi(max_n, 10, 10) + 1):
        ts = list(enumerate_triangulations(n))
        good = 0
        for t in ts:
            dt = t.dual_tree()
            ok = (
                len(dt.edges) == n - 3
                and sorted(dt.leaves()) == sorted(t.ears())
                and sorted(dt.branch_nodes()) == sorted(t.internal_triangles())
            )
            good += ok
        out.append(_check("dual-tree-structure", n, len(ts), good))
    for n in range(4, _hi(max_n, 9, 10) + 1):
        ts = set(enumerate_triangulations(n))
        rot_ok = {t.rotated(1) for t in ts} == ts
        ref_ok = {t.reflected() for t in ts} == ts
        ears_ok = all(
            t.rotated(1).ear_count() == t.ear_count()
            and t.reflected().ear_count() == t.ear_count()
            for t in ts
        )
        out.append(
            _check("dihedral-action", n, "bijective+ear-preserving",
                   "bijective+ear-preserving" if rot_ok and ref_ok and ears_ok else "broken")
        )
    for n in range(4, _hi(max_n, 9, 9) + 1):
        ts = list(enumerate_triangulations(n))
        good = 0
        for t in ts:
            c = t.canonical()
            good += c.canonical() == c and all(
                img.canonical() == c for img in t.dihedral_images()
            )
        out.append(_check("canonical-orbit-constant", n, len(ts), good))
    for n in range(4, _hi(max_n, 8, 8) + 1):
        ts = list(enumerate_triangulations(n))
        pairs = sum(
            t1.is_disjoint_from(t2) == t2.is_disjoint_from(t1)
            for t1 in ts
            for t2 in ts
        )
        out.append(_check("disjoint-symmetry", n, len(ts) ** 2, pairs))
    return out


def suite_compositions(max_n: int | None) -> list[Check]:
    out = []
    for m in range(1, _hi(max_n, 16, 18) + 1):
        comps = list(comp.enumerate_compositions(m))
        out.append(_check("composition-count", m, 2 ** (m - 1), len(set(comps))))
    for m in range(1, _hi(max_n, 12, 16) + 1):
        comps = list(comp.enumerate_compositions(m))
        good = sum(
            comp.reverse(comp.reverse(c)) == c
            and comp.conjugate(comp.conjugate(c)) == c
            and comp.conjugate(comp.reverse(c)) == comp.reverse(comp.conjugate(c))
            for c in comps
        )
        out.append(_check("involutions-commute", m, len(comps), good))
    for m in range(1, _hi(max_n, 12, 16) + 1):
        good = sum(
            len(comp.composition_class(c)) in (1, 2, 4)
            for c in comp.enumerate_compositions(m)
        )
        out.append(_check("class-orbit-sizes", m, 2 ** (m - 1), good))
    for m in range(2, _hi(max_n, 16, 20) + 1):
        direct = comp.count_classes(m, "direct")
        closed = comp.count_classes(m, "closed")
        burnside = comp.count_classes(m, "burnside")
        got = str(closed) if closed == burnside else f"closed={closed},burnside={burnside}"
        out.append(_check("class-count-methods", m, str(direct), got))
    for m in range(1, _hi(max_n, 16, 16) + 1):
        comps = list(comp.enumerate_compositions(m))
        filtered = (
            sum(comp.reverse(c) == c for c in comps),
            sum(comp.conjugate(c) == c for c in comps),
            sum(comp.conjugate(comp.reverse(c)) == c for c in comps),
        )
        closed_forms = tuple(
            comp.count_fixed(m, op) for op in ("reversal", "conjugation", "conj_rev")
        )
        out.append(
            _check("fixed-point-closed-forms", m, str(filtered), str(closed_forms),
                   params="ops=reversal,conjugation,conj_rev")
        )
    for n in range(5, _hi(max_n, 12, 16) + 1):
        total = 2 ** (n - 4)
        good = sum(
            comp.pointing_string(comp.two_eared_from_pointing("".join(bits))) == "".join(bits)
            for bits in product("UD", repeat=n - 4)
        )
        out.append(_check("pointing-round-trip", n, total, good))
    for n in range(5, _hi(max_n, 12, 14) + 1):
        out.append(
            _check("two-ear-class-bijection", n,
                   comp.count_classes(n - 3, "direct"),
                   counting.symmetry_classes_orbit(n, ears=2),
                   params="m=n-3")
        )
    for n in range(5, _hi(max_n, 9, 10) + 1):
        two_eared = [t for t in enumerate_triangulations(n) if t.ear_count() == 2]
        good = 0
        for t in two_eared:
            cls = comp.composition_class(comp.composition_of(t))
            good += all(comp.composition_of(img) in cls for img in t.dihedral_images())
        out.append(_check("image-readings-in-class", n, len(two_eared), good))
    return out


def suite_formulas(max_n: int | None) -> list[Check]:
    out = []
    for n in range(4, _hi(max_n, 30, 40) + 1):
        total = sum(
            counting.hurtado_noy(n, k) for k in range(2, counting.max_ears(n) + 1)
        )
        out.append(_check("ear-count-sum", n, counting.catalan(n - 2), total))
    for n in range(4, _hi(max_n, 12, 12) + 1):
        out.append(
            _check("ear-census-methods", n,
                   str(counting.ear_census(n, "formula")),
                   str(counting.ear_census(n, "brute")))
        )
    for n in range(5, _hi(max_n, 14, 14) + 1):
        out.append(
            _check("two-ear-classes-closed-vs-orbit", n,
                   counting.symmetry_classes_2ear(n),
                   counting.symmetry_classes_orbit(n, ears=2))
        )
    for n in range(5, _hi(max_n, 20, 20) + 1):
        out.append(
            _check("two-ear-classes-vs-compositions", n,
                   counting.symmetry_classes_2ear(n),
                   comp.count_classes(n - 3, "direct"),
                   params="m=n-3")
        )
    for n in range(6, _hi(max_n, 14, 14) + 1):
        out.append(
            _check("three-ear-classes-closed-vs-orbit", n,
                   counting.symmetry_classes_3ear(n),
                   counting.symmetry_classes_orbit(n, ears=3))
        )
    return out


def suite_disjoint_2ear(max_n: int | None) -> list[Check]:
    out = []
    for n in range(4, _hi(max_n, 11, 11) + 1):
        expected = disjoint.disjoint_two_eared(n)
        two_eared = 0
        good = 0
        for t in enumerate_triangulations(n):
            if t.ear_count() == 2:
                two_eared += 1
                good += disjoint.count_disjoint(t) == expected
        out.append(
            _check("two-ear-disjoint-catalan", n, two_eared, good,
                   params=f"count=C({n - 3})={expected}")
        )
    for n in range(4, _hi(max_n, 10, 10) + 1):
        fan = disjoint.arrow(n)
        good = sum(
            u.is_disjoint_from(fan) == ((0, 2) in u.diagonal_set)
            for u in enumerate_triangulations(n)
        )
        out.append(_check("arrow-characterization", n, counting.catalan(n - 2), good))
    for n in range(4, _hi(max_n, 18, 18) + 1):
        out.append(
            _check("inclusion-exclusion", n, counting.catalan(n - 3),
                   disjoint.disjoint_inclusion_exclusion(n))
        )
    limit = 20
    out.append(
        _check("series-telescopes-to-catalan", limit,
               str(counting.catalan_list(limit)), str(disjoint.disjoint_series(limit)),
               params="coefficients=0..20")
    )
    return out


def suite_disjoint_3ear(max_n: int | None) -> list[Check]:
    out = []
    for n in range(4, _hi(max_n, 12, 12) + 1):
        ok = True
        witness = ""
        for m in range(n - 2):
            expected = disjoint.avoid_fan_formula(n, m)
            for apex in range(n):
                got = disjoint.count_avoiding(
                    n, disjoint.fan_prefix_diagonals(n, apex, m)
                )
                if got != expected:
                    ok = False
                    witness = f"m={m},apex={apex},expected={expected},got={got}"
                    break
            if not ok:
                break
        out.append(
            _check("fan-avoidance-formula", n, "all-apexes-match",
                   "all-apexes-match" if ok else witness,
                   params=f"m=0..{n - 3}")
        )

    def types(n):
        for p in range(1, n - 4):
            for q in range(1, n - 3 - p):
                yield (p, q, n - 3 - p - q)

    for n in range(6, _hi(max_n, 12, 12) + 1):
        total = 0
        good = 0
        for ptype in types(n):
            total += 1
            value = disjoint.three_ear_disjoint(n, ptype)
            brute = disjoint.count_disjoint(disjoint.three_ear_rep(n, ptype))
            p, q, r = ptype
            closed = 2 * counting.catalan(n - 3) - sum(
                counting.catalan_partial_convolution(n, x - 1) for x in (p, q, r)
            )
            perms_ok = all(
                disjoint.three_ear_disjoint(n, (p2, q2, r2)) == value
                for p2, q2, r2 in {(p, q, r), (q, r, p), (r, p, q), (r, q, p), (q, p, r), (p, r, q)}
            )
            good += value == brute == closed and perms_ok
        out.append(_check("three-ear-case-sum", n, total, good, params="all-types"))
    for n in range(5, _hi(max_n, 15, 15) + 1):
        good = 0
        total = 0
        for p in range(1, n - 3):
            q = n - 3 - p
            total += 1
            value = 2 * counting.catalan(n - 3) - (
                counting.catalan_partial_convolution(n, p - 1)
                + counting.catalan_partial_convolution(n, q - 1)
                + counting.catalan_partial_convolution(n, -1)
            )
            good += value == counting.catalan(n - 3)
        out.append(_check("degenerate-branch-catalan", n, total, good, params="r=0"))

    # Known discrepancy of the published closed-form variant: report the
    # first witness as an erratum instead of failing.  Finding none over a
    # non-empty scan would mean the discrepancy vanished, which IS a failure.
    hi = _hi(max_n, 12, 12)
    witness = None
    for n in range(6, hi + 1):
        for ptype in types(n):
            oracle = disjoint.three_ear_disjoint(n, ptype)
            published = disjoint.three_ear_disjoint_published(n, ptype)
            if published != oracle:
                witness = (n, ptype, oracle, published)
                break
        if witness:
            break
    if witness:
        n, ptype, oracle, published = witness
        out.append(
            Check("ERRATUM", "three-ear-published-variant", str(n),
                  f"type={ptype!r}", str(oracle), str(published))
        )
    elif hi >= 6:
        out.append(
            _check("three-ear-published-variant", f"6..{hi}", "discrepancy", "none-found")
        )
    return out


def suite_parallel(max_n: int | None) -> list[Check]:
    out = []
    for n in range(4, _hi(max_n, 12, 12) + 1):
        sn = disjoint.snake(n)
        same = set(sn.diagonals) == set(disjoint.diagonals_with_residue(n, [1, 2]))
        out.append(
            _check("snake-residue-diagonals", n, "equal",
                   "equal" if same and sn.ear_count() == 2 else "mismatch")
        )
    for n in range(4, _hi(max_n, 12, 12) + 1):
        expected = counting.catalan(n - 3)
        avoiding = disjoint.count_avoiding_parallel(n, [1, 2])
        via_snake = disjoint.count_disjoint(disjoint.snake(n))
        got = str(avoiding) if avoiding == via_snake else f"avoid={avoiding},snake={via_snake}"
        out.append(_check("parallel-two-residues", n, str(expected), got,
                          params="residues={1,2}"))
    for n in range(6, _hi(max_n, 12, 12) + 1, 2):
        out.append(
            _check("parallel-one-residue-even", n, 2 * counting.catalan(n - 3),
                   disjoint.count_avoiding_parallel(n, [1]),
                   params="residues={1}")
        )
    return out


def suite_signature(max_n: int | None) -> list[Check]:
    out = []
    for n in range(4, _hi(max_n, 10, 10) + 1):
        report = disjoint.signature_invariance_check(n)
        got = "constant" if report.ok else (
            f"violated:{report.violations[0].signature}"
        )
        out.append(
            _check("signature-determines-disjoint", n, "constant", got,
                   params=f"groups={len(report.groups)}")
        )
    return out


SUITES: dict[str, callable] = {
    "core": suite_core,
    "compositions": suite_compositions,
    "formulas": suite_formulas,
    "disjoint-2ear": suite_disjoint_2ear,
    "disjoint-3ear": suite_disjoint_3ear,
    "parallel": suite_parallel,
    "signature": suite_signature,
}


@dataclass(frozen=True)
class RunReport:
    suites: tuple[str, ...]
    max_n: int | None
    checks: tuple[Check, ...]
    wall_time: float
    # (suite, CPU seconds of the thread that ran it), in report order
    suite_times: tuple[tuple[str, float], ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "ERRATUM": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        return 2 if self.counts["FAIL"] else 0

    def render_text(self, timing: bool = False) -> str:
        lines = [c.line() for c in self.checks]
        counts = self.counts
        lines.append(
            f"checked {len(self.checks)}: {counts['PASS']} pass, "
            f"{counts['FAIL']} fail, {counts['ERRATUM']} erratum"
        )
        if timing:
            lines.append(f"wall-time: {self.wall_time:.2f}s")
        return "\n".join(lines) + "\n"

    def render_json(self, timing: bool = False) -> str:
        payload = {
            "suites": list(self.suites),
            "max_n": self.max_n,
            "checks": [c.as_json() for c in self.checks],
            "counts": self.counts,
        }
        if timing:
            payload["wall_time"] = round(self.wall_time, 2)
        return json.dumps(payload, indent=2) + "\n"


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        value = int(raw)
    except ValueError:
        return os.cpu_count() or 1
    return max(1, value)


def _run_timed(name: str, max_n: int | None) -> tuple[list[Check], float]:
    # thread_time() counts only this thread's CPU time, not the time it
    # waits for the interpreter lock while other suites run
    start = time.thread_time()
    checks = SUITES[name](max_n)
    return checks, time.thread_time() - start


def run_suites(
    suites: list[str] | None = None, max_n: int | None = None
) -> RunReport:
    """Run the named suites (default: all) and return the buffered report.

    Suites execute concurrently but results are assembled in registry
    order, so the report does not depend on the thread count.  Each
    suite's CPU time is recorded in suite_times.
    """
    names = list(SUITES) if suites is None else list(suites)
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
            )
    if max_n is not None and max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(names))) as pool:
        futures = {name: pool.submit(_run_timed, name, max_n) for name in names}
        checks: list[Check] = []
        suite_times = []
        for name in names:
            suite_checks, seconds = futures[name].result()
            checks.extend(suite_checks)
            suite_times.append((name, seconds))
    return RunReport(
        suites=tuple(names),
        max_n=max_n,
        checks=tuple(checks),
        wall_time=time.perf_counter() - start,
        suite_times=tuple(suite_times),
    )
