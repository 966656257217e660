"""Self-verification suites over the package's counting identities.

Every check is one Row of the table CHECKS: its suite, its id, its window
of n, its params and a body that maps n to (expected, got).  One runner
turns a suite's rows into report lines, one per checked instance, which
pass iff expected == got:

    PASS|FAIL|ERRATUM  <check-id>  n=<..> params=<..> expected=<..> got=<..>

ERRATUM is reserved for a known discrepancy that is reported rather than
failed: the published variant of the 3-eared disjointness formula (see
polytri.disjoint.three_ear_disjoint_published) disagrees with the case
analysis, witnessed already at n=6.

Suites run one after another on the calling thread, in the order asked
for, and their lines are reported in that order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from typing import Callable, NamedTuple

from polytri import compositions as comp
from polytri import counting, disjoint
from polytri.triangulation import enumerate_triangulations


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


class Row(NamedTuple):
    suite: str
    check_id: str
    first: int  # first n of the window
    default: int  # last n when no cap is given
    ceiling: int  # last n under any cap: a feasibility bound
    step: int
    params: str | None  # None: the body returns them as a third value
    # n -> (expected, got[, params]).  A scan row's body takes the whole
    # window and returns its lines as (status, n, params, expected, got);
    # status None means PASS iff expected == got.  Bodies look functions up
    # on their modules when called, so a wrapper set there sees the calls.
    body: Callable
    scan: bool = False


def _agreed(**routes) -> str:
    """The value every route gives, or each route's value if they differ."""
    values = set(routes.values())
    if len(values) == 1:
        return str(values.pop())
    return ",".join(f"{name}={value}" for name, value in routes.items())


def _tally(items, holds) -> tuple[int, int]:
    """(number of items, number of them for which holds(item) is true)."""
    items = list(items)
    return len(items), sum(1 for item in items if holds(item))


# -- row bodies ----------------------------------------------------------------


def _dual_tree_matches(t) -> bool:
    dt = t.dual_tree()
    return (
        len(dt.edges) == t.n - 3
        and sorted(dt.leaves()) == sorted(t.ears())
        and sorted(dt.branch_nodes()) == sorted(t.internal_triangles())
    )


def _dihedral_action(n: int) -> tuple[str, str]:
    ts = set(enumerate_triangulations(n))
    ok = (
        {t.rotated(1) for t in ts} == ts
        and {t.reflected() for t in ts} == ts
        and all(img.ear_count() == t.ear_count()
                for t in ts for img in (t.rotated(1), t.reflected()))
    )
    return "bijective+ear-preserving", "bijective+ear-preserving" if ok else "broken"


def _canonical_is_orbit_constant(t) -> bool:
    c = t.canonical()
    return c.canonical() == c and all(img.canonical() == c for img in t.dihedral_images())


def _involutions_commute(m: int, mask: int) -> bool:
    _, rev, conj, _ = comp.mask_images(m, mask)
    of_rev, of_conj = comp.mask_images(m, rev), comp.mask_images(m, conj)
    return of_rev[1] == mask == of_conj[2] and of_rev[2] == of_conj[1]


def _fixed_point_closed_forms(m: int) -> tuple[str, str]:
    filtered = [0, 0, 0]  # masks fixed by reversal, conjugation, conj_rev
    for mask in range(1 << (m - 1)):
        for op, image in enumerate(comp.mask_images(m, mask)[1:]):
            filtered[op] += image == mask
    closed_forms = tuple(comp.count_fixed(m, op) for op in ("reversal", "conjugation", "conj_rev"))
    return str(tuple(filtered)), str(closed_forms)


def _two_eared(n: int):
    return (t for t in enumerate_triangulations(n) if t.ear_count() == 2)


def _images_read_in_class(t) -> bool:
    cls = comp.composition_class(comp.composition_of(t))
    return all(comp.composition_of(img) in cls for img in t.dihedral_images())


def _two_ear_disjoint_catalan(n: int) -> tuple[int, int, str]:
    expected = disjoint.disjoint_two_eared(n)
    total, good = _tally(_two_eared(n), lambda t: disjoint.count_disjoint(t) == expected)
    return total, good, f"count=C({n - 3})={expected}"


def _arrow_characterization(n: int) -> tuple[int, int]:
    fan = disjoint.arrow(n)
    good = sum(
        u.is_disjoint_from(fan) == ((0, 2) in u.diagonals)
        for u in enumerate_triangulations(n)
    )
    return counting.catalan(n - 2), good


def _series(_window: range) -> list[tuple]:
    # a fixed number of coefficients, reported whatever the cap
    limit = 20
    expected, got = counting.catalan_list(limit), disjoint.disjoint_series(limit)
    return [(None, limit, f"coefficients=0..{limit}", expected, got)]


def _fan_avoidance(n: int) -> tuple[str, str, str]:
    params = f"m=0..{n - 3}"
    for m in range(n - 2):
        expected = disjoint.avoid_fan_formula(n, m)
        for apex in range(n):
            got = disjoint.count_avoiding(n, disjoint.fan_prefix_diagonals(n, apex, m))
            if got != expected:
                witness = f"m={m},apex={apex},expected={expected},got={got}"
                return "all-apexes-match", witness, params
    return "all-apexes-match", "all-apexes-match", params


def _types(n: int):
    """Every 3-eared type (p, q, r): positive branch sizes with p+q+r = n-3."""
    for p in range(1, n - 4):
        for q in range(1, n - 3 - p):
            yield (p, q, n - 3 - p - q)


def _three_ear_closed(n: int, branches) -> int:
    """2 C(n-3) - S(p-1) - S(q-1) - S(r-1), the closed form of the 3-ear
    case sum; an empty branch (size 0) contributes the empty sum S(-1)."""
    return 2 * counting.catalan(n - 3) - sum(
        counting.catalan_partial_convolution(n, x - 1) for x in branches
    )


def _three_ear_case_sum(n: int, ptype) -> bool:
    value = disjoint.three_ear_disjoint(n, ptype)
    brute = disjoint.count_disjoint(disjoint.three_ear_rep(n, ptype))
    perms = set(permutations(ptype))
    symmetric = all(disjoint.three_ear_disjoint(n, perm) == value for perm in perms)
    return value == brute == _three_ear_closed(n, ptype) and symmetric


def _published_variant(window: range) -> list[tuple]:
    # Known discrepancy of the published closed-form variant: report the
    # first witness as an erratum instead of failing.  Finding none over a
    # non-empty scan would mean the discrepancy vanished, which IS a failure.
    for n in window:
        for ptype in _types(n):
            oracle = disjoint.three_ear_disjoint(n, ptype)
            published = disjoint.three_ear_disjoint_published(n, ptype)
            if published != oracle:
                return [("ERRATUM", n, f"type={ptype!r}", oracle, published)]
    if not window:
        return []
    return [("FAIL", f"{window[0]}..{window[-1]}", "-", "discrepancy", "none-found")]


def _snake_residues(n: int) -> tuple[str, str]:
    sn = disjoint.snake(n)
    same = set(sn.diagonals) == set(disjoint.diagonals_with_residue(n, [1, 2]))
    return "equal", "equal" if same and sn.ear_count() == 2 else "mismatch"


def _signature(n: int) -> tuple[str, str, str]:
    groups = disjoint.signature_invariance_check(n)
    varied = [sig for sig, counts in groups.items() if len(set(counts)) > 1]
    got = f"violated:{varied[0]}" if varied else "constant"
    return "constant", got, f"groups={len(groups)}"


# -- the table -----------------------------------------------------------------
# suite, check id, first n, default top, ceiling, step, params, body.  Rows
# run in table order, and suites report in the order they first appear.

CHECKS: tuple[Row, ...] = (
    Row("core", "catalan-enumeration", 3, 12, 12, 1, "-", lambda n: (
        counting.catalan(n - 2),
        len({t for t in enumerate_triangulations(n) if len(t.diagonals) == n - 3}))),
    Row("core", "ear-internal-offset", 4, 10, 12, 1, "-", lambda n: _tally(
        enumerate_triangulations(n),
        lambda t: len(t.ears()) == len(t.internal_triangles()) + 2)),
    Row("core", "dual-tree-structure", 4, 10, 10, 1, "-",
        lambda n: _tally(enumerate_triangulations(n), _dual_tree_matches)),
    Row("core", "dihedral-action", 4, 9, 10, 1, "-", _dihedral_action),
    Row("core", "canonical-orbit-constant", 4, 9, 9, 1, "-",
        lambda n: _tally(enumerate_triangulations(n), _canonical_is_orbit_constant)),
    Row("core", "disjoint-symmetry", 4, 8, 8, 1, "-", lambda n: _tally(
        product(list(enumerate_triangulations(n)), repeat=2),
        lambda pair: pair[0].is_disjoint_from(pair[1]) == pair[1].is_disjoint_from(pair[0]))),

    Row("compositions", "composition-count", 1, 16, 18, 1, "-",
        lambda m: (2 ** (m - 1), len(set(comp.enumerate_compositions(m))))),
    Row("compositions", "involutions-commute", 1, 12, 16, 1, "-",
        lambda m: _tally(range(1 << (m - 1)), partial(_involutions_commute, m))),
    Row("compositions", "class-orbit-sizes", 1, 12, 16, 1, "-", lambda m: (
        2 ** (m - 1),
        sum(len(set(comp.mask_images(m, mask))) in (1, 2, 4) for mask in range(1 << (m - 1))))),
    Row("compositions", "class-count-methods", 2, 16, 20, 1, "-", lambda m: (
        str(comp.count_classes(m, "direct")),
        _agreed(closed=comp.count_classes(m, "closed"),
                burnside=comp.count_classes(m, "burnside")))),
    Row("compositions", "fixed-point-closed-forms", 1, 16, 16, 1,
        "ops=reversal,conjugation,conj_rev", _fixed_point_closed_forms),
    Row("compositions", "pointing-round-trip", 5, 12, 16, 1, "-", lambda n: _tally(
        map("".join, product("UD", repeat=n - 4)),
        lambda s: comp.pointing_string(comp.two_eared_from_pointing(s)) == s)),
    Row("compositions", "two-ear-class-bijection", 5, 12, 14, 1, "m=n-3", lambda n: (
        comp.count_classes(n - 3, "direct"), counting.symmetry_classes_orbit(n, ears=2))),
    Row("compositions", "image-readings-in-class", 5, 9, 10, 1, "-",
        lambda n: _tally(_two_eared(n), _images_read_in_class)),

    Row("formulas", "ear-count-sum", 4, 30, 40, 1, "-", lambda n: (
        counting.catalan(n - 2),
        sum(counting.hurtado_noy(n, k) for k in range(2, counting.max_ears(n) + 1)))),
    Row("formulas", "ear-census-methods", 4, 12, 12, 1, "-", lambda n: (
        str(counting.ear_census(n, "formula")), str(counting.ear_census(n, "brute")))),
    Row("formulas", "two-ear-classes-closed-vs-orbit", 5, 14, 14, 1, "-", lambda n: (
        counting.symmetry_classes_2ear(n), counting.symmetry_classes_orbit(n, ears=2))),
    Row("formulas", "two-ear-classes-vs-compositions", 5, 20, 20, 1, "m=n-3", lambda n: (
        counting.symmetry_classes_2ear(n), comp.count_classes(n - 3, "direct"))),
    Row("formulas", "three-ear-classes-closed-vs-orbit", 6, 14, 14, 1, "-", lambda n: (
        counting.symmetry_classes_3ear(n), counting.symmetry_classes_orbit(n, ears=3))),

    Row("disjoint-2ear", "two-ear-disjoint-catalan", 4, 11, 11, 1, None,
        _two_ear_disjoint_catalan),
    Row("disjoint-2ear", "arrow-characterization", 4, 10, 10, 1, "-",
        _arrow_characterization),
    Row("disjoint-2ear", "inclusion-exclusion", 4, 18, 18, 1, "-", lambda n: (
        counting.catalan(n - 3), disjoint.disjoint_inclusion_exclusion(n))),
    Row("disjoint-2ear", "series-telescopes-to-catalan", 20, 20, 20, 1, None, _series,
        scan=True),

    Row("disjoint-3ear", "fan-avoidance-formula", 4, 12, 12, 1, None, _fan_avoidance),
    Row("disjoint-3ear", "three-ear-case-sum", 6, 12, 12, 1, "all-types",
        lambda n: _tally(_types(n), partial(_three_ear_case_sum, n))),
    Row("disjoint-3ear", "degenerate-branch-catalan", 5, 15, 15, 1, "r=0", lambda n: _tally(
        range(1, n - 3),
        lambda p: _three_ear_closed(n, (p, n - 3 - p, 0)) == counting.catalan(n - 3))),
    Row("disjoint-3ear", "three-ear-published-variant", 6, 12, 12, 1, None,
        _published_variant, scan=True),

    Row("parallel", "snake-residue-diagonals", 4, 12, 12, 1, "-", _snake_residues),
    Row("parallel", "parallel-two-residues", 4, 12, 12, 1, "residues={1,2}", lambda n: (
        str(counting.catalan(n - 3)),
        _agreed(avoid=disjoint.count_avoiding_parallel(n, [1, 2]),
                snake=disjoint.count_disjoint(disjoint.snake(n))))),
    Row("parallel", "parallel-one-residue-even", 6, 12, 12, 2, "residues={1}", lambda n: (
        2 * counting.catalan(n - 3), disjoint.count_avoiding_parallel(n, [1]))),

    Row("signature", "signature-determines-disjoint", 4, 10, 10, 1, None, _signature),
)


def _line(row: Row, n: int) -> tuple:
    """The (status, n, params, expected, got) line of a per-n row at n."""
    result = row.body(n)
    expected, got, params = result if row.params is None else (*result, row.params)
    return None, n, params, expected, got


def _run_suite(suite: str, max_n: int | None) -> list[Check]:
    """The checks of one suite's rows, each over its window capped by max_n."""
    out = []
    for row in CHECKS:
        if row.suite != suite:
            continue
        top = min(row.ceiling, row.default if max_n is None else max_n)
        window = range(row.first, top + 1, row.step)
        lines = row.body(window) if row.scan else [_line(row, n) for n in window]
        for status, n, params, expected, got in lines:
            if status is None:
                status = "PASS" if expected == got else "FAIL"
            out.append(Check(status, row.check_id, str(n), params, str(expected), str(got)))
    return out


SUITES: dict[str, Callable[[int | None], list[Check]]] = {
    name: partial(_run_suite, name) for name in dict.fromkeys(row.suite for row in CHECKS)
}


@dataclass(frozen=True)
class RunReport:
    suites: tuple[str, ...]
    max_n: int | None
    checks: tuple[Check, ...]
    wall_time: float
    # (suite, elapsed seconds), in report order
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

    def render_text(self) -> str:
        lines = [c.line() for c in self.checks]
        counts = self.counts
        lines.append(
            f"checked {len(self.checks)}: {counts['PASS']} pass, "
            f"{counts['FAIL']} fail, {counts['ERRATUM']} erratum"
        )
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "suites": list(self.suites),
            "max_n": self.max_n,
            "checks": [c.as_json() for c in self.checks],
            "counts": self.counts,
        }
        return json.dumps(payload, indent=2) + "\n"


def thread_count() -> int:
    """Always 1: suites run on the calling thread.  Kept only because the
    benchmark records this value with every result."""
    return 1


def run_suites(
    suites: list[str] | None = None, max_n: int | None = None
) -> RunReport:
    """Run the named suites (default: all) and return the buffered report.

    A name given twice runs once, at its first position.  Suites run one
    after another on the calling thread, in the order given; each is looked
    up in SUITES when it runs, so a wrapper set there sees the call.  Each
    suite's elapsed time is recorded in suite_times.
    """
    names = list(SUITES) if suites is None else list(dict.fromkeys(suites))
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
            )
    if max_n is not None and max_n < 3:
        raise ValueError(f"max_n must be >= 3, got {max_n}")
    start = time.perf_counter()
    checks: list[Check] = []
    suite_times = []
    for name in names:
        suite_start = time.perf_counter()
        checks.extend(SUITES[name](max_n))
        suite_times.append((name, time.perf_counter() - suite_start))
    return RunReport(
        suites=tuple(names),
        max_n=max_n,
        checks=tuple(checks),
        wall_time=time.perf_counter() - start,
        suite_times=tuple(suite_times),
    )
