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

Every row runs through one routine, `_run_row`.  `run_suites` hands the
rows, one task each, to the package's one fork runner, `_workers.map`,
with its cap on the rows' windows as the work estimate.  The runner runs
them in forked worker processes, one per usable CPU, when more than one
CPU is usable and the cap is none or reaches its fork threshold
(`_workers.FORK_FROM`), and otherwise one after another in the calling
process, and gives their results back in table order.  A row no worker
returns, such as one that raised, runs again in the calling process.
Either way the suites' lines are reported in the order asked for, so the
report is the same bytes.  A suite's time is the sum of its rows' times.
A worker that dies, killed or crashed, ends the run with `WorkerDied`,
and no worker outlives the call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from itertools import permutations, product
from typing import Callable, NamedTuple

from polytri import _workers, counting, disjoint
from polytri import compositions as comp
from polytri._workers import WorkerDied
from polytri.triangulation import _check_at_least, enumerate_triangulations


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
    total = good = 0
    for item in items:
        total += 1
        good += bool(holds(item))
    return total, good


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
    images = [(t, t.rotated(1), t.reflected()) for t in ts]
    ok = (
        {rot for _, rot, _ in images} == ts
        and {ref for _, _, ref in images} == ts
        and all(rot.ear_count() == t.ear_count() == ref.ear_count() for t, rot, ref in images)
    )
    return "bijective+ear-preserving", "bijective+ear-preserving" if ok else "broken"


def _canonical_orbit_constant(n: int) -> tuple[int, int]:
    # every (t, image) pair is still compared, the image's canonical read from the table
    ts = list(enumerate_triangulations(n))
    canon = {t.diagonals: t.canonical() for t in ts}

    def holds(t) -> bool:
        c = canon[t.diagonals]
        return c.canonical() == c and all(
            canon.get(img.diagonals) == c for img in t.dihedral_images())

    return _tally(ts, holds)


def _involutions_commute(m: int, mask: int) -> bool:
    _, rev, conj, _ = comp.mask_images(m, mask)
    of_rev, of_conj = comp.mask_images(m, rev), comp.mask_images(m, conj)
    return of_rev[1] == mask == of_conj[2] and of_rev[2] == of_conj[1]


def _fixed_point_closed_forms(m: int) -> tuple[str, str]:
    filtered = [0, 0, 0]  # masks fixed by reversal, conjugation, conj_rev
    for mask, rev, conj, conj_rev in comp.all_mask_images(m):
        filtered[0] += rev == mask
        filtered[1] += conj == mask
        filtered[2] += conj_rev == mask
    closed_forms = tuple(comp.count_fixed(m, op) for op in ("reversal", "conjugation", "conj_rev"))
    return str(tuple(filtered)), str(closed_forms)


def _images_read_in_class(n: int) -> tuple[int, int]:
    # every (t, image) pair is still compared, the image's reading taken from the table
    ts = list(enumerate_triangulations(n, ears=2))
    reading = {t.diagonals: comp.composition_of(t) for t in ts}

    def holds(t) -> bool:
        cls = comp.composition_class(reading[t.diagonals])
        return all(reading.get(img.diagonals) in cls for img in t.dihedral_images())

    return _tally(ts, holds)


def _two_ear_disjoint_catalan(n: int) -> tuple[int, int, str]:
    expected = disjoint.disjoint_two_eared(n)
    total, good = _tally(enumerate_triangulations(n, ears=2),
                         lambda t: disjoint.count_disjoint(t) == expected)
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


def _three_ear_case_sum(n: int, ptype) -> bool:
    value = disjoint.three_ear_disjoint(n, ptype)
    brute = disjoint.count_disjoint(disjoint.three_ear_rep(n, ptype))
    perms = set(permutations(ptype))
    symmetric = all(disjoint.three_ear_disjoint(n, perm) == value for perm in perms)
    return value == brute == disjoint.three_ear_closed_form(n, ptype) and symmetric


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
    Row("core", "canonical-orbit-constant", 4, 9, 9, 1, "-", _canonical_orbit_constant),
    Row("core", "disjoint-symmetry", 4, 8, 8, 1, "-", lambda n: _tally(
        product(list(enumerate_triangulations(n)), repeat=2),
        lambda pair: pair[0].is_disjoint_from(pair[1]) == pair[1].is_disjoint_from(pair[0]))),

    Row("compositions", "composition-count", 1, 16, 18, 1, "-",
        lambda m: (2 ** (m - 1), len(set(comp.enumerate_compositions(m))))),
    Row("compositions", "involutions-commute", 1, 12, 16, 1, "-",
        lambda m: _tally(range(1 << (m - 1)), partial(_involutions_commute, m))),
    Row("compositions", "class-orbit-sizes", 1, 12, 16, 1, "-", lambda m: (
        2 ** (m - 1),
        sum(len(set(images)) in (1, 2, 4) for images in comp.all_mask_images(m)))),
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
    Row("compositions", "image-readings-in-class", 5, 9, 10, 1, "-", _images_read_in_class),

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
        lambda p: disjoint.three_ear_closed_form(n, (p, n - 3 - p, 0))
        == counting.catalan(n - 3))),
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


def _run_row(max_n: int | None, index: int) -> tuple[str, float, list[Check]]:
    """(check id, elapsed seconds, checks) of the row CHECKS[index], run over
    its window capped by max_n.  Every route runs its rows through this one
    routine: a worker process, the in-process map and the SUITES entries."""
    row = CHECKS[index]
    start = time.perf_counter()
    top = min(row.ceiling, row.default if max_n is None else max_n)
    window = range(row.first, top + 1, row.step)
    lines = row.body(window) if row.scan else [_line(row, n) for n in window]
    checks = []
    for status, n, params, expected, got in lines:
        if status is None:
            status = "PASS" if expected == got else "FAIL"
        checks.append(Check(status, row.check_id, str(n), params, str(expected), str(got)))
    return row.check_id, time.perf_counter() - start, checks


def _run_suite(suite: str, max_n: int | None) -> list[tuple[str, float, list[Check]]]:
    """(check id, elapsed seconds, checks) of each of one suite's rows, in
    table order, run one after another in this process."""
    return [_run_row(max_n, i) for i, row in enumerate(CHECKS) if row.suite == suite]


SUITES: dict[str, Callable[[int | None], list[tuple[str, float, list[Check]]]]] = {
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
    # (check id, elapsed seconds) per row, in report order
    row_times: tuple[tuple[str, float], ...] = ()

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
    """Always 1: every process that runs rows, the calling one or a worker,
    runs them on one thread.  Kept only because the benchmark records this
    value with every result."""
    return 1


def run_suites(
    suites: list[str] | None = None, max_n: int | None = None
) -> RunReport:
    """Run the named suites (default: all) and return the buffered report.

    A name given twice runs once, at its first position; a bare string is
    refused, not read letter by letter.  The suites' rows, in the order
    given and in table order within each suite, run through
    `_run_row` by `_workers.map`: in forked worker processes, one per
    usable CPU up to one per row, where that runner may fork and max_n,
    its work estimate, pays for the fork (`_workers.pays`), else one
    after another in this process.  The results come back in that order,
    so the report is the same bytes either way.  A row that raises in a
    worker runs again in this process once the workers are reaped, in
    table order with every row no worker returned, and its exception
    reaches the caller as it would with one CPU, so a row must have no
    side effects; a worker that dies raises `WorkerDied("a verify worker
    died")`; either way no worker outlives the call.  While workers run,
    SIGINT is blocked in this process and in them, so Ctrl-C takes effect
    here once their rows are back.  Each row's elapsed time, taken where it ran, is
    recorded in row_times, and each suite's, the sum of its rows' times,
    in suite_times; with workers, the suite times may add up to more than
    wall_time.
    """
    if isinstance(suites, str):
        raise ValueError(f"suites must be a list of suite names, got {suites!r}")
    names = list(SUITES) if suites is None else list(dict.fromkeys(suites))
    for name in names:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
            )
    if max_n is not None:
        _check_at_least(max_n, 3, "max_n", "max_n must be >= 3, got {}")
    start = time.perf_counter()
    indices = [i for name in names for i, row in enumerate(CHECKS) if row.suite == name]
    try:
        rows = _workers.map(partial(_run_row, max_n), indices, max_n=max_n)
    except WorkerDied:
        raise WorkerDied("a verify worker died") from None
    seconds_of = dict.fromkeys(names, 0.0)
    for i, (_, seconds, _) in zip(indices, rows):
        seconds_of[CHECKS[i].suite] += seconds
    return RunReport(
        suites=tuple(names),
        max_n=max_n,
        checks=tuple(check for _, _, checks in rows for check in checks),
        wall_time=time.perf_counter() - start,
        suite_times=tuple(seconds_of.items()),
        row_times=tuple((check_id, seconds) for check_id, seconds, _ in rows),
    )
