"""Command-line surface: enumeration, class tables, disjointness counts,
identity verification, sequence emission and SVG figures.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure
(a FAIL line from `verify`, or a cross-check mismatch under `--method
both`), 130 on Ctrl-C (SIGINT), with no traceback (see `main`).  A
verify or listing worker that dies, killed or crashed, exits 1 with one
line: `a verify worker died` or `a listing worker died`.  A
failed write to stdout exits 1: with no message when the reader closed
early (a broken pipe), with one `cannot write output` line for any
other fault, such as a full device; help text is output like any
other.  A failed write to stderr exits 1 too, after every
byte written to stdout before it is flushed (see `run`).  Stdout is
byte-deterministic for identical invocations; the optional --timing
lines go to stderr.  The range commands, `symmetry` and `sequence`,
print each row as it is counted, so a range ends at its first failed
write; only `--format json` holds its rows until the end.

Each refusal is raised as a ValueError.  The sizes each route answers
for are the rows of DOMAINS.  A size refusal (`_TooLarge`) holds for
every larger n, so it ends a range (see `_rows`).  A refusal that does
not depend on n is made once, before any n is computed: closed forms
with `--ears all`, `hurtado-noy:k` with k < 2, and a range of more than
one n that starts below 0 or ends past the printable bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterator, NamedTuple

from polytri import _workers, counting, disjoint, svgfig, verify
from polytri import compositions as comp
from polytri._workers import WorkerDied
from polytri.triangulation import (
    Triangulation,
    _check_ears,
    _check_size,
    _wanted_ears,
    _warm_shapes,
    listing,
)

PROG = "polytri"


class _Parser(argparse.ArgumentParser):
    # the top-level parser's command parsers, by command word (see `_parse_args`)
    commands: dict[str, argparse.ArgumentParser]

    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for verification failures, so remap to 1.
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse swallows a failed write of help or usage; let it end the
    # command like any other failed write (see `run`)
    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


class Domain(NamedTuple):
    """The largest n a route answers for, and the words that refuse a larger
    n (formatted with the ceiling, n and, for printed counts, why)."""

    ceiling: int | None  # None: `_printable_bound()`, which follows the digit limit
    words: str


# Every size limit of the CLI, keyed by the route that would run; each
# ceiling is set by the route's cost there, in a fresh process on a 2-core
# x86-64 machine (Python 3.11).
DOMAINS: dict[str, Domain] = {
    # `enumerate` without --count-only: C(n-2) lines, 208,012 at n = 14,
    # in 0.29-0.37 s forked, 35 MB in the parent, which builds the shape
    # tables first, and 31 MB in each of two workers; 0.43-0.55 s and
    # 37 MB on one CPU (the command's own time; the ranges span the
    # medians of five and two sets of 11-40 alternating fresh processes,
    # taken on the same machine at different times)
    "listing": Domain(14, "full listings are supported for 3 <= n <= {ceiling}, "
                      "got n={n} (use --count-only for larger n)"),
    # the ear-insertion census of `symmetry --method orbit|both`: with
    # --ears all each level costs about 3.8 times the one before, 0.8 s at
    # n = 15 and 3 s (2.4-4.1 s over nine runs) and 31 MB at n = 16.
    # --ears k caps the census at k ears (a glued ear adds at most one), so
    # n = 16 takes 0.2 s and 17 MB for --ears 2, 0.6 s and 18 MB for --ears 3
    "orbit": Domain(16, "orbit counting is feasible for n <= {ceiling}"),
    # count_disjoint, what `disjoint --method brute|both` runs, is O(n^2)
    # big-integer work.  At n = 2000 `disjoint --method both` takes
    # 3.3-4.5 s for the snake and the fan and 1.8-2.4 s for type
    # (600, 700, 697) over three runs each, at 19 MB peak RSS.
    "count_disjoint": Domain(2000, "disjointness counts by the O(n^2) tree knapsack are "
                             "feasible for n <= {ceiling}, got n={n} (use --method formula)"),
    # `svg --snake --highlight both` takes 0.15 s at n = 2,000 and 0.29 s at
    # 20,000 (48 MB peak RSS, medians of seven), and 1.5 s (330 MB) at
    # 200,000; at n = 10^10 building the shape runs out of memory.
    "svg": Domain(20000, "svg figures are feasible for n <= {ceiling}, got n={n}"),
    # every nonzero count the CLI prints, refused before it is computed (see
    # `_printable_bound`).  The one size rule kept outside this table is
    # `_hurtado_noy`'s: a zero count (k > n/2) prints at any n, so it
    # applies this row itself, and only when 2 <= k <= n/2
    "printed": Domain(None, "value {past}"),
}


class _TooLarge(ValueError):
    """A size refusal, which holds for every larger n as well."""


def _refuse(route: str, n: int) -> None:
    """Refuse n, before anything is computed, if it is past the route's ceiling."""
    ceiling, words = DOMAINS[route]
    if ceiling is None:
        ceiling = _printable_bound()
    if n > ceiling:
        raise _TooLarge(words.format(ceiling=ceiling, n=n, past=_past_bound()))


def parse_range(text: str) -> range:
    """'a..b' (inclusive) or a single 'a'.

    A range of more than one n that starts below 0 or ends past the
    printable bound is refused as a whole: every n below 0 or past the
    bound would only add a refusal line.
    """
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected 'a' or 'a..b'") from None
    if b < a:
        raise ValueError(f"empty range {text!r}")
    if b > a and a < 0:
        raise ValueError(f"range {text!r} starts below n = 0, where no count is defined")
    bound = _printable_bound()
    if b > a and b > bound:
        raise ValueError(
            f"range {text!r} ends past n = {bound}, above which counts are {_past_bound()}"
        )
    return range(a, b + 1)


def _parse_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad type {text!r}; expected 'p,q,r'") from None


_ten_to = functools.cache(lambda limit: 10 ** limit)  # 10**4300: 50 us on 2-core x86-64


def _printable(value: int) -> int:
    """value, or _TooLarge if it has more digits than Python's limit (0: none)."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(value) >= _ten_to(limit):
        raise _TooLarge(f"value {_past_bound()}")
    return value


def _printable_bound() -> int:
    """The largest n whose nonzero counts may be short enough to print.

    Every nonzero count the CLI prints at size n is at least 2^(n/2 - 2).
    The Catalan numbers C(n), C(n-2), C(n-3) and C(n-4) (a term of every
    3-eared disjointness count) are at least 2^(n-5); the 2-eared, 3-eared
    and composition class counts at least 2^(n-8); and the k-ear count
    (n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2) at least 2^(n-k-2) for
    2 <= k <= n/2.  As 10/3 > log2(10), a power of two with an exponent
    above limit*10/3 has more than `limit` decimal digits, so the bound is
    the largest n with n//2 - 2 <= limit*10//3.  With no digit limit (0),
    the bound of Python's default limit of 4300 digits, n = 28,671, holds.
    """
    limit = sys.get_int_max_str_digits() or 4300
    return 2 * (limit * 10 // 3 + 2) + 1


def _past_bound() -> str:
    """Why a count past `_printable_bound` is refused."""
    limit = sys.get_int_max_str_digits()
    return (f"too long to print (over {limit} decimal digits)" if limit
            else f"not computed (n = {_printable_bound()} is the bound kept with no digit limit)")


def _hurtado_noy(n: int, k: int) -> int:
    """counting.hurtado_noy(n, k), refused up front when too long; a zero
    (k > n/2) prints at any n."""
    if 2 <= k <= counting.max_ears(n):
        _refuse("printed", n)
    return counting.hurtado_noy(n, k)


def _rows(command: str, ns: range, columns: dict, **fixed: str) -> Iterator[dict]:
    """{"n": n, **fixed, name: count(n), ...} for each n of ns, over the
    columns {name: (route, count)}; the route's domain refuses an n before
    the count runs (None: the count refuses on its own).  A refused value
    is None, with a `polytri: <command>: n=<n>: <reason>` line.  A size
    refusal holds for every larger n, as a ceiling is a fixed n and each
    count printed over a range is nondecreasing in n: it ends the range,
    and its line reads `n=<n>..<last>:` unless n is the last n."""
    for n in ns:
        row: dict = {"n": n, **fixed}
        ends = False
        for name, (route, count) in columns.items():
            try:
                if route is not None:
                    _refuse(route, n)
                row[name] = _printable(count(n))
            except (ValueError, ArithmeticError) as exc:
                span = f"{n}..{ns[-1]}" if isinstance(exc, _TooLarge) and n < ns[-1] else n
                ends = ends or span != n
                print(f"{PROG}: {command}: n={span}: {exc}", file=sys.stderr)
                row[name] = None
        yield row
        if ends:
            return


def _add_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t", metavar="TEXT", help="inline triangulation 'n:a-b,c-d,...'")
    sub.add_argument("--arrow", action="store_true", help="fan triangulation (needs --n)")
    sub.add_argument("--snake", action="store_true", help="zigzag triangulation (needs --n)")
    sub.add_argument("--type", metavar="P,Q,R", help="3-eared type representative (needs --n)")
    sub.add_argument("--n", type=int, help="polygon size for --arrow/--snake/--type")


def _resolve_shape(args: argparse.Namespace, *routes: str) -> tuple[Triangulation, str]:
    """The shape the flags name.  --n given with --t must be the text's n.
    Once every flag is valid, and before the shape is built (which at a
    huge n fails for memory), the polygon size is refused unless each
    route answers for it."""
    given = {"t": args.t is not None, "arrow": args.arrow, "snake": args.snake,
             "type": args.type is not None}
    picked = [name for name, on in given.items() if on]
    if len(picked) != 1:
        raise ValueError("give exactly one of --t, --arrow, --snake, --type")
    kind = picked[0]
    if kind == "t":
        t = Triangulation.parse(args.t)
        if args.n is not None and args.n != t.n:
            raise ValueError(f"--n {args.n} contradicts the {t.n}-gon given by --t")
        n = t.n
    elif args.n is None:
        raise ValueError(f"--{kind} requires --n")
    else:
        n = args.n
        ptype = disjoint.check_type(n, _parse_type(args.type)) if kind == "type" else None
    for route in routes:
        _refuse(route, n)
    if kind == "t":
        return t, "inline"
    if kind == "type":
        return disjoint.three_ear_rep(n, ptype), "type"
    return (disjoint.arrow if kind == "arrow" else disjoint.snake)(n), kind


# -- enumerate ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, k = args.n, args.ears
    if args.count_only:
        if k is None:
            _check_size(n)
            _refuse("printed", n)
            count = counting.catalan(n - 2)
        else:
            count = _hurtado_noy(n, k)
        count = _printable(count)
        if args.format == "json":
            print(json.dumps({"n": n, "ears": k, "count": count}))
        else:
            print(count)
        return 0
    _refuse("listing", n)
    _wanted_ears(n, k)  # the listing's own refusals, before its lines are counted
    lines = counting.catalan(n - 2) if k is None else counting.hurtado_noy(n, k)
    # a listing too short to pay for a fork (`_workers.pays`) is one task;
    # a longer one is one task per top-level apex: 2, n-1, 3, n-2, ..., the
    # outer ones first, as they hold the most lines.  Every apex reads the
    # same shape tables, so they are built here, once, and a forked worker
    # inherits them built
    if _workers.pays(lines=lines):
        apexes = sorted(range(2, n), key=lambda j: min(j - 2, n - 1 - j))
        _warm_shapes(n)
    else:
        apexes = [None]
    as_json = args.format == "json"
    try:
        chunks = _workers.map(functools.partial(_listing_chunk, n, k, as_json), apexes)
    except WorkerDied:
        raise WorkerDied("a listing worker died") from None
    chunks = [chunk for _, chunk in sorted(zip(apexes, chunks))]  # in apex order
    if not as_json:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return 0
    # json.dumps of the listing, written a chunk at a time
    sys.stdout.write(json.dumps({"n": n, "ears": k, "triangulations": []})[:-2])
    sep = ""
    for chunk in chunks:
        if chunk:
            sys.stdout.write(sep)
            sys.stdout.write(chunk)
            sep = ", "
    sys.stdout.write("]}\n")
    return 0


def _listing_chunk(n: int, k: int | None, as_json: bool, apex: int | None) -> str:
    """The lines of `listing(n, k, apex)` as they appear in the command's
    text output, or in its JSON array, without the brackets."""
    lines = listing(n, k, apex)
    return json.dumps(lines)[1:-1] if as_json else "\n".join([*lines, ""])


# -- symmetry -------------------------------------------------------------------


def cmd_symmetry(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    ears = None if args.ears == "all" else int(args.ears)
    methods = ["closed", "orbit"] if args.method == "both" else [args.method]
    if "closed" in methods and ears is None:
        raise ValueError("closed forms exist only for --ears 2 or 3")
    orbit = ("orbit", lambda n: counting.symmetry_classes_orbit(n, ears=ears))
    columns = {m: orbit if m == "orbit" else _sequence_column(f"sym{ears}") for m in methods}
    rows: list[dict] = []  # kept for --format json only
    bare = args.format == "text" and len(ns) == 1 and len(methods) == 1
    sep = "," if args.format == "csv" else " "
    if args.format == "csv":
        print("n," + ",".join(methods))
    status = 0
    for row in _rows("symmetry", ns, columns, ears=args.ears):
        if None in row.values():
            status = max(status, 1)
        elif len(methods) == 2 and row["closed"] != row["orbit"]:
            row["mismatch"] = True
            print(
                f"{PROG}: symmetry: n={row['n']}: closed={row['closed']} "
                f"orbit={row['orbit']} MISMATCH",
                file=sys.stderr,
            )
            status = 2
        if args.format == "json":
            rows.append(row)
        elif None not in row.values():
            counts = [row[m] for m in methods]
            print(*(counts if bare else [row["n"], *counts]), sep=sep)
    if args.format == "json":
        print(json.dumps(rows))
    return status


# -- disjoint -------------------------------------------------------------------


def _formula_count(t: Triangulation) -> tuple[int, str | None]:
    k = t.ear_count()
    if k == 2:
        return _printable(disjoint.disjoint_two_eared(t.n)), None
    if k == 3:
        # the case sum's i = 0 term is C(n-4), so a count whose floor is too
        # long to print is refused before either sum is taken
        _printable(counting.catalan(t.n - 4))
        ptype = disjoint.three_ear_type(t)
        value = _printable(disjoint.three_ear_disjoint(t.n, ptype))
        published = _printable(disjoint.three_ear_disjoint_published(t.n, ptype))
        note = (
            f"note: the published closed-form variant evaluates to {published} "
            f"for type {ptype} (known erratum; case-sum formula and brute force agree)"
        )
        return value, note
    raise ValueError(
        f"no closed disjointness formula for {k}-eared triangulations (only 2 or 3 ears)"
    )


def cmd_disjoint(args: argparse.Namespace) -> int:
    brute = args.method in ("brute", "both")
    routes = ["count_disjoint", "printed"] if brute else ["printed"]
    t, shape = _resolve_shape(args, *routes)
    result: dict = {"shape": shape, "method": args.method}
    note = None
    if brute:
        result["brute"] = _printable(disjoint.count_disjoint(t))
    if args.method in ("formula", "both"):
        result["formula"], note = _formula_count(t)
    status = 0
    if args.method == "both" and result["brute"] != result["formula"]:
        print(
            f"{PROG}: disjoint: brute={result['brute']} "
            f"formula={result['formula']} MISMATCH",
            file=sys.stderr,
        )
        status = 2
    if args.format == "json":
        if note:
            result["note"] = note
        # the text form is built only here, the one output that prints it
        print(json.dumps({"n": t.n, "triangulation": str(t), **result}))
        return status
    if args.method == "both":
        print(f"{result['brute']} {result['formula']}")
        if note:
            print(note)
    else:
        print(result[args.method])
    return status


# -- verify ---------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suites(args.suite or None, args.max_n)
    if args.format == "json":
        sys.stdout.write(report.render_json())
    else:
        sys.stdout.write(report.render_text())
    if args.timing:
        print(f"wall-time: {report.wall_time:.2f}s", file=sys.stderr)
        for name, seconds in report.suite_times:
            print(f"suite-time: {name} {seconds:.2f}s", file=sys.stderr)
        for check_id, seconds in report.row_times:
            print(f"row-time: {check_id} {seconds:.3f}s", file=sys.stderr)
    return report.exit_code


# -- svg ------------------------------------------------------------------------


def cmd_svg(args: argparse.Namespace) -> int:
    t, _ = _resolve_shape(args, "svg")
    text = svgfig.render_svg(
        t,
        highlight=args.highlight,
        size=args.size,
        stroke_width=args.stroke_width,
        font_size=args.font_size,
    )
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    return 0


# -- sequence -------------------------------------------------------------------


def _stepped(count: Callable[[int], int], step: Callable[[int, int], int]) -> Callable[[int], int]:
    """count, except that the value at n comes from the one at n-1 by
    step(n, value) when n-1 is the last n counted, so a range is one ratio
    run from its first n that count accepts.  The last value is kept, and
    it is exact, as each step checks its division; a run a later call
    continues stays exact.  An n that is not an int goes to count, which
    refuses it."""
    last: list = [None, None]  # the last n counted, and its value

    def at(n: int) -> int:
        value = step(n, last[1]) if isinstance(n, int) and n - 1 == last[0] else count(n)
        last[:] = n, value
        return value

    return at


# name -> count at n; `symmetry --method closed` reads sym2 and sym3 here too.
# catalan and disj2 step by the Catalan ratio over a range: `--n 1..7150`
# takes 0.8 s instead of 12 s with a binomial per n (fresh processes, 2-core
# x86-64, Python 3.11), and the per-n counts stay the oracles of the steps
SEQUENCES: dict[str, Callable[[int], int]] = {
    "catalan": _stepped(counting.catalan, counting.catalan_step),
    "sym2": counting.symmetry_classes_2ear,
    "sym3": counting.symmetry_classes_3ear,
    "disj2": _stepped(disjoint.disjoint_two_eared,
                      lambda n, before: counting.catalan_step(n - 3, before)),
    "classes-compositions": lambda m: comp.count_classes(m, "closed"),
}

# every name `sequence --what` takes: the ones above and the count of
# triangulations with k ears
SEQUENCE_WHATS = (*SEQUENCES, "hurtado-noy:k")


def _sequence_column(what: str) -> tuple[str | None, Callable[[int], int]]:
    if what.startswith("hurtado-noy:"):
        try:
            k = int(what.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad ear count in {what!r}") from None
        _check_ears(k)
        return None, lambda n: _hurtado_noy(n, k)
    if what not in SEQUENCES:
        raise ValueError(
            f"unknown sequence {what!r}; choose from {', '.join(SEQUENCE_WHATS)}"
        )
    return "printed", SEQUENCES[what]


def cmd_sequence(args: argparse.Namespace) -> int:
    column = _sequence_column(args.what)
    kept: list[dict] = []  # kept for --format json only
    status = 0
    for row in _rows("sequence", parse_range(args.n), {"value": column}):
        if row["value"] is None:
            status = 1
        elif args.format == "json":
            kept.append(row)
        elif args.format == "oeis":
            print(f"{row['n']} {row['value']}")
        else:
            print(row["value"])
    if args.format == "json":
        print(json.dumps({"what": args.what, "rows": kept}))
    return status


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later `run` in the process.  A rebuild (about 1.3 ms on a 2-core
    x86-64 machine, Python 3.11) costs more than a small `disjoint` count.
    The command parsers, the choices of the subparsers action, are kept
    as the returned parser's `commands`, which `_parse_args` dispatches on.

    The tree must capture nothing that changes between calls.  What it
    holds is read once, here: the `cmd_*` handlers and the verify suite
    names, both module constants.  argparse reads sys.stdout, sys.stderr
    and COLUMNS when it parses or prints, not when it is built, so
    redirected output and help wrapping still follow each call.
    """
    parser = _Parser(
        prog=PROG,
        description="Triangulations of convex polygons: ears, symmetry classes, "
        "disjointness counts, verification suites and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND",
                              parser_class=_Parser)
    parser.commands = sub.choices

    p = sub.add_parser("enumerate",
                       help="list or count triangulations of the n-gon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ears", type=int, help="keep only triangulations with this many ears")
    p.add_argument("--count-only", action="store_true", help="print the count, not the listing")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("symmetry",
                       help="count dihedral symmetry classes")
    p.add_argument("--n", required=True, metavar="A..B", help="polygon size or range")
    p.add_argument("--ears", choices=("2", "3", "all"), default="all")
    p.add_argument("--method", choices=("closed", "orbit", "both"), default="orbit")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("disjoint",
                       help="count triangulations sharing no diagonal with a given one")
    _add_shape_flags(p)
    p.add_argument("--method", choices=("brute", "formula", "both"), default="brute")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_disjoint)

    p = sub.add_parser("verify",
                       help="run the identity verification suites")
    p.add_argument("--max-n", type=int, default=None, help="cap the per-check ranges")
    p.add_argument("--suite", action="append", choices=tuple(verify.SUITES),
                   help="run only this suite (repeatable)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true",
                   help="report wall time and per-suite and per-check times on stderr; "
                   "rows run in worker processes when more than one CPU is usable, "
                   "and a suite's time is the sum of its rows' times")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("svg",
                       help="render a triangulation as a standalone SVG")
    _add_shape_flags(p)
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.add_argument("--highlight", choices=svgfig.HIGHLIGHTS, default="none")
    p.add_argument("--size", type=int, default=420)
    p.add_argument("--stroke-width", type=float, default=2.0)
    p.add_argument("--font-size", type=int, default=14)
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("sequence",
                       help="emit a counting sequence, one value per line")
    p.add_argument("--what", required=True,
                   help="one of: " + ", ".join(SEQUENCE_WHATS))
    p.add_argument("--n", required=True, metavar="A..B", help="index or range")
    p.add_argument("--format", choices=("plain", "oeis", "json"), default="plain")
    p.set_defaults(func=cmd_sequence)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of argv.  When argv[0] names a command, only that
    command's parser reads the rest, once: the whole tree would hand it
    the same strings after a walk of its own.  Anything else goes through
    the whole tree: no command, an unknown one, a leading option, and
    strings the command's parser leaves over, for which the tree writes
    its own "unrecognized arguments" error."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (argv: sys.argv[1:] for
    None); argparse's exit on --help or a usage error becomes the
    returned code.  Exit codes, usage errors and help text are those of
    a parse by the whole tree (see `_parse_args`).

    Stdout is flushed here, so a failed write to it surfaces here even
    when only the last buffered bytes fail: it ends the command with
    exit 1, silently for a reader that closed early (a broken pipe) and
    with one line for any other fault, such as a full device.  A failed
    write to stderr also exits 1, and stdout is flushed first, so every
    byte written to it before the failure goes out.  A stream whose
    flush still fails has its file descriptor pointed at os.devnull, so
    the bytes left in its buffer go there and the interpreter's final
    flush cannot fail; a stream with no descriptor (a StringIO) is left
    as it is.  No command raises any other OSError: `svg --out` turns
    its own into a refusal.  A KeyboardInterrupt goes through, so Ctrl-C
    still stops a caller such as a test run; `main`, the process entry of
    both `polytri` and `python -m polytri`, turns it into exit 130."""
    try:
        try:
            args = _parse_args(sys.argv[1:] if argv is None else argv)
            code = args.func(args)
        except SystemExit as exc:
            code = exc.code
        except (ValueError, ArithmeticError, WorkerDied) as exc:
            print(f"{PROG}: error: {exc}", file=sys.stderr)
            code = 1
        sys.stdout.flush()
        return code
    except OSError as exc:
        try:
            sys.stdout.flush()
        except OSError:
            _drop(sys.stdout)
        try:
            if not isinstance(exc, BrokenPipeError):
                print(f"{PROG}: error: cannot write output: {exc.strerror or exc}",
                      file=sys.stderr)
            sys.stderr.flush()
        except OSError:
            _drop(sys.stderr)
        return 1


def _drop(stream) -> None:
    """Point a failed stream's file descriptor, if it has one, at os.devnull."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return  # no file descriptor to drop
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    """Run the command of sys.argv and exit with its code, or with 130 and
    no traceback on Ctrl-C."""
    try:
        sys.exit(run())
    except KeyboardInterrupt:
        sys.exit(130)
