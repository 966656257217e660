"""Command-line surface: enumeration, class tables, disjointness counts,
identity verification, sequence emission and SVG figures.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure
(a FAIL line from `verify`, or a cross-check mismatch under `--method
both`).  Stdout is byte-deterministic for identical invocations; the
optional --timing lines go to stderr.

Each refusal is raised as a ValueError.  The sizes each route answers
for are the rows of DOMAINS, and every size refusal goes through
`_refuse` (one n) or `_refuse_range` (a range of more than one n that
starts past the route's ceiling, refused as a whole).  `symmetry` and
`sequence` refuse any other n at its own `polytri: <command>: n=<n>:`
line.  A refusal that does not depend on n is made once, before
any n is computed: closed forms with `--ears all`, `hurtado-noy:k` with
k < 2, and a range of more than one n that starts below 0 or ends past
the printable bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterator, NamedTuple

from polytri import compositions as comp
from polytri import counting, disjoint, svgfig, verify
from polytri.triangulation import Triangulation, listing

PROG = "polytri"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for verification failures, so remap to 1.
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class Domain(NamedTuple):
    """The largest n a route answers for, and the words that refuse a larger
    n (formatted with the ceiling, n and, for printed counts, why)."""

    ceiling: int | None  # None: `_printable_bound()`, which follows the digit limit
    words: str

    def top(self) -> int:
        return _printable_bound() if self.ceiling is None else self.ceiling

    def refusal(self, n: int) -> str:
        return self.words.format(ceiling=self.top(), n=n, past=_past_bound())


# Every size limit of the CLI, keyed by the route that would run; each
# ceiling is set by the route's cost there, in a fresh process on a 2-core
# x86-64 machine (Python 3.11).
DOMAINS: dict[str, Domain] = {
    # `enumerate` without --count-only: C(n-2) lines, 208,012 at n = 14,
    # in 0.9 s and 64 MB (medians of three)
    "listing": Domain(14, "full listings are supported for 3 <= n <= {ceiling}, "
                      "got n={n} (use --count-only for larger n)"),
    # the ear-insertion census of `symmetry --method orbit|both`: each
    # level costs about 3.8 times the one before, 0.8 s at n = 15 and
    # 3.1 s and 45 MB at n = 16 (medians of three)
    "orbit": Domain(16, "orbit counting is feasible for n <= {ceiling}"),
    # count_disjoint, what `disjoint --method brute|both` runs, is O(n^2)
    # big-integer work.  At n = 2000 `disjoint --method both` takes
    # 4.5-6.2 s for the snake and the fan and 2.2-3.6 s for type
    # (600, 700, 697) over three runs each, at 19 MB peak RSS.
    "count_disjoint": Domain(2000, "disjointness counts by the O(n^2) tree knapsack are "
                             "feasible for n <= {ceiling}, got n={n} (use --method formula)"),
    # `svg --snake --highlight both` takes 0.15 s at n = 2,000 and 0.29 s at
    # 20,000 (48 MB peak RSS, medians of seven), and 1.5 s (330 MB) at
    # 200,000; at n = 10^10 building the shape runs out of memory.
    "svg": Domain(20000, "svg figures are feasible for n <= {ceiling}, got n={n}"),
    # every nonzero count the CLI prints, refused before it is computed (see
    # `_printable_bound`)
    "printed": Domain(None, "value {past}"),
}


def _refuse(route: str, n: int) -> None:
    """Refuse n, before anything is computed, if it is past the route's ceiling."""
    if n > DOMAINS[route].top():
        raise ValueError(DOMAINS[route].refusal(n))


def _refuse_range(route: str, ns: range, text: str) -> None:
    """Refuse a range of more than one n as a whole when it starts past the
    route's ceiling: every n of it would only add the same refusal line."""
    domain = DOMAINS[route]
    if len(ns) > 1 and ns[0] > domain.top():
        raise ValueError(f"range {text!r} starts past n = {domain.top()}; {domain.refusal(ns[0])}")


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


def _printable(value: int) -> int:
    """value, or ValueError if Python refuses to write it in decimal."""
    try:
        str(value)
    except ValueError:
        raise ValueError(f"value {_past_bound()}") from None
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
    if 2 <= k <= n // 2:
        _refuse("printed", n)
    return counting.hurtado_noy(n, k)


def _rows(command: str, ns: range, columns: dict, **fixed: str) -> Iterator[dict]:
    """{"n": n, **fixed, name: count(n), ...} for each n of ns, over the
    columns {name: (route, count)}; the route's domain refuses an n before
    the count runs (None: the count refuses on its own).  A value refused
    at its n prints one `polytri: <command>: n=<n>: <reason>` line and
    stays None in its row."""
    for n in ns:
        row: dict = {"n": n, **fixed}
        for name, (route, count) in columns.items():
            try:
                if route is not None:
                    _refuse(route, n)
                row[name] = _printable(count(n))
            except (ValueError, ArithmeticError) as exc:
                print(f"{PROG}: {command}: n={n}: {exc}", file=sys.stderr)
                row[name] = None
        yield row


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
            if n < 3:
                raise ValueError(f"polygons need n >= 3, got {n}")
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
    lines = listing(n, k)
    if args.format == "json":
        print(json.dumps({"n": n, "ears": k, "triangulations": lines}))
    else:
        sys.stdout.write("\n".join([*lines, ""]))  # one write for the whole listing
    return 0


# -- symmetry -------------------------------------------------------------------


def cmd_symmetry(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    ears = None if args.ears == "all" else int(args.ears)
    methods = ["closed", "orbit"] if args.method == "both" else [args.method]
    if "orbit" in methods:
        _refuse_range("orbit", ns, args.n)
    if "closed" in methods and ears is None:
        raise ValueError("closed forms exist only for --ears 2 or 3")
    orbit = ("orbit", lambda n: counting.symmetry_classes_orbit(n, ears=ears))
    columns = {m: orbit if m == "orbit" else _sequence_column(f"sym{ears}") for m in methods}
    rows: list[dict] = []
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
        rows.append(row)
    printable = [r for r in rows if None not in r.values()]
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print("n," + ",".join(methods))
        for r in printable:
            print(",".join(str(x) for x in [r["n"], *(r[m] for m in methods)]))
    elif len(rows) == 1 and len(methods) == 1 and printable:
        print(printable[0][methods[0]])
    else:
        for r in printable:
            print(" ".join(str(x) for x in [r["n"], *(r[m] for m in methods)]))
    return status


# -- disjoint -------------------------------------------------------------------


def _formula_count(t: Triangulation) -> tuple[int, str | None]:
    k = t.ear_count()
    if k == 2:
        return _printable(disjoint.disjoint_two_eared(t.n)), None
    if k == 3:
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
    result: dict = {"n": t.n, "triangulation": str(t), "shape": shape, "method": args.method}
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
        print(json.dumps(result))
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

SEQUENCE_WHATS = ("catalan", "hurtado-noy:k", "sym2", "sym3", "disj2", "classes-compositions")


# name -> count at n; `symmetry --method closed` reads sym2 and sym3 here too
SEQUENCES: dict[str, Callable[[int], int]] = {
    "catalan": counting.catalan,
    "sym2": counting.symmetry_classes_2ear,
    "sym3": counting.symmetry_classes_3ear,
    "disj2": disjoint.disjoint_two_eared,
    "classes-compositions": lambda m: comp.count_classes(m, "closed"),
}


def _sequence_column(what: str) -> tuple[str | None, Callable[[int], int]]:
    if what.startswith("hurtado-noy:"):
        try:
            k = int(what.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad ear count in {what!r}") from None
        if k < 2:
            raise ValueError(f"every triangulation has >= 2 ears, got k={k}")
        return None, lambda n: _hurtado_noy(n, k)
    if what not in SEQUENCES:
        raise ValueError(
            f"unknown sequence {what!r}; choose from {', '.join(SEQUENCE_WHATS)}"
        )
    return "printed", SEQUENCES[what]


def cmd_sequence(args: argparse.Namespace) -> int:
    column = _sequence_column(args.what)
    rows = list(_rows("sequence", parse_range(args.n), {"value": column}))
    kept = [row for row in rows if row["value"] is not None]
    if args.format == "json":
        print(json.dumps({"what": args.what, "rows": kept}))
    elif args.format == "oeis":
        for row in kept:
            print(f"{row['n']} {row['value']}")
    else:
        for row in kept:
            print(row["value"])
    return 0 if len(kept) == len(rows) else 1


# -- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared by every
    later `run` in the process.  A rebuild (about 1.3 ms on a 2-core
    x86-64 machine, Python 3.11) costs more than a small `disjoint` count.

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
                   help="report wall time and per-suite time on stderr")
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


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argparse's exit on
    --help or a usage error becomes the returned code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
