"""Command-line surface: enumeration, class tables, disjointness counts,
identity verification, sequence emission and SVG figures.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure
(a FAIL line from `verify`, or a cross-check mismatch under `--method
both`).  Stdout is byte-deterministic for identical invocations; the
optional --timing lines go to stderr.

Each refusal is raised as a ValueError.  `symmetry` and `sequence`
refuse a value at its n with one `polytri: <command>: n=<n>:` line; a
refusal that does not depend on n is made once, before any n is
computed: an orbit range that starts past ORBIT_CEILING, closed forms
with `--ears all`, `hurtado-noy:k` with k < 2, and a range of more than
one n that starts below 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterator

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
    if b > a and 0 < bound < b:
        raise ValueError(
            f"range {text!r} ends past n = {bound}, above which counts are too long "
            f"to print (over {sys.get_int_max_str_digits()} decimal digits)"
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
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"value too long to print (over {limit} decimal digits)") from None
    return value


def _printable_bound() -> int:
    """The largest n whose nonzero counts may be short enough to print, or
    0 when Python prints integers of any length.

    Every nonzero count the CLI prints at size n is at least 2^(n/2 - 2).
    The Catalan numbers C(n), C(n-2), C(n-3) and C(n-4) (a term of every
    3-eared disjointness count) are at least 2^(n-5); the 2-eared, 3-eared
    and composition class counts at least 2^(n-8); and the k-ear count
    (n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2) at least 2^(n-k-2) for
    2 <= k <= n/2.  As 10/3 > log2(10), a power of two with an exponent
    above limit*10/3 has more than `limit` decimal digits, so the bound is
    the largest n with n//2 - 2 <= limit*10//3.
    """
    limit = sys.get_int_max_str_digits()
    return 2 * (limit * 10 // 3 + 2) + 1 if limit else 0


def _refuse_too_long(n: int) -> None:
    """Refuse, before computing it, a nonzero count at size n that has too
    many digits to print (n above `_printable_bound`)."""
    bound = _printable_bound()
    if 0 < bound < n:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"value too long to print (over {limit} decimal digits)")


def _hurtado_noy(n: int, k: int) -> int:
    """counting.hurtado_noy(n, k), refused up front when too long; a zero
    (k > n/2) prints at any n."""
    if 2 <= k <= n // 2:
        _refuse_too_long(n)
    return counting.hurtado_noy(n, k)


def _rows(command: str, ns: range, columns: dict, **fixed: str) -> Iterator[dict]:
    """{"n": n, **fixed, name: fn(n), ...} for each n of ns, over the
    columns {name: fn}.  A value refused at its n prints one
    `polytri: <command>: n=<n>: <reason>` line and stays None in its row."""
    for n in ns:
        row: dict = {"n": n, **fixed}
        for name, fn in columns.items():
            try:
                row[name] = _printable(fn(n))
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


def _resolve_shape(
    args: argparse.Namespace, check_n: Callable[[int], None] | None = None
) -> tuple[Triangulation, str]:
    """The shape the flags name.  check_n, when given, is called with the
    polygon size once every flag is valid and before the shape is built."""
    picked = [
        name
        for name, given in (
            ("t", args.t is not None),
            ("arrow", args.arrow),
            ("snake", args.snake),
            ("type", args.type is not None),
        )
        if given
    ]
    if len(picked) != 1:
        raise ValueError("give exactly one of --t, --arrow, --snake, --type")
    kind = picked[0]
    if kind == "t":
        t = Triangulation.parse(args.t)
        if check_n is not None:
            check_n(t.n)
        return t, "inline"
    if args.n is None:
        raise ValueError(f"--{kind} requires --n")
    ptype = disjoint.check_type(args.n, _parse_type(args.type)) if kind == "type" else None
    if check_n is not None:
        check_n(args.n)
    if kind == "arrow":
        return disjoint.arrow(args.n), "arrow"
    if kind == "snake":
        return disjoint.snake(args.n), "snake"
    return disjoint.three_ear_rep(args.n, ptype), "type"


# -- enumerate ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, k = args.n, args.ears
    if args.count_only:
        if k is None:
            if n < 3:
                raise ValueError(f"polygons need n >= 3, got {n}")
            _refuse_too_long(n)
            count = counting.catalan(n - 2)
        else:
            count = _hurtado_noy(n, k)
        count = _printable(count)
        if args.format == "json":
            print(json.dumps({"n": n, "ears": k, "count": count}))
        else:
            print(count)
        return 0
    if not 3 <= n <= 14:
        raise ValueError(
            f"full listings are supported for 3 <= n <= 14, got n={n} "
            "(use --count-only for larger n)"
        )
    lines = listing(n, k)
    if args.format == "json":
        print(json.dumps({"n": n, "ears": k, "triangulations": lines}))
    else:
        sys.stdout.write("\n".join([*lines, ""]))  # one write for the whole listing
    return 0


# -- symmetry -------------------------------------------------------------------

ORBIT_CEILING = 16


def cmd_symmetry(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    ears = None if args.ears == "all" else int(args.ears)
    methods = ["closed", "orbit"] if args.method == "both" else [args.method]
    if "orbit" in methods and len(ns) > 1 and ns[0] > ORBIT_CEILING:
        # every n of the range would only add the same refusal line
        raise ValueError(
            f"range {args.n!r} starts past n = {ORBIT_CEILING}; "
            f"orbit counting is feasible for n <= {ORBIT_CEILING}"
        )
    if "closed" in methods and ears is None:
        raise ValueError("closed forms exist only for --ears 2 or 3")

    def orbit(n: int) -> int:
        if n > ORBIT_CEILING:
            raise ValueError(f"orbit counting is feasible for n <= {ORBIT_CEILING}")
        return counting.symmetry_classes_orbit(n, ears=ears)

    columns = {m: orbit if m == "orbit" else _sequence_fn(f"sym{ears}") for m in methods}
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


# count_disjoint is O(n^2) big-integer work.  At n = 2000 on a 2-core
# x86-64 machine, `disjoint --method both` takes 4.5-6.2 s for the snake
# and the fan and 2.2-3.6 s for type (600, 700, 697) over three runs each,
# at 19 MB peak RSS.
BRUTE_CEILING = 2000


def cmd_disjoint(args: argparse.Namespace) -> int:
    def check_n(n: int) -> None:
        # before an n-gon shape is built, which at a huge n fails for memory
        if args.method in ("brute", "both") and n > BRUTE_CEILING:
            raise ValueError(
                f"brute-force disjointness counts are feasible for n <= {BRUTE_CEILING}, "
                f"got n={n} (use --method formula)"
            )
        _refuse_too_long(n)

    t, shape = _resolve_shape(args, check_n)
    result: dict = {"n": t.n, "triangulation": str(t), "shape": shape, "method": args.method}
    note = None
    if args.method in ("brute", "both"):
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


# A feasibility bound, like BRUTE_CEILING.  On a 2-core x86-64 machine
# (Python 3.11), `svg --snake --highlight both` takes 0.12 s at n = 2,000,
# 0.31 s at 20,000 (47 MB peak RSS) and 2.7 s at 200,000 (326 MB) in a
# fresh process; at n = 10^10 building the shape runs out of memory.
SVG_CEILING = 20000


def cmd_svg(args: argparse.Namespace) -> int:
    def check_n(n: int) -> None:
        # before an n-gon shape is built, which at a huge n fails for memory
        if n > SVG_CEILING:
            raise ValueError(f"svg figures are feasible for n <= {SVG_CEILING}, got n={n}")

    t, _ = _resolve_shape(args, check_n)
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


def _sequence_fn(what: str) -> Callable[[int], int]:
    if what.startswith("hurtado-noy:"):
        try:
            k = int(what.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad ear count in {what!r}") from None
        if k < 2:
            raise ValueError(f"every triangulation has >= 2 ears, got k={k}")
        return lambda n: _hurtado_noy(n, k)
    if what not in SEQUENCES:
        raise ValueError(
            f"unknown sequence {what!r}; choose from {', '.join(SEQUENCE_WHATS)}"
        )

    def value(n: int) -> int:
        _refuse_too_long(n)
        return SEQUENCES[what](n)

    return value


def cmd_sequence(args: argparse.Namespace) -> int:
    fn = _sequence_fn(args.what)
    rows = list(_rows("sequence", parse_range(args.n), {"value": fn}))
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


def build_parser() -> argparse.ArgumentParser:
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
