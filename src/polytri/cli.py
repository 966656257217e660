"""Command-line surface: enumeration, class tables, disjointness counts,
identity verification, sequence emission and SVG figures.

Exit codes: 0 success, 1 usage or domain error, 2 verification failure
(a FAIL line from `verify`, or a cross-check mismatch under `--method
both`).  Stdout is byte-deterministic for identical invocations; the
optional --timing lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from polytri import compositions as comp
from polytri import counting, disjoint, svgfig, verify
from polytri.triangulation import Triangulation, enumerate_triangulations

PROG = "polytri"


class CliError(Exception):
    """Usage/domain error reported to stderr; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the exit-code contract
    # reserves 2 for verification failures, so remap to 1.
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_range(text: str) -> range:
    """'a..b' (inclusive) or a single 'a'."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise CliError(f"bad range {text!r}; expected 'a' or 'a..b'") from None
    if b < a:
        raise CliError(f"empty range {text!r}")
    return range(a, b + 1)


def _parse_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"bad type {text!r}; expected 'p,q,r'") from None


def _printable(value: int) -> int:
    """value, or ValueError if Python refuses to write it in decimal."""
    try:
        str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"value too long to print (over {limit} decimal digits)") from None
    return value


def _add_shape_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t", metavar="TEXT", help="inline triangulation 'n:a-b,c-d,...'")
    sub.add_argument("--arrow", action="store_true", help="fan triangulation (needs --n)")
    sub.add_argument("--snake", action="store_true", help="zigzag triangulation (needs --n)")
    sub.add_argument("--type", metavar="P,Q,R", help="3-eared type representative (needs --n)")
    sub.add_argument("--n", type=int, help="polygon size for --arrow/--snake/--type")


def _resolve_shape(args: argparse.Namespace) -> tuple[Triangulation, str]:
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
        raise CliError("give exactly one of --t, --arrow, --snake, --type")
    kind = picked[0]
    if kind == "t":
        return Triangulation.parse(args.t), "inline"
    if args.n is None:
        raise CliError(f"--{kind} requires --n")
    if kind == "arrow":
        return disjoint.arrow(args.n), "arrow"
    if kind == "snake":
        return disjoint.snake(args.n), "snake"
    return disjoint.three_ear_rep(args.n, _parse_type(args.type)), "type"


# -- enumerate ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if args.count_only:
        if args.ears is None:
            if n < 3:
                raise CliError(f"polygons need n >= 3, got {n}")
            count = counting.catalan(n - 2)
        else:
            count = counting.hurtado_noy(n, args.ears)
        count = _printable(count)
        if args.format == "json":
            print(json.dumps({"n": n, "ears": args.ears, "count": count}))
        else:
            print(count)
        return 0
    if not 3 <= n <= 14:
        raise CliError(
            f"full listings are supported for 3 <= n <= 14, got n={n} "
            "(use --count-only for larger n)"
        )
    if args.ears is not None and n < 4:
        raise CliError("ear filters need n >= 4")
    if args.ears is not None and args.ears < 2:
        raise CliError(f"every triangulation has >= 2 ears, got k={args.ears}")
    listing = [
        str(t)
        for t in enumerate_triangulations(n)
        if args.ears is None or t.ear_count() == args.ears
    ]
    if args.format == "json":
        print(json.dumps({"n": n, "ears": args.ears, "triangulations": listing}))
    else:
        for line in listing:
            print(line)
    return 0


# -- symmetry -------------------------------------------------------------------

ORBIT_CEILING = 16


def _class_count(n: int, ears: int | None, method: str) -> int:
    if method == "closed":
        if ears == 2:
            return counting.symmetry_classes_2ear(n)
        if ears == 3:
            return counting.symmetry_classes_3ear(n)
        raise ValueError("closed forms exist only for --ears 2 or 3")
    if n > ORBIT_CEILING:
        raise ValueError(f"orbit counting is feasible for n <= {ORBIT_CEILING}")
    return counting.symmetry_classes_orbit(n, ears=ears)


def cmd_symmetry(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    ears = None if args.ears == "all" else int(args.ears)
    methods = ["closed", "orbit"] if args.method == "both" else [args.method]
    rows: list[dict] = []
    status = 0
    for n in ns:
        row: dict = {"n": n, "ears": args.ears}
        for method in methods:
            try:
                row[method] = _printable(_class_count(n, ears, method))
            except (ValueError, ArithmeticError) as exc:
                print(f"{PROG}: symmetry: n={n}: {exc}", file=sys.stderr)
                row[method] = None
                status = max(status, 1)
        if len(methods) == 2 and None not in (row["closed"], row["orbit"]):
            if row["closed"] != row["orbit"]:
                row["mismatch"] = True
                print(
                    f"{PROG}: symmetry: n={n}: closed={row['closed']} "
                    f"orbit={row['orbit']} MISMATCH",
                    file=sys.stderr,
                )
                status = 2
        rows.append(row)
    printable = [r for r in rows if all(r.get(m) is not None for m in methods)]
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
    raise CliError(
        f"no closed disjointness formula for {k}-eared triangulations (only 2 or 3 ears)"
    )


# count_disjoint is O(n^2) big-integer work.  At n = 2000 on a 2-core
# x86-64 machine, `disjoint --method both` takes 4.5-6.2 s for the snake
# and the fan and 2.2-3.6 s for type (600, 700, 697) over three runs each,
# at 19 MB peak RSS.
BRUTE_CEILING = 2000


def cmd_disjoint(args: argparse.Namespace) -> int:
    t, shape = _resolve_shape(args)
    if args.method in ("brute", "both") and t.n > BRUTE_CEILING:
        raise CliError(
            f"brute-force disjointness counts are feasible for n <= {BRUTE_CEILING}, "
            f"got n={t.n} (use --method formula)"
        )
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


def cmd_svg(args: argparse.Namespace) -> int:
    t, _ = _resolve_shape(args)
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
        raise CliError(f"cannot write {args.out}: {exc}") from None
    return 0


# -- sequence -------------------------------------------------------------------

SEQUENCE_WHATS = ("catalan", "hurtado-noy:k", "sym2", "sym3", "disj2", "classes-compositions")


def _sequence_fn(what: str):
    if what == "catalan":
        return counting.catalan
    if what.startswith("hurtado-noy:"):
        try:
            k = int(what.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad ear count in {what!r}") from None
        return lambda n: counting.hurtado_noy(n, k)
    if what == "sym2":
        return counting.symmetry_classes_2ear
    if what == "sym3":
        return counting.symmetry_classes_3ear
    if what == "disj2":
        return disjoint.disjoint_two_eared
    if what == "classes-compositions":
        return lambda m: comp.count_classes(m, "closed")
    raise CliError(
        f"unknown sequence {what!r}; choose from {', '.join(SEQUENCE_WHATS)}"
    )


def cmd_sequence(args: argparse.Namespace) -> int:
    fn = _sequence_fn(args.what)
    status = 0
    rows = []
    for n in parse_range(args.n):
        try:
            rows.append({"n": n, "value": _printable(fn(n))})
        except (ValueError, ArithmeticError) as exc:
            print(f"{PROG}: sequence: n={n}: {exc}", file=sys.stderr)
            status = 1
    if args.format == "json":
        print(json.dumps({"what": args.what, "rows": rows}))
    elif args.format == "oeis":
        for row in rows:
            print(f"{row['n']} {row['value']}")
    else:
        for row in rows:
            print(row["value"])
    return status


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
                   help="report wall time and per-suite CPU time on stderr")
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
    except CliError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
