"""The four workloads: seeded inputs, one timed pass, and the per-op checks.

A pass is the workload's fixed work, run in one fresh process.  Each op
returns an Op record; only the call into polytri is timed, the checks run
afterwards.  `units` is what ops_per_s counts for the workload.

    workload  op (latency, attempted/failed)      units (ops_per_s)
    verify    one `polytri verify` report          check lines
    disjoint  one `polytri disjoint --t ...` call  calls
    model     one text through the object model    texts
    listing   one `polytri enumerate ...` call     triangulations printed
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter

import inputs
from polytri import cli, compositions, counting, disjoint, svgfig, verify
from polytri import triangulation
from polytri.triangulation import Triangulation

HERE = Path(__file__).resolve().parent
GOLDEN_VERIFY = HERE / "golden" / "verify.txt"

DISJOINT_OPS = 100
DISJOINT_POWER = 6.0
MODEL_OPS = 100
MODEL_POWER = 2.0
DEEP_N = 1200
LISTING_CALLS = (
    (["enumerate", "--n", "13"], 13, None),
    (["enumerate", "--n", "14", "--ears", "3"], 14, 3),
    (["enumerate", "--n", "12", "--format", "json"], 12, None),
)
LISTING_SAMPLE = 40


@dataclass
class Op:
    latency: float
    ok: bool
    units: int
    detail: str = ""


def guarded(op, *args) -> Op:
    """Run one op; an exception escaping the program makes it a failed op."""
    start = perf_counter()
    try:
        return op(*args)
    except Exception as exc:  # any escape is a failure, reported by name
        return Op(perf_counter() - start, False, 0, f"{type(exc).__name__}: {exc}"[:200])


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run cli.run(argv) in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.run(argv)
        latency = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), latency


# -- verify ------------------------------------------------------------------


def verify_inputs(seed: int) -> list[tuple[str]]:
    return [(GOLDEN_VERIFY.read_text(encoding="utf-8"),)]


def verify_op(golden: str) -> Op:
    code, out, err, latency = call_cli(["verify"])
    got, want = out.splitlines(), golden.splitlines()
    if code == 0 and not err and out == golden:
        return Op(latency, True, len(want) - 1)
    bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return Op(latency, False, 0, f"exit={code} differing-lines={bad} stderr={err[:200]!r}")


def verify_sequential() -> float:
    """Run every suite in registry order on this thread; total seconds."""
    start = perf_counter()
    for suite in verify.SUITES.values():
        suite(None)
    return perf_counter() - start


# -- disjoint ----------------------------------------------------------------


def disjoint_inputs(seed: int) -> list[tuple[str, int]]:
    """(text, expected count) for a stream weighted toward small n.

    DISJOINT_POWER sets the weighting.  count_avoiding grows about as n^3
    (6 ms at n=40, 1.0 s at n=200), so the largest calls dominate a pass:
    power 6 puts half the calls at n <= 19 and a tenth above n = 114, and
    a pass takes about 5 s on a 2-core x86-64 machine.  Uniform sizes
    would take about 27 s.
    """
    rng = random.Random(seed)
    out = []
    shapes = ("two_eared", "three_eared", "fan", "snake")
    for n, shape in inputs.stream_profile(DISJOINT_OPS, 16, 200, DISJOINT_POWER, shapes, rng):
        if shape == "three_eared":
            diags, ptype = inputs.three_eared(n, rng)
            expected = inputs.three_ear_disjoint(n, ptype)
        else:
            diags = {"two_eared": lambda: inputs.two_eared(n, rng),
                     "fan": lambda: inputs.fan(n),
                     "snake": lambda: inputs.snake(n)}[shape]()
            expected = inputs.catalan(n - 3)
        out.append((inputs.text_of(n, inputs.dihedral_image(n, diags, rng)), expected))
    return out


def disjoint_op(text: str, expected: int) -> Op:
    code, out, err, latency = call_cli(["disjoint", "--t", text, "--method", "both"])
    ok = code == 0 and not err and out.split("\n", 1)[0].split() == [str(expected)] * 2
    return Op(latency, ok, int(ok), "" if ok else
              f"{text[:40]}: exit={code} out={out[:80]!r} want={expected}")


# -- model -------------------------------------------------------------------


def model_inputs(seed: int) -> list[tuple[str, int]]:
    """(text, expected ear count) for large triangulations, n 100..800.

    MODEL_POWER sets the weighting toward small n.  The op costs about
    n^2.2 (0.9 s at n=800), so uniform sizes would make a pass about 31 s
    of program time on a 2-core x86-64 machine, and its peak RSS 1.2 GB
    (_dihedral_maps caches 2n maps for every n it sees).  Power 2 keeps 35
    texts above n=400 and 15 above n=600, and a pass near 20 s.
    """
    rng = random.Random(seed)
    out = []
    shapes = ("random", "fan", "snake", "two_eared", "three_eared")
    for n, shape in inputs.stream_profile(MODEL_OPS, 100, 800, MODEL_POWER, shapes, rng):
        if shape == "random":
            diags = inputs.random_split(n, rng)
        elif shape == "three_eared":
            diags = inputs.three_eared(n, rng)[0]
        else:
            diags = {"fan": inputs.fan, "snake": inputs.snake,
                     "two_eared": lambda n: inputs.two_eared(n, rng)}[shape](n)
        diags = inputs.dihedral_image(n, diags, rng)
        out.append((inputs.text_of(n, diags), inputs.ear_count(n, diags)))
    return out


def model_op(text: str, expected_ears: int) -> Op:
    start = perf_counter()
    t = Triangulation.parse(text)
    ears = t.ears()
    internal = t.internal_triangles()
    tree = t.dual_tree()
    canon = t.canonical()
    svg = svgfig.render_svg(t, highlight="ears")
    back = str(t)
    ear_count = t.ear_count()
    latency = perf_counter() - start
    n = t.n
    problems = [
        name for name, good in (
            ("ears", len(ears) == ear_count == len(internal) + 2 == expected_ears),
            ("dual-tree", len(tree.edges) == n - 3
             and sorted(tree.leaves()) == sorted(ears)),
            ("canonical", canon.n == n and len(canon.diagonals) == n - 3
             and canon.diagonals <= t.diagonals),
            ("svg", svg.count("<circle") == n and svg.count("<polygon") == len(ears) + 1),
            ("round-trip", back == text),
        ) if not good
    ]
    return Op(latency, not problems, int(not problems),
              f"n={n}: {','.join(problems)}" if problems else "")


def deep_inputs(seed: int) -> list[tuple[str, int]]:
    return [(inputs.text_of(DEEP_N, diags), 2)
            for diags in (inputs.fan(DEEP_N), inputs.snake(DEEP_N))]


def deep_probe(stream: list[tuple[str, int]]) -> list[str]:
    """Run the model op on each deep input; return what failed, and how.

    A clean ValueError is a refusal, not a failure.
    """
    failures = []
    for text, ears in stream:
        try:
            op = model_op(text, ears)
        except ValueError:
            continue
        except Exception as exc:  # the probe reports whatever escapes
            failures.append(f"n={DEEP_N}: {type(exc).__name__}")
            continue
        if not op.ok:
            failures.append(op.detail)
    return failures


# -- listing -----------------------------------------------------------------


def listing_inputs(seed: int) -> list[tuple]:
    """The fixed calls; the seed picks which printed lines are re-parsed."""
    rng = random.Random(seed)
    return [(argv, n, ears, rng.randrange(2**32)) for argv, n, ears in LISTING_CALLS]


def listing_op(argv: list[str], n: int, ears: int | None, sample_seed: int) -> Op:
    code, out, err, latency = call_cli(argv)
    lines = json.loads(out)["triangulations"] if "json" in argv else out.splitlines()
    expected = inputs.catalan(n - 2) if ears is None else inputs.ear_census(n, ears)
    sample = random.Random(sample_seed).sample(lines, min(LISTING_SAMPLE, len(lines)))
    parsed = [inputs.parse_text(line) for line in sample]
    ok = (code == 0 and not err and len(lines) == expected
          and len(set(lines)) == len(lines)
          and all(m == n and inputs.is_triangulation(n, d)
                  and (ears is None or inputs.ear_count(n, d) == ears)
                  for m, d in parsed))
    return Op(latency, ok, len(lines) if ok else 0, "" if ok else
              f"{' '.join(argv)}: exit={code} lines={len(lines)} want={expected}")


# name -> (inputs(seed) -> list of op argument tuples, op(*args) -> Op)
WORKLOADS = {
    "verify": (verify_inputs, verify_op),
    "disjoint": (disjoint_inputs, disjoint_op),
    "model": (model_inputs, model_op),
    "listing": (listing_inputs, listing_op),
}


# -- instrumentation for the traced run ----------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def instrument(tracer) -> None:
    """Wrap the public functions named by the per-layer metrics.

    Module attributes are replaced in every polytri module that bound the
    same function object, so `from x import f` call sites see the wrapper.
    A function the package no longer has is skipped, and its layer reads 0.
    """
    import polytri

    modules = (polytri, triangulation, counting, compositions, disjoint, svgfig, verify, cli)

    def patch(owner, name: str, layer: str, work=None, adopt=False, generator=False):
        original = getattr(owner, name, None)
        if original is None:
            return
        wrapped = (tracer.wrap_generator(original, layer) if generator
                   else tracer.wrap(original, layer, work, adopt))
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)

    def method(name: str, layer: str) -> None:
        raw = Triangulation.__dict__.get(name)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            setattr(Triangulation, name, classmethod(tracer.wrap(raw.__func__, layer)))
        else:
            setattr(Triangulation, name, tracer.wrap(raw, layer))

    patch(triangulation, "enumerate_triangulations", "triangulation.enumerate", generator=True)
    method("parse", "triangulation.parse")
    for name in ("triangles", "ears", "internal_triangles", "dual_tree"):
        method(name, "triangulation.structure")
    method("canonical", "triangulation.canonical")

    patch(counting, "symmetry_classes_orbit", "counting.orbit",
          work=lambda a, k, r: {"items": inputs.catalan(_arg(a, k, 0, "n") - 2)})
    patch(counting, "ear_census", "counting.census")
    for name in ("hurtado_noy", "symmetry_classes_2ear", "symmetry_classes_3ear",
                 "catalan_partial_convolution"):
        patch(counting, name, "counting.closed_form")

    def class_items(a, k, r):
        method_name = a[1] if len(a) > 1 else k.get("method", "closed")
        return {"items": 2 ** (_arg(a, k, 0, "m") - 1) if method_name == "direct" else 0}

    patch(compositions, "count_classes", "compositions.classes", work=class_items)
    for name in ("pointing_string", "two_eared_from_pointing", "composition_of"):
        patch(compositions, name, "compositions.pointing")

    patch(disjoint, "count_avoiding", "disjoint.count_avoiding",
          work=lambda a, k, r: {"cells": comb(_arg(a, k, 0, "n"), 2)})
    for name in ("disjoint_two_eared", "three_ear_type", "three_ear_disjoint",
                 "three_ear_disjoint_published", "avoid_fan_formula"):
        patch(disjoint, name, "disjoint.formula")
    patch(disjoint, "signature_invariance_check", "disjoint.signature")
    for name in ("disjoint_series", "disjoint_inclusion_exclusion"):
        patch(disjoint, name, "disjoint.series")

    for name, suite in list(verify.SUITES.items()):
        verify.SUITES[name] = tracer.wrap(suite, f"verify.suite.{name}")
    patch(svgfig, "render_svg", "svgfig.render",
          work=lambda a, k, r: {"bytes": len(r.encode())})
    # call_cli gives every cli.run call a fresh StringIO as sys.stdout, so
    # its length after the call is what that call printed.
    patch(cli, "run", "cli", adopt=True,
          work=lambda a, k, r: {"stdout_bytes": len(sys.stdout.getvalue().encode())})
