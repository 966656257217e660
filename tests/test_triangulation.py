"""Core triangulation structure: crossing, enumeration, ears, dual trees,
dihedral action, text format."""

from __future__ import annotations

import gc
import hashlib
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from functools import lru_cache

import pytest
from helpers import (
    all_diagonals,
    boundary_sides,
    canonical_by_sorting,
    checked_by_sorting,
    child_env,
    crosses,
    decoded,
    diagonal_sets_by_recursion,
    dual_tree_edges_by_shared_diagonal,
    ear_count_by_degree,
    ear_count_set_by_recursion,
    ear_tip,
    ears_by_definition,
    ears_by_side_count,
    internal_by_definition,
    is_diagonal,
    is_path,
    is_triangulation_pairwise,
    listings_by_filter,
    path_from,
    random_triangulation,
    rotation_symmetric,
    segner_catalan,
    triangles_by_apex_scan,
)
from hypothesis import given
from hypothesis import strategies as st

from polytri.compositions import two_eared_from_pointing
from polytri.disjoint import arrow, count_avoiding, snake, three_ear_rep
from polytri import cli, triangulation
from polytri.counting import ear_census, hurtado_noy, symmetry_classes_orbit
from polytri.svgfig import render_svg
from polytri.triangulation import (
    ENUMERATION_CEILING,
    _CODE_BASE,
    _SHAPE_CACHE_MAX,
    Triangulation,
    _cached_shapes,
    _checked,
    _decoder,
    _ear_count_set,
    _ear_counts,
    _eared_shapes,
    diagonal,
    enumerate_triangulations,
    is_triangulation,
    listing,
)


@lru_cache(maxsize=None)
def all_triangulations(n: int) -> tuple[Triangulation, ...]:
    return tuple(enumerate_triangulations(n))


def random_image(t: Triangulation, rng: random.Random) -> Triangulation:
    image = t.rotated(rng.randrange(t.n))
    return image.reflected() if rng.random() < 0.5 else image


def shapes_of_size(n: int, rng: random.Random) -> list[Triangulation]:
    """Random images of a random split, the fan, the snake, a 2-eared and a
    3-eared triangulation of the n-gon (n >= 6)."""
    pointing = "".join(rng.choice("UD") for _ in range(n - 4))
    p = rng.randrange(1, n - 4)
    q = rng.randrange(1, n - 3 - p)
    shapes = [
        random_triangulation(n, rng),
        arrow(n),
        snake(n),
        two_eared_from_pointing(pointing),
        three_ear_rep(n, (p, q, n - 3 - p - q)),
    ]
    return [random_image(t, rng) for t in shapes]


# -- diagonals and crossing -------------------------------------------------


def test_diagonal_normalizes_and_validates():
    assert diagonal(6, 4, 2) == (2, 4)
    assert diagonal(6, 0, 4) == (0, 4)
    for bad in [(0, 1), (5, 0), (3, 3), (0, 6), (-1, 2)]:
        with pytest.raises(ValueError):
            diagonal(6, *bad)
    # (0, n-1) is a side, not a diagonal
    assert not is_diagonal(6, 0, 5)
    assert is_diagonal(6, 0, 2)


@pytest.mark.parametrize("n", [4.0, "6", None, 6.5])
def test_an_n_that_is_not_an_int_is_a_named_fault(n):
    message = f"polygon size must be an int, got {n!r}"
    for refused in (lambda: Triangulation(n, [(0, 2)]), lambda: diagonal(n, 0, 2)):
        with pytest.raises(ValueError) as info:
            refused()
        assert str(info.value) == message
    assert not is_triangulation(n, [(0, 2)])


@pytest.mark.parametrize("refused, message", [
    (lambda: diagonal(2, 0, 1), "polygon needs at least 3 vertices, got n=2"),
    (lambda: Triangulation(3, []).dual_tree(), "dual tree requires n >= 4"),
], ids=["diagonal", "dual-tree"])
def test_small_polygon_refusals(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message


# every entry that takes a polygon size; each refuses a bad one with the same words
SIZE_ENTRIES = {
    "diagonal": lambda n: diagonal(n, 0, 2),
    "Triangulation": lambda n: Triangulation(n, ()),
    "listing": listing,
    "enumerate_triangulations": enumerate_triangulations,
    "count_avoiding": lambda n: count_avoiding(n, []),
    "symmetry_classes_orbit": symmetry_classes_orbit,
}


@pytest.mark.parametrize("entry", SIZE_ENTRIES)
@pytest.mark.parametrize("n", [2, 5.0, 5.5, "6"])
def test_every_entry_refuses_a_bad_polygon_size_with_the_same_words(entry, n):
    message = (f"polygon needs at least 3 vertices, got n={n}" if isinstance(n, int)
               else f"polygon size must be an int, got {n!r}")
    with pytest.raises(ValueError) as info:
        SIZE_ENTRIES[entry](n)
    assert str(info.value) == message
    assert is_triangulation(n, ()) is False


# every entry that takes an ear count; each refuses one below 2, or one that
# is not an int, with the same words
EAR_ENTRIES = {
    "listing": lambda k: listing(6, k),
    "enumerate_triangulations": lambda k: enumerate_triangulations(6, k),
    "hurtado_noy": lambda k: hurtado_noy(6, k),
    "symmetry_classes_orbit": lambda k: symmetry_classes_orbit(6, k),
}


@pytest.mark.parametrize("entry", [*EAR_ENTRIES, "polytri sequence"])
@pytest.mark.parametrize("k", [1, 0, -3, 2.0, 2.5])
def test_every_entry_refuses_fewer_than_two_ears_with_the_same_words(capsys, entry, k):
    message = (f"every triangulation has >= 2 ears, got k={k}" if isinstance(k, int)
               else f"ear count must be an int, got {k!r}")
    if entry == "polytri sequence":
        if not isinstance(k, int):  # the command parses k before any entry sees it
            message = f"bad ear count in 'hurtado-noy:{k}'"
        assert cli.run(["sequence", "--what", f"hurtado-noy:{k}", "--n", "6"]) == 1
        assert capsys.readouterr() == ("", f"{cli.PROG}: error: {message}\n")
        return
    with pytest.raises(ValueError) as info:
        EAR_ENTRIES[entry](k)
    assert str(info.value) == message


def test_crosses_basic():
    assert crosses((0, 2), (1, 3))  # the two square diagonals
    assert not crosses((0, 2), (2, 4))  # shared endpoint
    assert not crosses((0, 2), (3, 5))  # nested apart
    assert crosses((1, 4), (2, 5))
    assert not crosses((1, 4), (1, 4))
    with pytest.raises(ValueError):
        crosses((2, 0), (1, 3))


def test_crosses_symmetric_exhaustive():
    diags = all_diagonals(9)
    for d1 in diags:
        for d2 in diags:
            assert crosses(d1, d2) == crosses(d2, d1)


def test_is_triangulation_malformed_inputs():
    assert is_triangulation(6, [(0, 2), (2, 4), (0, 4)])
    assert not is_triangulation(6, [(0, 2), (2, 4)])  # too few
    assert not is_triangulation(6, [(0, 2), (0, 2), (2, 4)])  # duplicate
    assert not is_triangulation(6, [(0, 2), (1, 3), (0, 4)])  # crossing
    assert not is_triangulation(6, [(0, 1), (2, 4), (0, 4)])  # a side
    assert not is_triangulation(6, [(0, 7), (2, 4), (0, 4)])  # out of range
    assert is_triangulation(3, [])
    assert not is_triangulation(2, [])
    assert not is_triangulation(6, [None, (2, 4), (0, 4)])  # not a pair
    assert not is_triangulation(6, [(0, 2, 4), (2, 4), (0, 4)])
    assert not is_triangulation(8, [(0, 4), (1, 3), (0, 5), (2, 6), (5, 7)])


@st.composite
def pair_lists(draw):
    """n and a list of pairs: mostly n-3 diagonals, which share endpoints and
    cross often, mixed with out-of-range pairs, sides and wrong sizes."""
    n = draw(st.integers(2, 12))
    any_pair = st.tuples(st.integers(-1, n), st.integers(-1, n))
    pair = st.one_of(st.sampled_from(all_diagonals(n)), any_pair) if n > 3 else any_pair
    size = draw(st.one_of(st.just(max(n - 3, 0)), st.integers(0, n)))
    return n, draw(st.lists(pair, min_size=size, max_size=size))


@given(pair_lists())
def test_is_triangulation_matches_pairwise_scan(case):
    n, pairs = case
    assert is_triangulation(n, pairs) == is_triangulation_pairwise(n, pairs)


@given(st.integers(4, 14), st.randoms(use_true_random=False))
def test_is_triangulation_matches_pairwise_scan_one_diagonal_moved(n, rng):
    diags = list(random_triangulation(n, rng).diagonals)
    assert is_triangulation(n, diags)
    diags[rng.randrange(n - 3)] = rng.choice(all_diagonals(n))
    assert is_triangulation(n, diags) == is_triangulation_pairwise(n, diags)


# the word of each fault `_checked` names
FAULT = re.compile(r"not a pair|must be ints|out of range|a vertex of|a side of|"
                   r"diagonals, got|duplicate|crossing|at least 3 vertices")


def mangled_pairs(n: int, rng: random.Random) -> list:
    """The diagonals of a random triangulation of the n-gon, shuffled, with
    about half of them reversed and up to three faults put in: a duplicate,
    another diagonal (which often crosses one), a side or a vertex, an
    out-of-range vertex, a non-int entry, an entry that is not a pair, or
    one diagonal taken out."""
    pairs = [(b, a) if rng.random() < 0.5 else (a, b)
             for a, b in random_triangulation(n, rng).diagonals]
    rng.shuffle(pairs)
    v = rng.randrange(n)
    faults = [
        lambda: rng.choice(pairs or [(0, 2)]),
        lambda: rng.choice(all_diagonals(n) or [(0, 2)]),
        lambda: rng.choice([(v, (v + 1) % n), (0, n - 1), (v, v)]),
        lambda: rng.choice([(-1, v), (v, n), (n + 5, v), (v, 10**20)]),
        lambda: rng.choice([(1.0, v), (v, "2"), (None, v), (True, v), (v, False)]),
        lambda: rng.choice([None, 5, (1,), (1, 2, 3), "ab"]),
    ]
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(pairs) + 1)
        kind = rng.randrange(len(faults) + 1)
        if kind < len(faults):
            pairs.insert(i, faults[kind]())
        else:
            del pairs[i:i + 1]
    return pairs


def checked_outcome(check, n, pairs):
    """What check(n, pairs) gives: (the tuple, None), or the error type
    and the fault word."""
    try:
        return check(n, pairs), None
    except Exception as exc:  # the two checks must fail alike, whatever the type
        fault = FAULT.search(str(exc))
        return type(exc), fault and fault.group()


def test_one_pass_check_matches_the_sorting_oracle():
    rng = random.Random(20261020)
    outcomes = set()
    for case in range(3000):
        n = rng.choice([3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 40]) if case % 50 else rng.choice([2, 1])
        pairs = mangled_pairs(max(n, 3), rng)
        got = checked_outcome(_checked, n, pairs)
        assert got == checked_outcome(checked_by_sorting, n, pairs), (n, pairs)
        outcomes.add(got[1] or "accepted")
    # every fault was met, and some lists were accepted
    assert outcomes == {"accepted", "not a pair", "must be ints", "out of range", "a vertex of",
                        "a side of", "diagonals, got", "duplicate", "crossing",
                        "at least 3 vertices"}


HUGE_N = 10**10

HUGE_N_CALLS = {
    "parse": f"Triangulation.parse('{HUGE_N}:0-2')",
    "constructor": f"Triangulation({HUGE_N}, [(0, 2)])",
    "is_triangulation": f"is_triangulation({HUGE_N}, [(0, 2)])",
}


@pytest.mark.parametrize("call", HUGE_N_CALLS.values(), ids=HUGE_N_CALLS)
def test_validation_refuses_a_huge_n_before_any_work_of_size_n(call):
    # in a child process, so that a list as long as n (about 80 GB of
    # pointers) runs into the address-space limit, not the machine's memory
    code = textwrap.dedent(f"""
        import resource, tracemalloc
        resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT}))
        from polytri.triangulation import Triangulation, is_triangulation
        tracemalloc.start()
        try:
            print({call})
        except ValueError as exc:
            print(exc)
        print(tracemalloc.get_traced_memory()[1])
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    answer, peak = proc.stdout.splitlines()
    assert answer in ("False", f"a triangulation of the {HUGE_N}-gon has {HUGE_N - 3} "
                               "diagonals, got 1")
    assert int(peak) < 64 * 2**10, peak


# -- enumeration --------------------------------------------------------------


def test_enumeration_order_square():
    assert [str(t) for t in all_triangulations(4)] == ["4:0-2", "4:1-3"]


@pytest.mark.parametrize("n", range(3, 11))
def test_enumeration_counts_distinct_valid(n):
    ts = all_triangulations(n)
    assert len(ts) == segner_catalan(n - 2)
    assert len(set(ts)) == len(ts)
    for t in ts:
        assert is_triangulation(t.n, t.diagonals)


def all_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The whole enumeration's diagonal tuples, decoded, in order."""
    shapes = _eared_shapes(tuple(range(n)), -1, _ear_count_set(n, -1))
    return [decoded(shape) for shape, _ in shapes]


@pytest.mark.parametrize("n", range(3, 14))
def test_diagonal_tuples_match_recursive_oracle(n):
    # the same tuples, diagonal order included, in the same order; at 13
    # vertices the parts at apex 2 and apex 12 lie above the cache bound
    # and are split in the labels of the whole polygon
    assert all_shapes(n) == list(diagonal_sets_by_recursion(tuple(range(n))))


@pytest.mark.parametrize("bound", [5, 8])
def test_diagonal_tuples_through_nested_uncached_parts_match_the_oracle(monkeypatch, bound):
    # parts above a lowered bound nest several levels deep, each handing
    # the labels of its own parts down
    monkeypatch.setattr(triangulation, "_SHAPE_CACHE_MAX", bound)
    assert all_shapes(12) == list(diagonal_sets_by_recursion(tuple(range(12))))


@pytest.mark.parametrize("n", range(4, 11))
def test_diagonal_tuples_do_not_depend_on_the_cache_bound(monkeypatch, n):
    expected = all_shapes(n)
    # with nothing above a triangle cached, every size is split
    monkeypatch.setattr(triangulation, "_SHAPE_CACHE_MAX", 3)
    assert all_shapes(n) == expected


def test_ear_count_sets_match_the_recursion():
    # d reaches s, e.g. (2, 2) and (3, 3), where the set is {0}; only a
    # whole polygon has d = -1, and a 2-gon is only ever a part
    for s in range(2, 41):
        for d in range(-1 if s > 2 else 0, s + 2):
            assert _ear_count_set(s, d) == ear_count_set_by_recursion(s, d), (s, d)


@pytest.fixture
def fresh_shape_caches():
    caches = (triangulation._cached_shapes, triangulation._ear_counts)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("bound", [3, 5, 11])
def test_shape_cache_does_not_depend_on_the_bound(monkeypatch, fresh_shape_caches, bound):
    # the cache is built by the ear-aware recursion, which reads the cache
    # for the sub-polygons at or below the bound and splits those above it
    monkeypatch.setattr(triangulation, "_SHAPE_CACHE_MAX", bound)
    for m in range(3, 12):
        assert tuple(map(decoded, _cached_shapes(m))) == tuple(diagonal_sets_by_recursion(tuple(range(m))))


@pytest.mark.parametrize("n", range(4, 12))
def test_cached_ear_counts_match_the_chord_count(n):
    # the whole n-gon is the sub-polygon (n, -1)
    assert _ear_counts(n, -1) == tuple(ear_count_by_degree(n, decoded(d)) for d in _cached_shapes(n))


@pytest.mark.parametrize("n", range(3, 12))
def test_listing_matches_the_text_of_the_enumeration(n):
    # the listing's code texts and the decoded objects' str, line for line
    ts = list(enumerate_triangulations(n))
    assert listing(n) == [str(t) for t in ts]
    for ears in range(2, n // 2 + 2) if n >= 4 else ():
        assert listing(n, ears) == [str(t) for t in ts if t.ear_count() == ears]
        assert [str(t) for t in enumerate_triangulations(n, ears)] == listing(n, ears)


@pytest.mark.parametrize("ears", range(2, 8))
def test_listing_above_the_cache_bound_matches_the_enumeration(ears):
    assert [str(t) for t in enumerate_triangulations(13, ears=ears)] == listing(13, ears)


@pytest.mark.parametrize("n", [3, 4, 7, 11, 12, 13])
def test_the_apexes_listings_in_turn_are_the_listing(n):
    # below, at and above the shape cache bound; each apex's lines are
    # those whose triangle over the side (0, 1) has it as its apex
    for ears in [None, *range(2, n // 2 + 2)] if n >= 4 else [None]:
        parts = [listing(n, ears, apex) for apex in range(2, n)]
        assert [line for part in parts for line in part] == listing(n, ears), ears
        for apex, part in enumerate(parts, start=2):
            for line in part:
                # the sides (0, n-1) and (1, 2) close the triangle at the apexes n-1 and 2
                edges = {*Triangulation.parse(line).diagonals, (0, n - 1), (1, 2)}
                assert [j for j in range(2, n) if {(0, j), (1, j)} <= edges] == [apex]


@pytest.mark.parametrize("apex, message", [
    (1, "apex must be in 2..7, got 1"),
    (8, "apex must be in 2..7, got 8"),
    (2.0, "apex must be an int, got 2.0"),
])
def test_listing_refuses_an_apex_off_the_polygon(apex, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        listing(8, None, apex)


def test_codes_stand_for_one_pair_up_to_the_ceiling():
    # a code a * _CODE_BASE + b decodes to one pair only while b < _CODE_BASE
    assert _CODE_BASE > ENUMERATION_CEILING
    t = next(enumerate_triangulations(ENUMERATION_CEILING))
    # the checked constructor sorts, so this also holds the stored order
    assert Triangulation(t.n, t.diagonals) == t


@pytest.mark.parametrize("n", [4, 14, 17, ENUMERATION_CEILING])
def test_decoder_reads_every_diagonal(n):
    pair, text = _decoder(n, lambda a, b: (a, b)), _decoder(n, "{}-{}".format)
    for a, b in all_diagonals(n):
        code = a * _CODE_BASE + b
        assert pair(code) == decoded((code,))[0] == (a, b)
        assert text(code) == f"{a}-{b}"


@pytest.mark.parametrize("n", [12, 13])
def test_ear_listing_matches_the_filter(n):
    # above the shape cache bound, so the whole polygon is split
    expected = listings_by_filter(n)
    for ears in range(2, n // 2 + 2):
        assert listing(n, ears) == expected.get(ears, [])


@pytest.mark.parametrize("n", range(4, 13))
def test_eared_enumeration_matches_the_filter(n):
    # the full enumeration filtered by ear_count() is the oracle, order included
    ts = list(enumerate_triangulations(n))
    for ears in range(2, n // 2 + 2):
        got = list(enumerate_triangulations(n, ears=ears))
        assert got == [t for t in ts if t.ear_count() == ears], ears


@pytest.mark.parametrize("n, ears", [(6, 0), (6, 1), (3, 2)])
def test_eared_enumeration_refuses_at_the_call_as_listing_does(n, ears):
    with pytest.raises(ValueError) as refused:
        listing(n, ears)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        enumerate_triangulations(n, ears=ears)  # no next(): the call itself raises


def test_enumeration_rejects_degenerate():
    with pytest.raises(ValueError):
        enumerate_triangulations(2)


@pytest.mark.parametrize("call", [
    enumerate_triangulations,
    listing,
    lambda n: ear_census(n, "brute"),
], ids=["enumerate_triangulations", "listing", "ear_census-brute"])
def test_enumeration_refuses_past_the_ceiling(call):
    with pytest.raises(ValueError, match=f"n <= {ENUMERATION_CEILING}, got n="):
        call(ENUMERATION_CEILING + 1)


def test_ear_census_formula_has_no_enumeration_ceiling():
    assert sum(ear_census(ENUMERATION_CEILING + 1).values()) == segner_catalan(
        ENUMERATION_CEILING - 1
    )


AS_LIMIT = 150 * 2**20  # bytes of address space for each memory-capped child


def test_first_triangulation_at_the_ceiling_fits_in_memory():
    # in a child process, so the address-space limit bounds the peak of
    # the nested generators (about 33 MB) and nothing else in the session
    code = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT}))
        from polytri.triangulation import ENUMERATION_CEILING, enumerate_triangulations
        t = next(enumerate_triangulations(ENUMERATION_CEILING))
        assert t.n == ENUMERATION_CEILING and len(t.diagonals) == t.n - 3
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-500:]


def test_enumeration_at_the_ceiling_leaves_nothing_behind():
    # the shape cache is warm, so what stays traced is what the
    # enumeration kept for good (23.6 MB of relabel tables when `_split`
    # was cached)
    listing(_SHAPE_CACHE_MAX)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        next(enumerate_triangulations(ENUMERATION_CEILING))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2 * 2**20, grown


# -- triangles, ears, internal triangles -------------------------------------


@pytest.mark.parametrize("n", range(3, 10))
def test_triangle_decomposition(n):
    for t in all_triangulations(n):
        tris = t.triangles()
        assert len(tris) == n - 2
        # every triangle edge is a side or a diagonal of t
        diags = frozenset(t.diagonals)
        for a, b, c in tris:
            for x, y in ((a, b), (b, c), (a, c)):
                assert y - x == 1 or (x, y) == (0, n - 1) or (x, y) in diags
        # each diagonal occurs in exactly two triangles
        from collections import Counter

        edge_use = Counter()
        for tri in tris:
            a, b, c = tri
            for e in ((a, b), (b, c), (a, c)):
                edge_use[e] += 1
        for d in t.diagonals:
            assert edge_use[d] == 2


def test_triangles_of_triangle_and_square():
    assert Triangulation.parse("3:").triangles() == ((0, 1, 2),)
    assert Triangulation.parse("4:0-2").triangles() == ((0, 1, 2), (0, 2, 3))
    assert Triangulation.parse("4:1-3").triangles() == ((0, 1, 3), (1, 2, 3))


@pytest.mark.parametrize("n", range(3, 11))
def test_triangles_match_apex_scan_exhaustive(n):
    for t in all_triangulations(n):
        assert t.triangles() == triangles_by_apex_scan(t)


@pytest.mark.parametrize("n", [11, 12, 17, 40, 101, 300])
def test_triangles_match_apex_scan_on_shapes(n):
    for t in shapes_of_size(n, random.Random(n)):
        assert t.triangles() == triangles_by_apex_scan(t)
        assert t.triangles() is t.triangles()  # computed once per object


@pytest.mark.parametrize("n", range(4, 11))
def test_ears_match_definition_and_offset(n):
    for t in all_triangulations(n):
        ears = t.ears()
        internal = t.internal_triangles()
        assert list(ears) == ears_by_definition(t)
        assert list(internal) == internal_by_definition(t)
        assert len(ears) == len(internal) + 2
        assert t.ear_count() == len(ears)


def assert_ears_match_side_count(t):
    ears = ears_by_side_count(t)
    assert t.ears() == ears
    assert t.ear_tips() == tuple(sorted(ear_tip(t.n, ear) for ear in ears))
    assert t.ear_tips() is t.ear_tips()  # computed once per object
    assert t.ear_count() == len(ears)


@pytest.mark.parametrize("n", range(4, 11))
def test_ears_and_tips_match_side_count_exhaustive(n):
    for t in all_triangulations(n):
        assert_ears_match_side_count(t)


@pytest.mark.parametrize("n", [40, 101])
@pytest.mark.parametrize("shape", [arrow, snake, lambda n: three_ear_rep(n, (5, 11, n - 19))])
def test_ears_and_tips_match_side_count_on_every_image(shape, n):
    for t in shape(n).dihedral_images():
        assert_ears_match_side_count(t)


@pytest.mark.parametrize("n", [40, 101])
@pytest.mark.parametrize("shape", [arrow, snake, lambda n: three_ear_rep(n, (5, 11, n - 19))])
def test_triangles_and_dual_tree_match_oracles_on_every_image(shape, n):
    # the images move the root triangle, which follows vertex 0's group,
    # and the ear tips 0 and n-1, which wrap, through every offset
    for t in shape(n).dihedral_images():
        assert t.triangles() == triangles_by_apex_scan(t)
        assert t.dual_tree().edges == dual_tree_edges_by_shared_diagonal(t)


@pytest.mark.parametrize("shape", [arrow, snake])
def test_ears_match_boundary_sides_on_deep_triangulations(shape):
    # the fan at 1 has the ear (0, 1, n-1) on the closing side (0, n-1)
    for t in (shape(1200), shape(1200).reflected()):
        tris = t.triangles()
        assert t.ears() == tuple(x for x in tris if boundary_sides(t.n, x) == 2)
        assert t.internal_triangles() == tuple(x for x in tris if boundary_sides(t.n, x) == 0)


@pytest.mark.parametrize("n", range(4, 12))
def test_ear_count_matches_untouched_vertices(n):
    # ear_count() counts the untouched vertices itself, so it is checked
    # against the triangles with two boundary sides
    for diags in diagonal_sets_by_recursion(tuple(range(n))):
        t = Triangulation(n, diags)
        assert t.ear_count() == len(ears_by_definition(t))


def test_square_has_two_ears_from_one_diagonal():
    # the one diagonal touches two vertices; the other two are the tips
    for t in all_triangulations(4):
        assert t.ear_count() == 2 == len(t.ears())


def test_ears_undefined_for_triangle():
    t = Triangulation(3, ())
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match="ears are undefined for n < 4"):
            t.ear_tips()
        with pytest.raises(ValueError, match="ears are undefined for n < 4"):
            t.ears()
    with pytest.raises(ValueError):
        t.ear_count()
    assert t.internal_triangles() == ()


def test_spec_examples_hexagon():
    pin = Triangulation.parse("6:0-2,2-4,0-4")
    assert pin.ears() == ((0, 1, 2), (0, 4, 5), (2, 3, 4))
    assert pin.internal_triangles() == ((0, 2, 4),)
    fan = Triangulation.parse("6:0-2,0-3,0-4")
    assert fan.internal_triangles() == ()
    assert len(fan.ears()) == 2


# -- dual tree ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 10))
def test_dual_tree_structure(n):
    for t in all_triangulations(n):
        dt = t.dual_tree()
        assert len(dt.nodes) == n - 2
        assert len(dt.edges) == n - 3
        # connected: BFS from any node reaches all
        seen = {dt.nodes[0]}
        frontier = [dt.nodes[0]]
        while frontier:
            node = frontier.pop()
            for nb in dt.adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert len(seen) == len(dt.nodes)
        assert sorted(dt.leaves()) == sorted(t.ears())
        assert sorted(dt.branch_nodes()) == sorted(t.internal_triangles())
        assert all(dt.degree(x) <= 3 for x in dt.nodes)


@pytest.mark.parametrize("shape", [arrow, snake])
def test_structure_of_deep_triangulations(shape):
    # n above the default recursion limit
    t = shape(1200)
    ears = t.ears()
    assert len(ears) == 2
    dt = t.dual_tree()
    assert len(dt.edges) == 1200 - 3
    assert sorted(dt.leaves()) == sorted(ears)


def test_dual_tree_path_order():
    fan = Triangulation.parse("6:0-2,0-3,0-4")
    dt = fan.dual_tree()
    assert is_path(dt)
    ears = fan.ears()
    order = path_from(dt, ears[0])
    assert order[0] == ears[0] and order[-1] == ears[1]
    assert sorted(order) == sorted(dt.nodes)
    pin = Triangulation.parse("6:0-2,2-4,0-4")
    assert not is_path(pin.dual_tree())
    with pytest.raises(ValueError):
        path_from(pin.dual_tree(), (0, 1, 2))


@pytest.mark.parametrize("n", range(4, 11))
def test_dual_tree_edges_match_shared_diagonal_oracle(n):
    for t in all_triangulations(n):
        assert t.dual_tree().edges == dual_tree_edges_by_shared_diagonal(t)


@pytest.mark.parametrize("n", [11, 17, 40, 101])
def test_dual_tree_edges_match_shared_diagonal_oracle_on_shapes(n):
    for t in shapes_of_size(n, random.Random(n)):
        assert t.dual_tree().edges == dual_tree_edges_by_shared_diagonal(t)


# -- dihedral action ----------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 9))
def test_rotation_reflection_are_bijections(n):
    ts = set(all_triangulations(n))
    assert {t.rotated(1) for t in ts} == ts
    assert {t.reflected() for t in ts} == ts
    for t in ts:
        assert t.rotated(1).ear_count() == t.ear_count()
        assert t.reflected().ear_count() == t.ear_count()


def test_reflection_fixes_fan_at_zero():
    fan = Triangulation.parse("6:0-2,0-3,0-4")
    assert fan.reflected() == fan


def test_rotation_spec_example():
    t = Triangulation.parse("6:0-2,2-4,0-4")
    assert str(t.rotated(1)) == "6:1-3,1-5,3-5"


@pytest.mark.parametrize("s", [1.0, 1.5])
def test_rotation_refuses_a_shift_that_is_not_an_int(s):
    with pytest.raises(ValueError) as info:
        Triangulation.parse("6:0-2,2-4,0-4").rotated(s)
    assert str(info.value) == f"rotation must be an int, got {s!r}"


@given(st.integers(min_value=4, max_value=8), st.data())
def test_dihedral_group_laws(n, data):
    ts = all_triangulations(n)
    t = data.draw(st.sampled_from(ts))
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert t.rotated(a).rotated(b) == t.rotated((a + b) % n)
    assert t.reflected().reflected() == t
    assert t.rotated(0) == t


@pytest.mark.parametrize("n", range(4, 9))
def test_canonical_constant_on_orbits(n):
    for t in all_triangulations(n):
        c = t.canonical()
        assert c.canonical() == c
        assert c <= t
        for img in t.dihedral_images():
            assert img.canonical() == c


def test_canonical_spec_example():
    assert str(Triangulation.parse("4:1-3").canonical()) == "4:0-2"


@pytest.mark.parametrize("n", range(3, 12))
def test_canonical_matches_sorting_oracle_exhaustive(n):
    for t in all_triangulations(n):
        assert t.canonical().diagonals == canonical_by_sorting(n, t.diagonals)


@pytest.mark.parametrize("n", [12, 13, 16, 29, 64, 150, 300])
def test_canonical_matches_sorting_oracle_on_shapes(n):
    for t in shapes_of_size(n, random.Random(n)):
        assert t.canonical().diagonals == canonical_by_sorting(n, t.diagonals)


@pytest.mark.parametrize(
    "t, shift",
    [
        (rotation_symmetric(9, 3, random.Random(1)), 3),
        (rotation_symmetric(12, 3, random.Random(2)), 4),
        (rotation_symmetric(300, 3, random.Random(3)), 100),
        (rotation_symmetric(14, 2, random.Random(4)), 7),
        (rotation_symmetric(200, 2, random.Random(5)), 100),
        (snake(11), None),
        (snake(301), None),
    ],
    ids=["3-fold-9", "3-fold-12", "3-fold-300", "2-fold-14", "2-fold-200",
         "snake-11", "snake-301"],
)
def test_canonical_of_symmetric_triangulations(t, shift):
    # several images tie for least here: their whole key sequences are equal
    n = t.n
    if shift is None:  # the snake of odd n is fixed by the reflection v -> (n+3)/2 - v
        assert t.dihedral_images()[n + (n + 3) // 2] == t
    else:
        assert t.rotated(shift) == t
    canon = canonical_by_sorting(n, t.diagonals)
    assert sum(img.diagonals == canon for img in t.dihedral_images()) >= 2
    image = random_image(t, random.Random(n))
    assert t.canonical().diagonals == image.canonical().diagonals == canon


def test_canonical_with_many_offset_two_keys():
    # every odd vertex an ear tip, and the inner polygon on the even
    # vertices fanned from 0: the 200 even vertices' keys all start with
    # offset 2 and differ only further in
    n = 400
    rim = [(v, v + 2) for v in range(0, n - 2, 2)] + [(0, n - 2)]
    fan = [(0, v) for v in range(4, n - 2, 2)]
    t = Triangulation(n, tuple(sorted(rim + fan)))
    assert t.ear_count() == n // 2
    canon = t.canonical()
    assert canon.diagonals == canonical_by_sorting(n, t.diagonals)
    assert all(img.canonical() == canon for img in t.dihedral_images())


# -- disjointness predicate ----------------------------------------------------


@pytest.mark.parametrize("n", range(4, 8))
def test_disjoint_symmetric(n):
    ts = all_triangulations(n)
    for t1 in ts:
        for t2 in ts:
            assert t1.is_disjoint_from(t2) == t2.is_disjoint_from(t1)
            assert t1.is_disjoint_from(t2) == (
                not set(t1.diagonals) & set(t2.diagonals)
            )


@pytest.mark.parametrize("n", range(4, 13))
def test_diagonal_masks_are_distinct_single_bits(n):
    masks = [Triangulation._trusted(n, (d,)).mask for d in all_diagonals(n)]
    assert all(m > 0 and m & (m - 1) == 0 for m in masks)
    assert len(set(masks)) == len(masks)


def test_disjoint_size_mismatch():
    with pytest.raises(ValueError):
        Triangulation.parse("4:0-2").is_disjoint_from(Triangulation.parse("5:0-2,0-3"))


# -- text format ---------------------------------------------------------------


def test_parse_format_round_trip():
    for n in range(3, 9):
        for t in all_triangulations(n):
            assert Triangulation.parse(str(t)) == t


def test_text_is_built_once_and_shared_with_the_figure():
    t = Triangulation.parse("6:0-4,0-2,2-4")
    text = str(t)
    assert text == "6:0-2,0-4,2-4"
    assert str(t) is text
    assert f"  <title>{text}</title>\n" in render_svg(t)
    assert str(t) is text  # the figure read the same cached string


# sha256 of render_svg(t, "both"), str(t.canonical()) and
# repr(t.dual_tree().edges), written by the routines that built each
# vertex's neighbours in a list and sorted the triangles, ears and edges
OBJECT_MODEL_SHA256 = {
    "arrow": ("5298bb0cfdebda0f3430941b326fe953997daa40f352151a57efd7a7d60c9ed6",
              "84a0c620997b31494913df60bd30541d8c4764e1c594aa69326e497fc9c0e570",
              "5d978037fd4b3149aee382e5ae0d3f8e651a850d5e7e048b51838ee9f5ff17a4"),
    "snake": ("6201b0b460883470eb1f350c0070212c22e6c18bb1976b74302436a2a5969dcd",
              "24f9a4cb6556f80fd7b4e0bf2fdbc764a4a689d178be5f5e76e0d809073b2417",
              "4d4e3a08bdc4ebdf6618af13e5c9bd766e08d7f460d0dbe2cd90362db2655ffa"),
    "three-ear": ("87aedd1338295d0d7b3efeaa4c75fda5ad4835f3ad3718bb07ba23dc5c19516b",
                  "332ca3da061d0f09c8bb0722ed6c18f65db1e120b2b8e4f2a933c84c6f0551c0",
                  "590acfb4e35b66c0ef4cc85f501ce061828eef8d2f3eb90eb35853f39a9c9a27"),
}


@pytest.mark.parametrize("name", sorted(OBJECT_MODEL_SHA256))
def test_figure_canonical_text_and_dual_tree_are_pinned_at_n_500(name):
    t = {"arrow": arrow, "snake": snake,
         "three-ear": lambda n: three_ear_rep(n, (100, 150, 247))}[name](500)
    outputs = (render_svg(t, "both"), str(t.canonical()), repr(t.dual_tree().edges))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in outputs)
    assert digests == OBJECT_MODEL_SHA256[name]


def test_parse_accepts_unsorted_input():
    assert Triangulation.parse("6:0-4,0-2,2-4") == Triangulation.parse("6:0-2,2-4,0-4")


# one instance of each fault the constructor names: its pairs, its text
# and a pattern of the message
CONSTRUCTOR_FAULTS = [
    (((0, 2), (2, 4), (0, 7)), "6:0-2,2-4,0-7", "out of range"),
    (((0, 1), (2, 4), (0, 4)), "6:0-1,2-4,0-4", "side"),
    (((0, 5), (2, 4), (0, 4)), "6:0-5,2-4,0-4", "side"),  # the closing side
    (((0, 2), (2, 4)), "6:0-2,2-4", "has 3 diagonals, got 2"),
    (((0, 2), (2, 4), (0, 4), (1, 3)), "6:0-2,2-4,0-4,1-3", "has 3 diagonals, got 4"),
    (((0, 2), (0, 2), (2, 4)), "6:0-2,0-2,2-4", "duplicate"),
    (((0, 2), (1, 3), (0, 4)), "6:0-2,1-3,0-4", "cross"),
    (((0, 2), (2, 4), (0, 4.0)), "6:0-2,2-4,0-4.0", "ints"),
]


def test_parse_rejections():
    bad = [
        "6:0-2,2-4,4-0",  # pair not a < b
        "6;0-2",  # no colon
        "x:0-2",  # bad n
        "6:0+2,2-4,0-4",  # bad pair separator
        "6:0-2-4,2-4,0-4",  # three vertices in one pair
        "6:0--4,2-4,0-4",  # a second '-', read as a sign
    ]
    for text in bad:
        with pytest.raises(ValueError):
            Triangulation.parse(text)
    for _, text, fault in CONSTRUCTOR_FAULTS:
        with pytest.raises(ValueError, match=fault):
            Triangulation.parse(text)


@pytest.mark.parametrize("n", [16, 17, 40])
def test_fan_text_round_trips(n):
    t = arrow(n)
    assert str(t) == f"{n}:" + ",".join(f"1-{b}" for b in range(3, n))
    assert Triangulation.parse(str(t)) == t


@pytest.mark.parametrize("n", [16, 17])
def test_most_eared_listing_round_trips(n):
    # the most-eared listing is short: 264 lines at n = 16, 7,293 at 17
    lines = listing(n, n // 2)
    assert len(set(lines)) == len(lines) == hurtado_noy(n, n // 2)
    assert all(str(Triangulation.parse(line)) == line for line in lines)


def test_parse_triangle():
    t = Triangulation.parse("3:")
    assert t.n == 3 and t.diagonals == ()
    assert str(t) == "3:"


def test_constructor_validates_by_default():
    with pytest.raises(ValueError):
        Triangulation(6, ((0, 2), (1, 3), (0, 4)))
    # normalization sorts the diagonals
    t = Triangulation(6, ((0, 4), (0, 2), (2, 4)))
    assert t.diagonals == ((0, 2), (0, 4), (2, 4))
    # and orders each pair, so the stored pairs are the ones checked
    reversed_pair = Triangulation(6, ((4, 0), (0, 2), (2, 4)))
    assert reversed_pair == t
    assert str(reversed_pair) == "6:0-2,0-4,2-4"
    for diags, _, fault in CONSTRUCTOR_FAULTS:
        with pytest.raises(ValueError, match=fault):
            Triangulation(6, diags)
    for entry in (None, (0, 2, 4), ("0", 4)):
        with pytest.raises(ValueError, match="pair|ints"):
            Triangulation(6, ((0, 2), (2, 4), entry))


def test_constructor_has_no_unchecked_path():
    # the pairs of a public Triangulation are always checked and normalized
    with pytest.raises(TypeError):
        Triangulation(6, ((4, 0), (0, 2), (2, 4)), validate=False)
    t = Triangulation(6, ((4, 0), (0, 2), (2, 4)))
    assert t.diagonals == ((0, 2), (0, 4), (2, 4))
    assert str(t) == "6:0-2,0-4,2-4"
