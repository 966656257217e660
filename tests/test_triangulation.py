"""Core triangulation structure: crossing, enumeration, ears, dual trees,
dihedral action, text format."""

from __future__ import annotations

import gc
import os
import random
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
from polytri.disjoint import arrow, snake, three_ear_rep
import polytri
from polytri import triangulation
from polytri.counting import ear_census, hurtado_noy
from polytri.triangulation import (
    ENUMERATION_CEILING,
    _CODE_BASE,
    _SHAPE_CACHE_MAX,
    Triangulation,
    _cached_shapes,
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
    return [decoded(shape) for shape, _ in _eared_shapes(n, -1, _ear_count_set(n, -1))]


@pytest.mark.parametrize("n", range(3, 13))
def test_diagonal_tuples_match_recursive_oracle(n):
    # the same tuples, diagonal order included, in the same order
    assert all_shapes(n) == list(diagonal_sets_by_recursion(tuple(range(n))))


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


def test_codes_stand_for_one_pair_up_to_the_ceiling():
    # a code a * _CODE_BASE + b decodes to one pair only while b < _CODE_BASE
    assert _CODE_BASE > ENUMERATION_CEILING
    t = next(enumerate_triangulations(ENUMERATION_CEILING))
    # the checked constructor sorts, so this also holds the stored order
    assert Triangulation(t.n, t.diagonals) == t


@pytest.mark.parametrize("n", [12, 13])
def test_ear_listing_matches_the_filter(n):
    # above the shape cache bound, so the whole polygon is split
    expected = listings_by_filter(n)
    for ears in range(2, n // 2 + 2):
        assert listing(n, ears) == expected.get(ears, [])


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


AS_LIMIT = 150 * 2**20  # bytes of address space for the child below


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(polytri.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
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
    ]
    for text in bad:
        with pytest.raises(ValueError):
            Triangulation.parse(text)
    for _, text, fault in CONSTRUCTOR_FAULTS:
        with pytest.raises(ValueError, match=fault):
            Triangulation.parse(text)


@pytest.mark.parametrize("n", [16, 17, 40])
def test_text_on_both_sides_of_the_stored_table(n):
    t = arrow(n)
    assert str(t) == f"{n}:" + ",".join(f"1-{b}" for b in range(3, n))
    assert Triangulation.parse(str(t)) == t


@pytest.mark.parametrize("n", [16, 17])
def test_listing_text_on_both_sides_of_the_stored_table(n):
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
