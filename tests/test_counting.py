"""Counting formulas: Catalan, ear censuses, symmetry class counts."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from helpers import (
    class_census_by_enumeration,
    class_total_by_burnside,
    ear_census_by_enumeration,
    hurtado_noy_by_fractions,
    least_dihedral_image,
    orbit_count_by_canonical,
    quiddity_key,
    random_triangulation,
    rotation_symmetric,
    segner_catalan,
    three_ear_classes_by_fractions,
)

from polytri import counting, triangulation
from polytri.compositions import count_classes
from polytri.counting import (
    _class_keys,
    _exact_quotient,
    _glue_ears,
    catalan,
    catalan_list,
    catalan_step,
    catalan_partial_convolution,
    ear_census,
    hurtado_noy,
    max_ears,
    symmetry_classes_2ear,
    symmetry_classes_3ear,
    symmetry_classes_orbit,
)
from polytri.disjoint import arrow, disjoint_two_eared, snake
from polytri.triangulation import _least_rotation, enumerate_triangulations

# frozen prefix, derived from the Segner recurrence (see helpers.py)
CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_list_matches_binomial_form():
    assert catalan_list(-1) == []
    assert catalan_list(1500) == [catalan(k) for k in range(1501)]


def test_catalan_step_matches_catalan_and_refuses_an_inexact_ratio():
    for k in [*range(1, 401), 5000, 7150, 20000]:
        assert catalan_step(k, catalan(k - 1)) == catalan(k)
    with pytest.raises(ArithmeticError, match=r"C\(3\) by the ratio is not an integer"):
        catalan_step(3, 1)  # 1 * 10 / 4


def test_every_catalan_route_checks_its_division(monkeypatch):
    monkeypatch.setattr(counting, "comb", lambda n, k: 7)  # 7 / 4 at k = 3
    with pytest.raises(ArithmeticError, match=r"^C\(3\) by the binomial is not an integer$"):
        catalan(3)
    monkeypatch.undo()
    steps = []
    monkeypatch.setattr(counting, "catalan_step",
                        lambda k, before: steps.append((k, before)) or catalan_step(k, before))
    assert catalan_list(4) == CATALAN_PREFIX[:5]
    assert steps == [(k, CATALAN_PREFIX[k - 1]) for k in range(1, 5)]


def test_catalan_against_recurrence():
    assert catalan_list(12) == CATALAN_PREFIX
    for k in range(25):
        assert catalan(k) == segner_catalan(k)
    with pytest.raises(ValueError):
        catalan(-1)


def test_partial_convolution():
    # S(n, n-4) is the full convolution C(n-3)
    for n in range(4, 15):
        assert catalan_partial_convolution(n, n - 4) == catalan(n - 3)
        assert catalan_partial_convolution(n, -1) == 0
    assert catalan_partial_convolution(7, 1) == catalan(0) * catalan(3) + catalan(
        1
    ) * catalan(2)
    with pytest.raises(ValueError):
        catalan_partial_convolution(7, 4)
    with pytest.raises(ValueError):
        catalan_partial_convolution(7, -2)


# -- ear counts -----------------------------------------------------------------


def test_hurtado_noy_spec_values():
    assert hurtado_noy(6, 2) == 12
    assert hurtado_noy(6, 3) == 2
    assert hurtado_noy(11, 2) == 704
    assert hurtado_noy(8, 3) == 64
    assert hurtado_noy(6, 4) == 0  # more ears than floor(n/2)
    with pytest.raises(ValueError):
        hurtado_noy(6, 1)
    with pytest.raises(ValueError):
        hurtado_noy(3, 2)
    with pytest.raises(ValueError, match=r"^ear counts need n >= 4, got 3$"):
        hurtado_noy(3, 1)  # n is checked before k


def test_hurtado_noy_equals_rational_oracle_to_300():
    for n in range(4, 301):
        for k in range(2, max_ears(n) + 3):
            assert hurtado_noy(n, k) == hurtado_noy_by_fractions(n, k), (n, k)


def test_exact_quotient_divides_or_names_the_formula():
    assert _exact_quotient(1 << 200, 1 << 100, "x") == 1 << 100
    with pytest.raises(ArithmeticError, match=r"^sample formula at n=7 is not an integer$"):
        _exact_quotient(15, 4, "sample formula at n=7")


def test_exact_quotient_formats_its_message_only_when_the_division_fails():
    assert _exact_quotient(8, 2, "{} {}") == 4  # formatted with no args, it would raise
    with pytest.raises(ArithmeticError, match=r"^sample formula at n=7, k=3 is not an integer$"):
        _exact_quotient(15, 4, "sample formula at n={}, k={}", 7, 3)


def test_exact_quotient_message_leaves_out_a_numerator_too_long_to_print():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    try:
        with pytest.raises(ArithmeticError, match=r"^huge formula is not an integer$"):
            _exact_quotient((1 << 20000) + 1, 2, "huge formula")
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("n", range(4, 13))
def test_ear_census_formula_equals_brute(n):
    formula = ear_census(n, "formula")
    brute = ear_census(n, "brute")
    assert formula == brute
    assert sum(formula.values()) == catalan(n - 2)
    assert set(formula) == set(range(2, max_ears(n) + 1))


@pytest.mark.parametrize("n", range(4, 13))
def test_ear_census_brute_matches_enumeration_oracle(n):
    tally = ear_census_by_enumeration(n)
    assert ear_census(n, "brute") == {k: tally[k] for k in range(2, max_ears(n) + 1)}
    assert set(tally) <= set(range(2, max_ears(n) + 1))


@pytest.mark.parametrize("n", range(4, 13))
def test_ear_census_brute_carries_counts_through_every_split(monkeypatch, n):
    # with nothing above a triangle cached, every tuple's ear count is
    # the one the split recursion carries, not a cached shape's
    monkeypatch.setattr(triangulation, "_SHAPE_CACHE_MAX", 3)
    tally = ear_census_by_enumeration(n)
    assert ear_census(n, "brute") == {k: tally[k] for k in range(2, max_ears(n) + 1)}


def test_ear_census_spec_examples():
    assert ear_census(6) == {2: 12, 3: 2}
    assert ear_census(7) == {2: 28, 3: 14}
    assert ear_census(4) == {2: 2}


def test_hurtado_noy_sum_is_catalan_to_30():
    for n in range(4, 31):
        total = sum(hurtado_noy(n, k) for k in range(2, max_ears(n) + 1))
        assert total == catalan(n - 2), n


def test_census_rejects():
    with pytest.raises(ValueError, match=r"^ear counts need n >= 4, got 3$"):
        ear_census(3)
    with pytest.raises(ValueError):
        ear_census(6, "magic")


def test_orbit_census_refuses_fewer_than_three_vertices():
    with pytest.raises(ValueError, match=r"^polygon needs at least 3 vertices, got n=2$"):
        symmetry_classes_orbit(2)


@pytest.mark.parametrize("refused, message", [
    (lambda: max_ears(6.5), "polygon size must be an int, got 6.5"),
    (lambda: catalan(4.0), "k must be an int, got 4.0"),
    (lambda: catalan_list(4.0), "upto must be an int, got 4.0"),
    (lambda: hurtado_noy(6.0, 2), "polygon size must be an int, got 6.0"),
    (lambda: ear_census(6.0), "polygon size must be an int, got 6.0"),
    (lambda: symmetry_classes_2ear(7.0), "polygon size must be an int, got 7.0"),
    (lambda: symmetry_classes_3ear(7.0), "polygon size must be an int, got 7.0"),
    (lambda: disjoint_two_eared(7.0), "polygon size must be an int, got 7.0"),
    (lambda: catalan_partial_convolution(7, 1.0), "k must be an int, got 1.0"),
    (lambda: catalan_partial_convolution(7.0, 1), "polygon size must be an int, got 7.0"),
], ids=["max_ears", "catalan", "catalan_list", "hurtado_noy", "ear_census",
        "symmetry_classes_2ear", "symmetry_classes_3ear", "disjoint_two_eared",
        "partial_convolution-k", "partial_convolution-n"])
def test_closed_forms_refuse_an_argument_that_is_not_an_int(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message
    assert [catalan(k) for k in (0, 1, 2)] == [1, 1, 2]


# -- symmetry class counts ---------------------------------------------------------


def test_two_ear_classes_spec_values():
    assert symmetry_classes_2ear(6) == 2
    assert symmetry_classes_2ear(7) == 3
    assert symmetry_classes_2ear(11) == 36
    with pytest.raises(ValueError):
        symmetry_classes_2ear(4)  # formula not integral there; true count is 1


@pytest.mark.parametrize("n", range(5, 13))
def test_two_ear_classes_closed_equals_orbit(n):
    assert symmetry_classes_2ear(n) == symmetry_classes_orbit(n, ears=2)


def test_two_ear_orbit_square():
    assert symmetry_classes_orbit(4, ears=2) == 1


@pytest.mark.parametrize("n", range(5, 17))
def test_two_ear_classes_equal_composition_classes(n):
    assert symmetry_classes_2ear(n) == count_classes(n - 3, "direct")


def test_three_ear_classes_spec_values():
    assert symmetry_classes_3ear(6) == 1
    assert symmetry_classes_3ear(8) == 5
    assert symmetry_classes_3ear(9) == 14
    with pytest.raises(ValueError):
        symmetry_classes_3ear(5)


def test_three_ear_classes_equal_rational_oracle_to_300():
    for n in range(6, 301):
        assert symmetry_classes_3ear(n) == three_ear_classes_by_fractions(n), n


@pytest.mark.parametrize("n", range(6, 13))
def test_three_ear_classes_closed_equals_orbit(n):
    assert symmetry_classes_3ear(n) == symmetry_classes_orbit(n, ears=3)


def test_orbit_unfiltered_hexagon():
    # fan class, snake class, pinwheel class
    assert symmetry_classes_orbit(6) == 3


def test_orbit_counts_triangle_and_square():
    assert symmetry_classes_orbit(3) == 1
    assert symmetry_classes_orbit(4) == 1


@pytest.mark.parametrize("n", range(3, 12))
def test_orbit_census_matches_canonical_oracle(n):
    assert symmetry_classes_orbit(n) == orbit_count_by_canonical(n)
    if n >= 4:
        for ears in range(2, max_ears(n) + 2):  # one past the largest: 0 classes
            assert symmetry_classes_orbit(n, ears=ears) == orbit_count_by_canonical(n, ears), ears


@pytest.mark.parametrize("n", range(3, 15))
def test_class_total_matches_burnside(n):
    assert symmetry_classes_orbit(n) == class_total_by_burnside(n)


def test_burnside_oracle_spec_values():
    # OEIS A000207, the triangulations of the n-gon up to rotation and reflection
    assert [class_total_by_burnside(n) for n in range(3, 17)] == [
        1, 1, 1, 3, 4, 12, 27, 82, 228, 733, 2282, 7528, 24834, 83898,
    ]


def _census(n: int, most: int | None) -> Counter[int]:
    # {ear count: number of symmetry classes} of the keys capped at `most`
    return Counter(key.count(1) for key in _class_keys(n, most))


@pytest.mark.parametrize("n", range(3, 13))
def test_class_census_matches_enumeration_oracle(n):
    assert _census(n, None) == class_census_by_enumeration(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_glue_ears_glues_one_ear_onto_every_side(n):
    for key in _class_keys(n, None):
        expected = []
        for v in range(n):
            r = key[v + 1:] + key[:v + 1]  # ends at v, so side (v, v+1) closes it
            expected.append(least_dihedral_image([r[0] + 1, *r[1:-1], r[-1] + 1, 1]))
        assert Counter(map(least_dihedral_image, _glue_ears(key))) == Counter(expected), key


@pytest.mark.parametrize("n", range(5, 14))
def test_class_keys_have_no_orphan_child(n):
    # removing any ear of a class at n+1 lands in a class at n with as many
    # ears or one fewer: the lemma behind the census's ear cap
    parents = _class_keys(n, None)
    assert len(parents) == symmetry_classes_orbit(n)
    for key in _class_keys(n + 1, None):
        assert tuple(key) == least_dihedral_image(key)
        for i, q in enumerate(key):
            if q != 1:
                continue
            parent = list(key[i + 1:] + key[:i])  # the ear's right neighbour first
            parent[0] -= 1
            parent[-1] -= 1
            assert bytes(least_dihedral_image(parent)) in parents, (key, i)
            assert key.count(1) - 1 <= parent.count(1) <= key.count(1), (key, i)


@pytest.mark.parametrize("n", range(4, 14))
def test_tip_side_glue_makes_the_capped_children(n):
    # a parent at the cap glued onto its tip sides only: the unpruned
    # children within the cap, in order
    for most in range(2, max_ears(n) + 2):
        for parent in _class_keys(n - 1, most):
            pruned = list(_glue_ears(parent, parent.count(1) >= most))
            kept = [child for child in _glue_ears(parent) if child.count(1) <= most]
            assert pruned == kept, (most, parent)


@pytest.mark.parametrize("n", range(4, 14))
def test_capped_census_matches_the_full_one(n):
    full = _census(n, None)
    for most in range(2, max_ears(n) + 2):
        capped = Counter({k: c for k, c in full.items() if k <= most})
        assert _census(n, most) == capped, most


def test_orbit_census_builds_each_level_once_per_cap():
    # a rising run of n costs one build per cap, and an uncapped run after
    # capped ones reuses none of their levels
    _class_keys.cache_clear()
    ns = range(4, 15)
    got = {}
    for ears in (2, 3, None):
        before = _class_keys.cache_info().misses
        got[ears] = [symmetry_classes_orbit(n, ears=ears) for n in ns]
        assert _class_keys.cache_info().misses - before == len(range(3, 15)), ears
    assert got[2] == [1] + [symmetry_classes_2ear(n) for n in ns[1:]]
    assert got[3] == [0, 0] + [symmetry_classes_3ear(n) for n in ns[2:]]
    assert got[None] == [class_total_by_burnside(n) for n in ns]


def test_orbit_census_answers_falling_and_mixed_cap_calls():
    # each call after the first drops the kept level, so each rebuilds
    expected = {2: symmetry_classes_2ear, 3: symmetry_classes_3ear,
                None: class_total_by_burnside}
    for n, ears in [(14, 3), (9, 2), (12, None), (6, 3), (16, 2)]:
        assert symmetry_classes_orbit(n, ears=ears) == expected[ears](n), (n, ears)


def test_orbit_census_keeps_one_level_of_keys():
    # a census keeps only the last level's keys
    # (2.3 MB stayed traced at n = 14 when every level's keys were kept)
    _class_keys.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        symmetry_classes_orbit(14)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 2**20, kept


# -- the quiddity class key ---------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 11))
def test_quiddity_key_separates_classes_exhaustive(n):
    # one key per canonical form and one canonical form per key
    pairs = set()
    for t in enumerate_triangulations(n):
        key = quiddity_key(n, t.diagonals)
        assert n < 4 or key.count(1) == t.ear_count()
        pairs.add((key, t.canonical().diagonals))
    assert len(pairs) == len({key for key, _ in pairs}) == len({c for _, c in pairs})


@pytest.mark.parametrize("seed", range(20))
def test_least_rotation_matches_every_rotation(seed):
    # few distinct entries, so several rotations tie on their first ones
    rng = random.Random(seed)
    seq = [rng.randint(1, 3) for _ in range(rng.randint(1, 30))]
    got = _least_rotation(seq, seq[::-1], min(seq))
    assert tuple(got) == least_dihedral_image(seq)


@pytest.mark.parametrize("n", [15, 40, 101])
def test_quiddity_key_constant_on_dihedral_images(n):
    rng = random.Random(n)
    shapes = [random_triangulation(n, rng), arrow(n), snake(n)]
    # rotation-symmetric triangulations exist only for n divisible by k
    shapes += [rotation_symmetric(n, k, rng) for k in (2, 3) if n % k == 0]
    for t in shapes:
        keys = {quiddity_key(n, img.diagonals) for img in t.dihedral_images()}
        assert keys == {quiddity_key(n, t.diagonals)}
        assert keys.pop().count(1) == t.ear_count()
