"""Counting formulas: Catalan, ear censuses, symmetry class counts."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from helpers import (
    class_census_by_enumeration,
    ear_census_by_enumeration,
    least_dihedral_image,
    orbit_count_by_canonical,
    random_triangulation,
    rotation_symmetric,
    segner_catalan,
)

from polytri.compositions import count_classes
from polytri.counting import (
    _class_census,
    _class_keys,
    _glue_ears,
    catalan,
    catalan_list,
    catalan_partial_convolution,
    ear_census,
    hurtado_noy,
    max_ears,
    quiddity_key,
    symmetry_classes_2ear,
    symmetry_classes_3ear,
    symmetry_classes_orbit,
)
from polytri.disjoint import arrow, snake
from polytri.triangulation import enumerate_triangulations

# frozen prefix, derived from the Segner recurrence (see helpers.py)
CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def test_catalan_list_matches_binomial_form():
    assert catalan_list(-1) == []
    assert catalan_list(1500) == [catalan(k) for k in range(1501)]


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


def test_ear_census_spec_examples():
    assert ear_census(6) == {2: 12, 3: 2}
    assert ear_census(7) == {2: 28, 3: 14}
    assert ear_census(4) == {2: 2}


def test_hurtado_noy_sum_is_catalan_to_30():
    for n in range(4, 31):
        total = sum(hurtado_noy(n, k) for k in range(2, max_ears(n) + 1))
        assert total == catalan(n - 2), n


def test_census_rejects():
    with pytest.raises(ValueError):
        ear_census(3)
    with pytest.raises(ValueError):
        ear_census(6, "magic")


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


@pytest.mark.parametrize("n", range(3, 13))
def test_class_census_matches_enumeration_oracle(n):
    assert _class_census(n) == class_census_by_enumeration(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_glue_ears_glues_one_ear_onto_every_side(n):
    for key in _class_keys(n):
        expected = []
        for v in range(n):
            r = key[v + 1:] + key[:v + 1]  # ends at v, so side (v, v+1) closes it
            expected.append(least_dihedral_image([r[0] + 1, *r[1:-1], r[-1] + 1, 1]))
        assert Counter(map(least_dihedral_image, _glue_ears(key))) == Counter(expected), key


@pytest.mark.parametrize("n", range(5, 14))
def test_class_keys_have_no_orphan_child(n):
    # removing any ear of a class at n+1 lands in a class at n
    parents = _class_keys(n)
    assert len(parents) == symmetry_classes_orbit(n)
    for key in _class_keys(n + 1):
        assert key == least_dihedral_image(key)
        for i, q in enumerate(key):
            if q != 1:
                continue
            parent = list(key[i + 1:] + key[:i])  # the ear's right neighbour first
            parent[0] -= 1
            parent[-1] -= 1
            assert least_dihedral_image(parent) in parents, (key, i)


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
