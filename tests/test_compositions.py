"""Compositions, bar sets, the Klein four-group action, pointing strings."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from helpers import (
    all_triangulations,
    bar_mask_by_sums,
    bar_set_by_sums,
    composition_class_by_tuples,
    composition_from_bars,
    compositions_by_mask,
    compositions_by_parts,
    conjugate_by_bars,
    count_classes_by_mask_images,
    count_classes_by_tuples,
    format_composition,
    parse_composition,
    pointing_from_composition,
    pointing_string_by_dual_tree,
)
from hypothesis import given
from hypothesis import strategies as st

from polytri.compositions import (
    _reversals,
    all_mask_images,
    composition_class,
    composition_from_pointing,
    composition_of,
    count_classes,
    count_fixed,
    enumerate_compositions,
    mask_images,
    pointing_string,
    two_eared_from_pointing,
)
from polytri.triangulation import Triangulation, enumerate_triangulations

compositions_strategy = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=12
).map(tuple)


# -- enumeration and bar sets -------------------------------------------------


@pytest.mark.parametrize("m", range(1, 13))
def test_composition_count_and_distinct(m):
    comps = list(enumerate_compositions(m))
    assert len(comps) == 2 ** (m - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == m for c in comps)


@pytest.mark.parametrize("m", range(1, 17))
def test_enumeration_matches_per_mask_oracle(m):
    assert list(enumerate_compositions(m)) == compositions_by_mask(m)


@pytest.mark.parametrize("m", range(1, 13))
def test_enumeration_matches_part_by_part_oracle(m):
    # the tables are filled by _composition, so only this oracle shares
    # nothing with them
    assert list(enumerate_compositions(m)) == sorted(compositions_by_parts(m), key=bar_mask_by_sums)


@pytest.mark.parametrize("m", range(1, 13))
def test_reversals_match_reversed_part_tuples(m):
    by_mask = sorted(compositions_by_parts(m), key=bar_mask_by_sums)
    assert list(_reversals(m - 1)) == [bar_mask_by_sums(c[::-1]) for c in by_mask]


@pytest.mark.parametrize("m", range(1, 17))
def test_all_mask_images_match_per_mask_images(m):
    assert list(all_mask_images(m)) == [mask_images(m, x) for x in range(2 ** (m - 1))]


def _first_traced(iterator):
    """(first item, seconds, traced peak bytes) of next(iterator)."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        first = next(iterator)
        elapsed = time.perf_counter() - start
        return first, elapsed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_routines_are_bounded_at_large_m():
    # the tables stop at 2^8 entries, so the first item at m = 60 costs
    # what it costs at m = 9, not a table of 2^30 entries
    full = (1 << 59) - 1
    for iterator, expected in [
        (enumerate_compositions(60), (60,)),
        (all_mask_images(60), (0, 0, full, full)),
    ]:
        first, elapsed, peak = _first_traced(iterator)
        assert first == expected
        assert elapsed < 0.1
        assert peak < 5 * 2**20


def test_enumeration_endpoints():
    comps = list(enumerate_compositions(5))
    assert comps[0] == (5,)
    assert comps[-1] == (1, 1, 1, 1, 1)
    assert set(enumerate_compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


@given(compositions_strategy)
def test_bar_set_round_trip(comp):
    m = sum(comp)
    assert composition_from_bars(m, bar_set_by_sums(comp)) == comp
    assert bar_set_by_sums(comp) <= set(range(1, m))


def test_bar_set_examples():
    assert sorted(bar_set_by_sums((2, 5, 1))) == [2, 7]
    assert bar_set_by_sums((4,)) == frozenset()
    assert composition_from_bars(8, [2, 7]) == (2, 5, 1)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        list(enumerate_compositions(0))
    with pytest.raises(ValueError):
        composition_class((2, 0, 1))
    with pytest.raises(ValueError):
        composition_from_bars(4, [4])
    for bars in ([1.5], [2.0], [1, "2"]):
        with pytest.raises(ValueError, match=r"bars must lie in 1\.\.3"):
            composition_from_bars(4, bars)
    with pytest.raises(ValueError):
        count_fixed(3, "transpose")


@pytest.mark.parametrize("refused", [
    lambda: list(all_mask_images(0)),
    lambda: count_fixed(0, "reversal"),
], ids=["all-mask-images", "count-fixed"])
def test_bulk_and_fixed_counts_refuse_m_below_one(refused):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == "m must be positive, got 0"


@pytest.mark.parametrize("refused", [
    lambda: count_classes(5.0, "direct"),
    lambda: list(enumerate_compositions(5.0)),
    lambda: count_fixed(5.0, "reversal"),
    lambda: list(all_mask_images(5.0)),
    lambda: count_classes(5.0),
], ids=["count-classes-direct", "enumerate", "count-fixed", "all-mask-images",
        "count-classes-closed"])
def test_bulk_and_fixed_counts_refuse_an_m_that_is_not_an_int(refused):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == "m must be an int, got 5.0"


# -- the involutions -----------------------------------------------------------


def test_conjugate_examples():
    assert conjugate_by_bars((2, 1)) == (1, 2)
    assert conjugate_by_bars((3,)) == (1, 1, 1)
    assert conjugate_by_bars((1,)) == (1,)
    assert conjugate_by_bars((2, 5, 1)) == composition_from_bars(8, [1, 3, 4, 5, 6])


@given(compositions_strategy)
def test_involutions_and_commutation(comp):
    m = sum(comp)
    mask, rev, conj, conj_rev = mask_images(m, bar_mask_by_sums(comp))
    assert mask_images(m, rev)[1] == mask_images(m, conj)[2] == mask
    assert mask_images(m, rev)[2] == mask_images(m, conj)[1] == conj_rev


@given(compositions_strategy)
def test_conjugate_complements_bars(comp):
    m = sum(comp)
    conj = mask_images(m, bar_mask_by_sums(comp))[2]
    bars = {b for b in range(1, m) if conj >> (b - 1) & 1}
    assert bars == frozenset(range(1, m)) - bar_set_by_sums(comp)


@pytest.mark.parametrize("m", range(1, 15))
def test_routines_match_tuple_oracles(m):
    comps = list(enumerate_compositions(m))
    assert sorted(comps) == sorted(compositions_by_parts(m))
    for comp in comps:
        assert composition_class(comp) == composition_class_by_tuples(comp)
        orbit = (comp, comp[::-1], conjugate_by_bars(comp), conjugate_by_bars(comp[::-1]))
        assert mask_images(m, bar_mask_by_sums(comp)) == tuple(map(bar_mask_by_sums, orbit))


@pytest.mark.parametrize("m", range(1, 11))
def test_class_sizes_divide_four(m):
    total = 0
    for comp in enumerate_compositions(m):
        cls = composition_class(comp)
        assert len(cls) in (1, 2, 4)
        assert all(sum(c) == m for c in cls)
        total += 1
    assert total == 2 ** (m - 1)


# -- fixed points and class counts ----------------------------------------------


@pytest.mark.parametrize("m", range(1, 17))
def test_count_fixed_against_filtering(m):
    images = list(all_mask_images(m))
    assert count_fixed(m, "reversal") == sum(rev == mask for mask, rev, _, _ in images)
    assert count_fixed(m, "conjugation") == sum(conj == mask for mask, _, conj, _ in images)
    assert count_fixed(m, "conj_rev") == sum(cr == mask for mask, _, _, cr in images)


def test_count_fixed_spec_values():
    assert count_fixed(4, "reversal") == 4
    assert count_fixed(5, "conjugation") == 0
    assert count_fixed(1, "conjugation") == 1
    assert count_fixed(3, "conj_rev") == 2
    assert count_fixed(4, "conj_rev") == 0


@pytest.mark.parametrize("m", range(2, 17))
def test_count_classes_methods_agree(m):
    direct = count_classes(m, "direct")
    assert count_classes(m, "closed") == direct
    assert count_classes(m, "burnside") == direct


@pytest.mark.parametrize("m", range(1, 15))
def test_count_classes_direct_matches_tuple_oracle(m):
    assert count_classes(m, "direct") == count_classes_by_tuples(m)


@pytest.mark.parametrize("m", range(1, 21))
def test_count_classes_direct_matches_mask_image_oracle(m):
    # the half scan against the least-of-four-images count over every mask
    assert count_classes(m, "direct") == count_classes_by_mask_images(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 17, 64, 201])
def test_count_classes_closed_matches_rational_formula(m):
    value = Fraction(2) ** (m - 3) + Fraction(2) ** ((m - 3) // 2)
    got = count_classes(m, "closed")
    assert type(got) is int and got == value  # m = 2: 2^-1 + 2^-1 = 1


def test_count_classes_values():
    assert count_classes(4) == 3
    assert count_classes(5) == 6
    assert count_classes(2) == 1
    assert count_classes(1, "direct") == 1
    assert count_classes(1, "burnside") == 1
    with pytest.raises(ValueError):
        count_classes(1, "closed")
    with pytest.raises(ValueError):
        count_classes(4, "montecarlo")


# -- text formats ----------------------------------------------------------------


def test_composition_text_round_trip():
    assert parse_composition("2+5+1") == (2, 5, 1)
    assert format_composition((2, 5, 1)) == "2+5+1"
    for comp in enumerate_compositions(6):
        assert parse_composition(format_composition(comp)) == comp
    for bad in ["", "2+0+1", "2++1", "a+b"]:
        with pytest.raises(ValueError):
            parse_composition(bad)


# -- pointing strings --------------------------------------------------------------


def test_standard_construction_worked_example():
    t = two_eared_from_pointing("DUDDDDU")
    assert str(t) == "11:1-10,2-9,2-10,3-9,4-9,5-9,6-8,6-9"
    assert t.ears() == ((0, 1, 10), (6, 7, 8))
    tris = t.triangles()
    assert (2, 9, 10) in tris and (6, 8, 9) in tris
    assert composition_of(t) == (2, 5, 1)


def test_standard_construction_small():
    assert str(two_eared_from_pointing("D")) == "5:1-4,2-4"
    assert str(two_eared_from_pointing("U")) == "5:1-3,1-4"


@pytest.mark.parametrize("n", range(5, 13))
def test_pointing_round_trip_exhaustive(n):
    for bits in product("UD", repeat=n - 4):
        s = "".join(bits)
        t = two_eared_from_pointing(s)
        assert t.n == n
        assert t.ear_count() == 2
        assert pointing_string(t) == s


def test_pointing_string_matches_dual_tree_oracle_exhaustive():
    two_eared = [
        t for n in range(5, 13) for t in all_triangulations(n) if t.ear_count() == 2
    ]
    assert len(two_eared) == 2813
    for t in two_eared:
        assert pointing_string(t) == pointing_string_by_dual_tree(t)


@pytest.mark.parametrize("n", [20, 50, 200])
def test_pointing_string_matches_dual_tree_oracle_on_images(n):
    rng = random.Random(n)
    for _ in range(2):
        t = two_eared_from_pointing("".join(rng.choice("UD") for _ in range(n - 4)))
        for img in t.dihedral_images():
            assert pointing_string(img) == pointing_string_by_dual_tree(img)


@pytest.mark.parametrize("n", range(5, 12))
def test_pointing_string_matches_dual_tree_oracle_on_every_image(n):
    for t in all_triangulations(n):
        if t.ear_count() == 2:
            for img in t.dihedral_images():
                assert pointing_string(img) == pointing_string_by_dual_tree(img)


def test_pointing_composition_round_trip():
    for m in range(2, 11):
        for comp in enumerate_compositions(m):
            assert composition_from_pointing(pointing_from_composition(comp)) == comp


@pytest.mark.parametrize("n", range(5, 10))
def test_readings_of_dihedral_images_stay_in_class(n):
    """Any relabeling of a 2-eared triangulation reads to the same class."""
    for t in enumerate_triangulations(n):
        if t.ear_count() != 2:
            continue
        cls = composition_class(composition_of(t))
        for img in t.dihedral_images():
            assert composition_of(img) in cls


@pytest.mark.parametrize("n", range(5, 11))
def test_two_eared_standard_forms_cover_all_classes(n):
    """Every 2-eared symmetry class contains a standard-position form."""
    standard = {
        two_eared_from_pointing("".join(bits)).canonical()
        for bits in product("UD", repeat=n - 4)
    }
    all_two_eared = {
        t.canonical() for t in enumerate_triangulations(n) if t.ear_count() == 2
    }
    assert standard == all_two_eared


def test_pointing_rejects_bad_inputs():
    with pytest.raises(ValueError, match="^triangulation has 3 ears, need exactly 2$"):
        pointing_string(Triangulation.parse("6:0-2,2-4,0-4"))
    with pytest.raises(ValueError):
        pointing_string(Triangulation.parse("4:0-2"))  # n < 5
    with pytest.raises(ValueError):
        two_eared_from_pointing("DUX")
    with pytest.raises(ValueError):
        two_eared_from_pointing("")
    with pytest.raises(ValueError):
        pointing_from_composition((1,))
