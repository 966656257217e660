"""Disjointness counts: avoidance counting, closed forms, signatures."""

from __future__ import annotations

import random
import sys
from itertools import permutations

import pytest
from helpers import (
    all_diagonals,
    all_triangulations,
    count_avoiding_recursive,
    count_disjoint_by_enumeration,
    dual_tree_shape_key,
    parallel_residue,
    random_triangulation,
    rotation_symmetric,
    signature_groups_by_pairs,
    swap_child_subtrees,
    three_ear_type_by_tree_walk,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import counting, disjoint
from polytri.counting import catalan, catalan_list, catalan_partial_convolution
from polytri.disjoint import (
    arrow,
    avoid_fan_formula,
    count_avoiding,
    count_avoiding_parallel,
    count_disjoint,
    diagonals_with_residue,
    disjoint_inclusion_exclusion,
    disjoint_series,
    disjoint_two_eared,
    fan_prefix_diagonals,
    signature_invariance_check,
    snake,
    three_ear_closed_form,
    three_ear_disjoint,
    three_ear_disjoint_published,
    three_ear_rep,
    three_ear_type,
)
from polytri.triangulation import Triangulation


def brute_count_avoiding(n: int, forbidden) -> int:
    forb = set(forbidden)
    return sum(1 for t in all_triangulations(n) if not forb & frozenset(t.diagonals))


# -- named triangulations -----------------------------------------------------


def test_arrow_and_snake_forms():
    assert str(arrow(4)) == "4:1-3"
    assert str(arrow(6)) == "6:1-3,1-4,1-5"
    assert str(snake(6)) == "6:0-2,2-5,3-5"
    assert frozenset(snake(11).diagonals) == {
        (0, 2), (2, 10), (3, 10), (3, 9), (4, 9), (4, 8), (5, 8), (5, 7),
    }
    with pytest.raises(ValueError):
        arrow(3)
    with pytest.raises(ValueError):
        snake(3)


@pytest.mark.parametrize("n", range(4, 13))
def test_arrow_and_snake_are_two_eared(n):
    assert arrow(n).ear_count() == 2
    assert snake(n).ear_count() == 2


def test_three_ear_rep_examples():
    assert str(three_ear_rep(6, (1, 1, 1))) == "6:0-2,0-4,2-4"
    assert str(three_ear_rep(7, (1, 1, 2))) == "7:0-2,0-4,2-4,4-6"
    t9 = three_ear_rep(9, (2, 2, 2))
    assert t9.internal_triangles() == ((0, 3, 6),)
    with pytest.raises(ValueError):
        three_ear_rep(6, (1, 1, 2))  # wrong sum
    with pytest.raises(ValueError):
        three_ear_rep(7, (0, 2, 2))  # zero branch
    with pytest.raises(ValueError):
        three_ear_rep(7, (1, 3))  # not three parts


@pytest.mark.parametrize("n", range(6, 12))
def test_three_ear_rep_type_round_trip(n):
    for p in range(1, n - 4):
        for q in range(1, n - 3 - p):
            r = n - 3 - p - q
            t = three_ear_rep(n, (p, q, r))
            assert t.ear_count() == 3
            assert t.internal_triangles() == ((0, p + 1, p + q + 2),)
            assert three_ear_type(t) == tuple(sorted((p, q, r), reverse=True))


@pytest.mark.parametrize("n", range(6, 13))
def test_three_ear_type_matches_tree_walk_exhaustive(n):
    three_eared = [t for t in all_triangulations(n) if t.ear_count() == 3]
    assert three_eared
    for t in three_eared:
        assert three_ear_type(t) == three_ear_type_by_tree_walk(t)


@pytest.mark.parametrize("n, ptypes", [
    (50, [(1, 1, 45), (5, 20, 22), (15, 16, 16)]),
    (200, [(1, 96, 100), (30, 70, 97)]),
])
def test_three_ear_type_matches_tree_walk_on_images(n, ptypes):
    for ptype in ptypes:
        want = tuple(sorted(ptype, reverse=True))
        for image in three_ear_rep(n, ptype).dihedral_images():
            assert three_ear_type(image) == three_ear_type_by_tree_walk(image) == want


def test_three_ear_type_rejects_two_eared():
    with pytest.raises(ValueError):
        three_ear_type(arrow(6))


# -- avoidance counting ----------------------------------------------------------


def test_count_avoiding_spec_values():
    assert count_avoiding(6, []) == 14
    assert count_avoiding(6, [(0, 2)]) == 9
    with pytest.raises(ValueError):
        count_avoiding(6, [(0, 1)])  # a side is not a diagonal
    with pytest.raises(ValueError):
        count_avoiding(6, [(0, 6)])


@pytest.mark.parametrize("n", range(4, 10))
def test_count_avoiding_matches_enumeration(n):
    # forbid every triangulation's own diagonal set, plus a few slices
    for t in all_triangulations(n):
        assert count_avoiding(n, t.diagonals) == brute_count_avoiding(n, t.diagonals)
    for k in range(min(4, n - 3) + 1):
        sample = all_triangulations(n)[0].diagonals[:k]
        assert count_avoiding(n, sample) == brute_count_avoiding(n, sample)


def test_count_disjoint_pinwheel():
    assert count_disjoint(Triangulation.parse("6:0-2,2-4,0-4")) == 4


def test_count_avoiding_triangle_and_square():
    assert count_avoiding(3, []) == 1
    assert count_avoiding(4, []) == 2
    assert count_avoiding(4, [(0, 2)]) == 1
    assert count_avoiding(4, [(3, 1)]) == 1
    assert count_avoiding(4, [(0, 2), (2, 0)]) == 1
    assert count_avoiding(4, [(0, 2), (1, 3)]) == 0
    with pytest.raises(ValueError):
        count_avoiding(2, [])
    with pytest.raises(ValueError):
        count_avoiding(3, [(0, 2)])  # (0, 2) is a side of the triangle


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.floats(0, 0.3), st.randoms(use_true_random=False))
def test_count_avoiding_matches_recursive_oracle_random_subsets(n, density, rng):
    forbidden = [d for d in all_diagonals(n) if rng.random() < density]
    assert count_avoiding(n, forbidden) == count_avoiding_recursive(n, forbidden)


@pytest.mark.parametrize("n", [6, 8, 13, 21, 30, 40])
def test_count_avoiding_matches_recursive_oracle_on_shapes(n):
    rng = random.Random(n)
    shapes = [snake(n), arrow(n), random_triangulation(n, rng)]
    for _ in range(3):
        p = rng.randrange(1, n - 4)
        q = rng.randrange(1, n - 3 - p)
        shapes.append(three_ear_rep(n, (p, q, n - 3 - p - q)))
    for t in shapes:
        image = t.rotated(rng.randrange(n))
        if rng.random() < 0.5:
            image = image.reflected()
        for forbidden in (t.diagonals, image.diagonals):
            assert count_avoiding(n, forbidden) == count_avoiding_recursive(n, forbidden)
    for residues in ([1], [1, 2], [0, n // 2], [rng.randrange(n)]):
        forbidden = diagonals_with_residue(n, residues)
        expected = count_avoiding_recursive(n, forbidden)
        assert count_avoiding(n, forbidden) == expected
        assert count_avoiding_parallel(n, residues) == expected


def test_count_avoiding_does_not_recurse():
    # the top-down recursion needs about n frames; allow 50 above this one
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    forbidden = snake(150).diagonals
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        value = count_avoiding(150, forbidden)
    finally:
        sys.setrecursionlimit(limit)
    assert value == catalan(147)


# -- disjointness by inclusion-exclusion -----------------------------------------


def assert_matches_avoidance_dp(t: Triangulation) -> None:
    assert count_disjoint(t) == count_avoiding(t.n, t.diagonals), str(t)


def test_count_disjoint_of_triangle_and_square():
    assert count_disjoint(Triangulation(3, ())) == 1
    assert count_disjoint(Triangulation(4, ((0, 2),))) == 1
    assert count_disjoint(Triangulation(4, ((1, 3),))) == 1


@pytest.mark.parametrize("n", range(3, 12))
def test_count_disjoint_matches_avoidance_dp_exhaustive(n):
    for t in all_triangulations(n):
        assert_matches_avoidance_dp(t)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 60), st.randoms(use_true_random=False))
def test_count_disjoint_matches_avoidance_dp_random(n, rng):
    t = random_triangulation(n, rng)
    image = t.rotated(rng.randrange(n))
    if rng.random() < 0.5:
        image = image.reflected()
    assert_matches_avoidance_dp(t)
    assert_matches_avoidance_dp(image)


@pytest.mark.parametrize("n", [6, 9, 12, 13, 24, 30, 61])
def test_count_disjoint_matches_avoidance_dp_on_shapes(n):
    rng = random.Random(n)
    shapes = [arrow(n), snake(n)]
    for _ in range(4):
        p = rng.randrange(1, n - 4)
        q = rng.randrange(1, n - 3 - p)
        shapes.append(three_ear_rep(n, (p, q, n - 3 - p - q)))
    shapes += [rotation_symmetric(n, k, rng) for k in (2, 3) if n % k == 0]
    for t in shapes:
        assert_matches_avoidance_dp(t)
        assert_matches_avoidance_dp(t.rotated(rng.randrange(n)).reflected())


def test_count_disjoint_does_not_recurse():
    # a walk that recursed over the dual tree would need about n frames
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    t = snake(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        value = count_disjoint(t)
    finally:
        sys.setrecursionlimit(limit)
    assert value == catalan(397)


# -- 2-eared counts ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 10))
def test_every_two_eared_has_catalan_disjoint(n):
    expected = disjoint_two_eared(n)
    assert expected == catalan(n - 3)
    for t in all_triangulations(n):
        if t.ear_count() == 2:
            assert count_disjoint(t) == expected


@pytest.mark.parametrize("n", range(4, 10))
def test_arrow_characterization(n):
    """T' is disjoint from the fan at 1 iff T' contains the diagonal (0, 2)."""
    fan = arrow(n)
    for u in all_triangulations(n):
        assert u.is_disjoint_from(fan) == ((0, 2) in frozenset(u.diagonals))


def test_inclusion_exclusion_values():
    assert disjoint_inclusion_exclusion(5) == 2
    assert disjoint_inclusion_exclusion(6) == 5
    for n in range(4, 19):
        assert disjoint_inclusion_exclusion(n) == catalan(n - 3)


def test_series_telescopes_to_catalan():
    assert disjoint_series(20) == [catalan(i) for i in range(21)]


# -- fan avoidance --------------------------------------------------------------------


def test_avoid_fan_spec_values():
    assert avoid_fan_formula(6, 1) == 9
    assert avoid_fan_formula(6, 3) == 5
    assert avoid_fan_formula(6, 0) == 14


@pytest.mark.parametrize("n", range(4, 11))
def test_avoid_fan_formula_all_apexes(n):
    for m in range(n - 2):
        expected = avoid_fan_formula(n, m)
        for apex in range(n):
            forb = fan_prefix_diagonals(n, apex, m)
            assert len(forb) == m
            assert count_avoiding(n, forb) == expected


def test_fan_prefix_wraps():
    assert set(fan_prefix_diagonals(6, 4, 2)) == {(0, 4), (1, 4)}
    with pytest.raises(ValueError):
        fan_prefix_diagonals(6, 6, 1)
    with pytest.raises(ValueError):
        fan_prefix_diagonals(6, 0, 4)


# -- 3-eared formulas ------------------------------------------------------------------


def test_three_ear_disjoint_spec_values():
    assert three_ear_disjoint(6, (1, 1, 1)) == 4
    assert three_ear_disjoint(7, (1, 1, 2)) == 11
    assert three_ear_disjoint_published(6, (1, 1, 1)) == 1
    assert three_ear_disjoint_published(7, (1, 1, 2)) == 5


def _types(n):
    for p in range(1, n - 4):
        for q in range(1, n - 3 - p):
            yield (p, q, n - 3 - p - q)


@pytest.mark.parametrize("n", range(6, 11))
def test_three_ear_formula_matches_brute(n):
    for ptype in _types(n):
        t = three_ear_rep(n, ptype)
        assert three_ear_disjoint(n, ptype) == count_disjoint_by_enumeration(t)
        assert count_disjoint(t) == count_disjoint_by_enumeration(t)


@pytest.mark.parametrize("n", range(6, 13))
def test_three_ear_formula_symmetric_closed_form(n):
    for ptype in _types(n):
        p, q, r = ptype
        closed = 2 * catalan(n - 3) - sum(
            catalan_partial_convolution(n, x - 1) for x in (p, q, r)
        )
        assert three_ear_disjoint(n, ptype) == closed == three_ear_closed_form(n, ptype)
        for perm in permutations(ptype):
            assert three_ear_disjoint(n, perm) == closed


@pytest.mark.parametrize("n", range(5, 16))
def test_degenerate_branch_reduces_to_two_ear_count(n):
    """With r = 0 the symmetric closed form collapses to catalan(n-3)."""
    for p in range(1, n - 3):
        q = n - 3 - p
        value = 2 * catalan(n - 3) - (
            catalan_partial_convolution(n, p - 1)
            + catalan_partial_convolution(n, q - 1)
            + catalan_partial_convolution(n, -1)
        )
        assert value == catalan(n - 3) == three_ear_closed_form(n, (p, q, 0))


@pytest.mark.parametrize("n", range(6, 30))
def test_published_variant_sums_to_p_q_r(n):
    for ptype in _types(n):
        published = 2 * catalan(n - 3) - sum(
            catalan_partial_convolution(n, x) for x in ptype
        )
        assert three_ear_disjoint_published(n, ptype) == published


@pytest.mark.parametrize("refused, message", [
    (lambda: disjoint_inclusion_exclusion(3), "inclusion-exclusion needs n >= 4, got 3"),
    (lambda: disjoint_series(-1), "limit must be >= 0, got -1"),
    (lambda: avoid_fan_formula(3, 0), "need n >= 4, got 3"),
    (lambda: avoid_fan_formula(6, 4), "need 0 <= m <= n-3, got m=4"),
    (lambda: count_avoiding_parallel(3, [1]), "need n >= 4, got 3"),
    (lambda: arrow(6.0), "polygon size must be an int, got 6.0"),
    (lambda: three_ear_rep(6.0, (1, 1, 1)), "polygon size must be an int, got 6.0"),
    (lambda: diagonals_with_residue(6.0, [1]), "polygon size must be an int, got 6.0"),
    (lambda: count_avoiding_parallel(6.0, [1]), "polygon size must be an int, got 6.0"),
    (lambda: avoid_fan_formula(6, 1.0), "m must be an int, got 1.0"),
    (lambda: fan_prefix_diagonals(6, 0, 1.0), "m must be an int, got 1.0"),
    (lambda: fan_prefix_diagonals(6.0, 0, 0), "polygon size must be an int, got 6.0"),
    (lambda: three_ear_closed_form(7, (1, 1, 2.0)), "branch must be an int, got 2.0"),
    (lambda: disjoint_inclusion_exclusion(6.0), "polygon size must be an int, got 6.0"),
    (lambda: avoid_fan_formula(6.0, 0), "polygon size must be an int, got 6.0"),
    (lambda: three_ear_disjoint(7.0, (1, 1, 2)), "polygon size must be an int, got 7.0"),
    (lambda: disjoint_series(5.0), "limit must be an int, got 5.0"),
    (lambda: diagonals_with_residue(6, [1.0]), "residue must be an int, got 1.0"),
    (lambda: count_avoiding_parallel(6, [2, 1.0]), "residue must be an int, got 1.0"),
], ids=["inclusion-exclusion", "series", "fan-n", "fan-m", "parallel",
        "arrow-float", "three-ear-rep-float", "residue-float", "parallel-float",
        "fan-m-float", "fan-prefix-m-float", "fan-prefix-n-float", "closed-form-branch-float",
        "inclusion-exclusion-float", "fan-n-float", "three-ear-float", "series-float",
        "residue-class-float", "parallel-class-float"])
def test_refusals_name_the_fault(refused, message):
    with pytest.raises(ValueError) as info:
        refused()
    assert str(info.value) == message


def test_closed_form_refuses_a_negative_branch():
    with pytest.raises(ValueError):
        three_ear_closed_form(8, (-1, 4, 2))


def test_closed_form_refuses_a_branch_past_the_polygon():
    # S(n, k) needs k <= n-4: a branch of n-2 triangles is refused
    with pytest.raises(ValueError, match="exceeds"):
        three_ear_closed_form(8, (1, 7, 0))


@pytest.mark.parametrize("branches", [(), (1, 1), (1, 1, 1, 1)], ids=len)
def test_closed_form_refuses_other_than_three_branches(monkeypatch, branches):
    # refused before the Catalan list is built
    def unreached(upto):
        raise AssertionError("catalan_list called")

    monkeypatch.setattr(disjoint, "catalan_list", unreached)
    with pytest.raises(ValueError) as info:
        three_ear_closed_form(6, branches)
    assert str(info.value) == f"a 3-eared triangulation has 3 branches, got {len(branches)}"


@pytest.mark.parametrize("n", [6, 9, 14, 40])
def test_three_ear_formulas_build_one_catalan_list(monkeypatch, n):
    # the case sum's two runs and the closed form's three partial sums
    # each read one list of the call, not one list per run
    calls = []

    def counted(upto):
        calls.append(upto)
        return catalan_list(upto)

    monkeypatch.setattr(counting, "catalan_list", counted)
    monkeypatch.setattr(disjoint, "catalan_list", counted)
    for ptype in list(_types(n))[:: max(1, n // 3)]:
        t = three_ear_rep(n, ptype)
        expected = count_disjoint(t)
        for formula in (three_ear_disjoint, three_ear_closed_form):
            calls.clear()
            assert formula(n, ptype) == expected, (formula.__name__, ptype)
            assert calls == [n - 4], (formula.__name__, ptype)


def test_published_variant_disagrees_with_oracle():
    witness = three_ear_disjoint_published(6, (1, 1, 1))
    oracle = count_disjoint_by_enumeration(three_ear_rep(6, (1, 1, 1)))
    assert witness == 1 and oracle == 4


# -- parallel classes -------------------------------------------------------------------


def test_parallel_residue():
    assert parallel_residue(11, (0, 2)) == 2
    assert parallel_residue(11, (2, 10)) == 1
    with pytest.raises(ValueError):
        parallel_residue(6, (0, 1))


@pytest.mark.parametrize("n", range(4, 13))
def test_snake_diagonals_are_the_residue_12_diagonals(n):
    assert set(snake(n).diagonals) == set(diagonals_with_residue(n, [1, 2]))
    assert {parallel_residue(n, d) for d in snake(n).diagonals} <= {1, 2}


@pytest.mark.parametrize("n", range(4, 13))
def test_avoiding_both_residues_is_snake_disjoint(n):
    value = count_avoiding_parallel(n, [1, 2])
    assert value == count_disjoint(snake(n))
    assert value == catalan(n - 3)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_even_gon_single_residue(n):
    assert count_avoiding_parallel(n, [1]) == 2 * catalan(n - 3)


# -- internal signatures ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 9))
def test_signature_groups_have_constant_disjoint_counts(n):
    groups = signature_invariance_check(n)
    assert list(groups) == sorted(groups)
    assert sum(map(len, groups.values())) == catalan(n - 2)
    for counts in groups.values():
        assert len(set(counts)) == 1


@pytest.mark.parametrize("n", range(4, 10))
def test_signature_scan_counts_match_count_disjoint_and_oracle(n):
    """Each scan count, in enumeration order within its group, equals the
    tree-knapsack count and the set-intersection oracle."""
    expected: dict = {}
    for t in all_triangulations(n):
        count = count_disjoint(t)
        assert count == count_disjoint_by_enumeration(t), str(t)
        expected.setdefault(t.internal_triangles(), []).append(count)
    assert signature_invariance_check(n) == expected


@pytest.mark.parametrize("n", range(4, 11))
def test_signature_bitsets_equal_the_pairwise_scan(n):
    """The column-bitset counts equal one mask AND per pair, with the same
    keys in the same order and each list in enumeration order."""
    got = signature_invariance_check(n)
    expected = signature_groups_by_pairs(n)
    assert got == expected
    assert list(got) == list(expected)


def test_signature_check_range_guard():
    for n in (3, 11):
        with pytest.raises(ValueError, match="feasible for 4 <= n <= 10"):
            signature_invariance_check(n)


# -- the count is a function of the dual tree's shape ----------------------------------


# trees on n-2 nodes with no degree above 3 (OEIS A000672), n = 4..11
TREE_SHAPES = {4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 6, 10: 11, 11: 18}


@pytest.mark.parametrize("n", range(4, 12))
def test_avoidance_count_is_constant_on_dual_tree_shapes(n):
    """Every triangulation grouped by the AHU key of its unlabeled dual
    tree, one group per tree shape: count_avoiding, which knows nothing of
    the tree, gives one count per group."""
    counts: dict[str, set[int]] = {}
    for t in all_triangulations(n):
        counts.setdefault(dual_tree_shape_key(t), set()).add(count_avoiding(n, t.diagonals))
    assert len(counts) == TREE_SHAPES[n]
    assert all(len(group) == 1 for group in counts.values()), counts


@pytest.mark.parametrize("seed", range(4))
def test_swapping_child_subtrees_keeps_the_count(seed):
    """At n = 100, swapping the two parts below one triangle gives another
    triangulation with the same dual-tree shape, and the same count."""
    rng = random.Random(seed)
    n = 100
    t = random_triangulation(n, rng)
    count = count_avoiding(n, t.diagonals)
    key = dual_tree_shape_key(t)
    swapped = 0
    while swapped < 3:
        u = swap_child_subtrees(t, rng.choice(t.triangles()))
        if u == t:
            continue
        swapped += 1
        assert dual_tree_shape_key(u) == key
        assert count_avoiding(n, u.diagonals) == count == count_disjoint(u)
