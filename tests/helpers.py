"""Shared oracles for the test suite.

These are written independently of the package internals on purpose: the
Catalan oracle uses the Segner recurrence (the package uses the binomial
closed form), the enumeration oracle is the labeled recursion that the
package's cached position-form enumerator replaced, the ear oracles
classify triangles by counting boundary sides directly or count the
vertices no diagonal touches (the package intersects with the ear
chords), the avoidance oracle is the memoized top-down recursion that the
package's bottom-up DP replaced, and the triangulation test scans every
pair of diagonals for a crossing.  The triangle oracle scans every apex
over each chord, and the canonical-form oracle maps and sorts all 2n
dihedral images; both are the routines the package's faster ones replaced.
The orbit-count oracle counts distinct canonical diagonal tuples instead
of quiddity keys.  The class-census oracle keys every triangulation of the
full enumeration, where the package builds the keys by ear insertion, and
the least dihedral image of a sequence is the minimum over all 2n
rotations and reversed rotations, not only those starting at a 1-entry.
The composition oracles work on tuples and bar sets and share no code
with the package's bar masks: compositions are built part by part,
conjugation complements the set of partial sums, and a class is the set of
the four tuples.  The pointing-string oracle walks the dual tree's path
from ear to ear and sorts each middle triangle's boundary side by arc,
where the package walks chords.  The disjointness oracle scans every
triangulation of the polygon for a shared diagonal.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from polytri.counting import quiddity_key
from polytri.triangulation import (
    Triangulation,
    _canonical_diagonals,
    crosses,
    diagonal,
    enumerate_triangulations,
)


@lru_cache(maxsize=None)
def segner_catalan(k: int) -> int:
    """Catalan number via the Segner recurrence C(k) = sum C(i) C(k-1-i)."""
    if k < 0:
        raise ValueError(k)
    if k == 0:
        return 1
    return sum(segner_catalan(i) * segner_catalan(k - 1 - i) for i in range(k))


def diagonal_sets_by_recursion(verts: tuple[int, ...]):
    """Diagonal sets of all triangulations of a convex sub-polygon, by
    labeled recursion.

    `verts` lists the sub-polygon's vertex labels in convex position.  The
    recursion picks the apex of the triangle over the edge (verts[0],
    verts[1]) in ascending index order, which fixes the enumeration order.
    """
    m = len(verts)
    if m <= 3:
        yield ()
        return
    w0, w1 = verts[0], verts[1]
    for i in range(2, m):
        apex = verts[i]
        extra = []
        if i > 2:
            extra.append((w1, apex) if w1 < apex else (apex, w1))
        if i < m - 1:
            extra.append((w0, apex) if w0 < apex else (apex, w0))
        extra_t = tuple(extra)
        for left in diagonal_sets_by_recursion(verts[1 : i + 1]):
            for right in diagonal_sets_by_recursion(verts[i:] + (w0,)):
                yield extra_t + left + right


def boundary_sides(n: int, tri: tuple[int, int, int]) -> int:
    """Number of polygon sides among the edges of a sorted vertex triple."""
    a, b, c = tri
    count = 0
    for x, y in ((a, b), (b, c), (a, c)):
        if y - x == 1 or (x, y) == (0, n - 1):
            count += 1
    return count


def triangles_by_apex_scan(t: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """The triangles, sorted, found by scanning every apex m of each chord
    (i, j) from the side (0, n-1) inward.  O(n^2) on a fan."""
    n = t.n
    if n == 3:
        return ((0, 1, 2),)
    dset = t.diagonal_set

    def has_edge(x: int, y: int) -> bool:
        return y - x == 1 or (x, y) == (0, n - 1) or (x, y) in dset

    out = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        for m in range(i + 1, j):
            if has_edge(i, m) and has_edge(m, j):
                out.append((i, m, j))
                stack += ((i, m), (m, j))
                break
        else:
            raise AssertionError(f"no triangle over ({i}, {j})")
    return tuple(sorted(out))


def ear_count_by_degree(n: int, diags) -> int:
    """Ears of an n-gon triangulation (n >= 4), as the vertices that no
    diagonal touches: such a vertex and its two sides form a triangle."""
    return n - len({v for pair in diags for v in pair})


def ear_census_by_enumeration(n: int) -> Counter[int]:
    """{ear count: triangulations} of the n-gon over the recursive
    enumeration."""
    return Counter(
        ear_count_by_degree(n, diags) for diags in diagonal_sets_by_recursion(tuple(range(n)))
    )


def listing_by_recursion(n: int, ears: int | None = None) -> list[str]:
    """The lines of `polytri enumerate --n n [--ears k]`: the recursive
    enumeration's triangulations with k ears, in order, each written as
    'n:a-b,...' with its diagonals sorted."""
    return [
        f"{n}:" + ",".join(f"{a}-{b}" for a, b in sorted(diags))
        for diags in diagonal_sets_by_recursion(tuple(range(n)))
        if ears is None or ear_count_by_degree(n, diags) == ears
    ]


def ears_by_definition(t: Triangulation) -> list[tuple[int, int, int]]:
    return [tri for tri in triangles_by_apex_scan(t) if boundary_sides(t.n, tri) == 2]


def internal_by_definition(t: Triangulation) -> list[tuple[int, int, int]]:
    return [tri for tri in triangles_by_apex_scan(t) if boundary_sides(t.n, tri) == 0]


def canonical_by_sorting(n: int, diags) -> tuple[tuple[int, int], ...]:
    """Least sorted diagonal tuple over the 2n dihedral images, by mapping
    and sorting every image: the rotations v -> v+s and the reflections
    v -> s-v."""
    images = []
    for s in range(n):
        for perm in ([(v + s) % n for v in range(n)], [(s - v) % n for v in range(n)]):
            images.append(tuple(sorted(
                (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
                for a, b in diags
            )))
    return min(images)


def orbit_count_by_canonical(n: int, ears: int | None = None) -> int:
    """Symmetry classes of the n-gon's triangulations (with the given ear
    count), as the number of distinct canonical diagonal tuples."""
    seen = set()
    for diags in diagonal_sets_by_recursion(tuple(range(n))):
        if ears is not None and ear_count_by_degree(n, diags) != ears:
            continue
        seen.add(_canonical_diagonals(n, diags))
    return len(seen)


def class_census_by_enumeration(n: int) -> Counter[int]:
    """{ear count: symmetry classes} of the n-gon, as the distinct
    quiddity keys of every triangulation, tallied by their 1-entries."""
    keys = {quiddity_key(n, diags) for diags in diagonal_sets_by_recursion(tuple(range(n)))}
    return Counter(key.count(1) for key in keys)


def least_dihedral_image(seq) -> tuple[int, ...]:
    """The least of the 2n rotations of seq and of its reversal."""
    fwd = list(seq)
    return min(tuple(s[i:] + s[:i]) for s in (fwd, fwd[::-1]) for i in range(len(fwd)))


@lru_cache(maxsize=None)
def compositions_by_parts(m: int) -> tuple[tuple[int, ...], ...]:
    """Every composition of m, by choosing the first part (m = 0: the empty one)."""
    if m == 0:
        return ((),)
    return tuple(
        (first, *rest) for first in range(1, m + 1) for rest in compositions_by_parts(m - first)
    )


def bar_set_by_sums(comp: tuple[int, ...]) -> frozenset[int]:
    """The proper partial sums of a composition."""
    return frozenset(accumulate(comp[:-1]))


def bar_mask_by_sums(comp: tuple[int, ...]) -> int:
    """The bar set as an integer: bit b-1 set for each partial sum b."""
    return sum(1 << (b - 1) for b in bar_set_by_sums(comp))


def conjugate_by_bars(comp: tuple[int, ...]) -> tuple[int, ...]:
    """The composition of m whose bar set is the complement of comp's in
    {1..m-1}, read back as the gaps between consecutive cut points."""
    m = sum(comp)
    bars = bar_set_by_sums(comp)
    points = [0] + [i for i in range(1, m) if i not in bars] + [m]
    return tuple(b - a for a, b in zip(points, points[1:]))


def composition_class_by_tuples(comp: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The orbit {comp, reversal, conjugate, conjugate of the reversal}."""
    rev = comp[::-1]
    return frozenset((comp, rev, conjugate_by_bars(comp), conjugate_by_bars(rev)))


def count_classes_by_tuples(m: int) -> int:
    """Composition classes of m, as the number of distinct least members
    of the orbits formed from composition tuples."""
    return len({min(composition_class_by_tuples(c)) for c in compositions_by_parts(m)})


def pointing_string_by_dual_tree(t: Triangulation) -> str:
    """The pointing string of a 2-eared triangulation (n >= 5), read along
    the dual tree's path from the lexicographically least ear: D when a
    middle triangle's one boundary side lies on the arc leaving that ear's
    tip toward increasing labels, else U."""
    n = t.n
    left, right = sorted(t.ears())
    tip = next(v for v in left if (v - 1) % n in left and (v + 1) % n in left)
    tip_r = next(v for v in right if (v - 1) % n in right and (v + 1) % n in right)
    top_sides = set()
    w = (tip + 1) % n
    while w != (tip_r - 1) % n:
        nxt = (w + 1) % n
        top_sides.add((w, nxt) if w < nxt else (nxt, w))
        w = nxt
    letters = []
    for tri in t.dual_tree().path_from(left)[1:-1]:
        a, b, c = tri
        (side,) = [e for e in ((a, b), (b, c), (a, c)) if e[1] - e[0] == 1 or e == (0, n - 1)]
        letters.append("D" if side in top_sides else "U")
    return "".join(letters)


@lru_cache(maxsize=None)
def all_triangulations(n: int) -> tuple[Triangulation, ...]:
    """Every triangulation of the n-gon, in enumeration order (cached)."""
    return tuple(enumerate_triangulations(n))


def count_disjoint_by_enumeration(t: Triangulation) -> int:
    """Triangulations sharing no diagonal with t, by testing each one of
    the full enumeration against t."""
    return sum(1 for u in all_triangulations(t.n) if u.is_disjoint_from(t))


def count_avoiding_recursive(n: int, forbidden) -> int:
    """Triangulations of the n-gon using no forbidden diagonal, by a pruned
    top-down split with memoization on arcs.  Recurses about n deep."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    forb = frozenset(diagonal(n, a, b) for a, b in forbidden)

    @lru_cache(maxsize=None)
    def arc(i: int, j: int) -> int:
        # triangulations of the sub-polygon i..j closed by the chord (i, j)
        if j - i < 2:
            return 1
        total = 0
        for m in range(i + 1, j):
            if m - i >= 2 and (i, m) in forb:
                continue
            if j - m >= 2 and (m, j) in forb:
                continue
            total += arc(i, m) * arc(m, j)
        return total

    return arc(0, n - 1)


def is_triangulation_pairwise(n: int, diagonals) -> bool:
    """is_triangulation by testing every pair of diagonals for a crossing."""
    if n < 3:
        return False
    try:
        diags = sorted(diagonal(n, a, b) for a, b in diagonals)
    except (ValueError, TypeError):
        return False
    if len(diags) != n - 3 or len(set(diags)) != n - 3:
        return False
    return not any(
        crosses(diags[i], diags[j])
        for i in range(len(diags))
        for j in range(i + 1, len(diags))
    )


def all_diagonals(n: int) -> list[tuple[int, int]]:
    """Every diagonal (a, b), a < b, of the n-gon."""
    return [(a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)]


def random_triangulation(n: int, rng) -> Triangulation:
    """A triangulation built by random apex splits of the arcs, from (0, n-1)."""
    diags = []
    arcs = [(0, n - 1)]
    while arcs:
        i, j = arcs.pop()
        if j - i < 2:
            continue
        m = rng.randrange(i + 1, j)
        diags += [(a, b) for a, b in ((i, m), (m, j)) if b - a >= 2]
        arcs += [(i, m), (m, j)]
    return Triangulation(n, tuple(diags))


def rotation_symmetric(n: int, k: int, rng) -> Triangulation:
    """A triangulation fixed by the rotation v -> v + n/k, k = 2 or 3: the
    central chord or triangle on 0, n/k, ..., with one random triangulation
    of the arc 0..n/k repeated in every arc."""
    step = n // k
    arc = random_triangulation(step + 1, rng).diagonals
    diags = [(0, step)] if k == 2 else [(0, step), (step, 2 * step), (0, 2 * step)]
    for s in range(0, n, step):
        diags += [tuple(sorted(((a + s) % n, (b + s) % n))) for a, b in arc]
    return Triangulation(n, tuple(diags))
