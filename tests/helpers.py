"""Shared oracles for the test suite.

These are written independently of the package internals on purpose: the
Catalan oracle uses the Segner recurrence (the package uses the binomial
closed form), the enumeration oracle is the labeled recursion that the
package's cached position-form enumerator replaced, the ear oracles
classify triangles by counting boundary sides directly or count the
vertices no diagonal touches (the package counts those vertices too, or
carries each tuple's count through its enumeration), the reachable
ear-count sets come from the recursion over every split that the
package's closed interval replaced, the avoidance oracle is the memoized
top-down recursion that the package's bottom-up DP replaced, and the
triangulation test scans every pair of diagonals for a crossing.  The
constructor's check (`checked_by_sorting`) is the one the package's
one-pass check replaced: each pair through `diagonal`, then a sort by
(a, -b), a stack scan and a second sort, where the package tests each
pair's range inline and scans pairs bucketed by their lower end.  The
parse oracle (`parse_by_sorting`) reads every chunk's syntax before it
hands the pairs to that check, where the package's `parse` tests each
pair's range as it reads it.  The triangle oracle scans every apex
over each chord, and the canonical-form oracle maps and sorts all 2n
dihedral images; both are the routines the package's faster ones replaced.
The orbit-count oracle counts distinct canonical diagonal tuples instead
of quiddity keys.  The class-census oracle keys every triangulation of the
full enumeration, where the package builds the keys by ear insertion, and
the least dihedral image of a sequence is the minimum over all 2n
rotations and reversed rotations, not only those starting at a 1-entry.
`least_rotation_by_scan` tests every position of the doubled sequences
for the least entry, where the package finds each start by `list.index`,
and `render_svg_by_lines` builds each label line by its own f-string,
where the package fills one template for the whole block.
The composition oracles work on tuples and bar sets and share no code
with the package's bar masks: compositions are built part by part,
conjugation complements the set of partial sums, and a class is the set of
the four tuples.  The exception is the per-mask enumerator
(`compositions_by_mask`), which reads each mask with the package's
string-based `_composition`, where the package's bulk enumerator joins
table entries.  The tables are filled by `_composition` and
`mask_images` too, so up to m = 9 that oracle meets the same routine; the
independent check of the tables is `compositions_by_parts` sorted by
`bar_mask_by_sums`, with each tuple reversed for the reversals.  The
2-ear inclusion-exclusion oracle sums its signed Catalan products one
composition at a time, where the package groups them by their first
part.  The pointing-string oracle walks the dual tree's path
from ear to ear and sorts each middle triangle's boundary side by arc,
where the package walks chords; the path walk (`is_path`, `path_from`)
lives here as functions of a DualTree, since only this oracle uses it.
The dual-tree oracle joins the two triangles found on each diagonal,
where the package joins each triangle to the ones over its child arcs,
and the 3-eared type oracle walks the dual tree from the branch node to
each leaf, where the package reads the arcs of the internal triangle.
The disjointness oracle scans every triangulation of the polygon for a
shared diagonal by intersecting diagonal sets, where the package ANDs
diagonal masks.  The ear-filtered listing oracle enumerates every
triangulation and keeps those with the right number of untouched
vertices, where the package generates only the ones with that many ears.
The quiddity key, the parallel-class residue, the pairwise crossing
test, `is_diagonal` and, for compositions, the inverse of the bar set, the
'2+5+1' text form and the map to a pointing string are kept here because
only tests use them.  The class total by Burnside's lemma counts the
triangulations each dihedral map fixes, in closed form, where the
package counts distinct class keys.  The signature oracle ANDs the
diagonal masks of every pair of triangulations, where the package ORs
column bitsets, and the per-image predicates of the canonical and
composition-reading verify rows canonicalise or read every dihedral
image afresh, where the rows look each image up in a table built once
per triangulation.  The mask-image class count keeps every bar mask whose
four images it builds (`comp.all_mask_images`) have it as their least,
where the package scans only the masks below their conjugate and builds
no images.  The dual-tree shape key
is the AHU code of the unlabeled tree rooted at its center, which only the
shape-invariance tests of the disjointness count use.  The Hurtado-Noy
count and the 3-ear class formula are evaluated here in exact rational
arithmetic (`fractions`), term by term as written, where the package
divides an integer numerator by a fixed denominator.  `child_env` is the
one environment of the tests' child Python processes, and `no_child_left`
the one check that a call left no worker process behind.
"""

from __future__ import annotations

import errno
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, cos, pi, prod, sin

import pytest

import polytri
from polytri import compositions as comp
from polytri.compositions import _composition
from polytri.svgfig import EAR_FILL, INTERNAL_FILL
from polytri.triangulation import (
    DualTree,
    Triangulation,
    _CODE_BASE,
    _canonical_diagonals,
    _least_rotation,
    _split_ears,
    diagonal,
    enumerate_triangulations,
)


def child_env(**extra: str | None) -> dict[str, str]:
    """os.environ for a child Python process that imports the package under
    test, also when pytest alone put src/ on the path: src/ first on
    PYTHONPATH, then each of `extra` set, or removed when it is None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(polytri.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    for name, value in extra.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def no_child_left() -> bool:
    """True iff this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def refused_at(real, call: int):
    """real, an `os` call such as `os.fork`, but raising OSError(EAGAIN),
    as a fork refused for want of processes does, at its call-th call."""
    calls = 0

    def refused(*args):
        nonlocal calls
        calls += 1
        if calls == call:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real(*args)

    return refused


def count_forks(monkeypatch) -> list[int]:
    """Patch `os.fork`, as it is now, to record the pid of each process
    that calls it, a refused call included; returns the list it fills."""
    forks: list[int] = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def open_fds() -> set[str]:
    """The file descriptors this process has open, from /proc/self/fd;
    the test calling it is skipped where that directory is absent."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list open file descriptors")
    return set(os.listdir("/proc/self/fd"))


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


def decoded(shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The diagonal pairs of one of the enumerator's raw shapes, a tuple
    of codes a * _CODE_BASE + b, in the order given."""
    return tuple(divmod(code, _CODE_BASE) for code in shape)


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
    dset = frozenset(t.diagonals)

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


@lru_cache(maxsize=None)
def ear_count_set_by_recursion(s: int, d: int) -> frozenset[int]:
    """Every number of ears a sub-polygon (s, d) of
    `triangulation._eared_shapes` can hold, as the union over every apex
    of the sums of its two parts' sets."""
    if s <= 3:
        return frozenset({int(s == 3 and d <= 0)})
    counts: set[int] = set()
    for j in range(2, s):
        added, d_left, d_right = _split_ears(s, d, j)
        rights = ear_count_set_by_recursion(s - j + 1, d_right)
        counts.update(added + a + b for a in ear_count_set_by_recursion(j, d_left) for b in rights)
    return frozenset(counts)


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


def listings_by_filter(n: int) -> dict[int, list[str]]:
    """`triangulation.listing(n, ears)` for every ear count, as it was
    first written: all C(n-2) diagonal tuples, each kept under its ear
    count.  The tuples come from the recursive oracle, so no ear-count
    pruning of the package's enumeration can drop a tuple from both sides
    of a comparison."""
    by_ears: dict[int, list[str]] = {}
    for diags in diagonal_sets_by_recursion(tuple(range(n))):
        text = f"{n}:" + ",".join(f"{a}-{b}" for a, b in sorted(diags))
        by_ears.setdefault(ear_count_by_degree(n, diags), []).append(text)
    return by_ears


def ears_by_definition(t: Triangulation) -> list[tuple[int, int, int]]:
    return [tri for tri in triangles_by_apex_scan(t) if boundary_sides(t.n, tri) == 2]


def ears_by_side_count(t: Triangulation) -> tuple[tuple[int, int, int], ...]:
    """The triangles with two polygon sides, read from t.triangles(): of a
    triangle (i, j, k), i < j < k, the sides can only be (i, j), (j, k)
    and, closing the polygon, (i, k) = (0, n-1)."""
    last = t.n - 1
    return tuple(
        (i, j, k) for i, j, k in t.triangles()
        if (j - i == 1) + (k - j == 1) + (i == 0 and k == last) == 2
    )


def ear_tip(n: int, ear: tuple[int, int, int]) -> int:
    """The vertex of an ear whose two polygon neighbours are both in it."""
    (tip,) = (v for v in ear if {(v - 1) % n, (v + 1) % n} <= set(ear))
    return tip


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


def quiddity_key(n: int, diagonals) -> tuple[int, ...]:
    """Symmetry-class key of a triangulation: the least rotation of its
    quiddity sequence or of the reversed sequence.

    Entry v of the quiddity sequence is the number of triangles at vertex
    v, 1 plus its diagonal count.  It determines the triangulation, and
    the sequences of the 2n dihedral images are exactly the rotations of
    the sequence and of its reversal, so two triangulations share a key
    iff they lie in one symmetry class.  For n >= 4 the 1-entries are the
    ear tips: key.count(1) is the ear count.  The package's orbit census
    builds the same keys by ear insertion, without diagonals.
    """
    quiddity = [1] * n
    for a, b in diagonals:
        quiddity[a] += 1
        quiddity[b] += 1
    return tuple(_least_rotation(quiddity, quiddity[::-1], 1))


def class_census_by_enumeration(n: int) -> Counter[int]:
    """{ear count: symmetry classes} of the n-gon, as the distinct
    quiddity keys of every triangulation, tallied by their 1-entries."""
    keys = {quiddity_key(n, diags) for diags in diagonal_sets_by_recursion(tuple(range(n)))}
    return Counter(key.count(1) for key in keys)


def class_total_by_burnside(n: int) -> int:
    """Symmetry classes of all the n-gon's triangulations, by Burnside's
    lemma: the average over the 2n dihedral maps of the triangulations
    each fixes.  The identity fixes C(n-2); the n reflections fix
    n C(floor(n/2)-1) together; the half turn fixes the (n/2) C(n/2-1)
    centrally symmetric ones; the two third turns fix (n/3) C(n/3-1)
    each, those with a central triangle.  No other rotation fixes one."""
    c = segner_catalan
    fixed = c(n - 2) + n * c(n // 2 - 1)
    if n % 2 == 0:
        fixed += n // 2 * c(n // 2 - 1)
    if n % 3 == 0:
        fixed += 2 * n // 3 * c(n // 3 - 1)
    total, rest = divmod(fixed, 2 * n)
    assert rest == 0, f"Burnside count at n={n} is not an integer"
    return total


def hurtado_noy_by_fractions(n: int, k: int) -> int:
    """(n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2) in rational arithmetic,
    asserted integral; 0 for k > n/2, where the binomial vanishes."""
    binomial = comb(n - 4, 2 * k - 4)
    if binomial == 0:
        return 0
    value = Fraction(n, k) * Fraction(2) ** (n - 2 * k) * binomial * segner_catalan(k - 2)
    assert value.denominator == 1, f"ear count formula at n={n}, k={k} is not an integer"
    return int(value)


def three_ear_classes_by_fractions(n: int) -> int:
    """(1/3) 2^(n-8) (n-4)(n-5) + [2|n] 2^(n/2-4) + [3|n] (1/3) 2^(n/3-2)
    in rational arithmetic, asserted integral (n >= 6)."""
    value = Fraction(1, 3) * Fraction(2) ** (n - 8) * (n - 4) * (n - 5)
    if n % 2 == 0:
        value += Fraction(2) ** (n // 2 - 4)
    if n % 3 == 0:
        value += Fraction(1, 3) * Fraction(2) ** (n // 3 - 2)
    assert value.denominator == 1, f"3-ear class formula at n={n} is not an integer"
    return int(value)


def least_dihedral_image(seq) -> tuple[int, ...]:
    """The least of the 2n rotations of seq and of its reversal."""
    fwd = list(seq)
    return min(tuple(s[i:] + s[:i]) for s in (fwd, fwd[::-1]) for i in range(len(fwd)))


def least_rotation_by_scan(fwd: list, rev: list, least) -> list:
    """`triangulation._least_rotation` by testing every start: the least
    of the rotations of fwd and of rev that start at `least`, over a
    generator of all 2n positions of the doubled sequences."""
    n = len(fwd)
    return min(
        seq[i:i + n]
        for seq in (fwd + fwd, rev + rev)
        for i in range(n)
        if seq[i] == least
    )


@lru_cache(maxsize=None)
def compositions_by_parts(m: int) -> tuple[tuple[int, ...], ...]:
    """Every composition of m, by choosing the first part (m = 0: the empty one)."""
    if m == 0:
        return ((),)
    return tuple(
        (first, *rest) for first in range(1, m + 1) for rest in compositions_by_parts(m - first)
    )


def inclusion_exclusion_by_compositions(n: int) -> int:
    """The 2-ear inclusion-exclusion term by term: sum over the
    compositions (a_1..a_i) of n-2 of (-1)^(i+1) C(a_1)...C(a_i)."""
    total = 0
    for comp in compositions_by_parts(n - 2):
        term = prod(segner_catalan(a) for a in comp)
        total += -term if len(comp) % 2 == 0 else term
    return total


def compositions_by_mask(m: int) -> list[tuple[int, ...]]:
    """Every composition of m in bar-mask counter order, one mask at a
    time through the package's `_composition`, which also fills the 8-bit
    tables: independent of the table joins only."""
    return [_composition(m, mask) for mask in range(2 ** (m - 1))]


def bar_set_by_sums(comp: tuple[int, ...]) -> frozenset[int]:
    """The proper partial sums of a composition."""
    return frozenset(accumulate(comp[:-1]))


def bar_mask_by_sums(comp: tuple[int, ...]) -> int:
    """The bar set as an integer: bit b-1 set for each partial sum b."""
    return sum(1 << (b - 1) for b in bar_set_by_sums(comp))


def composition_from_bars(m: int, bars) -> tuple[int, ...]:
    """The composition of m whose bar set is bars: the gaps between
    consecutive cut points 0, the bars ascending, m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    cuts = sorted(set(bars), key=lambda b: (type(b).__name__, b))  # mixed types sort too
    if any(not isinstance(b, int) or not 1 <= b <= m - 1 for b in cuts):
        raise ValueError(f"bars must lie in 1..{m - 1}: {cuts}")
    points = [0, *cuts, m]
    return tuple(b - a for a, b in zip(points, points[1:]))


def conjugate_by_bars(comp: tuple[int, ...]) -> tuple[int, ...]:
    """The composition of m whose bar set is the complement of comp's in
    {1..m-1}."""
    m = sum(comp)
    return composition_from_bars(m, set(range(1, m)) - bar_set_by_sums(comp))


def format_composition(comp: tuple[int, ...]) -> str:
    """The text form '2+5+1' of a composition."""
    return "+".join(map(str, comp))


def parse_composition(text: str) -> tuple[int, ...]:
    """The composition of the text form '2+5+1'; a ValueError for a part
    that is not a positive int."""
    try:
        parts = tuple(int(p) for p in text.strip().split("+"))
    except ValueError:
        raise ValueError(f"bad composition text {text!r}") from None
    if any(p < 1 for p in parts):
        raise ValueError(f"composition parts must be positive integers: {parts!r}")
    return parts


def pointing_from_composition(comp: tuple[int, ...]) -> str:
    """The pointing string of length m-1 with a U at each bar and a D at
    each vacant slot: the inverse of compositions.composition_from_pointing."""
    m = sum(comp)
    if m < 2:
        raise ValueError("pointing strings need a composition of m >= 2")
    bars = bar_set_by_sums(comp)
    return "".join("U" if j in bars else "D" for j in range(1, m))


def composition_class_by_tuples(comp: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The orbit {comp, reversal, conjugate, conjugate of the reversal}."""
    rev = comp[::-1]
    return frozenset((comp, rev, conjugate_by_bars(comp), conjugate_by_bars(rev)))


def count_classes_by_tuples(m: int) -> int:
    """Composition classes of m, as the number of distinct least members
    of the orbits formed from composition tuples."""
    return len({min(composition_class_by_tuples(c)) for c in compositions_by_parts(m)})


def count_classes_by_mask_images(m: int) -> int:
    """Composition classes of m, as the number of bar masks that are the
    least of their four images, over all 2^(m-1) masks."""
    return sum(images[0] == min(images) for images in comp.all_mask_images(m))


def is_path(tree: DualTree) -> bool:
    """True iff no node of the tree has more than two neighbours."""
    return all(tree.degree(t) <= 2 for t in tree.nodes)


def path_from(tree: DualTree, leaf: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """Node order along a path-shaped tree, starting at the given leaf."""
    if not is_path(tree):
        raise ValueError("dual tree is not a path")
    if len(tree.nodes) == 1:
        return (leaf,)
    if tree.degree(leaf) != 1:
        raise ValueError(f"{leaf} is not a leaf of the dual tree")
    order = [leaf]
    prev = None
    while len(order) < len(tree.nodes):
        nxt = [t for t in tree.adjacency[order[-1]] if t != prev]
        assert len(nxt) == 1
        prev = order[-1]
        order.append(nxt[0])
    return tuple(order)


def dual_tree_edges_by_shared_diagonal(t: Triangulation):
    """The dual tree's edges, sorted, each a sorted pair: the two triangles
    found on each diagonal by testing every edge of every triangle."""
    by_diag: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    dset = frozenset(t.diagonals)
    for tri in triangles_by_apex_scan(t):
        a, b, c = tri
        for e in ((a, b), (b, c), (a, c)):
            if e in dset:
                by_diag.setdefault(e, []).append(tri)
    edges = []
    for d, pair in sorted(by_diag.items()):
        assert len(pair) == 2, f"diagonal {d} not shared by two triangles"
        edges.append(tuple(sorted(pair)))
    return tuple(sorted(edges))


def three_ear_type_by_tree_walk(t: Triangulation) -> tuple[int, int, int]:
    """Branch sizes (descending) of a 3-eared triangulation, counted by
    walking the dual tree from the branch node out to each leaf."""
    dt = t.dual_tree()
    (center,) = dt.branch_nodes()
    sizes = []
    for start in dt.adjacency[center]:
        size, prev, node = 1, center, start
        while dt.degree(node) != 1:
            node, prev = next(x for x in dt.adjacency[node] if x != prev), node
            size += 1
        sizes.append(size)
    assert sum(sizes) == t.n - 3
    return tuple(sorted(sizes, reverse=True))


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
    for tri in path_from(t.dual_tree(), left)[1:-1]:
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
    the full enumeration against t for a common diagonal."""
    diags = set(t.diagonals)
    return sum(1 for u in all_triangulations(t.n) if not diags & set(u.diagonals))


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


def is_diagonal(n: int, a: int, b: int) -> bool:
    """True iff {a, b} is a diagonal of the n-gon: `diagonal` without the raise."""
    try:
        diagonal(n, a, b)
    except ValueError:
        return False
    return True


def crosses(d1, d2) -> bool:
    """True iff two normalized diagonals cross in the open interior.

    Diagonals that share an endpoint do not cross.  Both arguments must be
    normalized pairs (a, b) with a < b of the same polygon.
    """
    a, b = d1
    c, d = d2
    if not (a < b and c < d):
        raise ValueError(f"diagonals must be normalized pairs: {d1}, {d2}")
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b) != (a < d < b)


def checked_by_sorting(n: int, diagonals) -> tuple[tuple[int, int], ...]:
    """`triangulation._checked` by sorting: the diagonals of a triangulation
    of the n-gon, each pair ordered a < b, sorted; otherwise a ValueError
    naming the fault.  Every pair goes through `diagonal`; then the count
    is checked, and a scan sorted by (a, -b), with a stack of the
    diagonals enclosing the current one, finds a duplicate or a crossing."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    diags = []
    for pair in diagonals:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"not a pair of vertices: {pair!r}") from None
        diags.append(diagonal(n, a, b))
    if len(diags) != n - 3:
        raise ValueError(f"a triangulation of the {n}-gon has {n - 3} diagonals, got {len(diags)}")
    diags.sort(key=lambda d: (d[0], -d[1]))
    enclosing: list[tuple[int, int]] = []
    for d in diags:
        while enclosing and enclosing[-1][1] <= d[0]:
            enclosing.pop()
        # the enclosing (c, e) equals d, or has c < a < e < b and crosses it
        if enclosing and (enclosing[-1] == d or d[1] > enclosing[-1][1]):
            fault = "duplicate" if enclosing[-1] == d else "crossing"
            raise ValueError(f"{fault} diagonals {enclosing[-1]} and {d}")
        enclosing.append(d)
    return tuple(sorted(diags))


def parse_by_sorting(text: str) -> Triangulation:
    """`Triangulation.parse` in two passes: every chunk's syntax first,
    then `checked_by_sorting` on the pairs, which checks the size, each
    pair's range, the count and the crossings in that order; the package
    tests each pair's range as it reads the chunk."""
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise ValueError(f"missing ':' in triangulation text {text!r}")
    try:
        n = int(head)
    except ValueError:
        raise ValueError(f"bad polygon size in {text!r}") from None
    pairs = []
    for chunk in body.split(",") if body else ():
        lo, _, hi = chunk.partition("-")
        try:
            lo, hi = int(lo), int(hi)
            if lo >= hi:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad diagonal {chunk!r} in {text!r}; expected 'a-b' with ints a < b"
            ) from None
        pairs.append((lo, hi))
    return Triangulation._trusted(n, checked_by_sorting(n, pairs))


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


def parallel_residue(n: int, chord) -> int:
    """Residue (a+b) mod n; chords of a regular n-gon are parallel iff
    their residues agree."""
    a, b = diagonal(n, *chord)
    return (a + b) % n


def all_diagonals(n: int) -> list[tuple[int, int]]:
    """Every diagonal (a, b), a < b, of the n-gon."""
    return [(a, b) for a in range(n) for b in range(a + 2, n) if (a, b) != (0, n - 1)]


def render_svg_by_lines(t: Triangulation, highlight: str = "none", size: int = 420,
                        stroke_width: float = 2.0, font_size: int = 14) -> str:
    """`svgfig.render_svg` with each vertex's sine and cosine taken in a
    loop and each label line built by its own f-string, where the package
    maps the sines and cosines and fills one template for every label.
    The arguments are not checked."""
    n = t.n
    cx = cy = size / 2.0
    radius = size * 0.40
    label_radius = radius * 1.13
    # Vertex i sits at angle 2*pi*i/n from the top, counterclockwise on
    # screen.  SVG's y axis points down, so that is x = cx - r sin(theta),
    # y = cy - r cos(theta), for the polygon's radius and the labels'.
    sines = []
    cosines = []
    for i in range(n):
        theta = 2 * pi * i / n
        sines.append(sin(theta))
        cosines.append(cos(theta))
    xs = [f"{cx - radius * s:.2f}" for s in sines]
    ys = [f"{cy - radius * c:.2f}" for c in cosines]
    points = [f"{x},{y}" for x, y in zip(xs, ys)]
    width = f"{stroke_width:.2f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"  <title>{t}</title>",
        f'  <rect width="{size}" height="{size}" fill="white"/>',
    ]

    shaded: list[tuple[tuple[int, int, int], str]] = []
    if n >= 4 and highlight in ("ears", "both"):
        shaded += [(tri, EAR_FILL) for tri in t.ears()]
    if highlight in ("internal", "both"):
        shaded += [(tri, INTERNAL_FILL) for tri in t.internal_triangles()]
    for (a, b, c), fill in sorted(shaded):
        lines.append(f'  <polygon points="{points[a]} {points[b]} {points[c]}" fill="{fill}"/>')

    lines.append(
        f'  <polygon points="{" ".join(points)}" fill="none" stroke="black" '
        f'stroke-width="{width}"/>'
    )
    lines += [
        f'  <line x1="{xs[a]}" y1="{ys[a]}" x2="{xs[b]}" y2="{ys[b]}" '
        f'stroke="black" stroke-width="{width}"/>'
        for a, b in t.diagonals
    ]
    lines += [f'  <circle cx="{x}" cy="{y}" r="3" fill="black"/>' for x, y in zip(xs, ys)]
    lines += [
        f'  <text x="{cx - label_radius * s:.2f}" y="{cy - label_radius * c:.2f}" '
        f'font-size="{font_size}" font-family="sans-serif" text-anchor="middle" '
        f'dominant-baseline="central">{i}</text>'
        for i, (s, c) in enumerate(zip(sines, cosines))
    ]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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


def signature_groups_by_pairs(n: int) -> dict[tuple[tuple[int, int, int], ...], list[int]]:
    """`disjoint.signature_invariance_check(n)` by one AND of two diagonal
    masks per pair of triangulations: the scan the column bitsets replaced."""
    ts = all_triangulations(n)
    masks = [t.mask for t in ts]
    groups: dict[tuple[tuple[int, int, int], ...], list[int]] = {}
    for t, x in zip(ts, masks):
        groups.setdefault(t.internal_triangles(), []).append(sum(not x & y for y in masks))
    return dict(sorted(groups.items()))


def canonical_orbit_constant_by_images(t: Triangulation) -> bool:
    """The canonical-orbit-constant predicate, canonicalising every image
    afresh: c = t.canonical() is its own canonical and every dihedral
    image of t has canonical c."""
    c = t.canonical()
    return c.canonical() == c and all(img.canonical() == c for img in t.dihedral_images())


def images_read_in_class_by_images(t: Triangulation) -> bool:
    """The image-readings-in-class predicate, reading every image afresh:
    the composition of each dihedral image of a 2-eared t lies in the
    class of t's composition."""
    cls = comp.composition_class(comp.composition_of(t))
    return all(comp.composition_of(img) in cls for img in t.dihedral_images())


def dual_tree_shape_key(t: Triangulation) -> str:
    """The AHU code of t's dual tree as an unlabeled free tree (n >= 4):
    leaves are peeled layer by layer down to the one or two centers, each
    center's code is '(' + its children's codes, sorted, + ')', and the key
    is the least code over the centers.  Two triangulations share a key iff
    their dual trees are isomorphic."""
    adj = t.dual_tree().adjacency
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    layer = [v for v, d in degree.items() if d == 1]
    left = len(adj)
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    peeled.append(w)
        layer = peeled

    def code(v, parent) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, None) for c in layer)


def swap_child_subtrees(t: Triangulation, tri: tuple[int, int, int]) -> Triangulation:
    """t with the two sub-polygons below the triangle tri = (i, j, k) swapped.

    The triangle sits over the arc i..k, with the parts on i..j and j..k
    below it.  The new apex is i + k - j: the part on j..k moves down by
    j - i to i..i+k-j, the part on i..j moves up by k - j, and everything
    outside the arc stays.  In the dual tree the triangle keeps its parent
    and swaps its two child subtrees, so the tree's shape is kept."""
    i, j, k = tri
    apex = i + k - j

    def moved(a: int, b: int) -> tuple[int, int]:
        if not (i <= a and b <= k) or (a, b) == (i, k):
            return a, b
        shift = -(j - i) if a >= j else k - j
        return a + shift, b + shift

    inner = {(a, b) for a, b in ((i, apex), (apex, k)) if b - a >= 2}
    kept = {moved(a, b) for a, b in t.diagonals if (a, b) not in ((i, j), (j, k))}
    return Triangulation(t.n, tuple(kept | inner))
