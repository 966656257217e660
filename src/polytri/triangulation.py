"""Triangulations of a labeled convex polygon.

The convex n-gon has vertices 0..n-1 in counterclockwise order; all vertex
arithmetic is mod n.  A triangulation is a maximal set of pairwise
non-crossing diagonals.  It always contains exactly n-3 diagonals and cuts
the polygon into n-2 triangles.  Everything in this module is exact label
combinatorics -- crossing tests, enumeration, ears, dual trees and the
dihedral symmetry action.  No coordinate geometry is involved anywhere.

Terminology used throughout the package:

* an *ear* is a triangle sharing exactly two sides with the polygon;
* an *internal triangle* shares no side with the polygon;
* for n >= 4 every triangulation satisfies  #ears = #internal + 2;
* the *dual tree* has one node per triangle and one edge per diagonal
  (joining the two triangles that share it).  Its leaves are the ears and
  its degree-3 nodes are the internal triangles, so the dual tree of a
  2-eared triangulation is a path.

The dihedral group of order 2n acts on triangulations through vertex
relabeling: rotations v -> v+s (mod n) and the reflection v -> n-v (mod n).
Orbits of this action are called symmetry classes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
Pair = tuple[int, int]
Triple = tuple[int, int, int]


def _check_int(value: int, what: str) -> None:
    """Refuse a value that is not an int, naming it as `what`."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")


def _check_at_least(value: int, least: int, what: str, words: str,
                    most: int | None = None) -> None:
    """The package's one rule for an int argument: refuse a non-int as
    `_check_int` does, naming it `what`, and a value below `least` or above
    `most` (if not None) in the caller's `words`, `{}` standing for it."""
    _check_int(value, what)
    if value < least or most is not None and value > most:
        raise ValueError(words.format(value))


def _check_size(n: int) -> None:
    """Refuse a polygon size n that is not an int of at least 3, by the rule."""
    _check_at_least(n, 3, "polygon size", "polygon needs at least 3 vertices, got n={}")


def _check_ears(k: int) -> None:
    """Refuse an ear count k that is not an int, or is below 2, which no
    triangulation has, by the rule."""
    _check_at_least(k, 2, "ear count", "every triangulation has >= 2 ears, got k={}")


def diagonal(n: int, a: int, b: int) -> Pair:
    """Normalize {a, b} to a pair (a, b) with a < b, validated for the n-gon."""
    _check_size(n)
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError(f"vertices must be ints, got ({a!r}, {b!r})")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"vertex out of range for n={n}: ({a}, {b})")
    if a > b:
        a, b = b, a
    if a == b or b - a < 2 or (a, b) == (0, n - 1):
        what = "a vertex" if a == b else "a side"
        raise ValueError(f"({a}, {b}) is {what} of the {n}-gon, not a diagonal")
    return (a, b)


def _checked(n: int, diagonals: Iterable[Pair]) -> tuple[Pair, ...]:
    """The diagonals of a triangulation of the n-gon, each pair ordered
    a < b, sorted; otherwise a ValueError naming the fault.

    One pass over the pairs, which tests each one's range inline and
    calls `diagonal` only for a pair that fails the test (so the fault
    keeps its wording), then `_noncrossing`, which `parse` calls too.
    """
    _check_size(n)
    lows: list[int] = []
    highs: list[int] = []
    for pair in diagonals:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise ValueError(f"not a pair of vertices: {pair!r}") from None
        if (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n
                and 1 < abs(a - b) < n - 1):
            if a > b:
                a, b = b, a
        else:
            a, b = diagonal(n, a, b)
        lows.append(a)
        highs.append(b)
    return _noncrossing(n, lows, highs)


def _noncrossing(n: int, lows: list[int], highs: list[int]) -> tuple[Pair, ...]:
    """The diagonals (lows[i], highs[i]) of the n-gon (n >= 3), each a
    pair in range with lows[i] < highs[i], sorted, if they are n-3 of them
    and no two cross or are equal; otherwise a ValueError naming the
    fault.

    The wrong count is refused before any list as long as n is built.
    Seen as intervals a..b, two diagonals that do not cross are nested or
    share at most an endpoint.  The pairs are bucketed by their lower end
    a, and the buckets are scanned in order of a, each in descending order
    of b, with a stack of the diagonals enclosing the current one; each
    bucket is then emitted ascending, so the result comes out sorted.
    """
    size = len(lows) + 3
    if size != n:
        raise ValueError(f"a triangulation of the {n}-gon has {n - 3} diagonals, got {len(lows)}")
    above: list[list[int]] = [[] for _ in range(size)]
    for a, b in zip(lows, highs):
        above[a].append(b)
    enclosing: list[Pair] = [(-1, size)]  # a sentinel that encloses every diagonal
    out: list[Pair] = []
    for a, ends in enumerate(above):
        if not ends:
            continue
        top = enclosing[-1]
        while top[1] <= a:
            enclosing.pop()
            top = enclosing[-1]
        ends.sort(reverse=True)
        for b in ends:
            # the enclosing (c, e) has c < a < e < b and crosses (a, b), or equals it
            if top[1] <= b and (top[1] < b or top[0] == a):
                fault = "crossing" if top[1] < b else "duplicate"
                raise ValueError(f"{fault} diagonals {top} and {(a, b)}")
            top = (a, b)
            enclosing.append(top)
        out += enclosing[-1:-1 - len(ends):-1]
    return tuple(out)


def is_triangulation(n: int, diagonals: Iterable[Pair]) -> bool:
    """True iff the pairs, in either orientation, form a triangulation of
    the n-gon: `_checked` without the raise, so it never raises."""
    try:
        _checked(n, diagonals)
    except (ValueError, TypeError):
        return False
    return True


def _least_rotation(fwd: list[T], rev: list[T], least: T) -> list[T]:
    """The least rotation of the cyclic sequence fwd or of its reversal
    rev; `least` is the least entry of both.  Only the rotations that
    start at it are compared: `list.index` finds each start in the
    doubled sequence until one falls at n or later (the first start's
    second copy), and each start takes one O(n) slice.
    A sequence without `least` adds no rotation (`canonical()`'s keys can
    hold it on one side only)."""
    n = len(fwd)
    rotations = []
    for seq in (fwd, rev):
        if least in seq:
            seq = seq + seq
            i = seq.index(least)
            while i < n:
                rotations.append(seq[i:i + n])
                i = seq.index(least, i + 1)
    return min(rotations)


def _canonical_diagonals(n: int, diags: Iterable[Pair]) -> tuple[Pair, ...]:
    """Lexicographically least sorted diagonal tuple over the 2n dihedral images.

    An image is a start vertex u0 and a direction step = +1 or -1: position
    v of the image holds the original vertex (u0 + step*v) % n.  Its sorted
    diagonal tuple lists, for v = 0, 1, ..., the pairs (v, v+d) ascending
    in d.  Give position v the key: every offset d of the diagonals at v,
    ascending, then an end marker n.  The offset from u to a neighbour w is
    (w-u) % n forward and (u-w) % n backward.  Two images that agree on
    every key before v share every diagonal at those positions, so they
    agree on the offsets of n-v or more at v (which point back there); the
    offsets below n-v and the marker then compare exactly as the pairs at
    v do, the marker above every offset because "v has one more diagonal"
    sorts before "move on to v+1".  So the images' whole key sequences
    compare lexicographically as their sorted diagonal tuples do, and equal
    sequences give the same tuple.

    An image's sequence is a rotation of the forward keys, or of the
    reversed backward keys, so `_least_rotation` picks the least one, the
    same routine that picks the orbit census's quiddity keys.  The two
    lists hold different keys, so the least key is taken over both.
    Several images tie on the whole sequence only when the triangulation
    is symmetric.

    Each key is the vertex's own offset list, sorted in place, with the
    marker appended: no copy is made.  Read from the stored, sorted
    diagonals, a vertex's offsets arrive as two runs, to its lower and
    then its upper neighbours, each ascending (forward) or descending
    (backward), so each sort has only two runs to merge.
    """
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for a, b in diags:
        d = b - a  # forward offset from a to b; a < b
        fwd[a].append(d)
        fwd[b].append(n - d)
        bwd[a].append(n - d)
        bwd[b].append(d)
    for key in chain(fwd, bwd):
        key.sort()
        key.append(n)
    # the image (u0, -1) reads bwd[u0], bwd[u0-1], ...: the rotation of
    # the reversed list that starts at n-1-u0
    keys = _least_rotation(fwd, bwd[::-1], min(min(fwd), min(bwd)))
    return tuple((v, v + d) for v, key in enumerate(keys) for d in key if d < n - v)


# The largest polygon `enumerate_triangulations`, `listing` and
# `ear_census(n, "brute")` accept.  It bounds the depth of the nested
# generators: they nest once per vertex above the cache bound, each
# holding the labels of its sub-polygon and of its current parts (about
# n^2 ints in all) and, per cached part, a `_decoder` table of at most
# 11 * 101 slots.  The first triangulation of the 100-gon takes about
# 0.03 s and 18 MB, of which the interpreter and the import are 17 MB
# (peak RSS of a fresh process, medians of five, 2-core x86-64,
# Python 3.11).
ENUMERATION_CEILING = 100

# The enumerator holds a diagonal (a, b), a < b, as the one int
# a * _CODE_BASE + b.  The base is above every n the enumeration accepts,
# so each code stands for one pair and codes sort as their pairs do; it
# is the same for every n, because the cached sub-polygon shapes are
# shared by every n.
_CODE_BASE = ENUMERATION_CEILING + 1


def _decoder(n: int, form: Callable[[int, int], T]) -> Callable[[int], T]:
    """The lookup from each diagonal code of the n-gon to form(a, b).

    It reads a list indexed by code (faster than a dict), built at the
    call and kept by nothing but the caller, so no table outlives its n.
    """
    table: list[T | None] = [None] * (n * _CODE_BASE)
    for b in range(2, n):
        for a in range(b - 1):
            table[a * _CODE_BASE + b] = form(a, b)
    return table.__getitem__


# Polygons up to this many vertices have their triangulations built once
# and kept (4,862 diagonal tuples at 11 vertices); larger ones are
# generated on every call.
_SHAPE_CACHE_MAX = 11


def _code(a: int, b: int) -> int:
    """The code of the diagonal between the vertices labelled a and b."""
    return a * _CODE_BASE + b if a < b else b * _CODE_BASE + a


def _split(
    verts: tuple[int, ...], i: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The triangle (verts[0], verts[1], verts[i]) of the sub-polygon
    whose vertices, in order, carry the labels `verts`.

    Returns the triangle's diagonals as codes of their labels (see
    `_CODE_BASE`) and the labels of the two sub-polygons it cuts off: the
    left i-gon verts[1:i+1] and the right one verts[i:] + verts[:1],
    whose last vertex is verts[0].
    """
    extra = (_code(verts[1], verts[i]),) if i > 2 else ()
    if i < len(verts) - 1:
        extra += (_code(verts[0], verts[i]),)
    return extra, verts[1:i + 1], verts[i:] + verts[:1]


@lru_cache(maxsize=None)
def _cached_shapes(m: int) -> tuple[tuple[int, ...], ...]:
    if m <= 3:
        return ((),)
    return tuple(shape for shape, _ in _split_shapes(tuple(range(m)), -1, _ear_count_set(m, -1)))


def _split_ears(s: int, d: int, j: int) -> tuple[int, int, int]:
    """Splitting a sub-polygon (s, d) at apex j: the ears of the whole
    polygon the triangle (0, 1, j) adds, and the d of the left and right
    parts (see `_eared_shapes`)."""
    added = (j == 2 and s - 2 - d >= 1) + (d == -1 and j == s - 1)
    return added, max(0, j + d - s + 1), min(d, s - 1 - j) + 1


@lru_cache(maxsize=None)
def _ear_counts(s: int, d: int) -> tuple[int, ...]:
    """The ears each of `_cached_shapes(s)` holds as a sub-polygon (s, d),
    in the same order."""
    if s <= 3:
        return (int(s == 3 and d <= 0),)
    counts: list[int] = []
    for j in range(2, s):
        added, d_left, d_right = _split_ears(s, d, j)
        rights = _ear_counts(s - j + 1, d_right)
        for a in _ear_counts(j, d_left):
            counts.extend([added + a + b for b in rights])
    return tuple(counts)


def _ear_count_set(s: int, d: int) -> frozenset[int]:
    """Every number of ears a sub-polygon (s, d) can hold (see
    `_eared_shapes`).

    Its tips are pairwise non-adjacent among s-1-d positions (1..s-2-d,
    or all s around the whole polygon), so it holds at most
    (s-1-d)//2; a part with d = 0 holds at least one and the whole
    polygon at least two.  Every count between is reached.  d can reach
    s, so the bound is clamped at 0.
    """
    most = max(0, (s - 1 - d) // 2)
    return frozenset(range(min(max(0, 1 - d), most), most + 1))


def _eared_shapes(
    verts: tuple[int, ...], d: int, wanted: set[int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(diagonals, ears) of the triangulations of the sub-polygon whose
    vertices, in order, carry the labels `verts` in the whole polygon,
    those that hold a wanted number of the whole polygon's ears; no other
    tuple is built.  `_shapes` checks n and the ear count and calls it
    for the whole polygon, labelled 0..n-1.

    Each triangulation is a tuple of diagonal codes: the diagonal between
    the vertices labelled a < b is the int a * _CODE_BASE + b, so sorting
    the codes sorts the pairs.  The codes come unsorted: the triangle's
    own diagonals, then the left part's, then the right part's.  The
    triangulations come in a fixed order: the apex verts[j] of the
    triangle over the side (verts[0], verts[1]) runs ascending in j; for
    each, every triangulation of the left sub-polygon verts[1..j] is
    taken with every one of the right sub-polygon verts[j..s-1], verts[0]
    (see `_split`), both in this order.  The order does not depend on the
    cache bound, and a filter only drops tuples.

    A sub-polygon of s vertices, in its own positions 0..s-1, is cut off
    by its closing side (0, s-1).  d is the number of its last sides,
    ending at position s-1, that are not sides of the whole polygon; the
    whole polygon itself has d = -1, as its closing side is a side.  It
    holds the tips v with 1 <= v <= s-2-d whose chord (v-1, v+1) is one
    of its diagonals or its closing side.  Splitting it at apex j adds a
    tip 1 when j = 2 and s-2-d >= 1 and, at the top level only, a tip 0
    when j = s-1; the left part has d = max(0, j+d-s+1) and the right
    part min(d, s-1-j) + 1.  A 2-gon holds no ears, a 3-gon one when
    d <= 0.

    Up to the cache bound the cached shapes, in their own positions, are
    filtered by their counts and relabeled once each through a `_decoder`
    table from each own code (p, q) to the code of (verts[p], verts[q]),
    the same routine that builds the listing's text and pair tables; no
    table is built when the labels are the own positions, as they are for
    a whole polygon (a cyclic run of labels from 0 to s-1 is 0..s-1).
    Above it `_split_shapes` builds every tuple in the labels `verts`,
    so no tuple is relabeled twice.  The iterator is returned, not
    yielded from, so a deep recursion adds no generator level per
    sub-polygon.
    """
    s = len(verts)
    wanted = wanted & _ear_count_set(s, d)
    if not wanted:
        return iter(())
    if s > _SHAPE_CACHE_MAX:
        return _split_shapes(verts, d, wanted)
    shapes = zip(_cached_shapes(s), _ear_counts(s, d))
    if verts[0] == 0 and verts[-1] == s - 1:
        return ((shape, ears) for shape, ears in shapes if ears in wanted)
    relabel = _decoder(s, lambda p, q: _code(verts[p], verts[q]))
    return ((tuple(map(relabel, shape)), ears) for shape, ears in shapes if ears in wanted)


def _split_shapes(
    verts: tuple[int, ...], d: int, wanted: set[int], apexes: range | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """`_eared_shapes(verts, d, wanted)` by splitting at every apex, for
    wanted counts the sub-polygon can hold; it also builds the cache.
    Given `apexes`, a range within 2..s-1, it splits at those apexes only,
    so a listing can be made one top-level apex at a time with no
    generator level added.

    Each left shape is taken in order with the right shapes that complete
    it to a wanted count, also in order, so the output is the filtered
    enumeration.  Both parts yield codes of their labels, so a tuple is
    only joined here, never relabeled.  A cached right part's shapes are
    relabeled and kept once per apex and left count, and only those
    that complete some left shape.
    """
    s = len(verts)
    for j in range(2, s) if apexes is None else apexes:
        added, d_left, d_right = _split_ears(s, d, j)
        r = s - j + 1
        right_counts = _ear_count_set(r, d_right)
        left_wanted = {w - added - b for w in wanted for b in right_counts}
        extra, left_verts, right_verts = _split(verts, j)
        completions: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for left, a in _eared_shapes(left_verts, d_left, left_wanted):
            head, base = extra + left, added + a
            rights = completions.get(a)
            if rights is None:
                rights = _eared_shapes(right_verts, d_right, {w - base for w in wanted})
                if r <= _SHAPE_CACHE_MAX:
                    rights = completions[a] = list(rights)
            for right, b in rights:
                yield head + right, base + b


@dataclass(frozen=True)
class DualTree:
    """Dual tree of a triangulation: nodes are triangles, edges share a diagonal."""

    nodes: tuple[Triple, ...]
    edges: tuple[tuple[Triple, Triple], ...]

    @cached_property
    def adjacency(self) -> dict[Triple, tuple[Triple, ...]]:
        adj: dict[Triple, list[Triple]] = {node: [] for node in self.nodes}
        for t1, t2 in self.edges:
            adj[t1].append(t2)
            adj[t2].append(t1)
        return {node: tuple(sorted(nbrs)) for node, nbrs in adj.items()}

    def degree(self, node: Triple) -> int:
        return len(self.adjacency[node])

    @cached_property
    def _degrees(self) -> Counter[Triple]:
        return Counter(chain.from_iterable(self.edges))

    def leaves(self) -> tuple[Triple, ...]:
        """The nodes of degree 1 (the ears), in node order.  The degrees
        come from one count over the edges, shared with `branch_nodes`;
        no adjacency is built."""
        degrees = self._degrees
        return tuple(t for t in self.nodes if degrees[t] == 1)

    def branch_nodes(self) -> tuple[Triple, ...]:
        """The nodes of degree 3 (the internal triangles), in node order,
        from the same count as `leaves`."""
        degrees = self._degrees
        return tuple(t for t in self.nodes if degrees[t] == 3)


@dataclass(frozen=True, order=True)
class Triangulation:
    """A triangulation of the convex n-gon, stored as sorted pairs (a, b), a < b."""

    n: int
    diagonals: tuple[Pair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonals", _checked(self.n, self.diagonals))

    @classmethod
    def _trusted(cls, n: int, pairs: Iterable[Pair]) -> "Triangulation":
        """The triangulation of pairs the package built itself, each
        already ordered a < b and given in sorted order: stored as given,
        with no check and no sort."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "diagonals", tuple(pairs))
        return t

    # -- text format ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Triangulation":
        """Parse the 'n:a-b,c-d,...' text form, e.g. '6:0-2,2-4,0-4'.

        One pass reads each chunk and tests its range as the constructor
        does; the constructor's `_noncrossing` scan then checks the lows
        and highs it collected.  The faults are refused in the
        constructor's order, each in its words, after every chunk's
        syntax: the size, then the first pair out of range, then the
        count, then a crossing or duplicate.
        """
        head, sep, body = text.strip().partition(":")
        if not sep:
            raise ValueError(f"missing ':' in triangulation text {text!r}")
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"bad polygon size in {text!r}") from None
        lows: list[int] = []
        highs: list[int] = []
        bad = None
        for chunk in body.split(",") if body else ():
            # a second '-' stays in hi: int() refuses it there, or reads it
            # as the sign of an hi below lo, which has none
            lo, _, hi = chunk.partition("-")
            try:
                lo, hi = int(lo), int(hi)
                if lo >= hi:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"bad diagonal {chunk!r} in {text!r}; expected 'a-b' with ints a < b"
                ) from None
            # lo has no sign, so 0 <= lo < hi: a diagonal unless hi is out
            # of range or (lo, hi) is a side
            if not (hi < n and 1 < hi - lo < n - 1) and bad is None:
                bad = lo, hi
            lows.append(lo)
            highs.append(hi)
        _check_size(n)
        if bad is not None:
            diagonal(n, *bad)  # raises, in its words
        return cls._trusted(n, _noncrossing(n, lows, highs))

    @cached_property
    def _text(self) -> str:
        return f"{self.n}:" + ",".join(map("%d-%d".__mod__, self.diagonals))

    def __str__(self) -> str:
        """The 'n:a-b,c-d,...' text form that `parse` reads.  Computed
        once per object and cached, so the SVG figure's title and the
        caller share one string."""
        return self._text

    # -- basic structure ---------------------------------------------------

    @cached_property
    def mask(self) -> int:
        """The diagonals as one int: (a, b), a < b, sets bit b(b-1)/2 + a.
        Two triangulations share a diagonal iff their masks share a bit."""
        mask = 0
        for a, b in self.diagonals:
            mask |= 1 << (b * (b - 1) // 2 + a)
        return mask

    @cached_property
    def _triangles(self) -> tuple[Triple, ...]:
        diags = self.diagonals
        zero = bisect_left(diags, (1, 0))  # the diagonals at vertex 0
        tris = []
        group = j = -1
        for a, b in chain(diags[:zero], ((0, self.n - 1),), diags[zero:]):
            if a != group:  # a's first arc
                group, j = a, a + 1
            tris.append((a, j, b))
            j = b
        return tuple(tris)

    def triangles(self) -> tuple[Triple, ...]:
        """The n-2 triangles as sorted vertex triples, in sorted order.

        A triangle (i, j, k), i < j < k, sits over the arc (i, k): a
        diagonal, or the root side (0, n-1).  Each arc (a, b) closes the
        triangle (a, j, b), where j is a's previous upper neighbour, or
        a+1 for a's first arc.  The stored diagonals are sorted, so with
        the root arc placed after vertex 0's diagonals the triangles come
        out sorted, in one pass with no sort.  O(n), computed once per
        object and cached, since internal triangles and the dual tree both
        start from it.
        """
        return self._triangles

    @cached_property
    def _ear_tips(self) -> tuple[int, ...]:
        if self.n < 4:
            raise ValueError("ears are undefined for n < 4")
        return tuple(sorted(set(range(self.n)) - set(chain.from_iterable(self.diagonals))))

    def ear_tips(self) -> tuple[int, ...]:
        """The vertices no diagonal touches, ascending (n >= 4).  An ear's
        tip is its one such vertex, and every such vertex is a tip.
        Computed once per object and cached, as `ears()`, `ear_count()`
        and the pointing string all read it; n < 4 raises on every call."""
        return self._ear_tips

    @cached_property
    def _ears(self) -> tuple[Triple, ...]:
        n, tips = self.n, self.ear_tips()
        first, last = tips[0] == 0, tips[-1] == n - 1  # never both: tips are not adjacent
        ears = [(v - 1, v, v + 1) for v in tips[first:len(tips) - last]]
        if first:
            ears.insert(0, (0, 1, n - 1))
        if last:
            ears.insert(tips[0] == 1, (0, n - 2, n - 1))
        return tuple(ears)

    def ears(self) -> tuple[Triple, ...]:
        """Triangles sharing exactly two sides with the polygon (n >= 4),
        sorted: the triangle at each ear tip v, (v-1, v, v+1) mod n sorted.
        The tips come ascending, so the triangles do too, except those
        that wrap: tip 0 gives (0, 1, n-1), which goes first, and tip n-1
        gives (0, n-2, n-1), which goes after tip 1's (0, 1, 2) if there
        is one.  Computed once per object and cached, as the SVG figure
        reads them again; n < 4 raises on every call."""
        return self._ears

    def internal_triangles(self) -> tuple[Triple, ...]:
        """Triangles sharing no side with the polygon.  Of a triangle
        (i, j, k), i < j < k, the sides can only be (i, j), (j, k) and,
        closing the polygon, (i, k) = (0, n-1)."""
        last = self.n - 1
        return tuple(
            (i, j, k) for i, j, k in self.triangles()
            if j - i > 1 and k - j > 1 and (i, k) != (0, last)
        )

    def ear_count(self) -> int:
        """Number of ears (n >= 4): the number of ear tips."""
        return len(self.ear_tips())

    def dual_tree(self) -> DualTree:
        """The dual tree, its edges sorted, each a sorted pair.

        The triangle (i, j, k), i < j < k, sits over the arc (i, k) and is
        joined to the triangles over its child arcs (i, j) and (j, k) that
        are diagonals.  The one over (i, j) is the triangle before it in
        i's group (see `triangles`), so each triangle that is not the last
        of its group is joined to the next one, its parent.  The one over
        (j, k) is the last of j's group, as k is j's largest upper
        neighbour (a larger one would cross (i, k)).  Taken for each
        triangle in sorted order, the edge to the next triangle of its
        group, (i, k, l), sorts before the one to (j, m, k), so the edges
        come out sorted, with no sort.
        """
        if self.n < 4:
            raise ValueError("dual tree requires n >= 4")
        tris = self.triangles()
        last = {t[0]: t for t in tris}  # each vertex's last triangle
        edges = []
        for t, after in zip(tris, (*tris[1:], (-1,))):
            i, j, k = t
            if after[0] == i:
                edges.append((t, after))
            if k - j > 1:
                edges.append((t, last[j]))
        return DualTree(nodes=tris, edges=tuple(edges))

    # -- dihedral action ---------------------------------------------------

    def _image(self, s: int, step: int) -> "Triangulation":
        """Image under the vertex map v -> s + step*v (mod n), step = +1 or -1."""
        n = self.n
        pairs = []
        for a, b in self.diagonals:
            x, y = (s + step * a) % n, (s + step * b) % n
            pairs.append((x, y) if x < y else (y, x))
        return Triangulation._trusted(n, sorted(pairs))

    def rotated(self, s: int) -> "Triangulation":
        """Image under the rotation v -> v+s (mod n)."""
        _check_int(s, "rotation")
        return self._image(s, 1)

    def reflected(self) -> "Triangulation":
        """Image under the reflection v -> n-v (mod n)."""
        return self._image(0, -1)

    def dihedral_images(self) -> tuple["Triangulation", ...]:
        """Images under all 2n dihedral maps (may repeat for symmetric inputs):
        the rotations v -> v+s, then the reflections v -> s-v, s = 0..n-1."""
        return tuple(self._image(s, step) for step in (1, -1) for s in range(self.n))

    def canonical(self) -> "Triangulation":
        """Least dihedral image; constant on symmetry classes."""
        return Triangulation._trusted(self.n, _canonical_diagonals(self.n, self.diagonals))

    # -- disjointness ------------------------------------------------------

    def is_disjoint_from(self, other: "Triangulation") -> bool:
        """True iff the two triangulations share no diagonal."""
        if self.n != other.n:
            raise ValueError(f"polygon size mismatch: {self.n} != {other.n}")
        return not self.mask & other.mask


def _wanted_ears(n: int, ears: int | None) -> frozenset[int]:
    """The ear counts a listing of the n-gon with this many ears (all for
    None) keeps.  The one check of n and the ear count of every listing,
    made before any tuple is built: n in 3..ENUMERATION_CEILING, and with
    an ear count, n >= 4 and a count of at least 2."""
    _check_size(n)
    if n > ENUMERATION_CEILING:
        raise ValueError(
            f"enumeration is supported for n <= {ENUMERATION_CEILING}, got n={n}"
        )
    if ears is None:
        return _ear_count_set(n, -1)
    _check_at_least(n, 4, "polygon size", "ears are undefined for n < 4")
    _check_ears(ears)
    return frozenset((ears,))


def _shapes(
    n: int, ears: int | None = None, apex: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(diagonal codes, ears) of the n-gon's triangulations with this many
    ears (all of them for None), in the order of `_eared_shapes`; given an
    apex, only those whose triangle over the side (0, 1) has it as its
    apex.  The one entry to the enumeration: it checks n, the ear count
    and the apex at the call, before any tuple is built."""
    wanted = _wanted_ears(n, ears)
    if apex is not None:
        _check_at_least(apex, 2, "apex", f"apex must be in 2..{n - 1}, got {{}}", most=n - 1)
    verts = tuple(range(n))
    if apex is None or n == 3:  # the triangle has one apex and no split
        return _eared_shapes(verts, -1, wanted)
    wanted = wanted & _ear_count_set(n, -1)
    return _split_shapes(verts, -1, wanted, range(apex, apex + 1)) if wanted else iter(())


def listing(n: int, ears: int | None = None, apex: int | None = None) -> list[str]:
    """Text forms of the n-gon's triangulations with this many ears (all
    of them for None), in the order of `enumerate_triangulations`; given
    an apex, 2..n-1, only those whose triangle over the side (0, 1) has it
    as its apex, so the listings of the apexes 2, 3, ..., n-1, in turn,
    are the whole listing.

    Only the triangulations with a wanted ear count are generated
    (`_eared_shapes`), so the work follows the length of the listing, not
    C(n-2); a count no triangulation has builds no tuple.  No
    Triangulation objects are built: each line joins the texts of the
    sorted diagonal codes, in the 'n:a-b,c-d,...' form of `str`.
    """
    shapes = _shapes(n, ears, apex)
    head, text = f"{n}:", _decoder(n, "{}-{}".format)
    return [head + ",".join(map(text, sorted(codes))) for codes, _ in shapes]


def enumerate_triangulations(n: int, ears: int | None = None) -> Iterator[Triangulation]:
    """An iterator over the n-gon's triangulations with this many ears
    (every one for None), each exactly once, in a fixed order.  A bad n
    or ear count raises the `ValueError` of `listing` at the call, not at
    the first `next()`.

    The order is defined by recursively choosing the apex of the triangle
    over the side (0, 1), apex ascending (see `_eared_shapes`); an ear
    count only drops triangulations from it, and none with another count
    is built.  The full count is the Catalan number C(n-2).
    """
    shapes = _shapes(n, ears)
    pair, build = _decoder(n, lambda a, b: (a, b)), Triangulation._trusted
    return (build(n, map(pair, sorted(codes))) for codes, _ in shapes)
