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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, TypeVar

T = TypeVar("T")
Pair = tuple[int, int]
Triple = tuple[int, int, int]


def diagonal(n: int, a: int, b: int) -> Pair:
    """Normalize {a, b} to a pair (a, b) with a < b, validated for the n-gon."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
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
    a < b, sorted; otherwise a ValueError naming the fault.  One
    O(n log n) pass: seen as intervals a..b, two diagonals that do not
    cross are nested or share at most an endpoint, which a scan sorted by
    (a, -b) checks with a stack of the diagonals enclosing the current one.
    """
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
    enclosing: list[Pair] = []
    for d in diags:
        while enclosing and enclosing[-1][1] <= d[0]:
            enclosing.pop()
        # the enclosing (c, e) equals d, or has c < a < e < b and crosses it
        if enclosing and (enclosing[-1] == d or d[1] > enclosing[-1][1]):
            fault = "duplicate" if enclosing[-1] == d else "crossing"
            raise ValueError(f"{fault} diagonals {enclosing[-1]} and {d}")
        enclosing.append(d)
    return tuple(sorted(diags))


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
    start at it are compared, over a generator, one O(n) slice at a time."""
    n = len(fwd)
    return min(
        seq[i:i + n]
        for seq in (fwd + fwd, rev + rev)
        for i in range(n)
        if seq[i] == least
    )


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
    """
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for a, b in diags:
        d = b - a  # forward offset from a to b; a < b
        fwd[a].append(d)
        fwd[b].append(n - d)
        bwd[a].append(n - d)
        bwd[b].append(d)
    fwd_keys = [tuple(sorted(offs)) + (n,) for offs in fwd]
    bwd_keys = [tuple(sorted(offs)) + (n,) for offs in bwd]
    # the image (u0, -1) reads bwd_keys[u0], bwd_keys[u0-1], ...: the
    # rotation of the reversed list that starts at n-1-u0
    keys = _least_rotation(fwd_keys, bwd_keys[::-1], min(min(fwd_keys), min(bwd_keys)))
    return tuple((v, v + d) for v, key in enumerate(keys) for d in key if d < n - v)


# The enumerator holds a diagonal (a, b), a < b, as the one int
# a * _CODE_BASE + b.  The base is above every n the enumeration accepts,
# so codes sort as their pairs do; it is the same for every n, because the
# cached sub-polygon shapes are shared by every n.
_CODE_BASE = 128

# 'a-b' for every diagonal code of a polygon up to this size, which
# covers every listing.  Looking each code's text up is what makes long
# listings fast: formatting every code with '%d-%d' and divmod instead
# made the listing benchmark's wall time 2.1 times as long (0.915 s
# against 0.435 s, medians of ten seeds, 2-core x86-64, Python 3.11).
# Above it `listing` formats each code, so no table grows with n.
_TEXT_TABLE_MAX = 16
_PAIR_TEXTS = {a * _CODE_BASE + b: f"{a}-{b}" for b in range(_TEXT_TABLE_MAX) for a in range(b)}


def _code_text(code: int) -> str:
    return "%d-%d" % divmod(code, _CODE_BASE)


# The largest polygon `enumerate_triangulations`, `listing` and
# `ear_census(n, "brute")` accept.  It bounds the peak memory of the
# nested generators: they nest once per vertex, and each holds the
# relabel tables of its current split, about n^3/6 entries in all, so
# the first triangulation of the 100-gon takes about 0.2 s and 33 MB
# (peak RSS of a fresh process, medians of five, 2-core x86-64, Python
# 3.11).
ENUMERATION_CEILING = 100


# Polygons up to this many vertices have their triangulations built once
# and kept (4,862 diagonal tuples at 11 vertices); larger ones are
# generated on every call.
_SHAPE_CACHE_MAX = 11


def _split(m: int, i: int) -> tuple[tuple[int, ...], dict[int, int], dict[int, int]]:
    """The triangle (0, 1, i) of the m-gon, in position form, as diagonal
    codes (see `_CODE_BASE`).

    Returns the triangle's diagonals and, for the two sub-polygons it cuts
    off, the maps from a sub-polygon's own diagonal codes to the m-gon's:
    the left i-gon on positions 1..i (its position p is the m-gon's p+1)
    and the right (m-i+1)-gon on positions i..m-1, 0 (its p is i+p, and
    its last position is 0, so a diagonal to it turns round).  The maps
    are built anew on every call and kept by nothing but the caller.
    """
    base = _CODE_BASE
    extra = (base + i,) if i > 2 else ()
    if i < m - 1:
        extra += (i,)  # (0, i)
    tables = []
    for verts in (range(1, i + 1), [*range(i, m), 0]):
        size = len(verts)
        tables.append({
            p * base + q: min(verts[p], verts[q]) * base + max(verts[p], verts[q])
            for q in range(2, size) for p in range(q - 1) if (p, q) != (0, size - 1)
        })
    return extra, tables[0], tables[1]


@lru_cache(maxsize=None)
def _cached_shapes(m: int) -> tuple[tuple[int, ...], ...]:
    if m <= 3:
        return ((),)
    return tuple(shape for shape, _ in _split_shapes(m, -1, _ear_count_set(m, -1)))


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


def _eared_shapes(s: int, d: int, wanted: set[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(diagonals, ears) of the sub-polygon's triangulations that hold a
    wanted number of the whole polygon's ears; no other tuple is built.
    `_shapes` checks n and the ear count and calls it for the whole
    polygon.

    Each triangulation is a tuple of diagonal codes: the diagonal (a, b),
    a < b, of the sub-polygon's own positions is the int
    a * _CODE_BASE + b, so sorting the codes sorts the pairs.  The codes
    come unsorted: the triangle's own diagonals, then the left part's,
    then the right part's.  The triangulations come in a fixed order: the
    apex j of the triangle over the side (0, 1) runs ascending; for each,
    every triangulation of the left sub-polygon 1..j is taken with every
    one of the right sub-polygon j..s-1, 0, both in this order and
    relabeled into the s-gon through the maps of `_split`.  The order
    does not depend on the cache bound, and a filter only drops tuples.

    A sub-polygon has s vertices in its own positions and is cut off by
    its closing side (0, s-1).  d is the number of its last sides, ending
    at position s-1, that are not sides of the whole polygon; the whole
    polygon itself has d = -1, as its closing side is a side.  It holds
    the tips v with 1 <= v <= s-2-d whose chord (v-1, v+1) is one of its
    diagonals or its closing side.  Splitting it at apex j adds a tip 1
    when j = 2 and s-2-d >= 1 and, at the top level only, a tip 0 when
    j = s-1; the left part has d = max(0, j+d-s+1) and the right part
    min(d, s-1-j) + 1.  A 2-gon holds no ears, a 3-gon one when d <= 0.

    Up to the cache bound the cached shapes are filtered by their counts;
    above it they are generated by `_split_shapes`, whose relabel maps
    live only while it works on their apex.  The iterator is
    returned, not yielded from, so a deep recursion adds no generator
    level per sub-polygon.
    """
    wanted = wanted & _ear_count_set(s, d)
    if not wanted:
        return iter(())
    if s <= _SHAPE_CACHE_MAX:
        shapes = zip(_cached_shapes(s), _ear_counts(s, d))
        return ((shape, ears) for shape, ears in shapes if ears in wanted)
    return _split_shapes(s, d, wanted)


def _split_shapes(s: int, d: int, wanted: set[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """`_eared_shapes(s, d, wanted)` by splitting at every apex, for
    wanted counts the sub-polygon can hold; it also builds the cache.

    Each left shape is taken in order with the right shapes that complete
    it to a wanted count, also in order, so the output is the filtered
    enumeration.  Cached right shapes are relabeled once per apex and
    left count, and only those that complete some left shape.
    """
    for j in range(2, s):
        added, d_left, d_right = _split_ears(s, d, j)
        r = s - j + 1
        right_counts = _ear_count_set(r, d_right)
        left_wanted = {w - added - b for w in wanted for b in right_counts}
        extra, left_table, right_table = _split(s, j)
        relabel_left = left_table.__getitem__
        relabel_right = right_table.__getitem__
        completions: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for left, a in _eared_shapes(j, d_left, left_wanted):
            head = extra + tuple(map(relabel_left, left))
            if r > _SHAPE_CACHE_MAX:
                right_wanted = {w - added - a for w in wanted}
                for right, b in _eared_shapes(r, d_right, right_wanted):
                    yield head + tuple(map(relabel_right, right)), added + a + b
                continue
            if a not in completions:
                completions[a] = [
                    (tuple(map(relabel_right, right)), added + a + b)
                    for right, b in zip(_cached_shapes(r), _ear_counts(r, d_right))
                    if added + a + b in wanted
                ]
            for right, ears in completions[a]:
                yield head + right, ears


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

    def leaves(self) -> tuple[Triple, ...]:
        return tuple(t for t in self.nodes if self.degree(t) == 1)

    def branch_nodes(self) -> tuple[Triple, ...]:
        return tuple(t for t in self.nodes if self.degree(t) == 3)


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
        """Parse the 'n:a-b,c-d,...' text form, e.g. '6:0-2,2-4,0-4'."""
        head, sep, body = text.strip().partition(":")
        if not sep:
            raise ValueError(f"missing ':' in triangulation text {text!r}")
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"bad polygon size in {text!r}") from None
        diags = []
        for chunk in body.split(",") if body else ():
            try:
                lo, hi = map(int, chunk.split("-"))
                if lo >= hi:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"bad diagonal {chunk!r} in {text!r}; expected 'a-b' with ints a < b"
                ) from None
            diags.append((lo, hi))
        return cls(n, tuple(diags))

    def __str__(self) -> str:
        return f"{self.n}:" + ",".join(map("%d-%d".__mod__, self.diagonals))

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
        n = self.n
        # above[i]: the neighbours of i above i; the diagonals are stored
        # sorted and n-1 is the largest, so every list comes out ascending
        above = [[i + 1] for i in range(n - 1)]
        for a, b in self.diagonals:
            above[a].append(b)
        above[0].append(n - 1)
        return tuple(
            (i, j, k) for i, nbrs in enumerate(above) for j, k in zip(nbrs, nbrs[1:])
        )

    def triangles(self) -> tuple[Triple, ...]:
        """The n-2 triangles as sorted vertex triples, in sorted order.

        The triangles whose least vertex is i are i with each consecutive
        pair of i's neighbours above i, taken in ascending order (the sides
        to i+1 and, for i = 0, to n-1 count as neighbours).  Emitted for i
        ascending they are already sorted.  O(n), computed once per object
        and cached, since internal triangles and the dual tree both start
        from it.
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
        n = self.n
        return tuple(sorted(tuple(sorted(((v - 1) % n, v, (v + 1) % n))) for v in self.ear_tips()))

    def ears(self) -> tuple[Triple, ...]:
        """Triangles sharing exactly two sides with the polygon (n >= 4),
        sorted: the triangle (v-1, v, v+1) at each ear tip v.  Computed
        once per object and cached, as the SVG figure reads them again;
        n < 4 raises on every call."""
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
        """The triangle (i, j, k), i < j < k, sits over the arc (i, k) and
        is joined to the triangles over its child arcs (i, j) and (j, k)
        that are diagonals.  The one over (i, j) is (i, m, j) with m < j,
        so it sorts before (i, j, k); the one over (j, k) sorts after."""
        if self.n < 4:
            raise ValueError("dual tree requires n >= 4")
        tris = self.triangles()
        over = {(t[0], t[2]): t for t in tris}
        edges = []
        for t in tris:
            i, j, k = t
            if j - i > 1:
                edges.append((over[i, j], t))
            if k - j > 1:
                edges.append((t, over[j, k]))
        return DualTree(nodes=tris, edges=tuple(sorted(edges)))

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


def _shapes(n: int, ears: int | None = None) -> Iterator[tuple[tuple[int, ...], int]]:
    """(diagonal codes, ears) of the n-gon's triangulations with this many
    ears (all of them for None), in the order of `_eared_shapes`.  The one
    entry to the enumeration: it checks n and the ear count at the call,
    before any tuple is built."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if n > ENUMERATION_CEILING:
        raise ValueError(
            f"enumeration is supported for n <= {ENUMERATION_CEILING}, got n={n}"
        )
    if ears is None:
        wanted = _ear_count_set(n, -1)
    elif n < 4:
        raise ValueError("ears are undefined for n < 4")
    elif ears < 2:
        raise ValueError(f"every triangulation has >= 2 ears, got k={ears}")
    else:
        wanted = {ears}
    return _eared_shapes(n, -1, wanted)


def listing(n: int, ears: int | None = None) -> list[str]:
    """Text forms of the n-gon's triangulations with this many ears (all
    of them for None), in the order of `enumerate_triangulations`.

    Only the triangulations with a wanted ear count are generated
    (`_eared_shapes`), so the work follows the length of the listing, not
    C(n-2); a count no triangulation has builds no tuple.  No
    Triangulation objects are built: each line joins the texts of the
    sorted diagonal codes, in the 'n:a-b,c-d,...' form of `str`.
    """
    shapes = _shapes(n, ears)
    head = f"{n}:"
    code_text = _PAIR_TEXTS.__getitem__ if n <= _TEXT_TABLE_MAX else _code_text
    return [head + ",".join(map(code_text, sorted(codes))) for codes, _ in shapes]


def enumerate_triangulations(n: int) -> Iterator[Triangulation]:
    """An iterator over every triangulation of the n-gon, each exactly
    once, in a fixed order.  A bad n raises at the call, not at the first
    `next()`.

    The order is defined by recursively choosing the apex of the triangle
    over the side (0, 1), apex ascending (see `_eared_shapes`).  The
    count is the Catalan number C(n-2).
    """
    shapes = _shapes(n)
    # code -> pair for this n; a list indexed by code looks up faster than a dict
    pair: list[Pair | None] = [None] * (n * _CODE_BASE)
    for b in range(2, n):
        for a in range(b - 1):
            pair[a * _CODE_BASE + b] = (a, b)
    decode, build = pair.__getitem__, Triangulation._trusted
    return (build(n, map(decode, sorted(codes))) for codes, _ in shapes)
