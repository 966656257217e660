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

from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

Pair = tuple[int, int]
Triple = tuple[int, int, int]


def diagonal(n: int, a: int, b: int) -> Pair:
    """Normalize {a, b} to a pair (a, b) with a < b, validated for the n-gon."""
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"vertex out of range for n={n}: ({a}, {b})")
    if a > b:
        a, b = b, a
    if a == b or b - a < 2 or (a, b) == (0, n - 1):
        raise ValueError(f"({a}, {b}) is not a diagonal of the {n}-gon")
    return (a, b)


def is_diagonal(n: int, a: int, b: int) -> bool:
    try:
        diagonal(n, a, b)
    except ValueError:
        return False
    return True


def crosses(d1: Pair, d2: Pair) -> bool:
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


def is_triangulation(n: int, diagonals: Iterable[Pair]) -> bool:
    """True iff the set of pairs is a triangulation of the n-gon.

    Returns False (never raises) on malformed input: wrong cardinality,
    duplicates, non-diagonals, or a crossing pair.  Runs in O(n log n):
    seen as intervals a..b, two diagonals that do not cross are nested or
    overlap at most in an endpoint, which one pass over them sorted by
    (a, -b) checks with a stack of enclosing right ends.
    """
    if n < 3:
        return False
    try:
        diags = sorted((diagonal(n, a, b) for a, b in diagonals),
                       key=lambda d: (d[0], -d[1]))
    except (ValueError, TypeError):
        return False
    if len(diags) != n - 3 or len(set(diags)) != n - 3:
        return False
    ends: list[int] = []  # right ends of the diagonals enclosing the current one
    for a, b in diags:
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and b > ends[-1]:
            return False  # the enclosing (c, e) has c < a < e < b: they cross
        ends.append(b)
    return True


def _canonical_diagonals(n: int, diags: Iterable[Pair]) -> tuple[Pair, ...]:
    """Lexicographically least sorted diagonal tuple over the 2n dihedral images.

    An image is a start vertex u0 and a direction step = +1 or -1: position
    v of the image holds the original vertex (u0 + step*v) % n.  Its sorted
    diagonal tuple lists, for v = 0, 1, ..., the pairs (v, v+d) ascending
    in d.  So the images compare position by position on a per-position
    key: the offsets d < n-v of the diagonals at v, ascending, then an end
    marker n.  The marker sorts above every offset, because "v has one
    more diagonal" sorts before "move on to v+1".  The offset from u to a
    neighbour w is (w-u) % n forward and (u-w) % n backward.

    At each position only the images with the least key survive, until
    one is left; several survive all n positions only when the
    triangulation is symmetric, and then they are the same image.  The
    survivors at v share every diagonal at the positions below v, so they
    agree on their offsets of n-v or more (which point back there), and
    the whole sorted offset list with the marker compares exactly as the
    key does: each image costs one tuple lookup per position.
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
    images = [(fwd_keys, u0, 1) for u0 in range(n)] + [(bwd_keys, u0, -1) for u0 in range(n)]
    for v in range(n):
        if len(images) == 1:
            break
        at_v = [keys[(u0 + step * v) % n] for keys, u0, step in images]
        least = min(at_v)
        images = [image for image, key in zip(images, at_v) if key == least]
    keys, u0, step = images[0]
    return tuple(
        (v, v + d) for v in range(n) for d in keys[(u0 + step * v) % n] if d < n - v
    )


# A loop counts ears at one n; the bound stays small because a stream of
# texts (the model workload) visits many n.
@lru_cache(maxsize=4)
def _ear_chords(n: int) -> frozenset[Pair]:
    """The n chords (v-1, v+1) of the n-gon, normalized: (v-1, v+1) for
    0 < v < n-1, and (1, n-1) and (0, n-2) for the tips 0 and n-1."""
    return frozenset(zip(range(n - 2), range(2, n))) | {(1, n - 1), (0, n - 2)}


def _ear_count(n: int, diagonals: Iterable[Pair]) -> int:
    """Ears of the triangulation with these normalized diagonals (n >= 4).

    v is the tip of an ear iff the chord (v-1, v+1) is a diagonal, so the
    count is the number of diagonals among the n ear chords.  At n = 4 the
    chords are only the two diagonals, each the chord of two opposite tips,
    and every triangulation has 2 ears.  Counting the vertices that no
    diagonal touches needs no special case but made the listing
    benchmark's wall time 11% longer (same runs as `_diagonals_text`).
    """
    if n == 4:
        return 2
    return len(_ear_chords(n).intersection(diagonals))


# 'a-b' for every pair of labels of a polygon up to this size, which
# covers every listing
_TEXT_TABLE_MAX = 16
_PAIR_TEXTS = {(a, b): f"{a}-{b}" for b in range(_TEXT_TABLE_MAX) for a in range(b)}


def _diagonals_text(n: int, diagonals: Iterable[Pair]) -> str:
    """The 'n:a-b,c-d,...' text form, diagonals in the order given.

    Up to _TEXT_TABLE_MAX vertices each pair's text is looked up, which
    is what makes long listings fast: formatting every pair with '%d-%d'
    instead made the listing benchmark's wall time 28% longer (median of
    ten seeds, 2-core x86-64, Python 3.11).  Above it the pair is
    formatted, so no table grows with n.
    """
    pair_text = _PAIR_TEXTS.__getitem__ if n <= _TEXT_TABLE_MAX else "%d-%d".__mod__
    return f"{n}:" + ",".join(map(pair_text, diagonals))


# Polygons up to this many vertices have their triangulations built once
# and kept (4,862 diagonal tuples at 11 vertices); larger ones are
# generated on every call.
_SHAPE_CACHE_MAX = 11


@lru_cache(maxsize=None)
def _split(m: int, i: int) -> tuple[tuple[Pair, ...], dict[Pair, Pair], dict[Pair, Pair]]:
    """The triangle (0, 1, i) of the m-gon, in position form.

    Returns the triangle's diagonals and, for the two sub-polygons it cuts
    off, the maps from a sub-polygon's own diagonals to the m-gon's: the
    left i-gon on positions 1..i (its position p is the m-gon's p+1) and
    the right (m-i+1)-gon on positions i..m-1, 0 (its p is i+p, and its
    last position is 0).
    """
    extra = ((1, i),) if i > 2 else ()
    if i < m - 1:
        extra += ((0, i),)
    tables = []
    for verts in (range(1, i + 1), [*range(i, m), 0]):
        size = len(verts)
        tables.append({
            (p, q): (min(verts[p], verts[q]), max(verts[p], verts[q]))
            for q in range(2, size) for p in range(q - 1) if (p, q) != (0, size - 1)
        })
    return extra, tables[0], tables[1]


def _diagonal_tuples(m: int) -> Iterable[tuple[Pair, ...]]:
    """Diagonal tuples, unsorted, of all triangulations of the m-gon.

    The apex i of the triangle over the side (0, 1) runs ascending; for
    each, every triangulation of the left sub-polygon 1..i is taken with
    every one of the right sub-polygon i..m-1, 0.  A sub-polygon's tuples
    come in its own positions and are relabeled into the m-gon through the
    maps of `_split`.  The order is fixed by these rules and does not
    depend on the cache bound.  Every ear count is wanted, so this is the
    ear-aware recursion `_eared_shapes` with the counts dropped.
    """
    if m <= _SHAPE_CACHE_MAX:
        return _cached_shapes(m)
    return (shape for shape, _ in _eared_shapes(m, -1, _ear_count_set(m, -1)))


@lru_cache(maxsize=None)
def _cached_shapes(m: int) -> tuple[tuple[Pair, ...], ...]:
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


@lru_cache(maxsize=None)
def _ear_count_set(s: int, d: int) -> frozenset[int]:
    """Every number of ears a sub-polygon (s, d) can hold."""
    if s <= 3:
        return frozenset(_ear_counts(s, d))
    counts: set[int] = set()
    for j in range(2, s):
        added, d_left, d_right = _split_ears(s, d, j)
        rights = _ear_count_set(s - j + 1, d_right)
        counts.update(added + a + b for a in _ear_count_set(j, d_left) for b in rights)
    return frozenset(counts)


def _eared_shapes(s: int, d: int, wanted: set[int]) -> Iterator[tuple[tuple[Pair, ...], int]]:
    """(diagonals, ears) of the sub-polygon's triangulations that hold a
    wanted number of the whole polygon's ears, in the order of
    `_diagonal_tuples(s)`; no other tuple is built.

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
    above it they are generated by `_split_shapes`.  The iterator is
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


def _split_shapes(s: int, d: int, wanted: set[int]) -> Iterator[tuple[tuple[Pair, ...], int]]:
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
        completions: dict[int, list[tuple[tuple[Pair, ...], int]]] = {}
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
    """A triangulation of the convex n-gon, stored as sorted diagonal pairs."""

    n: int
    diagonals: tuple[Pair, ...]
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        object.__setattr__(self, "diagonals", tuple(sorted(self.diagonals)))
        if validate and not is_triangulation(self.n, self.diagonals):
            raise ValueError(
                f"not a triangulation of the {self.n}-gon: {list(self.diagonals)}"
            )

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
        if body:
            for chunk in body.split(","):
                a, sep, b = chunk.partition("-")
                if not sep:
                    raise ValueError(f"bad diagonal {chunk!r} in {text!r}")
                try:
                    lo, hi = int(a), int(b)
                except ValueError:
                    raise ValueError(f"bad diagonal {chunk!r} in {text!r}") from None
                if lo >= hi:
                    raise ValueError(f"diagonal {chunk!r} must be 'a-b' with a < b")
                diags.append(diagonal(n, lo, hi))
        if len(set(diags)) != len(diags):
            raise ValueError(f"duplicate diagonal in {text!r}")
        return cls(n, tuple(diags))

    def __str__(self) -> str:
        return _diagonals_text(self.n, self.diagonals)

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
        and cached, since ears, internal triangles and the dual tree all
        start from it.
        """
        return self._triangles

    def _with_sides(self, sides: int) -> tuple[Triple, ...]:
        """The triangles with this many polygon sides.  Of a triangle
        (i, j, k), i < j < k, the sides can only be (i, j), (j, k) and,
        closing the polygon, (i, k) = (0, n-1)."""
        last = self.n - 1
        return tuple(
            (i, j, k) for i, j, k in self.triangles()
            if (j - i == 1) + (k - j == 1) + (i == 0 and k == last) == sides
        )

    def ears(self) -> tuple[Triple, ...]:
        """Triangles sharing exactly two sides with the polygon (n >= 4)."""
        if self.n < 4:
            raise ValueError("ears are undefined for n < 4")
        return self._with_sides(2)

    def internal_triangles(self) -> tuple[Triple, ...]:
        """Triangles sharing no side with the polygon."""
        return self._with_sides(0)

    def ear_count(self) -> int:
        """Number of ears, without materializing the triangles (n >= 4)."""
        if self.n < 4:
            raise ValueError("ears are undefined for n < 4")
        return _ear_count(self.n, self.diagonals)

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
        return Triangulation(n, tuple(pairs), validate=False)

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
        return Triangulation(
            self.n, _canonical_diagonals(self.n, self.diagonals), validate=False
        )

    # -- disjointness ------------------------------------------------------

    def is_disjoint_from(self, other: "Triangulation") -> bool:
        """True iff the two triangulations share no diagonal."""
        if self.n != other.n:
            raise ValueError(f"polygon size mismatch: {self.n} != {other.n}")
        return not self.mask & other.mask


def listing(n: int, ears: int | None = None) -> list[str]:
    """Text forms of the n-gon's triangulations with this many ears (all
    of them for None), in the order of `enumerate_triangulations`.

    Only the triangulations with a wanted ear count are generated
    (`_eared_shapes`), so the work follows the length of the listing, not
    C(n-2); a count no triangulation has builds no tuple.  No
    Triangulation objects are built.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if ears is None:
        wanted = _ear_count_set(n, -1)
    elif n < 4:
        raise ValueError("ears are undefined for n < 4")
    elif ears < 2:
        raise ValueError(f"every triangulation has >= 2 ears, got k={ears}")
    else:
        wanted = {ears}
    return [_diagonals_text(n, sorted(d)) for d, _ in _eared_shapes(n, -1, wanted)]


def enumerate_triangulations(n: int) -> Iterator[Triangulation]:
    """Yield every triangulation of the n-gon exactly once, in a fixed order.

    The order is defined by recursively choosing the apex of the triangle
    over the side (0, 1), apex ascending (see `_diagonal_tuples`).  The
    count is the Catalan number C(n-2).
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    for diags in _diagonal_tuples(n):
        yield Triangulation(n, diags, validate=False)
