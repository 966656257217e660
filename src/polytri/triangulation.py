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


def _is_side(n: int, pair: Pair) -> bool:
    a, b = pair
    return b - a == 1 or (a, b) == (0, n - 1)


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


@lru_cache(maxsize=4)  # loops count ears at one n, a few when verify suites interleave
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
# and kept (4,862 diagonal tuples at 11 vertices); larger ones are streamed.
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
    depend on the cache bound.
    """
    if m <= _SHAPE_CACHE_MAX:
        return _cached_shapes(m)
    return _streamed_shapes(m)


@lru_cache(maxsize=None)
def _cached_shapes(m: int) -> tuple[tuple[Pair, ...], ...]:
    return tuple(_streamed_shapes(m))


def _streamed_shapes(m: int) -> Iterator[tuple[Pair, ...]]:
    if m <= 3:
        yield ()
        return
    for i in range(2, m):
        extra, left_table, right_table = _split(m, i)
        relabel_right = right_table.__getitem__
        if m - i + 1 <= _SHAPE_CACHE_MAX:
            # relabel the cached right shapes once, for every left shape
            rights = [tuple(map(relabel_right, r)) for r in _cached_shapes(m - i + 1)]
        else:
            rights = None
        for left in _diagonal_tuples(i):
            head = extra + tuple(map(left_table.__getitem__, left))
            if rights is not None:
                for right in rights:
                    yield head + right
            else:
                for right in _streamed_shapes(m - i + 1):
                    yield head + tuple(map(relabel_right, right))


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

    def is_path(self) -> bool:
        return all(self.degree(t) <= 2 for t in self.nodes)

    def path_from(self, leaf: Triple) -> tuple[Triple, ...]:
        """Node order along a path-shaped tree, starting at the given leaf."""
        if not self.is_path():
            raise ValueError("dual tree is not a path")
        if len(self.nodes) == 1:
            return (leaf,)
        if self.degree(leaf) != 1:
            raise ValueError(f"{leaf} is not a leaf of the dual tree")
        order = [leaf]
        prev = None
        while len(order) < len(self.nodes):
            nxt = [t for t in self.adjacency[order[-1]] if t != prev]
            assert len(nxt) == 1
            prev = order[-1]
            order.append(nxt[0])
        return tuple(order)


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
    def diagonal_set(self) -> frozenset[Pair]:
        return frozenset(self.diagonals)

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

    def _boundary_side_count(self, tri: Triple) -> int:
        a, b, c = tri
        return sum(_is_side(self.n, e) for e in ((a, b), (b, c), (a, c)))

    def ears(self) -> tuple[Triple, ...]:
        """Triangles sharing exactly two sides with the polygon (n >= 4)."""
        if self.n < 4:
            raise ValueError("ears are undefined for n < 4")
        return tuple(t for t in self.triangles() if self._boundary_side_count(t) == 2)

    def internal_triangles(self) -> tuple[Triple, ...]:
        """Triangles sharing no side with the polygon."""
        return tuple(t for t in self.triangles() if self._boundary_side_count(t) == 0)

    def ear_count(self) -> int:
        """Number of ears, without materializing the triangles (n >= 4)."""
        if self.n < 4:
            raise ValueError("ears are undefined for n < 4")
        return _ear_count(self.n, self.diagonals)

    def dual_tree(self) -> DualTree:
        if self.n < 4:
            raise ValueError("dual tree requires n >= 4")
        tris = self.triangles()
        by_diag: dict[Pair, list[Triple]] = {}
        for t in tris:
            a, b, c = t
            for e in ((a, b), (b, c), (a, c)):
                if e in self.diagonal_set:
                    by_diag.setdefault(e, []).append(t)
        edges = []
        for d, pair in sorted(by_diag.items()):
            assert len(pair) == 2, f"diagonal {d} not shared by two triangles"
            edges.append(tuple(sorted(pair)))
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
        return not (self.diagonal_set & other.diagonal_set)


def listing(n: int, ears: int | None = None) -> list[str]:
    """Text forms of the n-gon's triangulations with this many ears (all
    of them for None), in the order of `enumerate_triangulations`.

    Ears are counted on the unsorted diagonal tuples and only the kept
    ones are sorted and formatted; no Triangulation objects are built.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if ears is None:
        kept = _diagonal_tuples(n)
    elif n < 4:
        raise ValueError("ears are undefined for n < 4")
    elif ears > n // 2:
        kept = ()  # no triangulation has more than n/2 ears: skip the enumeration
    else:
        kept = (d for d in _diagonal_tuples(n) if _ear_count(n, d) == ears)
    return [_diagonals_text(n, sorted(d)) for d in kept]


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
