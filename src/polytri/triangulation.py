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


# Callers work through one n at a time: three verify suites (core,
# compositions, formulas) may each be on a different n at once.  An unbounded
# cache would keep 2n maps of n entries for every n ever seen.
@lru_cache(maxsize=3)
def _dihedral_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2n vertex maps of the dihedral group: rotations, then reflections."""
    rotations = [tuple((v + s) % n for v in range(n)) for s in range(n)]
    reflections = [tuple((s - v) % n for v in range(n)) for s in range(n)]
    return tuple(rotations + reflections)


def _map_diagonals(diags: Iterable[Pair], perm: tuple[int, ...]) -> tuple[Pair, ...]:
    return tuple(
        sorted(
            (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            for a, b in diags
        )
    )


def _canonical_diagonals(n: int, diags: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """Lexicographically least image of the diagonal set under the 2n maps."""
    return min(_map_diagonals(diags, perm) for perm in _dihedral_maps(n))


def _ear_count(n: int, diag_set: frozenset[Pair] | set[Pair]) -> int:
    # v is the tip of an ear iff the chord (v-1, v+1) is a diagonal; this
    # characterization holds for every n >= 4.
    count = 0
    for v in range(n):
        a = v - 1 if v else n - 1
        b = v + 1 if v < n - 1 else 0
        if ((a, b) if a < b else (b, a)) in diag_set:
            count += 1
    return count


def _diagonal_sets(verts: tuple[int, ...]) -> Iterator[tuple[Pair, ...]]:
    """Diagonal sets of all triangulations of a convex sub-polygon.

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
        for left in _diagonal_sets(verts[1 : i + 1]):
            for right in _diagonal_sets(verts[i:] + (w0,)):
                yield extra_t + left + right


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
        return f"{self.n}:" + ",".join(f"{a}-{b}" for a, b in self.diagonals)

    # -- basic structure ---------------------------------------------------

    @cached_property
    def diagonal_set(self) -> frozenset[Pair]:
        return frozenset(self.diagonals)

    def triangles(self) -> tuple[Triple, ...]:
        """The n-2 triangles as sorted vertex triples, in sorted order."""
        if self.n == 3:
            return ((0, 1, 2),)
        dset = self.diagonal_set
        n = self.n

        def has_edge(x: int, y: int) -> bool:
            return y - x == 1 or (x, y) == (0, n - 1) or (x, y) in dset

        out: list[Triple] = []
        stack = [(0, n - 1)]
        while stack:
            # the triangle over the chord/side (i, j), facing into the interval
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
        return _ear_count(self.n, self.diagonal_set)

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

    def rotated(self, s: int) -> "Triangulation":
        """Image under the rotation v -> v+s (mod n)."""
        perm = _dihedral_maps(self.n)[s % self.n]
        return Triangulation(self.n, _map_diagonals(self.diagonals, perm), validate=False)

    def reflected(self) -> "Triangulation":
        """Image under the reflection v -> n-v (mod n)."""
        perm = _dihedral_maps(self.n)[self.n]  # reflection with s = 0
        return Triangulation(self.n, _map_diagonals(self.diagonals, perm), validate=False)

    def dihedral_images(self) -> tuple["Triangulation", ...]:
        """Images under all 2n dihedral maps (may repeat for symmetric inputs)."""
        return tuple(
            Triangulation(self.n, _map_diagonals(self.diagonals, perm), validate=False)
            for perm in _dihedral_maps(self.n)
        )

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


def enumerate_triangulations(n: int) -> Iterator[Triangulation]:
    """Yield every triangulation of the n-gon exactly once, in a fixed order.

    The order is defined by recursively choosing the apex of the triangle
    over the side (0, 1), apex ascending.  The count is the Catalan number
    C(n-2).
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    for diags in _diagonal_sets(tuple(range(n))):
        yield Triangulation(n, tuple(sorted(diags)), validate=False)
