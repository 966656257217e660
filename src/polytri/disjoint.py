"""Counting triangulations disjoint from a given one.

Two triangulations of the same n-gon are *disjoint* when they share no
diagonal.  The central quantity here is

    count_disjoint(T) = #{T' : T' shares no diagonal with T},

computed by inclusion-exclusion over the subsets of T's diagonals: the
sum runs bottom-up over T's dual tree as a "tree knapsack" on the sizes
of the cells the subset leaves, O(n^2) big-integer multiplications.

count_avoiding(n, F) counts the triangulations avoiding any fixed set F
of forbidden diagonals, crossing or not, which the parallel-class and
fan-prefix identities need.  It is a bottom-up interval DP: A(i, j), the
number of triangulations of the sub-polygon on the arc i..j (closed by
the chord (i, j)), is 1 for a side, 0 for a forbidden chord and
otherwise the sum over apexes m of A(i, m) A(m, j).  The table has
C(n, 2) cells and each costs one sum of up to n-2 products, so a count
takes O(n^3) big-integer multiplications (the entries grow to about 2n
bits).  With F = T's diagonals it is the oracle for count_disjoint(T).
Neither route materializes a triangulation or recurses.

Identities implemented and cross-checked by the verify suites:

* Every 2-eared triangulation has exactly catalan(n-3) disjoint partners.
  For the fan ("arrow") this reduces to: T' is disjoint from the fan at
  vertex 1 iff T' contains the diagonal (0, 2).
* Inclusion-exclusion over compositions of n-2:
      sum_{(a_1..a_i)} (-1)^(i+1) C(a_1) ... C(a_i) = C(n-3),
  with the generating-series form  sum_i (-x)^i s(x)^(i+1) = c(x)  where
  c is the Catalan series and s = (c-1)/x.
* Avoiding the m shortest diagonals at one vertex leaves
      sum_{i=0}^{n-3-m} C(i) C(n-3-i)   triangulations.
* A 3-eared triangulation of type (p, q, r) (the triangle counts of the
  three dual-tree branches, p+q+r = n-3) has

      sum_{i=0}^{n-4-q} C(i) C(n-4-i)  +  sum_{j=p}^{p+q-1} C(j) C(n-4-j)

  disjoint partners, equivalently 2 C(n-3) - S(p-1) - S(q-1) - S(r-1)
  (three_ear_closed_form, S(k) = catalan_partial_convolution(n, k)), so
  the count depends only on the multiset {p, q, r}.  A published variant
  of the closed form sums to p, q, r instead of p-1, q-1, r-1; it disagrees with
  the case analysis (already at n=6, type (1,1,1): 1 versus 4) and is kept
  only so the verify suite can report the discrepancy as an erratum.
* More generally, the disjointness count depends only on the positions of
  the internal triangles (the internal signature), not on the rest of the
  triangulation.  signature_invariance_check(n) returns the brute-force
  counts grouped by signature, every pair tested bit-parallel: each
  diagonal's column bitset marks the triangulations holding it, and the
  OR of t's columns marks every triangulation sharing a diagonal with t.
* In a regular n-gon, diagonals (a, b) and (c, d) are parallel iff
  a+b = c+d (mod n).  The triangulations avoiding every diagonal parallel
  to one of the sides (0,1) or (0,2) -- residues 1 and 2 -- are exactly
  those disjoint from the "snake", and for even polygons avoiding a single
  residue class leaves 2 C(n-3) triangulations.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter, mul
from typing import Iterable

from polytri.compositions import enumerate_compositions
from polytri.counting import _catalan_convolution, _check_partial, catalan, catalan_list
from polytri.triangulation import (
    Pair,
    Triple,
    Triangulation,
    _check_at_least,
    _check_int,
    _check_size,
    diagonal,
    enumerate_triangulations,
)


# -- named triangulations ----------------------------------------------------


def arrow(n: int) -> Triangulation:
    """The fan at vertex 1: diagonals (1, 3), (1, 4), ..., (1, n-1)."""
    _check_at_least(n, 4, "polygon size", "fan triangulations need n >= 4, got {}")
    return Triangulation._trusted(n, [(1, b) for b in range(3, n)])


def snake(n: int) -> Triangulation:
    """The zigzag triangulation 0-2, 2-(n-1), (n-1)-3, 3-(n-2), ...

    Starting from the chord (0, 2) the path alternately connects the last
    endpoint to the next unused vertex on the opposite side until the n-3
    diagonals are placed.  Every diagonal has (a+b) mod n in {1, 2}.
    """
    _check_at_least(n, 4, "polygon size", "snake triangulations need n >= 4, got {}")
    chain = [0, 2]
    lo, hi = 3, n - 1
    take_high = True
    while len(chain) < n - 2:
        if take_high:
            chain.append(hi)
            hi -= 1
        else:
            chain.append(lo)
            lo += 1
        take_high = not take_high
    return Triangulation(n, tuple(zip(chain, chain[1:])))


def three_ear_rep(n: int, ptype: Iterable[int]) -> Triangulation:
    """Standard 3-eared triangulation of type (p, q, r).

    The internal triangle is {0, p+1, p+q+2}; each of its sides carries a
    fan: at 0 over 1..p+1, at p+1 over p+2..p+q+2, and at p+q+2 over the
    rest back to 0.  The dual-tree branches then have p, q and r triangles.
    """
    p, q, r = check_type(n, ptype)
    diags = [(0, j) for j in range(2, p + 2)]
    diags += [(p + 1, j) for j in range(p + 3, p + q + 3)]
    diags += [(p + q + 2, j) for j in range(p + q + 4, n)]
    return Triangulation(n, (*diags, (0, p + q + 2)))


def check_type(n: int, ptype: Iterable[int]) -> tuple[int, int, int]:
    """ptype as a 3-eared type (p, q, r) of the n-gon (n an int), or ValueError."""
    _check_int(n, "polygon size")
    parts = tuple(ptype)
    if len(parts) != 3 or any(not isinstance(x, int) or x < 1 for x in parts):
        raise ValueError(f"type must be three positive integers, got {parts!r}")
    if sum(parts) != n - 3:
        raise ValueError(f"type {parts} must sum to n-3 = {n - 3}")
    return parts  # type: ignore[return-value]


def three_ear_type(t: Triangulation) -> tuple[int, int, int]:
    """Branch sizes (descending) of the dual tree of a 3-eared triangulation.

    The branches are the sub-polygons that the sides of the one internal
    triangle (i, j, k) cut off, on the arcs i..j, j..k and k..n-1, 0..i;
    an arc of a+1 vertices holds a-1 triangles.  O(n).
    """
    if t.ear_count() != 3:
        raise ValueError(f"triangulation has {t.ear_count()} ears, need exactly 3")
    ((i, j, k),) = t.internal_triangles()
    sizes = sorted((j - i - 1, k - j - 1, t.n - k + i - 1), reverse=True)
    return tuple(sizes)  # type: ignore[return-value]


# -- avoidance counting --------------------------------------------------------


def count_avoiding(n: int, forbidden: Iterable[Pair]) -> int:
    """Number of triangulations of the n-gon using no forbidden diagonal.

    Bottom-up interval DP over the arcs i..j, i from n-2 down to 0 and j
    from i+1 up: A(i, j) is 1 for a side, 0 when (i, j) is forbidden and
    otherwise sum_m A(i, m) A(m, j).  ``row`` holds A(i, .) for increasing
    j and ``col[j]`` holds A(., j) for decreasing i, so each cell is one
    ``sum(map(mul, ...))`` over two whole lists.  O(n^3) big-integer
    multiplications and O(n^2) stored entries; the triangulations
    themselves are never materialized.

    This is the route for a forbidden set that need not be a
    triangulation: parallel classes (count_avoiding_parallel) and fan
    prefixes.  For the diagonals of one triangulation, count_disjoint is
    O(n^2) and gives the same number; this DP is its oracle.
    """
    _check_size(n)
    forb = frozenset(diagonal(n, a, b) for a, b in forbidden)
    col: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 2, -1, -1):
        row = [1]  # A(i, i+1): a side
        col[i + 1].append(1)
        for j in range(i + 2, n):
            # row = A(i, i+1..j-1); col[j] = A(j-1..i+1, j)
            a = 0 if (i, j) in forb else sum(map(mul, row, reversed(col[j])))
            row.append(a)
            col[j].append(a)
    return row[-1]


def count_disjoint(t: Triangulation) -> int:
    """Number of triangulations sharing no diagonal with t.

    By inclusion-exclusion over the subsets S of t's diagonals,

        #disjoint = sum_S (-1)^|S| prod_{cells of S} C(size),

    since a triangulation containing S triangulates each cell S cuts the
    polygon into, and a cell holding j of t's triangles is a (j+2)-gon
    with C(j) triangulations.  Each cell is a subtree of t's dual tree, so
    the sum is a bottom-up "tree knapsack" over that tree, walked through
    t.triangles() without building a DualTree.  A triangle (i, j, k),
    i < j < k, sits over the arc (i, k); taken in (-i, k) order it comes
    after the triangles over its child arcs (i, j) and (j, k).  The
    triangles come sorted, so each vertex's group is already ascending in
    k, and a stable sort by i alone, descending, gives that order.
    ``below[arc][s-1]`` is the signed weight of everything under the arc
    when the cell holding the arc's triangle, still open, has s triangles.
    A child arc that is a side adds nothing.  Over a diagonal the child's
    list g is either cut (its open cell closes: a factor
    -sum_s g[s-1] C(s)) or kept (the two open cells merge: a convolution).

    Cutting below a subtree of b triangles takes b products and merging
    subtrees of a and b triangles about a*b, so a count is O(n^2)
    big-integer multiplications (the entries grow to about 2n bits) and
    nothing recurses.  count_avoiding(t.n, t.diagonals) gives the same
    number by the O(n^3) interval DP; it is this route's oracle.
    """
    n = t.n
    cat = catalan_list(n - 2)[1:]  # cat[s-1] = C(s)
    below: dict[Pair, list[int]] = {}
    for i, j, k in sorted(t.triangles(), key=itemgetter(0), reverse=True):
        f = [1]  # the triangle alone: one open cell of size 1
        for child in ((i, j), (j, k)):
            if child[1] - child[0] < 2:
                continue  # a side of the polygon
            g = below.pop(child)
            cut = -sum(map(mul, g, cat))
            if len(f) == 1:  # f is the triangle alone; kept, it joins g's open cell
                f = [cut, *g]
                continue
            merged = [x * cut for x in f] + [0] * len(g)
            # kept: open cells of sizes a and b merge into size a+b, at index a+b-1
            short, long_ = (f, g) if len(f) <= len(g) else (g, f)
            for a, x in enumerate(short, 1):
                end = a + len(long_)
                merged[a:end] = [m + x * y for m, y in zip(merged[a:end], long_)]
            f = merged
        below[(i, k)] = f
    return sum(map(mul, below[(0, n - 1)], cat))


# -- 2-eared formulas ------------------------------------------------------------


def disjoint_two_eared(n: int) -> int:
    """Disjointness count of any 2-eared triangulation: catalan(n-3)."""
    _check_at_least(n, 4, "polygon size", "2-eared triangulations need n >= 4, got {}")
    return catalan(n - 3)


def disjoint_inclusion_exclusion(n: int) -> int:
    """Evaluate sum over compositions (a_1..a_i) of n-2 of
    (-1)^(i+1) C(a_1)...C(a_i); equals catalan(n-3)."""
    _check_at_least(n, 4, "polygon size", "inclusion-exclusion needs n >= 4, got {}")
    cat = catalan_list(n - 2).__getitem__
    total = 0
    for comp in enumerate_compositions(n - 2):
        product = prod(map(cat, comp))
        total += -product if len(comp) % 2 == 0 else product
    return total


def disjoint_series(limit: int) -> list[int]:
    """Coefficients 0..limit of  sum_{i>=0} (-1)^i x^i s(x)^(i+1)
    where s(x) = (c(x) - 1)/x and c is the Catalan series.

    The alternating sum telescopes back to c(x), so the returned list is
    the Catalan numbers again; the verify suite checks exactly that.
    """
    _check_at_least(limit, 0, "limit", "limit must be >= 0, got {}")
    size = limit + 1

    def mul(f: list[int], g: list[int]) -> list[int]:
        out = [0] * size
        for i, fi in enumerate(f):
            if fi:
                for j in range(min(len(g), size - i)):
                    out[i + j] += fi * g[j]
        return out

    s = catalan_list(size)[1:]
    total = [0] * size
    power = s[:]  # s^(i+1), truncated
    for i in range(size):
        sign = -1 if i % 2 else 1
        for j in range(i, size):  # multiply by x^i and accumulate
            total[j] += sign * power[j - i]
        power = mul(power, s)
    return total


# -- fan-avoidance and 3-eared formulas --------------------------------------------


def fan_prefix_diagonals(n: int, apex: int, m: int) -> tuple[Pair, ...]:
    """The m shortest diagonals at a vertex: (a, a+2), ..., (a, a+m+1) mod n."""
    _check_int(n, "polygon size")
    _check_at_least(apex, 0, "apex", f"apex {{}} out of range for n={n}", n - 1)
    _check_at_least(m, 0, "m", "need 0 <= m <= n-3, got m={}", n - 3)
    return tuple(diagonal(n, apex, (apex + j) % n) for j in range(2, m + 2))


def avoid_fan_formula(n: int, m: int) -> int:
    """Triangulations avoiding the m shortest diagonals at one vertex:
    sum_{i=0}^{n-3-m} C(i) C(n-3-i).  At m = 0 this is catalan(n-2)."""
    _check_at_least(n, 4, "polygon size", "need n >= 4, got {}")
    _check_at_least(m, 0, "m", "need 0 <= m <= n-3, got m={}", n - 3)
    return _catalan_convolution(catalan_list(n - 3), 0, n - 2 - m)


def three_ear_disjoint(n: int, ptype: Iterable[int]) -> int:
    """Disjointness count of a 3-eared triangulation of type (p, q, r).

    Sum of the two case counts (partner triangulations separated by
    whether they use the long chord of the first branch):

        sum_{i=0}^{n-4-q} C(i) C(n-4-i)  +  sum_{j=p}^{p+q-1} C(j) C(n-4-j)

    which is symmetric in (p, q, r): it equals three_ear_closed_form.
    """
    p, q, r = check_type(n, ptype)
    cat = catalan_list(n - 4)
    return _catalan_convolution(cat, 0, n - 3 - q) + _catalan_convolution(cat, p, p + q)


def three_ear_closed_form(n: int, branches: Iterable[int]) -> int:
    """2 C(n-3) - S(p-1) - S(q-1) - S(r-1), S(k) = catalan_partial_convolution(n, k),
    over branch sizes >= 0: the closed form of the 3-ear case sum, where
    an empty branch adds the empty sum S(-1) = 0.  A count of branches
    other than three is refused, and n and each branch must be ints, each
    branch checked then as S checks its k, before the Catalan list is built."""
    _check_int(n, "polygon size")
    branches = tuple(branches)
    if len(branches) != 3:
        raise ValueError(f"a 3-eared triangulation has 3 branches, got {len(branches)}")
    whole = 2 * catalan(n - 3)
    for x in branches:
        _check_int(x, "branch")
        _check_partial(n, x - 1)
    cat = catalan_list(n - 4)
    return whole - sum(_catalan_convolution(cat, 0, x) for x in branches)


def three_ear_disjoint_published(n: int, ptype: Iterable[int]) -> int:
    """Published closed-form variant: three_ear_closed_form with every
    limit one higher, 2 C(n-3) - S(p) - S(q) - S(r).  Already at n=6,
    type (1,1,1), it yields 1 where the true count is 4; kept so the
    verify suite can report the discrepancy as an erratum."""
    p, q, r = check_type(n, ptype)
    return three_ear_closed_form(n, (p + 1, q + 1, r + 1))


# -- parallel diagonal classes --------------------------------------------------


def diagonals_with_residue(n: int, residues: Iterable[int]) -> tuple[Pair, ...]:
    """All diagonals whose parallel class lies in the given residues."""
    _check_size(n)
    wanted = set()
    for r in residues:
        _check_int(r, "residue")
        wanted.add(r % n)
    out = []
    for a in range(n):
        for b in range(a + 2, n):
            if (a, b) != (0, n - 1) and (a + b) % n in wanted:
                out.append((a, b))
    return tuple(out)


def count_avoiding_parallel(n: int, residues: Iterable[int]) -> int:
    """Triangulations avoiding every diagonal in the given parallel classes."""
    _check_at_least(n, 4, "polygon size", "need n >= 4, got {}")
    return count_avoiding(n, diagonals_with_residue(n, residues))


# -- internal signatures ----------------------------------------------------------


def signature_invariance_check(n: int) -> dict[tuple[Triple, ...], list[int]]:
    """{internal signature: disjointness counts of its members} for the n-gon.

    The signature of t is t.internal_triangles(); the keys come sorted and
    each list holds its members' counts in enumeration order.  The counts
    come from column bitsets: bit i of holders[d] is set iff the i-th
    triangulation holds diagonal d, so the OR of holders[d] over t's n-3
    diagonals marks exactly the triangulations sharing a diagonal with t,
    and t's count is the number of bits left clear.  Every one of the
    C(n-2)^2 pairs is still decided by brute force, C(n-2) at a time, so
    the check is independent of count_disjoint; it is only feasible for
    n <= 10.  The disjointness count depends only on the signature iff
    every list is constant.
    """
    _check_at_least(n, 4, "polygon size",
                    "pairwise signature check is feasible for 4 <= n <= 10, got {}", 10)
    ts = list(enumerate_triangulations(n))
    holders: dict[Pair, int] = {}
    for i, t in enumerate(ts):
        for d in t.diagonals:
            holders[d] = holders.get(d, 0) | 1 << i
    groups: dict[tuple[Triple, ...], list[int]] = {}
    for t in ts:
        sharing = 0
        for d in t.diagonals:
            sharing |= holders[d]
        groups.setdefault(t.internal_triangles(), []).append(len(ts) - sharing.bit_count())
    return dict(sorted(groups.items()))
