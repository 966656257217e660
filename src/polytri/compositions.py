"""Integer compositions and the 2-eared triangulation correspondence.

A composition of m is an ordered tuple of positive parts summing to m;
there are 2^(m-1) of them.  Compositions of m correspond bijectively to
their *bar sets*: the set of proper partial sums, a subset of {1..m-1}.
Two involutions act on compositions:

* *reversal*  rho = (a_1..a_k)  ->  (a_k..a_1), which maps the bar set B
  to {m - b : b in B};
* *conjugation*, which complements the bar set inside {1..m-1} (bars and
  vacant slots trade places).

They commute, so {id, reversal, conjugation, their product} is a Klein
four-group; its orbits are called composition classes here.  Fixed-point
counts are classical: 2^floor(m/2) palindromic compositions, no
self-conjugate composition for m > 1 (the bar set cannot equal its own
complement), and 2^floor(m/2) compositions fixed by conjugate-reversal
when m is odd, none when m is even.  Burnside then gives the class count
(2^(m-1) + 2^floor(m/2) + [m odd] 2^floor(m/2)) / 4, which simplifies to
2^(m-3) + 2^floor((m-3)/2) for m >= 2.

A 2-eared triangulation of the n-gon has a path-shaped dual tree; walking
the path from one ear to the other, each of the n-4 middle triangles has
exactly one side on the polygon boundary, lying on one of the two boundary
arcs between the ears.  Recording D ("down", side on the arc read first)
or U ("up") per middle triangle yields a *pointing string* of length n-4,
and the positions of the U letters, read as a bar set, yield a composition
of m = n-3.  The four compositions in a class correspond to the up-to-four
oriented readings of one symmetry class of triangulations.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator

from polytri.triangulation import Pair, Triangulation

Composition = tuple[int, ...]

_OPS = ("reversal", "conjugation", "conj_rev")


def _check_composition(comp: Composition) -> Composition:
    comp = tuple(comp)
    if not comp or any(not isinstance(p, int) or p < 1 for p in comp):
        raise ValueError(f"composition parts must be positive integers: {comp!r}")
    return comp


def enumerate_compositions(m: int) -> Iterator[Composition]:
    """All 2^(m-1) compositions of m, ordered by bar set as a binary counter.

    Bit j of the counter (j = 0..m-2) switches the bar at position j+1, so
    the run starts at (m,) and ends at (1,) * m.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    for mask in range(1 << (m - 1)):
        bars = [j + 1 for j in range(m - 1) if mask >> j & 1]
        yield composition_from_bars(m, bars)


def bar_set(comp: Composition) -> frozenset[int]:
    """Proper partial sums of the composition, a subset of {1..m-1}."""
    comp = _check_composition(comp)
    return frozenset(accumulate(comp[:-1]))


def composition_from_bars(m: int, bars: Iterable[int]) -> Composition:
    """Inverse of bar_set for compositions of m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    cuts = sorted(set(bars))
    if cuts and not (1 <= cuts[0] and cuts[-1] <= m - 1):
        raise ValueError(f"bars must lie in 1..{m - 1}: {cuts}")
    points = [0] + cuts + [m]
    return tuple(points[i + 1] - points[i] for i in range(len(points) - 1))


def reverse(comp: Composition) -> Composition:
    return _check_composition(comp)[::-1]


def conjugate(comp: Composition) -> Composition:
    """Complement the bar set inside {1..m-1}."""
    comp = _check_composition(comp)
    m = sum(comp)
    bars = bar_set(comp)
    return composition_from_bars(m, (i for i in range(1, m) if i not in bars))


def composition_class(comp: Composition) -> frozenset[Composition]:
    """Orbit of the composition under {id, reversal, conjugation, conj_rev}."""
    comp = _check_composition(comp)
    rev = reverse(comp)
    return frozenset((comp, rev, conjugate(comp), conjugate(rev)))


def count_fixed(m: int, op: str) -> int:
    """Number of compositions of m fixed by the given involution.

    op is one of 'reversal', 'conjugation', 'conj_rev'.  Closed forms:
    reversal fixes 2^floor(m/2) compositions; conjugation fixes none for
    m > 1 (and only (1) for m = 1); conjugate-reversal fixes 2^floor(m/2)
    for odd m and none for even m.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if op == "reversal":
        return 1 << m // 2
    if op == "conjugation":
        return 1 if m == 1 else 0
    if op == "conj_rev":
        return 1 << m // 2 if m % 2 else 0
    raise ValueError(f"op must be one of {_OPS}, got {op!r}")


def count_classes(m: int, method: str = "closed") -> int:
    """Number of composition classes of m.

    method 'closed' evaluates 2^(m-3) + 2^floor((m-3)/2) exactly (requires
    m >= 2; at m = 1 the formula is not integral).  'burnside' averages the
    four fixed-point counts.  'direct' enumerates the 2^(m-1) bar sets as
    bitmasks over m-1 bits (bit j is the bar at j+1): reversal reverses the
    bits, conjugation complements them, and each orbit is counted once, at
    its least member.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if method == "closed":
        if m < 2:
            raise ValueError("closed form for class counts requires m >= 2")
        if m == 2:
            return 1  # 2^-1 + 2^-1
        return (1 << (m - 3)) + (1 << ((m - 3) // 2))
    if method == "burnside":
        total = (1 << (m - 1)) + sum(count_fixed(m, op) for op in _OPS)
        if total % 4:
            raise ArithmeticError(f"Burnside sum {total} not divisible by 4 at m={m}")
        return total // 4
    if method == "direct":
        bits = m - 1
        full = (1 << bits) - 1
        count = 0
        for mask in range(1 << bits):
            rev = int(f"{mask:0{bits}b}"[::-1], 2)
            count += mask == min(mask, rev, mask ^ full, rev ^ full)
        return count
    raise ValueError(f"unknown method {method!r}")


# -- text formats ---------------------------------------------------------


def format_composition(comp: Composition) -> str:
    return "+".join(str(p) for p in _check_composition(comp))


def parse_composition(text: str) -> Composition:
    try:
        parts = tuple(int(p) for p in text.strip().split("+"))
    except ValueError:
        raise ValueError(f"bad composition text {text!r}") from None
    return _check_composition(parts)


def _check_pointing(dirs: str) -> str:
    if not dirs or any(ch not in "UD" for ch in dirs):
        raise ValueError(f"pointing string must be nonempty over {{U, D}}: {dirs!r}")
    return dirs


# -- pointing strings and 2-eared triangulations ----------------------------


def composition_from_pointing(dirs: str) -> Composition:
    """Composition of m = len(dirs)+1 whose bars sit at the U positions."""
    dirs = _check_pointing(dirs)
    m = len(dirs) + 1
    return composition_from_bars(m, (i + 1 for i, ch in enumerate(dirs) if ch == "U"))


def pointing_from_composition(comp: Composition) -> str:
    """Inverse of composition_from_pointing; the string has length m-1."""
    comp = _check_composition(comp)
    m = sum(comp)
    if m < 2:
        raise ValueError("pointing strings need a composition of m >= 2")
    bars = bar_set(comp)
    return "".join("U" if i in bars else "D" for i in range(1, m))


def two_eared_from_pointing(dirs: str) -> Triangulation:
    """Build the standard-position 2-eared triangulation of a pointing string.

    With d = #D and n = len(dirs)+4, vertex 0 is the tip of one ear, 1..d+1
    is the top boundary path, d+2 the tip of the other ear, and d+3..n-1
    the bottom path.  Starting from the chord (1, n-1), a D advances the
    top endpoint and a U retreats the bottom endpoint; the intermediate
    chords are exactly the diagonals.  The ears are (n-1, 0, 1) and
    (d+1, d+2, d+3).
    """
    dirs = _check_pointing(dirs)
    n = len(dirs) + 4
    a, b = 1, n - 1
    diags = [(a, b)]
    for ch in dirs:
        if ch == "D":
            a += 1
        else:
            b -= 1
        diags.append((a, b))
    return Triangulation(n, tuple(sorted(diags)), validate=False)


def _ear_tip(n: int, ear: tuple[int, int, int]) -> int:
    """The vertex of an ear whose two polygon neighbors are both in the ear."""
    members = set(ear)
    for v in ear:
        if (v - 1) % n in members and (v + 1) % n in members:
            return v
    raise AssertionError(f"{ear} has no tip in the {n}-gon")


def pointing_string(t: Triangulation) -> str:
    """Read the pointing string of a 2-eared triangulation (n >= 5).

    Orientation is canonical: the ear with the lexicographically smallest
    vertex triple is read first, and the "top" boundary arc is the one
    leaving its tip toward increasing labels.  A middle triangle whose
    single boundary side lies on the other ("bottom") arc points up (U),
    otherwise down (D).
    """
    n = t.n
    if n < 5:
        raise ValueError("pointing strings are defined for n >= 5")
    ears = t.ears()
    if len(ears) != 2:
        raise ValueError(f"triangulation has {len(ears)} ears, need exactly 2")
    left, right = min(ears), max(ears)
    tip_l, tip_r = _ear_tip(n, left), _ear_tip(n, right)

    top_sides: set[Pair] = set()
    w = (tip_l + 1) % n
    while w != (tip_r - 1) % n:
        nxt = (w + 1) % n
        top_sides.add((w, nxt) if w < nxt else (nxt, w))
        w = nxt

    order = t.dual_tree().path_from(left)
    assert order[-1] == right
    letters = []
    for tri in order[1:-1]:
        a, b, c = tri
        sides = [
            e
            for e in ((a, b), (b, c), (a, c))
            if e[1] - e[0] == 1 or e == (0, n - 1)
        ]
        assert len(sides) == 1, f"middle triangle {tri} has {len(sides)} sides"
        letters.append("D" if sides[0] in top_sides else "U")
    return "".join(letters)


def composition_of(t: Triangulation) -> Composition:
    """Composition of n-3 associated with a 2-eared triangulation."""
    return composition_from_pointing(pointing_string(t))
