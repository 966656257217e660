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

Inside the module a composition of m is its *bar mask* over m-1 bits: bit
j is the bar at j+1 and letter j of the pointing string below (1 = U).
Reversal reverses the bits and conjugation complements them (mask_images).
Each public function checks its input once, at the boundary.  The bulk
routines, enumerate_compositions and all_mask_images, run over every mask
in counter order without a string per mask: the low 8 bits come from
tables of 2^8 entries (the compositions of 9, the 8-bit reversals) and
the high bits from the same routine one table narrower.  The tables stop
at 8 bits, so memory stays bounded at any m.

A 2-eared triangulation of the n-gon has a path-shaped dual tree; walking
the path from one ear to the other, each of the n-4 middle triangles has
exactly one side on the polygon boundary, lying on one of the two boundary
arcs between the ears.  Recording D ("down", side on the arc read first)
or U ("up") per middle triangle yields a *pointing string* of length n-4,
and the positions of the U letters, read as a bar set, yield a composition
of m = n-3.  The four compositions in a class correspond to the up-to-four
oriented readings of one symmetry class of triangulations.  Strings are
written and read back by one chord walk over the diagonals, not the tree;
the walk starts at an ear tip, a vertex no diagonal touches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator

from polytri.triangulation import Triangulation

Composition = tuple[int, ...]

_OPS = ("reversal", "conjugation", "conj_rev")

_TO_BITS = str.maketrans("DU", "01")


def _mask(comp: Iterable[int]) -> tuple[int, int]:
    """(m, bar mask) of a composition: the one check of its parts."""
    comp = tuple(comp)
    if not comp or any(not isinstance(p, int) or p < 1 for p in comp):
        raise ValueError(f"composition parts must be positive integers: {comp!r}")
    return sum(comp), sum(1 << (bar - 1) for bar in accumulate(comp[:-1]))


def _bits(m: int, mask: int) -> str:
    """The m-1 bits of mask as '0'/'1', bit 0 first (bit m-1 pads them)."""
    return bin(mask | 1 << (m - 1))[:2:-1]


def _composition(m: int, mask: int) -> Composition:
    """The composition of m whose bars are the set bits of mask."""
    return tuple(len(gap) + 1 for gap in _bits(m, mask).split("1"))


def mask_images(m: int, mask: int) -> tuple[int, int, int, int]:
    """(mask, reversal, conjugation, conj_rev) of a bar mask of m.  Reversal
    maps bar b to m-b, so it reverses the m-1 bits; conjugation flips them."""
    full = (1 << (m - 1)) - 1
    rev = int("0" + _bits(m, mask), 2)
    return mask, rev, mask ^ full, rev ^ full


# -- bulk routines, from tables over the low bits -------------------------------

_TABLE_BITS = 8  # the widest table has 2^8 entries, whatever m is


@lru_cache(maxsize=None)
def _composition_table(k: int) -> tuple[Composition, ...]:
    """The compositions of k (k <= _TABLE_BITS + 1) in bar-mask order, by
    doubling: mask 2h widens the first part of composition h of k-1, and
    mask 2h+1 puts a bar at 1 in front of it."""
    if k == 1:
        return ((1,),)
    return tuple(
        comp for first, *rest in _composition_table(k - 1)
        for comp in ((first + 1, *rest), (1, first, *rest))
    )


@lru_cache(maxsize=None)
def _reversal_table(bits: int) -> tuple[int, ...]:
    """The reversals over `bits` bits (bits <= _TABLE_BITS) of 0 .. 2^bits - 1
    in order, by doubling: 2h reverses to the reversal of h one bit
    narrower, and 2h+1 to that plus the top bit."""
    if bits == 0:
        return (0,)
    top = 1 << (bits - 1)
    return tuple(rev for h in _reversal_table(bits - 1) for rev in (h, h | top))


def _reversals(bits: int) -> Iterator[int]:
    """The reversal over `bits` bits of 0, 1, .., 2^bits - 1, in order: each
    is the low bits' reversal from the table, shifted up, or'd with the high
    bits' reversal, which comes from the same iterator one table narrower."""
    if bits <= _TABLE_BITS:
        yield from _reversal_table(bits)
        return
    shifted = [rev << (bits - _TABLE_BITS) for rev in _reversal_table(_TABLE_BITS)]
    for rev_high in _reversals(bits - _TABLE_BITS):
        yield from map(rev_high.__or__, shifted)


def all_mask_images(m: int) -> Iterator[tuple[int, int, int, int]]:
    """mask_images(m, mask) for every bar mask of m, in counter order.  Each
    reversal joins the low 8 bits' reversal, from a table, with the high
    bits' reversal, so memory stays bounded at any m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    full = (1 << (m - 1)) - 1
    for mask, rev in enumerate(_reversals(m - 1)):
        yield mask, rev, mask ^ full, rev ^ full


def enumerate_compositions(m: int) -> Iterator[Composition]:
    """All 2^(m-1) compositions of m, ordered by bar mask as a binary counter.

    Bit j of the counter (j = 0..m-2) switches the bar at position j+1, so
    the run starts at (m,) and ends at (1,) * m.  The low bars 1..8 come
    from a table of the 256 compositions of 9, the high bars from the
    compositions of m-8 (recursively), and each output joins the two at
    the part that straddles them.  No table is wider than 2^8 entries, so
    memory stays bounded at any m.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m <= _TABLE_BITS + 1:
        yield from _composition_table(m)
        return
    # (head, last part - 1): the low bars end one cell past where the high
    # bars' first part starts
    low = [(comp[:-1], comp[-1] - 1) for comp in _composition_table(_TABLE_BITS + 1)]
    for first, *rest in enumerate_compositions(m - _TABLE_BITS):
        for head, last in low:
            yield (*head, last + first, *rest)


def composition_class(comp: Composition) -> frozenset[Composition]:
    """Orbit of the composition under {id, reversal, conjugation, conj_rev}."""
    m, mask = _mask(comp)
    return frozenset(_composition(m, image) for image in mask_images(m, mask))


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
    four fixed-point counts.  'direct' runs over the 2^(m-1) bar masks and
    their images (all_mask_images) and counts each orbit once, at its
    least member.
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
        return sum(images[0] == min(images) for images in all_mask_images(m))
    raise ValueError(f"unknown method {method!r}")


# -- pointing strings and 2-eared triangulations ----------------------------


def _check_pointing(dirs: str) -> str:
    if not dirs or any(ch not in "UD" for ch in dirs):
        raise ValueError(f"pointing string must be nonempty over {{U, D}}: {dirs!r}")
    return dirs


def composition_from_pointing(dirs: str) -> Composition:
    """Composition of m = len(dirs)+1 whose bars sit at the U positions."""
    dirs = _check_pointing(dirs)
    return _composition(len(dirs) + 1, int(dirs[::-1].translate(_TO_BITS), 2))


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
    return Triangulation._trusted(n, sorted(diags))


def pointing_string(t: Triangulation) -> str:
    """Read the pointing string of a 2-eared triangulation (n >= 5).

    Orientation is canonical: the ear with the lexicographically smallest
    vertex triple is read first, and the "top" boundary arc is the one
    leaving its tip toward increasing labels.  A middle triangle whose
    single boundary side lies on the top arc points down (D), otherwise
    up (U).  The ear tips come from Triangulation.ear_tips, and each
    tip's ear is the triple (tip-1, tip, tip+1), so no triangle is
    built.  The chord walk of two_eared_from_pointing, inverted: from
    (top, bottom) = (tip+1, tip-1), read D and advance top when
    (top+1, bottom) is a diagonal, else read U and retreat bottom.
    """
    n = t.n
    if n < 5:
        raise ValueError("pointing strings are defined for n >= 5")
    tips = t.ear_tips()
    if len(tips) != 2:
        raise ValueError(f"triangulation has {len(tips)} ears, need exactly 2")
    tip = min(tips, key=lambda v: sorted(((v - 1) % n, v, (v + 1) % n)))
    top, bottom = (tip + 1) % n, (tip - 1) % n
    diags = set(t.diagonals)
    letters = []
    for _ in range(n - 4):
        step = (top + 1) % n
        if (min(step, bottom), max(step, bottom)) in diags:
            letters.append("D")
            top = step
        else:
            letters.append("U")
            bottom = (bottom - 1) % n
    return "".join(letters)


def composition_of(t: Triangulation) -> Composition:
    """Composition of n-3 associated with a 2-eared triangulation."""
    return composition_from_pointing(pointing_string(t))
