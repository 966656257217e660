"""Exact counting formulas for triangulations, ears, and symmetry classes.

All counts are exact integers.  A formula with a rational prefactor is
evaluated as an integer numerator over a fixed denominator, and the
division is checked exact before the quotient is returned; a nonzero
remainder raises ArithmeticError rather than being silently rounded.

The key closed forms:

* catalan(k) = binom(2k, k) / (k+1); the n-gon has catalan(n-2)
  triangulations.
* The number of triangulations of the n-gon with exactly k ears is
  (n/k) * 2^(n-2k) * binom(n-4, 2k-4) * catalan(k-2), the Hurtado-Noy
  count.  It vanishes for k > n/2, and k ranges over 2..floor(n/2).
* The number of dihedral symmetry classes of 2-eared triangulations is
  2^(n-6) + 2^(floor(n/2)-3) for n >= 5 (the formula is not integral at
  n = 4, where the true class count is 1).
* The number of symmetry classes of 3-eared triangulations is
  (1/3) 2^(n-8) (n-4)(n-5) + [2|n] 2^(n/2-4) + [3|n] (1/3) 2^(n/3-2)
  for n >= 6.

Orbit counts used to cross-check the closed forms come from a census of
class keys.  Each triangulation is keyed by its quiddity sequence (how
many triangles meet each vertex), which determines it (Conway and
Coxeter, 1973): a dihedral image is a rotation or reversal of that
n-tuple, and the ears are its 1-entries.  Gluing an ear onto a side
inserts a 1 into the sequence and adds 1 to both neighbours, so the
census builds the keys at n from one key per class at n-1, never
enumerating the triangulations themselves.  A key is the least rotation
of the sequence or of its reversal, picked by the same routine
(`triangulation._least_rotation`) that picks `Triangulation.canonical()`.
A glued child has as many ears as its parent or one more, one more
exactly when neither end of its side is an ear tip, so a census asked for
k ears builds only the classes with at most k ears at every level: a
parent that already has k ears is glued only onto its sides with a tip at
an end.  At n = 16 it takes 0.07 s for k = 2 and 0.28 s for k = 3,
against 2.2 s for every class (fresh processes, medians of five to seven,
on a 2-core x86-64 machine with Python 3.11).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from polytri.triangulation import (
    _check_at_least,
    _check_ears,
    _check_int,
    _check_size,
    _least_rotation,
    _shapes,
)


def _exact_quotient(numerator: int, denominator: int, what: str, *args: object) -> int:
    """numerator / denominator, which must divide exactly; `what`, formatted
    with args only when the division fails, names the formula and n.  The
    message leaves the numerator out: at large n it has more digits than
    Python will print."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{what.format(*args)} is not an integer")
    return quotient


def catalan(k: int) -> int:
    """Catalan number C(k) = binom(2k, k) / (k+1)."""
    _check_at_least(k, 0, "k", "Catalan numbers need k >= 0, got {}")
    return _exact_quotient(comb(2 * k, k), k + 1, "C({}) by the binomial", k)


def catalan_step(k: int, before: int) -> int:
    """C(k) from before = C(k-1), for k >= 1, by the ratio
    C(k) = C(k-1) 2(2k-1) / (k+1), checked exact: one product and one
    division by a small int instead of a binomial."""
    return _exact_quotient(before * (4 * k - 2), k + 1, "C({}) by the ratio", k)


def catalan_list(upto: int) -> list[int]:
    """[C(0), ..., C(upto)], a run of `catalan_step`: one product and one
    checked division per k instead of one binomial."""
    _check_int(upto, "upto")
    out = [1] if upto >= 0 else []
    for k in range(1, upto + 1):
        out.append(catalan_step(k, out[-1]))
    return out


def _catalan_convolution(cat: list[int], lo: int, hi: int) -> int:
    """sum_{i=lo}^{hi-1} C(i) C(total-i), a run of terms of the Catalan
    self-convolution, from cat = catalan_list(total); empty (0) when
    hi <= lo.  A caller with several runs builds the list once."""
    total = len(cat) - 1
    return sum(cat[i] * cat[total - i] for i in range(lo, hi))


def _check_partial(n: int, k: int) -> None:
    """Refuse a non-int n or k, and a k outside -1 <= k <= n-4, for S(n, k)."""
    _check_int(n, "polygon size")
    _check_at_least(k, -1, "k", "k must be >= -1, got {}")
    if k > n - 4:
        raise ValueError(f"k={k} exceeds n-4={n - 4}")


def catalan_partial_convolution(n: int, k: int) -> int:
    """Partial convolution S(n, k) = sum_{i=0}^{k} C(i) C(n-4-i).

    Defined for -1 <= k <= n-4; the empty sum S(n, -1) is 0 and the full
    sum S(n, n-4) equals C(n-3).
    """
    _check_partial(n, k)
    return _catalan_convolution(catalan_list(n - 4), 0, k + 1)


def max_ears(n: int) -> int:
    """Largest possible ear count of an n-gon triangulation: floor(n/2)."""
    _check_at_least(n, 4, "polygon size", "ear counts need n >= 4, got {}")
    return n // 2


def hurtado_noy(n: int, k: int) -> int:
    """Number of triangulations of the n-gon with exactly k ears.

    Evaluates (n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2) as the integer
    n 2^(n-2k) binom(n-4, 2k-4) C(k-2) divided exactly by k.  Zero whenever
    2k-4 > n-4, i.e. for k > n/2.
    """
    top = max_ears(n)  # refuses n < 4 before k is looked at
    _check_ears(k)
    if k > top:
        return 0
    numerator = (n * comb(n - 4, 2 * k - 4) * catalan(k - 2)) << (n - 2 * k)
    return _exact_quotient(numerator, k, "ear count formula at n={}, k={}", n, k)


def ear_census(n: int, method: str = "formula") -> dict[int, int]:
    """Map k -> number of triangulations with k ears, k = 2..floor(n/2).

    method 'formula' evaluates the closed form per k; 'brute' streams the
    full enumeration and tallies the ear count it carries with each tuple.
    """
    ks = range(2, max_ears(n) + 1)
    if method == "formula":
        return {k: hurtado_noy(n, k) for k in ks}
    if method == "brute":
        counts = dict.fromkeys(ks, 0)
        for _, ears in _shapes(n):
            counts[ears] += 1
        return counts
    raise ValueError(f"unknown method {method!r}")


def symmetry_classes_2ear(n: int) -> int:
    """Closed-form count of symmetry classes of 2-eared triangulations.

    2^(n-6) + 2^(floor(n/2)-3) for n >= 5, as half of 2^(n-5) + 2^(floor(n/2)-2).
    At n = 4 it is 3/4; the true class count there is 1 (see the orbit method).
    """
    _check_at_least(n, 5, "polygon size", "2-ear class formula requires n >= 5, got {}")
    twice = (1 << (n - 5)) + (1 << (n // 2 - 2))
    return _exact_quotient(twice, 2, "2-ear class formula at n={}", n)


def symmetry_classes_3ear(n: int) -> int:
    """Closed-form count of symmetry classes of 3-eared triangulations (n >= 6)."""
    _check_at_least(n, 6, "polygon size", "3-ear class formula requires n >= 6, got {}")
    # 48 times the module docstring's formula, term by term
    times48 = ((n - 4) * (n - 5)) << (n - 4)
    if n % 2 == 0:
        times48 += 3 << (n // 2)
    if n % 3 == 0:
        times48 += 1 << (n // 3 + 2)
    return _exact_quotient(times48, 48, "3-ear class formula at n={}", n)


def _glue_ears(quiddity: Sequence[int], tip_sides: bool = False) -> Iterator[list[int]]:
    """The quiddity sequences of the triangulations made by gluing one ear
    onto each side of the given one, side i -> i+1 in turn (the last side
    closes back to 0): the new ear tip is a 1 between the side's ends, and
    each end gains one triangle.  With tip_sides, only the sides with an
    ear tip (a 1) at either end are glued, in the same order: gluing onto
    any other side adds an ear and turns no tip into a non-tip."""
    m = len(quiddity)
    for i in range(m):
        if tip_sides and quiddity[i] != 1 and quiddity[(i + 1) % m] != 1:
            continue
        child = list(quiddity)
        child.insert(i + 1, 1)
        child[i] += 1
        child[(i + 2) % (m + 1)] += 1
        yield child


@lru_cache(maxsize=1)
def _class_keys(n: int, most: int | None) -> frozenset[bytes]:
    """The quiddity keys of the n-gon's symmetry classes (n >= 3) with at
    most `most` ears (every class when `most` is None), as bytes.

    Every n-gon triangulation is an (n-1)-gon one with an ear glued onto a
    side, and a dihedral image of the parent gives an image of each child,
    so the children of one key per class at n-1 reach every class at n.
    Gluing adds one ear tip and turns at most one end of the side into a
    non-tip (two adjacent tips occur only in the triangle), so a child has
    as many ears as its parent or one more, one more exactly when neither
    end of the side is a tip: a class with at most `most` ears has a
    parent class with at most `most` ears, and a parent that already has
    `most` is glued only onto its sides with a tip at an end, so no child
    above the cap is built.  The triangle stays the base.  Each child is
    keyed by `_least_rotation`, the routine behind `canonical()`; a least
    rotation starts at a 1, an ear tip.  An entry is at most n-2, so bytes
    hold any n <= 257.
    """
    if n == 3:
        return frozenset({bytes((1, 1, 1))})
    return frozenset(
        bytes(_least_rotation(child, child[::-1], 1))
        for parent in _class_keys(n - 1, most)
        for child in _glue_ears(parent, most is not None and parent.count(1) >= most)
    )


def symmetry_classes_orbit(n: int, ears: int | None = None) -> int:
    """Number of dihedral symmetry classes, optionally filtered by ear count.

    The census builds the class keys by ear insertion from the triangle up
    to n and keeps only the last level's keys: a rising run of n at one
    cap costs one build (its cost: `orbit` row of `cli.DOMAINS`).  An ear
    filter caps the census at `ears`, so only the classes with at most
    that many ears are built, and counts the keys with `ears` ear tips
    (1-entries); None builds and counts every class.  It refuses an n
    that is not an int of at least 3 and, with an ear filter, an n below
    4 or an ear count below 2, each with the words its siblings use.
    """
    _check_size(n)
    if ears is not None:
        _check_at_least(n, 4, "polygon size", "ear filter requires n >= 4")
        _check_ears(ears)
    keys = _class_keys(n, ears)
    return len(keys) if ears is None else sum(key.count(1) == ears for key in keys)
