"""Exact counting formulas for triangulations, ears, and symmetry classes.

All counts are exact integers.  Formulas with rational prefactors are
evaluated in exact rational arithmetic and asserted integral before being
returned; a non-integral value raises ArithmeticError rather than being
silently rounded.

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
enumerating the triangulations themselves.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

from polytri.triangulation import Pair, _diagonal_tuples, _ear_count


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {value}")
    return int(value)


@lru_cache(maxsize=None)
def catalan(k: int) -> int:
    """Catalan number C(k) = binom(2k, k) / (k+1)."""
    if k < 0:
        raise ValueError(f"Catalan numbers need k >= 0, got {k}")
    return comb(2 * k, k) // (k + 1)


def catalan_list(upto: int) -> list[int]:
    """[C(0), ..., C(upto)], by the ratio C(k+1) = C(k) 2(2k+1) / (k+2),
    which divides exactly: one product per k instead of one binomial."""
    out = [1] if upto >= 0 else []
    for k in range(upto):
        out.append(out[k] * 2 * (2 * k + 1) // (k + 2))
    return out


def _catalan_convolution(total: int, lo: int, hi: int) -> int:
    """sum_{i=lo}^{hi-1} C(i) C(total-i), a run of terms of the Catalan
    self-convolution; empty (0) when hi <= lo."""
    cat = catalan_list(total)
    return sum(cat[i] * cat[total - i] for i in range(lo, hi))


def catalan_partial_convolution(n: int, k: int) -> int:
    """Partial convolution S(n, k) = sum_{i=0}^{k} C(i) C(n-4-i).

    Defined for -1 <= k <= n-4; the empty sum S(n, -1) is 0 and the full
    sum S(n, n-4) equals C(n-3).
    """
    if k < -1:
        raise ValueError(f"k must be >= -1, got {k}")
    if k > n - 4:
        raise ValueError(f"k={k} exceeds n-4={n - 4}")
    return _catalan_convolution(n - 4, 0, k + 1)


def max_ears(n: int) -> int:
    """Largest possible ear count of an n-gon triangulation: floor(n/2)."""
    if n < 4:
        raise ValueError(f"ear counts need n >= 4, got {n}")
    return n // 2


def hurtado_noy(n: int, k: int) -> int:
    """Number of triangulations of the n-gon with exactly k ears.

    Evaluates (n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2) in exact rational
    arithmetic.  Zero whenever 2k-4 > n-4, i.e. for k > n/2.
    """
    if n < 4:
        raise ValueError(f"ear counts need n >= 4, got {n}")
    if k < 2:
        raise ValueError(f"every triangulation has >= 2 ears, got k={k}")
    binomial = comb(n - 4, 2 * k - 4)  # comb() is 0 when 2k-4 > n-4
    if binomial == 0:
        return 0
    value = Fraction(n, k) * Fraction(2) ** (n - 2 * k) * binomial * catalan(k - 2)
    return _as_int(value, f"ear count formula at n={n}, k={k}")


def ear_census(n: int, method: str = "formula") -> dict[int, int]:
    """Map k -> number of triangulations with k ears, k = 2..floor(n/2).

    method 'formula' evaluates the closed form per k; 'brute' streams the
    full enumeration and tallies ear counts.
    """
    if n < 4:
        raise ValueError(f"ear census needs n >= 4, got {n}")
    ks = range(2, max_ears(n) + 1)
    if method == "formula":
        return {k: hurtado_noy(n, k) for k in ks}
    if method == "brute":
        counts = dict.fromkeys(ks, 0)
        for diags in _diagonal_tuples(n):
            counts[_ear_count(n, diags)] += 1
        return counts
    raise ValueError(f"unknown method {method!r}")


def symmetry_classes_2ear(n: int) -> int:
    """Closed-form count of symmetry classes of 2-eared triangulations.

    2^(n-6) + 2^(floor(n/2)-3), valid for n >= 5.  At n = 4 the expression
    evaluates to 3/4; the true class count there is 1 (see the orbit
    method).
    """
    if n < 5:
        raise ValueError(f"2-ear class formula requires n >= 5, got {n}")
    value = Fraction(2) ** (n - 6) + Fraction(2) ** (n // 2 - 3)
    return _as_int(value, f"2-ear class formula at n={n}")


def symmetry_classes_3ear(n: int) -> int:
    """Closed-form count of symmetry classes of 3-eared triangulations (n >= 6)."""
    if n < 6:
        raise ValueError(f"3-ear class formula requires n >= 6, got {n}")
    value = Fraction(1, 3) * Fraction(2) ** (n - 8) * (n - 4) * (n - 5)
    if n % 2 == 0:
        value += Fraction(2) ** (n // 2 - 4)
    if n % 3 == 0:
        value += Fraction(1, 3) * Fraction(2) ** (n // 3 - 2)
    return _as_int(value, f"3-ear class formula at n={n}")


def _least_rotation(quiddity: list[int]) -> tuple[int, ...]:
    """The least rotation of a quiddity sequence or of its reversal.

    The least rotation starts at a 1-entry, so only the rotations starting
    at the 1-entries of the sequence and of its reversal are compared.
    """
    n = len(quiddity)
    twice = quiddity + quiddity
    back = twice[::-1]  # the reversed sequence, twice
    return tuple(min(
        [twice[i:i + n] for i in range(n) if twice[i] == 1]
        + [back[i:i + n] for i in range(n) if back[i] == 1]
    ))


def quiddity_key(n: int, diagonals: Iterable[Pair]) -> tuple[int, ...]:
    """Symmetry-class key of a triangulation: the least rotation of its
    quiddity sequence or of the reversed sequence.

    Entry v of the quiddity sequence is the number of triangles at vertex
    v, 1 plus its diagonal count.  It determines the triangulation, and
    the sequences of the 2n dihedral images are exactly the rotations of
    the sequence and of its reversal, so two triangulations share a key
    iff they lie in one symmetry class.  For n >= 4 the 1-entries are the
    ear tips: key.count(1) is the ear count.  The orbit census builds the
    same keys by ear insertion, without diagonals.
    """
    quiddity = [1] * n
    for a, b in diagonals:
        quiddity[a] += 1
        quiddity[b] += 1
    return _least_rotation(quiddity)


def _glue_ears(quiddity: tuple[int, ...]) -> Iterator[list[int]]:
    """The quiddity sequences of the triangulations made by gluing one ear
    onto each side of the given one, side i -> i+1 in turn (the last side
    closes back to 0): the new ear tip is a 1 between the side's ends, and
    each end gains one triangle."""
    m = len(quiddity)
    for i in range(m):
        child = list(quiddity)
        child.insert(i + 1, 1)
        child[i] += 1
        child[(i + 2) % (m + 1)] += 1
        yield child


@lru_cache(maxsize=None)
def _class_keys(n: int) -> frozenset[tuple[int, ...]]:
    """The quiddity keys of the n-gon's symmetry classes (n >= 3).

    Every n-gon triangulation is an (n-1)-gon one with an ear glued onto a
    side, and a dihedral image of the parent gives an image of each child,
    so the children of one key per class at n-1 reach every class at n.
    """
    if n == 3:
        return frozenset({(1, 1, 1)})
    return frozenset(
        _least_rotation(child)
        for parent in _class_keys(n - 1)
        for child in _glue_ears(parent)
    )


def _class_census(n: int) -> Counter[int]:
    # {ear count: number of symmetry classes}
    return Counter(key.count(1) for key in _class_keys(n))


def symmetry_classes_orbit(n: int, ears: int | None = None) -> int:
    """Number of dihedral symmetry classes, optionally filtered by ear count.

    The census builds the class keys level by level by ear insertion,
    from the triangle up to n, and tallies them by ear count.  Each level
    is cached, so the counts for every ear count of one n, and of every
    smaller n, cost one build.  About 1 s at n = 15 and 4 s at n = 16.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got n={n}")
    if ears is not None and n < 4:
        raise ValueError("ear filter requires n >= 4")
    census = _class_census(n)
    return sum(census.values()) if ears is None else census[ears]
