"""Seeded input generators and the oracles the benchmark checks against.

Everything here is independent of the polytri package: the program under
test only ever sees the texts and argv built from these functions, and its
answers are checked against the closed forms below, evaluated with
math.comb.

Triangulations are built as diagonal lists of the convex n-gon (vertices
0..n-1) and rendered in the package's text form 'n:a-b,c-d,...' with the
pairs normalised (a < b) and sorted, so that str(parse(text)) == text.
"""

from __future__ import annotations

import random
from math import comb


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def ear_census(n: int, k: int) -> int:
    """Hurtado-Noy count of k-eared triangulations of the n-gon.

    (n/k) 2^(n-2k) binom(n-4, 2k-4) C(k-2), in integers: for k >= 2 the
    product n * 2^(n-2k) * binom * C(k-2) is divisible by k.
    """
    top = n * 2 ** (n - 2 * k) * comb(n - 4, 2 * k - 4) * catalan(k - 2)
    assert top % k == 0
    return top // k


def three_ear_disjoint(n: int, ptype: tuple[int, int, int]) -> int:
    """Disjoint partners of a 3-eared triangulation of type (p, q, r):
    2 C(n-3) - S(p-1) - S(q-1) - S(r-1), S(k) = sum_{i<=k} C(i) C(n-4-i)."""
    def s(k: int) -> int:
        return sum(catalan(i) * catalan(n - 4 - i) for i in range(k + 1))

    return 2 * catalan(n - 3) - sum(s(x - 1) for x in ptype)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def text_of(n: int, diags) -> str:
    return f"{n}:" + ",".join(f"{a}-{b}" for a, b in sorted(diags))


def parse_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    head, _, body = text.partition(":")
    diags = []
    for chunk in body.split(",") if body else ():
        a, _, b = chunk.partition("-")
        diags.append((int(a), int(b)))
    return int(head), diags


def is_triangulation(n: int, diags) -> bool:
    """Own O(k^2) check: n-3 distinct diagonals, no two crossing."""
    if len(set(diags)) != n - 3:
        return False
    for a, b in diags:
        if not (0 <= a < b < n and b - a >= 2 and (a, b) != (0, n - 1)):
            return False
    for i, (a, b) in enumerate(diags):
        for c, d in diags[i + 1:]:
            if len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b):
                return False
    return True


def ear_count(n: int, diags) -> int:
    """v is an ear tip iff (v-1, v+1) is a diagonal (n >= 5)."""
    dset = set(diags)
    return sum(_pair((v - 1) % n, (v + 1) % n) in dset for v in range(n))


# -- shapes ----------------------------------------------------------------


def dihedral_image(n: int, diags, rng: random.Random) -> list[tuple[int, int]]:
    """A random rotation v -> v+s or reflection v -> s-v of the diagonals."""
    s = rng.randrange(n)
    sign = rng.choice((1, -1))
    return sorted(_pair((s + sign * a) % n, (s + sign * b) % n) for a, b in diags)


def two_eared(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Walk a random pointing string over {U, D} from the chord (1, n-1)."""
    a, b = 1, n - 1
    diags = [(a, b)]
    for _ in range(n - 4):
        if rng.random() < 0.5:
            a += 1
        else:
            b -= 1
        diags.append((a, b))
    return diags


def fan(n: int) -> list[tuple[int, int]]:
    return [(0, j) for j in range(2, n - 1)]


def snake(n: int) -> list[tuple[int, int]]:
    """Zigzag 0-2, 2-(n-1), (n-1)-3, 3-(n-2), ... of n-3 diagonals."""
    chain, lo, hi = [0, 2], 3, n - 1
    while len(chain) < n - 2:
        if len(chain) % 2 == 0:
            chain.append(hi)
            hi -= 1
        else:
            chain.append(lo)
            lo += 1
    return [_pair(a, b) for a, b in zip(chain, chain[1:])]


def three_eared(n: int, rng: random.Random) -> tuple[list[tuple[int, int]], tuple[int, int, int]]:
    """Random 3-eared triangulation and its type (p, q, r), p+q+r = n-3.

    The internal triangle is (0, p+1, p+q+2); each of its sides closes a
    branch whose triangles form a path ending in an ear, built by moving
    one end of the closing chord inward at random.
    """
    p = rng.randint(1, n - 5)
    q = rng.randint(1, n - 4 - p)
    r = n - 3 - p - q
    corners = (0, p + 1, p + q + 2, n)
    diags = [(0, p + 1), (p + 1, p + q + 2), (0, p + q + 2)]
    for x, y in zip(corners, corners[1:]):
        lo, hi = x, y
        while hi - lo > 2:
            if rng.random() < 0.5:
                lo += 1
            else:
                hi -= 1
            diags.append(_pair(lo % n, hi % n))
    return diags, (p, q, r)


def random_split(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Iterative random apex splits: the triangle over each open chord gets
    a uniformly random apex, and both new chords are split in turn."""
    diags = []
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        m = rng.randint(i + 1, j - 1)
        for a, b in ((i, m), (m, j)):
            if b - a >= 2:
                diags.append((a, b))
                stack.append((a, b))
    return diags


def stream_profile(count: int, lo: int, hi: int, power: float, shapes,
                   rng: random.Random) -> list[tuple[int, str]]:
    """count (n, shape) pairs, n in lo..hi, in a seeded order.

    The sizes sit at the midpoints of count equal strata of u, mapped by
    lo + (hi - lo) * u**power (power 1 is uniform, larger powers weight
    toward lo).  The shapes are dealt in turn over the sorted sizes from a
    seeded start, so each shape gets an even share of every size range.
    Every seed thus draws the same sizes and the same size mix per shape,
    and run-to-run spread comes from the machine rather than from how many
    large or costly inputs a seed happened to pick.  The seed picks the
    start, the order, and (in the callers) each shape's own randomness.
    """
    sizes = [lo + round((hi - lo) * ((i + 0.5) / count) ** power) for i in range(count)]
    start = rng.randrange(len(shapes))
    pairs = [(n, shapes[(start + i) % len(shapes)]) for i, n in enumerate(sizes)]
    rng.shuffle(pairs)
    return pairs
