"""Seeded fixtures and reference oracles that the tests share; the library does not use them."""

from __future__ import annotations

import random
from math import comb
from typing import Sequence

from bettiforge.exact import Poly, PolyMatrix, Scalar
from bettiforge.gorenstein import GorensteinBetti, HilbertFn, check_gorenstein_betti
from bettiforge.multiset import IntMultiset
from bettiforge.pfaffian import AlternatingMatrix


def random_admissible(rng: random.Random) -> GorensteinBetti:
    """Sample an admissible Gorenstein Betti sequence by seeded rejection.

    The sequence has 2n + 1 generators with n in 1..5.  Degrees are drawn
    near a common base (wide spreads almost never pass the Gaeta-Diesel
    inequalities for larger n), then the largest degree is adjusted so
    that theta is integral.  Gives up after 10,000 draws.
    """
    for _ in range(10_000):
        n = rng.randint(1, 5)
        count = 2 * n + 1
        base = rng.randint(2, 9)
        width = rng.choice((1, 1, 2, 3))
        degs = sorted(base + rng.randint(0, width) for _ in range(count))
        rem = sum(degs) % n
        if rem:
            degs[-1] += n - rem
        gens = IntMultiset.from_values(degs)
        if check_gorenstein_betti(gens).admissible:
            return GorensteinBetti.from_gens(gens)
    raise RuntimeError("failed to sample an admissible sequence")


def random_integer_matrix(size: int, rng: random.Random) -> AlternatingMatrix:
    """Seeded integer alternating matrix with upper entries drawn from -9..9."""
    upper = {
        (i, j): rng.randint(-9, 9)
        for i in range(1, size + 1)
        for j in range(i + 1, size + 1)
    }
    return AlternatingMatrix.from_upper(size, upper)


def assemble_block(a: Poly | Scalar, top: PolyMatrix, c: AlternatingMatrix) -> AlternatingMatrix:
    """Build the m x m alternating matrix with corner a, top block and core C."""
    m = c.size + 2
    a = Poly._coerce(a)
    grid: list[list[Poly]] = [[Poly.zero()] * m for _ in range(m)]
    grid[0][1] = a
    grid[1][0] = -a
    for j in range(c.size):
        grid[0][2 + j] = top.entry(0, j)
        grid[1][2 + j] = top.entry(1, j)
        grid[2 + j][0] = -top.entry(0, j)
        grid[2 + j][1] = -top.entry(1, j)
    for i in range(c.size):
        for j in range(c.size):
            grid[2 + i][2 + j] = c.entries[i][j]
    return AlternatingMatrix(grid)


def delta2(h: HilbertFn, n: int) -> int:
    """Second difference H(n) - 2 H(n - 1) + H(n - 2)."""
    return h.value(n) - 2 * h.value(n - 1) + h.value(n - 2)


def macaulay_bound(a: int, i: int) -> int:
    """a^<i>, the largest value H(i + 1) may take when H(i) = a (i >= 1).

    With the i-binomial expansion a = C(k_i, i) + C(k_{i-1}, i-1) + ... +
    C(k_j, j), k_i > k_{i-1} > ... > k_j >= j >= 1, it is C(k_i + 1, i + 1)
    + ... + C(k_j + 1, j + 1).  Each k is the largest with C(k, c) <= what
    is left of a.
    """
    out = 0
    while a > 0:
        k = i
        while comb(k + 1, i) <= a:
            k += 1
        out += comb(k + 1, i + 1)
        a -= comb(k, i)
        i -= 1
    return out


def is_o_sequence(h: Sequence[int]) -> bool:
    """Macaulay's theorem (Bruns-Herzog, Thm 4.2.10): h is the Hilbert function
    of a standard graded algebra iff h_0 = 1, no h_i is negative and
    h_{i+1} <= h_i^<i> for every i >= 1."""
    if not h or h[0] != 1 or min(h) < 0:
        return False
    return all(h[i + 1] <= macaulay_bound(h[i], i) for i in range(1, len(h) - 1))


def is_si_sequence(h: Sequence[int]) -> bool:
    """Stanley (Adv. Math. 28, 1978): h is symmetric, and its first
    differences h_0, h_1 - h_0, ..., h_t - h_{t-1} up to the middle,
    t = (len(h) - 1) // 2, form an O-sequence."""
    h = list(h)
    if h != h[::-1]:
        return False
    t = (len(h) - 1) // 2
    return is_o_sequence([h[0]] + [h[i] - h[i - 1] for i in range(1, t + 1)])
