"""Seeded fixtures and reference oracles that the tests share; the library does not use them."""

from __future__ import annotations

import random

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
