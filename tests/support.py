"""Seeded fixtures and reference oracles that the tests share; the library does not use them."""

from __future__ import annotations

import random
from collections import Counter
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


def operator_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The matrix product folded through the Poly operators entry by entry; the reference for ``@``."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = Poly.zero()
            for k in range(a.cols):
                x, y = a.entries[i][k], b.entries[k][j]
                if x.is_zero or y.is_zero:
                    continue
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


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


def lex_betti(h: Sequence[int]) -> Counter:
    """Graded Betti numbers {(i, j): beta_ij} of R/L, i = 1, 2, 3, for the lex
    ideal L of k[x1, x2, x3] with the Artinian Hilbert function h, an O-sequence.

    L_j is spanned by the dim R_j - h_j largest monomials of degree j in
    lex order, x1 > x2 > x3.  L is stable, so by the Eliahou-Kervaire
    formula (J. Algebra 129, 1990) a minimal generator u of degree j whose
    largest variable is x_k gives C(k - 1, i - 1) to beta_{i, j + i - 1}.
    """
    betti: Counter = Counter()
    below: set = set()  # L_{j-1}
    for j in range(1, len(h) + 1):
        lex_order = [(a, b, j - a - b) for a in range(j, -1, -1) for b in range(j - a, -1, -1)]
        span = set(lex_order[: len(lex_order) - (h[j] if j < len(h) else 0)])
        for a, b, c in span:
            if (a and (a - 1, b, c) in below) or (b and (a, b - 1, c) in below) or (c and (a, b, c - 1) in below):
                continue  # u is x_k times a monomial of L_{j-1}
            k = 3 if c else 2 if b else 1
            for i in (1, 2, 3):
                betti[i, j + i - 1] += comb(k - 1, i - 1)
        below = span
    return betti


def cancels_from_lex(h: Sequence[int], d: Sequence[int], e: Sequence[int], f: Sequence[int]) -> bool:
    """Whether the Betti table (D, E, F) of R/I comes from the lex table of h by
    consecutive cancellations.

    Bigatti, Hulett and Pardue: the lex ideal has the largest graded Betti
    numbers for its Hilbert function; Peeva (Proc. AMS 132, 2004): every
    other Betti table with that Hilbert function comes from it by
    cancelling beta_{i,j} against beta_{i+1,j}.  With c_{i,j} such
    cancellations, c_{i,j} = L_{i,j} - B_{i,j} - c_{i-1,j} >= 0 for
    i = 1, 2, 3 with c_{0,j} = 0, and c_{3,j} = 0 in three variables.
    """
    lex = lex_betti(h)
    table = Counter({(i, j): n for i, twists in ((1, d), (2, e), (3, f)) for j, n in Counter(twists).items()})
    for j in {j for _, j in lex} | {j for _, j in table}:
        c = 0
        for i in (1, 2, 3):
            c = lex[i, j] - table[i, j] - c
            if c < 0:
                return False
        if c:
            return False
    return True
