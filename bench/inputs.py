"""Seeded benchmark inputs, generated with the standard library only.

Nothing here imports bettiforge: the program under test never chooses
its own inputs.  Every generator takes a ``random.Random`` built from the
benchmark seed, so one seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter

ENUMERATE_ARGV = ["enumerate", "--max-degree", "16", "--max-f", "6", "--jobs", "1"]

# check-mix strata, in the order their counts are reported
LINKED = "linked"
MUTANT = "mutant"
CLAUSE3 = "clause3"
CLAUSE2 = "clause2"
STRATA = (LINKED, MUTANT, CLAUSE3, CLAUSE2)
PER_STRATUM = 1500

STRUCTURE_SHAPES = ((7, 3), (9, 4), (11, 5))  # (size, uniform twist): every entry is linear
STRUCTURE_VARIABLES = ("x1", "x2", "x3")
PFAFFIAN_SIZES = (9, 10)


def _gorenstein_theta(h: list[int]) -> int | None:
    """Socle degree of sorted generator degrees h if they pass Gaeta-Diesel, else None."""
    n = len(h)
    if n < 5 or n % 2 == 0 or h[0] < 1:
        return None
    total = 2 * sum(h)
    if total % (n - 1):
        return None
    theta = total // (n - 1)
    m = (n - 1) // 2
    if any(theta <= h[i] + h[2 * m + 1 - i] for i in range(1, m + 1)):
        return None
    return theta


def _linked_triple(rng: random.Random, n: int) -> tuple[list[int], list[int], list[int]]:
    """Link a sampled admissible Gorenstein sequence of 2n + 1 degrees in a
    complete intersection of three of its slots.

    D = ci + {d0}, E = (d0 + ci) + (d0 + slots), F = d - (d0 + slots), where
    d0 = norm(ci) - theta and d = d0 + norm(ci).
    """
    count = 2 * n + 1
    while True:
        base = rng.randint(2, 9)
        width = rng.choice((1, 1, 2, 3))
        h = sorted(base + rng.randint(0, width) for _ in range(count))
        rem = sum(h) % n
        if rem:
            h[-1] += n - rem
        theta = _gorenstein_theta(h)
        if theta is None:
            continue
        chosen = rng.sample(range(count), 3)
        ci = sorted(h[p] for p in chosen)
        slots = [h[p] for p in range(count) if p not in chosen]
        d0 = sum(ci) - theta
        if d0 < 1:
            continue
        d = d0 + sum(ci)
        k = [s + d0 for s in slots]
        f = sorted(d - x for x in k)
        if f[0] < 1:
            continue
        return sorted(ci + [d0]), sorted([c + d0 for c in ci] + k), f


def _mutant(rng: random.Random, triple) -> tuple[list[int], list[int], list[int]]:
    """Shift one F degree and its E partner d - f by opposite units.

    E still contains d - F and Ehat is unchanged, so the decomposition
    passes, but the induced Gorenstein socle degree moves: a stage-2 reject.
    """
    d_, e, f = triple
    d = sum(d_)
    j = rng.randrange(len(f))
    delta = rng.choice((1, -1))
    if f[j] + delta < 1 or d - f[j] - delta < 1:
        delta = -delta
    e = list(e)
    e.remove(d - f[j])
    e.append(d - f[j] - delta)
    f = list(f)
    f[j] += delta
    return list(d_), sorted(e), sorted(f)


def _clause3_holds(d_: list[int], ehat: list[int]) -> bool:
    """Ehat == (d0 + Dbar) + (theta_z - S) with S = Dstar & (theta_z - Ehat), d0 = min D."""
    d0, dstar = d_[0], Counter(d_[1:])
    theta_z = sum(d_[1:])
    s = dstar & Counter(theta_z - x for x in ehat)
    dbar = dstar - s
    expected = Counter({d0 + v: m for v, m in dbar.items()})
    expected.update({theta_z - v: m for v, m in s.items()})
    return Counter(ehat) == expected


def _clause3_reject(rng: random.Random, k: int) -> tuple[list[int], list[int], list[int]]:
    """E contains d - F (|F| = k), but the leftover Ehat does not split: a clause-3 stage-1 reject."""
    while True:
        d_ = sorted(rng.randint(1, 12) for _ in range(4))
        d = sum(d_)
        f = sorted(rng.randint(1, d - 1) for _ in range(k))
        ehat = [rng.randint(1, 24) for _ in range(3)]
        if not _clause3_holds(d_, ehat):
            return d_, sorted([d - x for x in f] + ehat), f


def _clause2_reject(rng: random.Random, k: int) -> tuple[list[int], list[int], list[int]]:
    """Fully random triple (|F| = k) whose E misses part of d - F: a clause-2 stage-1 reject."""
    while True:
        d_ = sorted(rng.randint(1, 12) for _ in range(4))
        d = sum(d_)
        f = sorted(rng.randint(1, 20) for _ in range(k))
        e = sorted(rng.randint(1, 24) for _ in range(k + 3))
        if Counter(d - x for x in f) - Counter(e):
            return d_, e, f


def check_mix(seed: int) -> list[tuple[str, list[int], list[int], list[int]]]:
    """The check-mix stream: PER_STRATUM triples of each stratum, in seeded order.

    Sizes cycle instead of being drawn (2n + 1 = 5..11 Gorenstein degrees,
    |F| = 2..6 in the random strata), because a decision's cost grows with
    them: every seed then gets the same mix of costs.
    """
    rng = random.Random(f"check-mix/{seed}")
    linked = [_linked_triple(rng, 2 + i % 4) for i in range(PER_STRATUM)]
    items = [(LINKED, *t) for t in linked]
    items += [(MUTANT, *_mutant(rng, t)) for t in linked]
    items += [(CLAUSE3, *_clause3_reject(rng, 2 + i % 5)) for i in range(PER_STRATUM)]
    items += [(CLAUSE2, *_clause2_reject(rng, 2 + i % 5)) for i in range(PER_STRATUM)]
    rng.shuffle(items)
    return items


def _linear_form(rng: random.Random) -> tuple[str, str]:
    """A linear form in x1, x2, x3 with nonzero coefficients, and its negative, as text."""
    coeffs = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in STRUCTURE_VARIABLES]

    def text(cs):
        body = "".join(f"{'-' if c < 0 else '+'}{abs(c)}*{v}" for c, v in zip(cs, STRUCTURE_VARIABLES))
        return body.lstrip("+")

    return text(coeffs), text([-c for c in coeffs])


def structure_presentations(seed: int) -> list[dict]:
    """One graded presentation per size, as matrix JSON text plus its G rows and twists."""
    rng = random.Random(f"structure/{seed}")
    out = []
    for size, twist in STRUCTURE_SHAPES:
        grid: list[list] = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                grid[i][j], grid[j][i] = _linear_form(rng)
        g_rows = sorted(rng.sample(range(1, size + 1), 3))
        matrix = {"entries": grid, "twists": [twist] * size, "variables": list(STRUCTURE_VARIABLES)}
        out.append(
            {
                "size": size,
                "twists": [twist] * size,
                "g_rows": g_rows,
                "matrix_json": json.dumps(matrix, sort_keys=True),
            }
        )
    return out


def generic_matrices(seed: int) -> list[dict]:
    """Fully symbolic alternating matrices: each upper entry is +-(its own variable).

    The seed permutes which variable sits where and picks the signs, so
    the work is that of the generic pfaffian while the text differs by seed.
    """
    rng = random.Random(f"pfaffian/{seed}")
    out = []
    for size in PFAFFIAN_SIZES:
        slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
        labels = list(range(1, len(slots) + 1))
        rng.shuffle(labels)
        grid: list[list] = [[0] * size for _ in range(size)]
        for (i, j), label in zip(slots, labels):
            name = f"a{label:02d}"
            if rng.random() < 0.5:
                grid[i][j], grid[j][i] = name, f"-{name}"
            else:
                grid[i][j], grid[j][i] = f"-{name}", name
        out.append({"size": size, "matrix_json": json.dumps(grid)})
    return out
