"""Numerical theory of codimension-3 Artinian Gorenstein graded algebras.

A Gorenstein Betti sequence in codimension 3 is determined by the multiset
H of generator degrees: the syzygy twists are theta - H and the last twist
is theta, where theta = 2*norm(H)/(|H| - 1).  Admissibility is the
Gaeta-Diesel test: |H| odd, theta integral, and theta > h_{i+1} + h_{2m+2-i}
for i = 1..m on the sorted degrees.

This module also computes the minimal complete-intersection type mci(beta)
contained in any ideal with the given Betti sequence, the index sets B, C,
Bbar driving that computation, and Hilbert functions of graded free
resolutions and of complete intersections (a numerator polynomial divided
by (1 - t)^nvars).
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Sequence

from ._frozen import Frozen
from .multiset import IntMultiset


class GorensteinVerdict(Frozen):
    _fields = ("admissible", "theta", "reason")
    admissible: bool
    theta: int | None
    reason: str | None


def theta_of(degrees: Sequence[int]) -> int | None:
    """theta = 2*sum(degrees)/(len(degrees) - 1), or None when it is not an integer.

    This is the socle-syzygy degree of a Gorenstein quotient with these
    generator degrees, and the degree of the alternating presentation
    whose rows have these twists.
    """
    n = len(degrees)
    if n == 1:
        return None
    theta, rem = divmod(2 * sum(degrees), n - 1)
    return None if rem else theta


def gaeta_diesel_violation(h: Sequence[int], theta: int) -> tuple[int, int] | None:
    """First failing inequality theta > h_{i+1} + h_{2m+2-i}, or None.

    ``h`` must be sorted ascending with odd length 2m+1; a violation is
    reported as (i, pair_sum) with 1-based i.
    """
    m = (len(h) - 1) // 2
    for i in range(1, m + 1):
        pair = h[i] + h[2 * m + 1 - i]  # h_{i+1} + h_{2m+2-i}, 1-based
        if theta <= pair:
            return i, pair
    return None


def check_gorenstein_betti(gens: IntMultiset) -> GorensteinVerdict:
    """Gaeta-Diesel admissibility test for a generator-degree multiset."""
    h = gens.values()  # sorted ascending, h[0] = h_1
    n = len(h)
    if n < 3 or n % 2 == 0:
        return GorensteinVerdict(False, None, f"|gens| = {n} must be odd and >= 3")
    if h[0] < 1:
        return GorensteinVerdict(False, None, "generator degrees must be positive")
    theta = theta_of(h)
    if theta is None:
        return GorensteinVerdict(False, None, f"2*norm/(card-1) = {2 * sum(h)}/{n - 1} is not an integer")
    hit = gaeta_diesel_violation(h, theta)
    if hit is not None:
        i, pair = hit
        m = (n - 1) // 2
        return GorensteinVerdict(
            False, theta, f"theta = {theta} <= h_{i + 1} + h_{2 * m + 2 - i} = {pair}"
        )
    return GorensteinVerdict(True, theta, None)


class GorensteinBetti(Frozen):
    """Betti data (gens, theta) of a codimension-3 Gorenstein quotient, admissible by construction."""

    _fields = ("gens", "theta")
    gens: IntMultiset
    theta: int

    def __init__(self, gens: IntMultiset, theta: int) -> None:
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "theta", theta)
        h = gens.values()
        n = len(h)
        if n < 3 or n % 2 == 0:
            raise ValueError(f"|gens| = {n} must be odd and >= 3")
        if self.theta is not None and (isinstance(self.theta, bool) or not isinstance(self.theta, int)):
            raise ValueError(f"theta must be an int, got {self.theta!r}")
        theta = theta_of(h)
        if theta is None and self.theta is None:  # see from_gens
            raise ValueError(f"2*norm = {2 * self.gens.norm()} is not divisible by {n - 1}")
        if theta != self.theta:
            raise ValueError(
                f"theta = {self.theta} inconsistent with gens (2*norm = {2 * self.gens.norm()}, card-1 = {n - 1})"
            )
        verdict = check_gorenstein_betti(gens)
        if not verdict.admissible:
            raise ValueError(f"inadmissible Gorenstein Betti sequence: {verdict.reason}")

    @classmethod
    def from_gens(cls, gens: IntMultiset) -> "GorensteinBetti":
        """Betti data with theta worked out from ``gens``.

        A non-integral theta is passed on as None, which ``__init__``
        reports after its count check.
        """
        return cls(gens, theta_of(gens.values()))

    def syzygies(self) -> IntMultiset:
        return self.gens.affine(self.theta, -1)

    def modules(self) -> list[IntMultiset]:
        """Resolution twist multisets [gens, syzygies, {theta}]."""
        return [self.gens, self.syzygies(), IntMultiset.from_values([self.theta])]

    def to_json(self) -> dict:
        return {"gens": self.gens.to_list(), "theta": self.theta}


def ci_index_sets(b: GorensteinBetti) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index sets (B, C, Bbar) on the sorted degrees, 1-based.

    With degrees d_1 <= ... <= d_{2n+1} and socle-syzygy degree theta:

    * B    = {3 <= i <= n+1   | theta <= d_i + d_{2n+4-i}}
    * C    = {4 <= i <= n+2   | theta <= d_i + d_{2n+5-i}}
    * Bbar = {3 <= i <= 2n+1  | theta <= d_i + d_{2n+4-i}}
    """
    d = b.gens.values()
    theta = b.theta
    n = (b.gens.card() - 1) // 2

    def deg(i: int) -> int:  # 1-based
        return d[i - 1]

    big_b = tuple(i for i in range(3, n + 2) if theta <= deg(i) + deg(2 * n + 4 - i))
    big_c = tuple(i for i in range(4, n + 3) if theta <= deg(i) + deg(2 * n + 5 - i))
    b_bar = tuple(i for i in range(3, 2 * n + 2) if theta <= deg(i) + deg(2 * n + 4 - i))
    return big_b, big_c, b_bar


def mci_from_sorted(d: Sequence[int], theta: int) -> tuple[int, int, int]:
    """mci on a sorted admissible degree list; no admissibility re-check.

    The loops run over 0-based indices: d[i] is d_{i+1} in the 1-based
    notation of :func:`ci_index_sets`, so B is {2 <= i <= n | theta <=
    d[i] + d[2n+2-i]} and C is {3 <= i <= n+1 | theta <= d[i] + d[2n+3-i]}.
    Every index read is at most 2n, so the triple is defined on any
    sorted list of odd length 2n+1 >= 3, admissible or not.  The F search
    in the ``aci`` module reads it on each G0 it completes.  It builds
    each G0 from pair sums below theta, so that G0 passes Gaeta-Diesel by
    construction and is not tested again there, and it keeps B empty,
    since stage 3 admits no G0 with B not empty; so it reads only e_3.
    """
    n = (len(d) - 1) // 2
    b_min = b_max = 0  # 0 while B is empty: B holds no index below 2
    for i in range(2, n + 1):
        if theta <= d[i] + d[2 * n + 2 - i]:
            if not b_min:
                b_min = i
            b_max = i
    if b_min:
        return (d[0], d[b_max], d[2 * n + 2 - b_min])
    c_max = 0
    for i in range(3, n + 2):
        if theta <= d[i] + d[2 * n + 3 - i]:
            c_max = i
    if c_max:
        return (d[0], d[1], d[c_max])
    return (d[0], d[1], d[2])


def mci(b: GorensteinBetti) -> tuple[int, int, int]:
    """Minimal type of a regular sequence inside an ideal with this Betti sequence."""
    return mci_from_sorted(b.gens.values(), b.theta)


# ----------------------------------------------------------------------
# Hilbert functions
# ----------------------------------------------------------------------


class HilbertFn(Frozen):
    """Hilbert function of an Artinian graded quotient, H(0), H(1), ..."""

    _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "values", values)
        if not values or values[0] != 1:
            raise ValueError("H(0) must be 1")
        if values[-1] == 0 and len(values) > 1:
            raise ValueError("trailing zeros must be trimmed")

    def value(self, n: int) -> int:
        if n < 0 or n >= len(self.values):
            return 0
        return self.values[n]

    def socle_degree(self) -> int:
        return len(self.values) - 1

    def length(self) -> int:
        return sum(self.values)


HILBERT_MAX_LENGTH = 10_000
# Dividing the numerator of degree top by (1 - t) takes top + 1 additions,
# and there are nvars divisions.  The worst case found under this cap,
# --ci with 2,000 twos in 2,000 variables (8.0e6 additions), takes 0.4 to
# 0.75 s in process on a shared 2-CPU Xeon with Python 3.11.
HILBERT_MAX_WORK = 10_000_000


def hilbert_caps(top: int, nvars: int) -> None:
    """Both Hilbert caps, for a numerator whose largest twist is ``top``
    (0 if none is positive), checked before any value is computed.

    Raises if nvars < 1, if the points 0 .. ``top`` + ``nvars`` exceed
    ``HILBERT_MAX_LENGTH``, or if the ``nvars`` divisions by (1 - t),
    ``top`` + 1 additions each, exceed ``HILBERT_MAX_WORK``.
    """
    if nvars < 1:
        raise ValueError("nvars must be positive")
    points = top + nvars + 1
    if points > HILBERT_MAX_LENGTH:
        raise ValueError(
            f"largest twist {top} plus nvars {nvars} needs {points} Hilbert values, "
            f"above the cap of {HILBERT_MAX_LENGTH}"
        )
    work = nvars * (top + 1)
    if work > HILBERT_MAX_WORK:
        raise ValueError(
            f"dividing a numerator of degree {top} by (1 - t)^{nvars} needs {work} additions, "
            f"above the cap of {HILBERT_MAX_WORK}"
        )


def hilbert_from_resolution(modules: Sequence[IntMultiset], nvars: int) -> HilbertFn:
    """Hilbert function of the quotient resolved by these twist multisets.

    ``modules`` lists [M_1, ..., M_p]; the leading free module R (twist 0)
    is implied.  The Hilbert series is N(t) / (1 - t)^nvars with the
    numerator N(t) = 1 + sum_i (-1)^i sum_{v in M_i} t^v, so a twist that
    appears in two adjacent modules (a ghost pair) cancels out of N.
    Raises if a twist below 0 survives in N (a quotient's series starts at
    t^0, so its numerator has no negative power), if (1 - t)^nvars does
    not divide N (the quotient is not Artinian), or if some H(n) is
    negative: then the modules resolve no quotient.  The caps of
    :func:`hilbert_caps` are checked on the largest twist before any value
    is computed.
    """
    counts = {0: 1}
    sign = -1
    for m in modules:
        for v, mult in m.entries:
            counts[v] = counts.get(v, 0) + sign * mult
        sign = -sign
    hilbert_caps(max(counts), nvars)
    twists = [v for v, c in counts.items() if c]
    if min(twists, default=0) < 0:
        raise ValueError(f"twist {min(twists)} survives the cancellation: the resolution resolves no quotient")
    numerator = [counts.get(v, 0) for v in range(max(twists, default=-1) + 1)]
    for _ in range(nvars):
        # N = (1 - t) Q + N(1): the prefix sums of N are Q's coefficients, then N(1)
        sums = list(accumulate(numerator))
        if sums and sums[-1]:
            raise ValueError("resolution does not define an Artinian quotient")
        numerator = sums[:-1]
    for n, v in enumerate(numerator):
        if v < 0:
            raise ValueError(f"negative Hilbert value H({n}) = {v}: the resolution resolves no quotient")
    return HilbertFn(tuple(numerator))


def hilbert_of_ci(degrees: Sequence[int], nvars: int) -> HilbertFn:
    """Hilbert function of a complete intersection of forms of these degrees.

    Its series is prod_d (1 - t^d) / (1 - t)^nvars, the product of the
    polynomials 1 + t + ... + t^(d-1), one per degree.  The degrees must
    be ints >= 1, and there must be exactly ``nvars`` of them: with fewer
    the quotient is not Artinian, and with more no sequence of these
    degrees is regular.  The caps of :func:`hilbert_caps` are checked on
    the sum of the positive degrees first.
    """
    for d in degrees:
        if type(d) is not int:
            raise ValueError(f"degrees must be ints, got {d!r}")
    hilbert_caps(sum(d for d in degrees if d > 0), nvars)
    if any(d < 1 for d in degrees):
        raise ValueError(f"complete-intersection degrees must be positive, got {min(degrees)}")
    if len(degrees) != nvars:
        raise ValueError(
            f"{len(degrees)} degrees in {nvars} variables: a complete intersection "
            "needs exactly one degree per variable"
        )
    values = [1]
    for d in degrees:
        # sums[k + d] - sums[k] is the window values[k - d + 1 .. k]
        sums = [0] * d + list(accumulate(values + [0] * (d - 1)))
        values = list(map(sub, sums[d:], sums))
    return HilbertFn(tuple(values))

