import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bettiforge.gorenstein import (
    HILBERT_MAX_LENGTH,
    HILBERT_MAX_WORK,
    GorensteinBetti,
    GorensteinVerdict,
    HilbertFn,
    check_gorenstein_betti,
    ci_index_sets,
    hilbert_from_resolution,
    hilbert_of_ci,
    mci,
    mci_from_sorted,
    theta_of,
)
from bettiforge.multiset import IntMultiset
from support import delta2, random_admissible

ms = IntMultiset.from_values


def corpus(seed, size):
    rng = random.Random(seed)
    return [random_admissible(rng) for _ in range(size)]


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------


def test_theta_of_matches_the_formula():
    rng = random.Random(8)
    lists = [[], [4], [2, 3]]
    lists += [[rng.randint(-3, 12) for _ in range(rng.randint(0, 9))] for _ in range(300)]
    kinds = set()
    for degrees in lists:
        n = len(degrees)
        expected = None
        if n != 1:  # theta = 2*sum/(n - 1); no value for a single degree
            q = Fraction(2 * sum(degrees), n - 1)
            expected = q.numerator if q.denominator == 1 else None
        assert theta_of(degrees) == expected, degrees
        kinds.add((n % 2, expected is None))
    assert kinds == {(0, False), (0, True), (1, False), (1, True)}


@pytest.mark.parametrize(
    "gens, reason",
    [
        ([0, 1, 1, 2], "|gens| = 4 must be odd and >= 3"),
        ([0, 1, 1, 1, 2], "generator degrees must be positive"),
        ([1, 1, 1, 1, 3], "2*norm/(card-1) = 14/4 is not an integer"),
    ],
)
def test_gorenstein_check_reasons_in_order(gens, reason):
    # count, then positivity, then integrality: each list fails every later check too
    assert check_gorenstein_betti(ms(gens)) == GorensteinVerdict(False, None, reason)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GorensteinBetti.from_gens(ms([1, 1, 1, 2])), "|gens| = 4 must be odd and >= 3"),
        (lambda: GorensteinBetti.from_gens(ms([1, 1, 1, 1, 3])), "2*norm = 14 is not divisible by 4"),
        (lambda: GorensteinBetti(ms([1, 1, 1, 2]), 5), "|gens| = 4 must be odd and >= 3"),
        (lambda: GorensteinBetti(ms([1, 1, 1, 1, 3]), 4), "theta = 4 inconsistent with gens (2*norm = 14, card-1 = 4)"),
        (lambda: GorensteinBetti(ms([2] * 5), 6), "theta = 6 inconsistent with gens (2*norm = 20, card-1 = 4)"),
        (lambda: GorensteinBetti(ms([2] * 5), 5.0), "theta must be an int, got 5.0"),
        (lambda: GorensteinBetti(ms([1] * 3), True), "theta must be an int, got True"),
        (
            lambda: GorensteinBetti(ms([0, 2, 4]), 6),
            "inadmissible Gorenstein Betti sequence: generator degrees must be positive",
        ),
        (
            lambda: GorensteinBetti.from_gens(ms([1, 1, 1, 2, 5])),
            "inadmissible Gorenstein Betti sequence: theta = 5 <= h_2 + h_5 = 6",
        ),
    ],
    ids=[
        "from-gens-count",
        "from-gens-integrality",
        "count",
        "non-integral",
        "wrong-theta",
        "float-theta",
        "bool-theta",
        "nonpositive",
        "gaeta-diesel",
    ],
)
def test_gorenstein_betti_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_construction_admits_exactly_what_check_gorenstein_betti_admits():
    # odd-size lists near a common base, half of them shifted to an integral theta
    rng = random.Random(29)
    admitted = refused = 0
    for _ in range(4000):
        n = rng.randint(1, 5)
        base = rng.randint(0, 6)
        degs = sorted(base + rng.randint(0, rng.choice((1, 2, 4))) for _ in range(2 * n + 1))
        if rng.random() < 0.5:
            degs[-1] += -sum(degs) % n
        gens = ms(degs)
        verdict = check_gorenstein_betti(gens)
        try:
            b = GorensteinBetti.from_gens(gens)
        except ValueError:
            assert not verdict.admissible, degs
            refused += 1
        else:
            assert verdict.admissible and b.theta == verdict.theta, degs
            admitted += 1
    assert admitted > 500 and refused > 500


def test_admissible_five_quadrics():
    v = check_gorenstein_betti(ms([2, 2, 2, 2, 2]))
    assert v.admissible and v.theta == 5


def test_admissible_seven_generators():
    v = check_gorenstein_betti(ms([5, 5, 5, 7, 7, 7, 9]))
    assert v.admissible and v.theta == 15


def test_rejected_non_integral_theta():
    v = check_gorenstein_betti(ms([1, 1, 1, 1, 1]))
    assert not v.admissible and "not an integer" in v.reason


def test_rejected_even_cardinality():
    v = check_gorenstein_betti(ms([2, 2, 2, 2]))
    assert not v.admissible and "odd" in v.reason


def test_rejected_gaeta_diesel_inequality():
    # theta = 6 but h_2 + h_5 = 6 is not strictly below it
    v = check_gorenstein_betti(ms([2, 2, 2, 2, 4]))
    assert not v.admissible and v.theta == 6 and "<=" in v.reason


def test_rejected_nonpositive_degree():
    v = check_gorenstein_betti(ms([0, 2, 4]))
    assert not v.admissible and "positive" in v.reason


def test_betti_type_invariants():
    b = GorensteinBetti.from_gens(ms([2, 2, 2, 2, 2]))
    assert b.theta == 5
    assert b.syzygies() == ms([3, 3, 3, 3, 3])
    assert b.modules()[2] == ms([5])
    with pytest.raises(ValueError):
        GorensteinBetti(ms([2, 2, 2, 2, 2]), 6)
    with pytest.raises(ValueError):
        GorensteinBetti.from_gens(ms([1, 1, 1, 1, 1]))


# ----------------------------------------------------------------------
# mci and index sets
# ----------------------------------------------------------------------


def test_mci_via_c_set():
    b = GorensteinBetti.from_gens(ms([5, 5, 5, 7, 7, 7, 9]))
    big_b, big_c, _ = ci_index_sets(b)
    assert big_b == () and big_c == (4,)
    assert tuple(mci(b)) == (5, 5, 7)


def test_mci_all_empty():
    b = GorensteinBetti.from_gens(ms([2, 2, 2, 2, 2]))
    big_b, big_c, b_bar = ci_index_sets(b)
    assert big_b == () and big_c == () and b_bar == ()
    assert tuple(mci(b)) == (2, 2, 2)


def test_mci_minimal_case():
    b = GorensteinBetti.from_gens(ms([1, 1, 1]))
    assert b.theta == 3
    assert tuple(mci(b)) == (1, 1, 1)


def test_mci_via_b_set():
    # 5 + 8 = 13 = theta puts index 3 into B
    b = GorensteinBetti.from_gens(ms([2, 4, 5, 7, 8]))
    big_b, _, _ = ci_index_sets(b)
    assert big_b == (3,)
    assert tuple(mci(b)) == (2, 5, 8)


def test_mci_rejects_inadmissible():
    with pytest.raises(ValueError):
        mci(GorensteinBetti(ms([2, 2, 2, 2, 4]), 6))


def test_mci_monotone_under_dual_pair_deletion():
    # deleting a generator pair (s, theta-s) never increases mci
    b = GorensteinBetti.from_gens(ms([2, 4, 5, 7, 8]))
    reduced = GorensteinBetti(ms([2, 4, 7]), b.theta)
    assert all(x <= y for x, y in zip(mci(reduced), mci(b)))


def _mci_by_index_sets(h, theta):
    """mci read off the 1-based B and C sets of ci_index_sets, on any sorted odd-length h."""
    n = (len(h) - 1) // 2

    def deg(i):
        return h[i - 1]

    big_b = [i for i in range(3, n + 2) if theta <= deg(i) + deg(2 * n + 4 - i)]
    big_c = [i for i in range(4, n + 3) if theta <= deg(i) + deg(2 * n + 5 - i)]
    if big_b:
        return (deg(1), deg(max(big_b)), deg(2 * n + 4 - min(big_b)))
    if big_c:
        return (deg(1), deg(2), deg(max(big_c)))
    return (deg(1), deg(2), deg(3))


def test_mci_from_sorted_is_monotone():
    """For sorted h <= h' entrywise and a fixed theta, mci(h) <= mci(h')
    componentwise: the lemma behind the stage-3 cut of the F search.
    h need not be admissible, as the search applies it to lower bounds;
    each mci is also checked against the B/C definitions."""
    rng = random.Random(17)
    for _ in range(20000):
        n = rng.randint(1, 5)
        h = sorted(rng.randint(1, 12) for _ in range(2 * n + 1))
        h_up = sorted(x + rng.randint(0, 3) for x in h)  # still >= h entrywise
        theta = rng.randint(2, 24)
        low, up = mci_from_sorted(h, theta), mci_from_sorted(h_up, theta)
        assert low == _mci_by_index_sets(h, theta), (h, theta)
        assert up == _mci_by_index_sets(h_up, theta), (h_up, theta)
        assert all(a <= b for a, b in zip(low, up)), (h, h_up, theta)


def test_bvuoto_on_corpus():
    for b in corpus(31, 150):
        big_b, _, b_bar = ci_index_sets(b)
        n = (b.gens.card() - 1) // 2
        if not big_b:
            assert set(b_bar) <= {n + 2}


# ----------------------------------------------------------------------
# Hilbert functions
# ----------------------------------------------------------------------


def koszul(degrees):
    """Twist multisets of the Koszul resolution: module k holds every k-subset sum."""
    return [ms(sum(c) for c in combinations(degrees, k)) for k in range(1, len(degrees) + 1)]


def ci_corpus():
    rng = random.Random(17)
    lists = [[rng.randint(1, 9) for _ in range(rng.randint(0, 7))] for _ in range(300)]
    return [(d, n) for d in lists for n in range(1, 6)]


def padded_gorenstein_corpus():
    # Gorenstein resolutions with up to three ghost pairs: one twist in
    # -6..20 added to two adjacent modules
    rng = random.Random(19)
    cases = []
    for _ in range(150):
        modules = [m.values() for m in random_admissible(rng).modules()]
        for _ in range(rng.randint(0, 3)):
            i, v = rng.randint(0, 1), rng.randint(-6, 20)
            modules[i].append(v)
            modules[i + 1].append(v)
        cases += [(modules, n) for n in (2, 3, 4)]
    return cases


def answered_md5(cases, hilbert):
    """Count and md5 of the JSON list of the [input, values] pairs answered."""
    pairs = []
    for args in cases:
        try:
            pairs.append([args, list(hilbert(*args).values)])
        except ValueError:
            pass
    return len(pairs), hashlib.md5(json.dumps(pairs).encode()).hexdigest()


def test_hilbert_residue_field():
    h = hilbert_from_resolution(koszul([1, 1, 1]), 3)
    assert h.values == (1,)


def test_hilbert_five_quadrics():
    b = GorensteinBetti.from_gens(ms([2, 2, 2, 2, 2]))
    h = hilbert_from_resolution(b.modules(), 3)
    assert h.values == (1, 3, 1)


def test_hilbert_ci_length_is_product():
    h = hilbert_from_resolution(koszul([2, 2, 8]), 3)
    assert h.length() == 2 * 2 * 8


def test_hilbert_of_ci_matches_the_koszul_oracle():
    for degrees, nvars in ci_corpus():
        try:
            want = hilbert_from_resolution(koszul(degrees), nvars)
        except ValueError:
            with pytest.raises(ValueError):
                hilbert_of_ci(degrees, nvars)
        else:
            assert hilbert_of_ci(degrees, nvars) == want, (degrees, nvars)
    # the answered pairs of both corpora, as the earlier binomial-sum
    # evaluation gave them
    assert answered_md5(ci_corpus(), hilbert_of_ci) == (191, "a5e1e30ba079c0ac6107ea4dae303789")
    padded = answered_md5(padded_gorenstein_corpus(), lambda m, n: hilbert_from_resolution(list(map(ms, m)), n))
    assert padded == (150, "a5f66f76d54aeae56b29e802be89cd5e")
    for bad in (2.7, True, "3"):
        with pytest.raises(ValueError, match="must be ints"):
            hilbert_of_ci([1, bad, 1], 3)


def test_hilbert_of_ci_needs_positive_degrees_one_per_variable():
    for degrees, nvars, message in (
        ([-4, 4], 1, "must be positive, got -4"),
        ([0, 2, 2], 3, "must be positive, got 0"),
        ([2, 2], 3, "2 degrees in 3 variables"),
        ([1, 1, 1, 1], 3, "4 degrees in 3 variables"),
    ):
        with pytest.raises(ValueError, match=message):
            hilbert_of_ci(degrees, nvars)


@pytest.mark.parametrize(
    "values, message",
    [((2, 1), r"H\(0\) must be 1"), ((1, 0), "trailing zeros must be trimmed")],
    ids=["h0-not-1", "trailing-zero"],
)
def test_hilbert_fn_refuses_malformed_values(values, message):
    with pytest.raises(ValueError, match=message):
        HilbertFn(values)


def test_hilbert_rejects_non_artinian():
    with pytest.raises(ValueError, match="Artinian"):
        hilbert_from_resolution([ms([1])], 3)


def test_hilbert_length_is_capped():
    # H is evaluated at 0 .. largest twist + nvars; the Koszul resolution
    # of type (1, 1, c) has largest twist c + 2 and length c
    c = HILBERT_MAX_LENGTH - 6
    assert hilbert_from_resolution(koszul([1, 1, c]), 3).length() == c
    for modules, nvars in (
        (koszul([1, 1, c + 1]), 3),
        ([ms([10**12])], 3),
        ([ms([2])], 10**9),
    ):
        with pytest.raises(ValueError, match="cap"):
            hilbert_from_resolution(modules, nvars)


def test_hilbert_work_is_capped():
    # 3,333 twos in 3,333 variables reach degree 9,999, within the length
    # cap, but the 3,333 divisions by (1 - t) need 3,333 * 6,667 additions
    assert 6666 + 3333 + 1 <= HILBERT_MAX_LENGTH
    assert 3333 * 6667 > HILBERT_MAX_WORK
    for call in (
        lambda: hilbert_of_ci([2] * 3333, 3333),
        lambda: hilbert_from_resolution([ms([6666])], 3333),
    ):
        with pytest.raises(ValueError, match="additions, above the cap"):
            call()


def test_hilbert_handles_negative_twists():
    # bordered pair (8, -3) added to both levels cancels out of H
    b = GorensteinBetti.from_gens(ms([2, 2, 2, 2, 2]))
    padded = [
        b.gens.sum(ms([8, -3])),
        b.syzygies().sum(ms([8, -3])),
        ms([5]),
    ]
    assert hilbert_from_resolution(padded, 3).values == (1, 3, 1)


def test_hilbert_symmetry_on_corpus():
    for b in corpus(37, 100):
        h = hilbert_from_resolution(b.modules(), 3)
        socle = b.theta - 3
        assert h.socle_degree() == socle
        for k in range(socle + 1):
            assert h.value(k) == h.value(socle - k)


def test_bc_clauses_on_corpus():
    # mu_D(d_i) against -delta^2 H(d_i) under the B-bar / C index conditions
    for b in corpus(41, 150):
        h = hilbert_from_resolution(b.modules(), 3)
        d = b.gens.values()
        _, big_c, b_bar = ci_index_sets(b)
        for i in b_bar:  # clause (a)
            assert b.gens.multiplicity(d[i - 1]) == -delta2(h, d[i - 1])
        for i in b_bar:  # clause (c)
            for j in b_bar:
                if d[i - 1] == d[j - 1]:
                    assert i == j
        for i in big_c:  # clause (b), only under its stated preconditions
            if i not in b_bar and (i - 1) not in b_bar:
                assert b.gens.multiplicity(d[i - 1]) == -delta2(h, d[i - 1]) - 1
        n = (b.gens.card() - 1) // 2
        # clauses (d) and (e); their syzygy-counting arguments index
        # d_{2n+4-k} resp. d_{2n+5-k}, so they only speak for k inside the
        # Bbar resp. C index ranges
        for i in range(1, 2 * n + 2):
            k = next(j for j in range(1, 2 * n + 2) if d[j - 1] == d[i - 1])
            if b.gens.multiplicity(d[i - 1]) == -delta2(h, d[i - 1]) and k >= 3:
                assert k in b_bar
            if (
                b.gens.multiplicity(d[i - 1]) == -delta2(h, d[i - 1]) - 1
                and 4 <= k <= n + 2
            ):
                assert k in big_c


# ----------------------------------------------------------------------
# corpus sampler
# ----------------------------------------------------------------------


def test_random_admissible_is_deterministic_and_varied():
    a = corpus(99, 40)
    b = corpus(99, 40)
    assert [x.gens for x in a] == [y.gens for y in b]
    sizes = {x.gens.card() for x in a}
    assert len(sizes) >= 3
