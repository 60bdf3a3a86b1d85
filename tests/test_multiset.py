import random

import pytest

from bettiforge.multiset import IntMultiset

ms = IntMultiset.from_values


def test_canonical_form():
    assert ms([6, 6, 6]).entries == ((6, 3),)
    assert ms([10, 6, 10]).entries == ((6, 1), (10, 2))
    assert ms([]) == IntMultiset.empty()
    assert ms([3, 6, 6, 6]) == ms([6, 3, 6, 6])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMultiset.empty().max(), "empty multiset has no maximum"),
        (lambda: ms([1, 2]).affine(5, 2), r"sign must be \+1 or -1"),
    ],
    ids=["empty-max", "affine-sign"],
)
def test_operation_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_invalid_entries_rejected():
    for entries in (
        ((3, 0),),
        ((5, 1), (4, 1)),
        ((3, -1),),
        ((2, 1), (5, 0)),
        ((5, 1), (5, 2)),
        ((1, 1), (3, 1), (2, 1)),
    ):
        with pytest.raises(ValueError):
            IntMultiset(entries)


def test_from_values_matches_dict_count():
    rng = random.Random(3)
    for _ in range(300):
        values = [rng.randint(-6, 6) for _ in range(rng.randint(0, 12))]
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        m = ms(values)
        assert m.entries == tuple(sorted(counts.items()))
        assert type(m) is IntMultiset and m.card() == len(values)
    # values must be non-bool ints: none is truncated or converted
    for bad in ((True,), (2.0,), ("3",), (1, "3", 2.7), (1, True), (2, 2.0)):
        with pytest.raises(ValueError, match="must be ints"):
            ms(bad)
    with pytest.raises(ValueError, match="must be ints"):
        IntMultiset(((2.5, 1),))


def test_trusted_from_values_equals_validated_construction():
    """from_values skips the constructor's walk over its runs; the runs it
    wraps must pass that walk and equal the counted reference, and
    values() gives the values back sorted."""
    rng = random.Random(2024)
    repeated = 0
    for _ in range(2500):
        values = [rng.randint(-5, 20) for _ in range(rng.randint(0, 15))]
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        runs = tuple(sorted(counts.items()))
        m = ms(values)
        assert m == IntMultiset(runs) and hash(m) == hash(IntMultiset(runs)), values
        assert IntMultiset(m.entries) == m and m.values() == sorted(values), values
        repeated += len(runs) < len(values)
    assert repeated > 1000
    for bad in ([2.7, True], [1, True], [2, 2.0], [3, "4", 5]):
        with pytest.raises(ValueError) as exc:
            ms(bad)
        assert str(exc.value) == f"multiset values must be ints, got {bad!r}"


def test_multiplicities_must_be_non_bool_ints():
    for mult in (True, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="must be an int"):
            IntMultiset(((1, mult),))
    with pytest.raises(ValueError, match="must be an int"):
        IntMultiset(((1, 2), (3, False)))
    with pytest.raises(ValueError, match="must be positive"):
        IntMultiset(((1, 0),))
    assert IntMultiset(((1, 2), (3, 1))).values() == [1, 1, 3]


def test_algebra_results_are_valid_multisets():
    rng = random.Random(17)
    for _ in range(200):
        a = ms([rng.randint(-5, 9) for _ in range(rng.randint(0, 8))])
        b = ms([rng.randint(-5, 9) for _ in range(rng.randint(0, 8))])
        n = rng.randint(-6, 12)
        for r in (a.sum(b), a.diff(b), a.intersect(b), a.union(b), a.affine(n, 1), a.affine(n, -1)):
            assert IntMultiset(r.entries) == r


def _oracle(op, a, b):
    """op on the counts of each value of two plain lists, as a sorted list."""
    return sorted(v for v in set(a) | set(b) for _ in range(op(a.count(v), b.count(v))))


def test_algebra_matches_a_sorted_list_oracle():
    rng = random.Random(20)
    cases = [([], []), ([], [4, 4]), ([-3, -3, 0], []), ([1, 1, 2], [5, 7, 7]), ([-4, -1, -1], [-1, 3])]
    for _ in range(300):
        a = [rng.randint(-6, 6) for _ in range(rng.randint(0, 9))]
        b = [rng.randint(-6, 6) + rng.choice((0, 20)) for _ in range(rng.randint(0, 9))]  # sometimes disjoint
        cases.append((a, b))
    for a, b in cases:
        ma, mb = ms(a), ms(b)
        for got, want in (
            ((ma.intersect(mb), ma & mb), _oracle(min, a, b)),
            ((ma.union(mb), ma | mb), _oracle(max, a, b)),
            ((ma.sum(mb), ma + mb), _oracle(lambda x, y: x + y, a, b)),
            ((ma.diff(mb), ma - mb), _oracle(lambda x, y: max(0, x - y), a, b)),
        ):
            for r in got:
                assert type(r) is IntMultiset and r.values() == want, (a, b)
                assert IntMultiset(r.entries) == r
        subset = all(a.count(v) <= b.count(v) for v in a)
        assert ma.is_submultiset(mb) is subset and (ma <= mb) is subset, (a, b)


def test_intersect():
    assert ms([6, 6, 6]).intersect(ms([6, 10, 10])) == ms([6])
    assert ms([5, 5, 9]).intersect(ms([6, 10, 10])) == ms([])
    assert ms([7]).intersect(ms([8, 9, 10])) == ms([])


def test_union_sum_diff():
    assert ms([9, 9]).sum(ms([10])) == ms([9, 9, 10])
    assert ms([9, 9]).union(ms([9, 10])) == ms([9, 9, 10])
    m = ms([2, 5, 5, 7])
    assert m.diff(m) == ms([])
    assert ms([5, 5, 9]).diff(ms([5])) == ms([5, 9])
    assert (ms([1, 2]) + ms([2, 3])) == ms([1, 2, 2, 3])
    assert (ms([1, 2, 2, 3]) - ms([2])) == ms([1, 2, 3])


def test_submultiset():
    assert ms([9, 11, 11, 11]).is_submultiset(ms([9, 9, 9, 11, 11, 11, 13]))
    assert not ms([9, 9, 9, 9]).is_submultiset(ms([9, 9, 9, 11, 11, 11, 13]))
    assert ms([]) <= ms([1])


def test_affine():
    assert ms([12, 12, 12, 14]).affine(19, -1) == ms([5, 7, 7, 7])
    m = ms([2, 5, 5, 7])
    assert m.affine(0, 1) == m
    assert ms([5, 5]).affine(15, -1) == ms([10, 10])
    # negatives are fine: twist slots of bordered presentations go below zero
    assert ms([8]).affine(5, -1) == ms([-3])


def test_norm_card():
    assert ms([3, 6, 6, 6]).norm() == 21
    assert ms([]).norm() == 0
    assert ms([5, 5, 5, 7, 7, 7, 9]).card() == 7
    assert len(ms([5, 5])) == 2


def test_queries():
    m = ms([-3, 2, 2, 2, 8])
    assert m.multiplicity(2) == 3 and m.multiplicity(5) == 0
    assert m.min() == -3 and m.max() == 8
    assert 8 in m and 5 not in m
    assert list(m) == [-3, 2, 2, 2, 8]
    assert m.to_list() == [-3, 2, 2, 2, 8]
    assert str(m) == "{{-3,2,2,2,8}}"
    with pytest.raises(ValueError):
        ms([]).min()


def test_dual_symmetry_property():
    # H = M & (n - M) satisfies mu_H(x) == mu_H(n - x) for every x
    rng = random.Random(42)
    for _ in range(300):
        m = ms([rng.randint(-10, 15) for _ in range(rng.randint(0, 12))])
        n = rng.randint(-8, 20)
        h = m.intersect(m.affine(n, -1))
        for x, _ in h.entries:
            assert h.multiplicity(x) == h.multiplicity(n - x)


def test_sum_is_commutative_associative():
    rng = random.Random(7)
    for _ in range(100):
        a = ms([rng.randint(0, 8) for _ in range(rng.randint(0, 6))])
        b = ms([rng.randint(0, 8) for _ in range(rng.randint(0, 6))])
        c = ms([rng.randint(0, 8) for _ in range(rng.randint(0, 6))])
        assert a.sum(b) == b.sum(a)
        assert a.sum(b).sum(c) == a.sum(b.sum(c))


def test_submultiset_recovers_complement():
    rng = random.Random(11)
    for _ in range(100):
        n = ms([rng.randint(0, 8) for _ in range(rng.randint(0, 8))])
        picks = [v for v in n.values() if rng.random() < 0.5]
        m = ms(picks)
        assert m.is_submultiset(n)
        assert n == m.sum(n.diff(m))


def test_affine_involution():
    rng = random.Random(13)
    for _ in range(100):
        m = ms([rng.randint(-5, 12) for _ in range(rng.randint(0, 8))])
        n = rng.randint(-4, 10)
        assert m.affine(n, -1).affine(n, -1) == m
