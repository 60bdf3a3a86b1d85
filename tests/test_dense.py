"""The dense Kronecker codec against the dict kernel and the perfect-matching oracle.

Every case that takes the dense path must give the same names and typed
terms as ``_sum_of_products``, the ``Poly`` operators or
``pfaffian_oracle``; every fallback trigger must leave the codec unused.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bettiforge import exact, pfaffian
from bettiforge.exact import (
    _MAX_DEGREE,
    _MAX_DENSE_VARIABLES,
    _MAX_SLOTS,
    _MIN_FILL,
    Poly,
    PolyMatrix,
    _Dense,
    _dense_sum,
    _fill,
    _int_forms,
    _sum_of_products,
    monomials,
    parse_matrix,
)
from bettiforge.pfaffian import AlternatingMatrix, random_graded_alternating
from bettiforge.structure import AlternatingPresentation, build_aci_complex, verify_complex
from support import operator_matmul

RINGS = {n: tuple(f"x{i}" for i in range(1, n + 1)) for n in range(1, 5)}
TOP = 2**63 - 1  # the largest coefficient a 64-bit slot decodes
TOP32 = 2**31 - 1  # the largest coefficient a 32-bit slot decodes
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def typed(p):
    """The names and typed packed terms of a Poly: what equal outputs must share."""
    return p.names, {k: (type(c), c) for k, c in p._terms.items()}


def random_form(rng, names, degree, coeff=4, density=0.6):
    """A nonzero form with coefficients in +-1..coeff on a random share of the monomials, and on the first."""
    terms = {}
    for i, mono in enumerate(monomials(names, degree)):
        if not i or rng.random() < density:
            ((key, _),) = mono._terms.items()
            terms[key] = rng.choice((1, -1)) * rng.randint(1, coeff)
    return Poly._trusted(names, terms)


def assert_same_matrix(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for grow, wrow in zip(got.entries, want.entries):
        assert [typed(e) for e in grow] == [typed(e) for e in wrow]


# ----------------------------------------------------------------------
# the codec
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_at_the_slot_bound(n):
    rng = random.Random(n)
    names = RINGS[n]
    for degree in range(0, 7):
        codec = _Dense(names, degree, 64)
        for _ in range(10):
            p = random_form(rng, names, degree)
            # near-bound coefficients of both signs, on top of small ones
            p = Poly._trusted(names, {k: c * (TOP // 4 - rng.randint(0, 3)) for k, c in p._terms.items()})
            form = codec.encode(p)
            assert form[1] == (p.homogeneous_degree() if p._terms else None)
            assert typed(codec.decode(form, names)) == typed(p)
        (key,) = monomials(names, degree)[-1]._terms
        top = Poly._trusted(names, {key: -TOP})
        assert typed(codec.decode(codec.encode(top), names)) == typed(top)
    assert typed(_Dense(names, 3, 64).decode(_Dense(names, 3, 64).encode(Poly.zero(names)), names)) == typed(Poly.zero(names))
    # a nameless constant is the constant of every ring
    assert typed(_Dense(names, 2, 64).decode(_Dense(names, 2, 64).encode(Poly.const(-7)), names)) == typed(Poly.const(-7, names))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sums_of_products_match_the_dict_kernel(n):
    rng = random.Random(10 + n)
    names = RINGS[n]
    seen = {"zero": 0, "nonzero": 0, "near bound": 0}
    for _ in range(60):
        da, db = rng.randint(0, 4), rng.randint(0, 4)
        k = rng.randint(1, 4)
        pairs = [(random_form(rng, names, da, 9), random_form(rng, names, db, 9)) for _ in range(k)]
        if rng.random() < 0.3:  # the last product cancels the first
            a, b = pairs[0]
            pairs.append((-a, b))
        if rng.random() < 0.3:  # a nameless constant in place of a degree-0 form
            pairs = [(Poly.const(rng.randint(-5, 5)) if not da else a, b) for a, b in pairs]
        forms = _int_forms(x for pair in pairs for x in pair)
        assert (forms is not None) == (n <= _MAX_DENSE_VARIABLES)
        bound = len(pairs) * max(sum(map(abs, a._terms.values())) * sum(map(abs, b._terms.values())) for a, b in pairs)
        assert bound < 2**63  # what fit checks, but fit also refuses four variables
        codec = _Dense(names, da + db, 64)
        form = _dense_sum((codec.encode(a), codec.encode(b)) for a, b in pairs)
        want = _sum_of_products(pairs, names)
        assert typed(codec.decode(form, names)) == typed(want)
        seen["zero" if want.is_zero else "nonzero"] += 1
    # one product whose coefficients reach the slot bound
    x = Poly.variable(names[0], names)
    big = Poly._trusted(names, {k: TOP // 3 for k in x._terms})
    three = Poly.const(3, names)
    assert TOP // 3 * 3 < 2**63
    codec = _Dense(names, 1, 64)
    got = codec.decode(_dense_sum([(codec.encode(big), codec.encode(three))]), names)
    assert typed(got) == typed(_sum_of_products([(big, three)], names)) and max(got._terms.values()) > TOP - 3
    seen["near bound"] += 1
    assert all(seen.values()), seen


def test_fit_takes_32_bit_slots_exactly_below_2_to_the_31():
    names = RINGS[3]
    for bound, slot in ((0, 32), (1, 32), (TOP32, 32), (TOP32 + 1, 64), (TOP, 64)):
        codec = _Dense.fit(names, 4, bound)
        assert codec.slot == slot, bound
    assert _Dense.fit(names, 4, TOP + 1) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_at_the_32_bit_slot_bound(n):
    rng = random.Random(50 + n)
    names = RINGS[n]
    for degree in range(0, 7):
        codec = _Dense.fit(names, degree, TOP32)
        assert codec.slot == 32
        for _ in range(10):
            p = random_form(rng, names, degree)
            p = Poly._trusted(names, {k: c * (TOP32 // 4 - rng.randint(0, 3)) for k, c in p._terms.items()})
            assert typed(codec.decode(codec.encode(p), names)) == typed(p)
        # every monomial at the bound, in alternating signs, and each sign alone
        keys = [key for mono in monomials(names, degree) for key in mono._terms]
        for signs in ((1, -1), (-1, 1), (1,), (-1,)):
            p = Poly._trusted(names, {key: signs[i % len(signs)] * TOP32 for i, key in enumerate(keys)})
            assert typed(codec.decode(codec.encode(p), names)) == typed(p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_32_bit_sums_of_products_reach_the_bound(n):
    names = RINGS[n]
    x, y = Poly.variable(names[0], names), Poly.variable(names[-1], names)
    half = TOP32 // 2
    cases = [
        [(half * x, y), ((half + 1) * x, y)],  # two products that add up to the bound
        [((TOP32 - 5) * x, Poly.const(-1)), (y, Poly.const(-5, names))],  # -TOP32 * x1 in one variable
        [(half * x, y), (-half * x, y)],  # half the bound cancelled to zero
    ]
    for pairs in cases:
        # the bound of a product entry: the sum of the products' L1 norms
        bound = sum(sum(map(abs, a._terms.values())) * sum(map(abs, b._terms.values())) for a, b in pairs)
        codec = _Dense.fit(names, 2, bound)
        assert bound <= TOP32 and codec.slot == 32
        form = _dense_sum((codec.encode(a), codec.encode(b)) for a, b in pairs)
        assert typed(codec.decode(form, names)) == typed(_sum_of_products(pairs, names))
    assert max(_sum_of_products(cases[0], names)._terms.values()) == TOP32


def test_fit_refuses_what_would_not_decode_or_not_pay():
    names = RINGS[3]
    top = math.isqrt(_MAX_SLOTS) - 1  # the largest degree whose box fits in three variables
    assert _Dense.fit(names, top, TOP) is not None  # the largest slot value
    assert _Dense.fit(names, top, TOP + 1) is None  # a coefficient past 64 signed bits
    assert _Dense.fit(names, top + 1, 1) is None  # (top + 2)**2 slots
    assert _Dense.fit(RINGS[2], _MAX_SLOTS - 1, 1) is not None and _Dense.fit(RINGS[2], _MAX_SLOTS, 1) is None
    assert _Dense.fit((), 0, 1) is None  # no ring to encode into
    assert _Dense.fit(RINGS[1], _MAX_DEGREE, 1) is not None and _Dense.fit(RINGS[1], _MAX_DEGREE + 1, 1) is None
    # four variables and more: the box holds several slots per monomial of the top degree
    assert _MAX_DENSE_VARIABLES == 3 and _Dense.fit(RINGS[4], 1, 1) is None
    assert _Dense.fit(tuple(f"a{i}" for i in range(36)), 4, 1) is None  # a generic 9x9 pfaffian's ring


def test_forms_are_refused_when_not_int_only_homogeneous_of_one_ring():
    x, y = Poly.variable("x", ("x", "y")), Poly.variable("y", ("x", "y"))
    assert _int_forms([x, y * y, Poly.zero(("z",)), Poly.const(-3)]) == (("x", "y"), 2, 3)
    assert _int_forms([Poly.const(2), Poly.const(-5)]) == ((), 0, 5)
    assert _int_forms([x + y * y]) is None  # not homogeneous
    assert _int_forms([x * Fraction(1, 2)]) is None  # a Fraction
    assert _int_forms([x, Poly.variable("z", ("z",))]) is None  # two rings
    assert _int_forms([Poly.variable("x4", RINGS[4])]) is None  # more variables than the codec takes


# ----------------------------------------------------------------------
# matrix products
# ----------------------------------------------------------------------


def graded_matrix(rng, names, row_degrees, col_degrees, coeff=5):
    """Entry (i, j) is a random form of degree col_degrees[j] - row_degrees[i], zero where that is negative."""
    rows = []
    for r in row_degrees:
        cells = []
        for c in col_degrees:
            d = c - r
            if d < 0 or rng.random() < 0.15:
                cells.append(Poly.zero(rng.choice(((), names))))
            elif d == 0 and rng.random() < 0.3:
                cells.append(Poly.const(rng.choice((1, -1)) * rng.randint(1, coeff)))  # nameless
            else:
                cells.append(random_form(rng, names, d, coeff))
        rows.append(cells)
    return PolyMatrix(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graded_products_match_the_operators_without_a_codec(n, monkeypatch):
    rng = random.Random(20 + n)
    names = RINGS[n]
    cases = []
    for _ in range(25):
        r, k, c = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        mid = [rng.randint(0, 3) for _ in range(k)]
        a = graded_matrix(rng, names, [rng.randint(-3, 0) for _ in range(r)], mid)
        b = graded_matrix(rng, names, mid, [rng.randint(3, 5) for _ in range(c)])
        if rng.random() < 0.3:  # an empty row of a, so a row of the product has no pairs
            a = PolyMatrix([[Poly.zero()] * k] + list(a.entries[1:]))
        cases.append((a, b, operator_matmul(a, b)))
    # a skew matrix times its kernel vector: every entry cancels to zero
    x = [Poly.variable(v, names) for v in names] * 3
    zero = Poly.zero()
    skew = PolyMatrix([[zero, x[2], -x[1]], [-x[2], zero, x[0]], [x[1], -x[0], zero]])
    cases.append((skew, PolyMatrix([[x[0]], [x[1]], [x[2]]]), PolyMatrix([[Poly.zero(names)]] * 3)))

    def broken(*args, **kwargs):
        raise AssertionError("codec built")

    monkeypatch.setattr(_Dense, "__init__", broken)
    for a, b, want in cases:
        assert_same_matrix(a @ b, want)


# ----------------------------------------------------------------------
# the composition zero test
# ----------------------------------------------------------------------


def first_nonzero(m):
    """(i, j, typed entry) of the first nonzero entry of ``m`` in row-major order; None when ``m`` is zero."""
    return next(((i, j, typed(e)) for i, row in enumerate(m.entries) for j, e in enumerate(row) if e._terms), None)


def typed_witness(a, b):
    hit = a.product_witness(b)
    return hit and (hit[0], hit[1], typed(hit[2]))


def outcome(run):
    """What ``run()`` returns, or ("error", message) for a ValueError."""
    try:
        return run()
    except ValueError as exc:
        return "error", str(exc)


def zero_test_corpus():
    """Labelled (a, b, route) products in 1-3 variables; route is "dense" or "kernel" where the case is built for one, else None."""
    cases = []
    for n in (1, 2, 3, 4):
        rng = random.Random(60 + n)
        names = RINGS[n]
        xs = [Poly.variable(v, names) for v in names]
        x, y = xs[0], xs[-1]
        route = "dense" if n <= _MAX_DENSE_VARIABLES else "kernel"
        for t in range(12 if n < 4 else 0):
            r, k, c = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
            mid = [rng.randint(0, 3) for _ in range(k)]
            a = graded_matrix(rng, names, [rng.randint(-3, 0) for _ in range(r)], mid)
            cases.append((f"random {n}/{t}", a, graded_matrix(rng, names, mid, [rng.randint(3, 5) for _ in range(c)]), None))
        # a row times its Koszul syzygies: zero, and nonzero only in the last entry once that column moves
        row = [random_form(rng, names, d) for d in (1, 2, 2, 3)]
        pairs = [(l, m) for l in range(4) for m in range(l + 1, 4)]
        koszul = [[Poly.zero()] * len(pairs) for _ in range(4)]
        for col, (l, m) in enumerate(pairs):
            koszul[l][col], koszul[m][col] = row[m], -row[l]
        cases.append((f"koszul {n}", PolyMatrix([row]), PolyMatrix(koszul), route))
        koszul[3][-1] = koszul[3][-1] + x * x
        cases.append((f"koszul {n}, last entry", PolyMatrix([row]), PolyMatrix(koszul), route))
        if n > _MAX_DENSE_VARIABLES:
            continue
        # k equal terms on each side: the entry's coefficient is the bound k * L_A * L_B itself, of either sign
        for sign in (1, -1):
            a = PolyMatrix([[5 * sign * x ** 2] * 3, [Poly.zero()] * 3])
            cases.append((f"at the bound {n}, {sign}", a, PolyMatrix([[7 * y]] * 3), "dense"))
        # bounds 2**31 - 1 and 2**31: 31 and 32 bits, at the last of the 32-bit and the first of the 64-bit codecs
        for top in (TOP32, TOP32 + 1):
            cases.append((f"bound {top} {n}", PolyMatrix([[top * x]]), PolyMatrix([[y]]), "dense"))
        # products of mixed degrees: one entry nonzero, one cancelling within each degree
        one = Poly.const(1, names)
        cases.append((f"mixed degrees {n}", PolyMatrix([[x, one]]), PolyMatrix([[y], [x]]), "dense"))
        cases.append((f"mixed degrees cancelling {n}", PolyMatrix([[x, x, one, one]]), PolyMatrix([[y], [-y], [x], [-x]]), "dense"))
        # nameless constants next to forms of the ring, cancelling and not, and constants alone
        cases.append((f"nameless {n}", PolyMatrix([[Poly.const(2), x]]), PolyMatrix([[y], [Poly.const(-2)]]), "dense"))
        cases.append((f"nameless constants {n}", PolyMatrix([[3, Poly.const(2, names)], [3, 4]]), PolyMatrix([[5, x], [-7, y]]), None))
        cases.append((f"no ring {n}", PolyMatrix([[2, 3]]), PolyMatrix([[3], [-2]]), "kernel"))
        cases.append((f"no ring, nonzero {n}", PolyMatrix([[2, 3]]), PolyMatrix([[3], [2]]), "kernel"))
        # one side all zero: the bound is 0, and every entry has no product
        cases.append((f"all zero {n}", PolyMatrix([[Poly.zero(names)] * 2] * 2), PolyMatrix([[x], [y]]), "dense"))
        cases.append((f"all zero right {n}", PolyMatrix([[x, y]]), PolyMatrix([[Poly.zero(names)], [Poly.zero()]]), "dense"))
    # in two variables the image of 2**20 * x2 - x1 vanishes at 20-bit slots; the bound 2**20 + 1 has 21 bits
    x1, x2 = (Poly.variable(v, RINGS[2]) for v in RINGS[2])
    trap = PolyMatrix([[2**20 * x2 - x1]])
    cases.append(("one slot short", trap, PolyMatrix([[Poly.const(1, RINGS[2])]]), "dense"))
    # the syzygies of a graded alternating matrix and of its complex: zero, then one entry changed
    m = random_graded_alternating([2, 2, 2, 3, 3], random.Random(5))
    p = PolyMatrix([[q] for q in m.submaximal_pfaffians()])
    cases.append(("pfaffian syzygy", m.to_poly_matrix(), p, "dense"))
    broken = [list(r) for r in m.to_poly_matrix().entries]
    broken[-1][0] = broken[-1][0] + Poly.variable("x2", RINGS[3])
    cases.append(("pfaffian syzygy, last entry", PolyMatrix(broken), p, "dense"))
    fixtures = (
        ("structure-11.json", ("dense", "dense")),
        ("structure-11-x20.json", ("kernel", "dense")),
        ("structure-11-x4.json", ("kernel", "kernel")),  # four variables
    )
    for fixture, routes in fixtures:
        matrix, data = load_fixture(fixture)
        d = build_aci_complex(AlternatingPresentation(matrix, (2, 5, 9), tuple(data["twists"]))).maps
        cases.append((f"{fixture} d1 @ d2", d[0], d[1], routes[0]))
        cases.append((f"{fixture} d2 @ d3", d[1], d[2], routes[1]))
    # operands the codec refuses, or whose terms fill too few of their slots
    huge = Poly._trusted(RINGS[2], {k: 2**40 for k in x1._terms})
    root = math.isqrt(TOP)
    wide = random_form(random.Random(31), RINGS[3], 40)  # degree 80 in 3 variables: 81**2 slots
    refused = {
        "not homogeneous": (PolyMatrix([[x1 + x2 * x2]]), PolyMatrix([[x2]])),
        "fraction": (PolyMatrix([[x1 * Fraction(1, 3)]]), PolyMatrix([[x2]])),
        "over 64 bits": (PolyMatrix([[huge, huge]]), PolyMatrix([[huge], [huge]])),
        # each product fits a slot, their sum of k = 2 does not
        "sum over 64 bits": (PolyMatrix([[root * x1, root * x1]]), PolyMatrix([[root * x1], [root * x1]])),
        "large box": (PolyMatrix([[wide]]), PolyMatrix([[wide]])),
        "four variables": (PolyMatrix([[Poly.variable("x4", RINGS[4])]]), PolyMatrix([[Poly.variable("x1", RINGS[4])]])),
        # x1**8 spans 137 slots of the degree-16 codec in three variables: fills 1/137 * 1 < 1/32
        "sparse": (PolyMatrix([[Poly.variable("x1", RINGS[3]) ** 8]]), PolyMatrix([[Poly.variable("x3", RINGS[3]) ** 8]])),
    }
    cases.extend((label, a, b, "kernel") for label, (a, b) in refused.items())
    z = Poly.variable("z", ("z",))
    cases.append(("two rings", PolyMatrix([[x1]]), PolyMatrix([[z]]), "kernel"))
    # the kernel builds every entry, so a refusal after a nonzero entry still raises
    cases.append(("nonzero, then two rings", PolyMatrix([[x1], [z]]), PolyMatrix([[x1]]), "kernel"))
    cases.append(("sizes", PolyMatrix([[x1]]), PolyMatrix([[x1, x2]] * 2), None))
    return cases


def test_zero_test_matches_the_product(monkeypatch):
    """``product_witness`` agrees with the first nonzero entry of ``@``; it calls ``@`` exactly on the kernel route."""
    corpus = zero_test_corpus()
    seen = {"dense": [0, 0], "kernel": [0, 0]}
    calls = []
    matmul = PolyMatrix.__matmul__
    monkeypatch.setattr(PolyMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    for label, a, b, route in corpus:
        want = outcome(lambda: first_nonzero(a @ b))
        calls.clear()
        assert outcome(lambda: typed_witness(a, b)) == want, label
        if route is not None:
            assert bool(calls) == (route == "kernel"), label
            if want is None or want[0] != "error":
                seen[route][want is None] += 1
    # both routes meet zero and nonzero products
    assert all(count >= 3 for counts in seen.values() for count in counts), seen


def test_product_fallbacks_match_the_operators():
    """Every product the zero test leaves to the kernel is ``@``, equal to the fold through the Poly operators."""
    for label, a, b, route in zero_test_corpus():
        if route == "kernel":
            got, want = outcome(lambda: a @ b), outcome(lambda: operator_matmul(a, b))
            if isinstance(want, PolyMatrix):
                assert_same_matrix(got, want)
            else:
                assert got == want, label


def test_zero_test_slots_take_the_bound_bit_length(monkeypatch):
    """One bit fewer and "one slot short" reads zero; the test codec is built right after the one ``fit`` returns."""
    built = []
    init = _Dense.__init__
    monkeypatch.setattr(_Dense, "__init__", lambda self, names, degree, slot: built.append(slot) or init(self, names, degree, slot))
    x1, x2 = (Poly.variable(v, RINGS[2]) for v in RINGS[2])
    hit = PolyMatrix([[2**20 * x2 - x1]]).product_witness(PolyMatrix([[Poly.const(1, RINGS[2])]]))
    assert built == [32, 21] and hit is not None and str(hit[2]) == "-x1 + 1048576*x2"


# ----------------------------------------------------------------------
# pfaffians
# ----------------------------------------------------------------------


def graded_alternating(rng, names, twists, theta, coeff=4):
    """Entry (i, j) a random form of degree theta - t_i - t_j (zero where negative); some degree-0 ones nameless."""
    size = len(twists)
    upper = {}
    for i in range(size):
        for j in range(i + 1, size):
            d = theta - twists[i] - twists[j]
            if d < 0 or rng.random() < 0.1:
                continue
            if d == 0 and rng.random() < 0.5:
                upper[(i + 1, j + 1)] = Poly.const(rng.choice((1, -1)) * rng.randint(1, coeff))
            else:
                upper[(i + 1, j + 1)] = random_form(rng, names, d, coeff)
    return AlternatingMatrix.from_upper(size, upper)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graded_pfaffians_match_the_oracle(n):
    rng = random.Random(40 + n)
    names = RINGS[n]
    checked = 0
    for size in (2, 3, 4, 5, 6, 7):
        for _ in range(4 if n < 4 else 2):
            twists = [rng.randint(0, 2) for _ in range(size)]
            m = graded_alternating(rng, names, twists, 2 + max(twists))
            if not m.names:
                continue
            if size % 2:
                got = m.submaximal_pfaffians()
                want = []
                for i in range(size):
                    value = m.delete((i + 1,)).pfaffian_oracle()
                    want.append(value if i % 2 == 0 else -value)
            else:
                got, want = [m.pfaffian()], [m.pfaffian_oracle()]
            assert (m._codec is not None) == (n <= _MAX_DENSE_VARIABLES)
            assert [typed(p) for p in got] == [typed(Poly._trusted(m.names, w._terms)) for w in want]
            checked += 1
    assert checked >= 12


def test_pfaffians_at_the_slot_bound_and_cancelling_to_zero():
    names = RINGS[2]
    x = Poly.variable("x1", names)
    # pf = a12 a34 - a13 a24 + a14 a23 = 3 L**2 x**2, the (2h - 1)!! L**h bound itself
    L = math.isqrt(TOP // 3)
    m = AlternatingMatrix.from_upper(4, {(1, 2): L * x, (3, 4): L * x, (1, 3): L * x, (2, 4): -L * x, (1, 4): L * x, (2, 3): L * x})
    assert typed(m.pfaffian()) == typed(m.pfaffian_oracle()) and m._codec is not None
    assert max(m.pfaffian()._terms.values()) == 3 * L * L
    # one more and the bound passes 64 signed bits: the dict kernel takes it
    m = AlternatingMatrix.from_upper(4, {(1, 2): (L + 1) * x, (3, 4): x})
    assert typed(m.pfaffian()) == typed(m.pfaffian_oracle()) and m._codec is None
    # u w^T - w u^T has rank 2, so its 4x4 pfaffian cancels to zero; row 5 is empty
    rng = random.Random(5)
    u = [random_form(rng, names, 1) for _ in range(5)]
    w = [random_form(rng, names, 1) for _ in range(5)]
    upper = {(i + 1, j + 1): u[i] * w[j] - w[i] * u[j] for i in range(4) for j in range(i + 1, 4)}
    m = AlternatingMatrix.from_upper(5, upper)
    vector = m.submaximal_pfaffians()
    assert m._codec is not None and [p.is_zero for p in vector] == [True] * 4 + [True]
    assert typed(vector[4]) == typed(Poly.zero(names))
    assert typed(m.pfaffian((1, 2, 3, 4))) == typed(Poly.zero(names))


def test_pfaffian_fallbacks_match_the_oracle():
    names = RINGS[3]
    rng = random.Random(6)
    x, y, z = (Poly.variable(v, names) for v in names)
    non_graded = AlternatingMatrix.from_upper(
        4, {(1, 2): x, (3, 4): y, (1, 3): x * x, (2, 4): Poly.const(1, names), (1, 4): x * x, (2, 3): y * y}
    )
    cases = {
        "non-graded": non_graded,
        "fraction": AlternatingMatrix.from_upper(4, {(1, 2): x * Fraction(1, 2), (3, 4): y, (1, 3): z, (2, 4): x}),
        "not homogeneous": AlternatingMatrix.from_upper(4, {(1, 2): x + y * y, (3, 4): z}),
        "over 64 bits": AlternatingMatrix.from_upper(4, {(1, 2): 2**40 * x, (3, 4): 2**40 * y, (1, 4): z}),
        "large box": AlternatingMatrix.from_upper(4, {(1, 2): random_form(rng, names, 32), (3, 4): random_form(rng, names, 32)}),
        "many variables": AlternatingMatrix.generic(6),
        # 12 terms over 568 slots of the degree-16 codec: the minors would not fill their ints
        "sparse": AlternatingMatrix.from_upper(4, {(1, 2): x**8 - z**8, (3, 4): y**8 + z**8, (1, 3): x**8, (2, 4): z**8}),
    }
    for label, m in cases.items():
        assert typed(m.pfaffian()) == typed(m.pfaffian_oracle()), label
        assert m._codec is None, label
    # the matrix's ring comes from a zero diagonal entry of another ring: the dict kernel refuses the sum
    grid = [[Poly.zero(("z",)), x, y], [-x, Poly.zero(), z], [-y, -z, Poly.zero()]]
    with pytest.raises(ValueError, match="variable sets differ"):
        AlternatingMatrix(grid).submaximal_pfaffians()
    # a non-graded matrix whose first expansions would agree in degree takes the dict kernel from the start
    m = AlternatingMatrix.from_upper(
        5, {(1, 2): x, (1, 3): y, (2, 3): z, (1, 4): x, (2, 4): y, (3, 4): z, (4, 5): x * y, (3, 5): z}
    )
    want = [m.delete((i + 1,)).pfaffian_oracle() for i in range(5)]
    assert typed(m.pfaffian((1, 2, 3, 4))) == typed(want[4]) and m._codec is None
    got = m.submaximal_pfaffians()
    assert [typed(p) for p in got] == [typed(w if i % 2 == 0 else -w) for i, w in enumerate(want)]
    # rows 1, 2 against rows 3, 4: graded by w = (0, 1, 1, 2) while (2, 4) has degree 3, not with degree 1,
    # where pf = a14 a23 - a13 a24 mixes degrees 4 and 2
    for d24, dense in ((3, True), (1, False)):
        m = AlternatingMatrix.from_upper(4, {(1, 3): x, (1, 4): x * y, (2, 3): y * z, (2, 4): random_form(rng, names, d24)})
        assert typed(m.pfaffian()) == typed(m.pfaffian_oracle()), d24
        assert (m._codec is not None) == dense, d24


def test_dict_path_reads_each_entry_from_the_expanded_row():
    """A constant of another ring in one triangle is met only when the expansion reads its row.

    Entry (1, 3) is a nameless 1 and entry (3, 1) is -1 in ("z",): the
    expansion reads row 1, so it never meets the ("z",) constant; with the
    two swapped it does, and the kernel refuses the sum.
    """
    names = ("x",)
    x = Poly.variable("x", names)
    for size, want in ((4, "28*x^2 - 5*x"), (6, "294*x^3 - 52*x^2")):
        for upper, lower, raises in ((Poly.const(1), Poly.const(-1, ("z",)), False), (Poly.const(1, ("z",)), Poly.const(-1), True)):
            grid = [[(i + j + 1) * x if i < j else -(i + j + 1) * x if i > j else Poly.zero() for j in range(size)] for i in range(size)]
            grid[0][2], grid[2][0] = upper, lower
            m = AlternatingMatrix(grid)
            if raises:
                with pytest.raises(ValueError, match="variable sets differ"):
                    m.pfaffian()
            else:
                assert str(m.pfaffian()) == want and m._codec is None


def full_scan_representation(m):
    """The codec and the (M, -M) grids when every entry is scanned and encoded, not only the upper triangle."""
    plus = m.entries
    forms = _int_forms(e for row in plus for e in row)
    codec = None
    if forms is not None and forms[0] in ((), m.names):
        h = m.size // 2
        codec = _Dense.fit(m.names, h * forms[1], forms[2] ** h * math.prod(range(3, 2 * h, 2)))
    if codec is not None and _fill(plus, codec) >= 4 * _MIN_FILL:
        plus = tuple(tuple(map(codec.encode, row)) for row in plus)
        if not pfaffian._graded(plus):
            codec, plus = None, m.entries
    else:
        codec = None
    minus = tuple(tuple(-e if codec is None else (-e[0], e[1]) for e in row) for row in plus)
    return codec, plus, minus


def load_fixture(name):
    data = json.loads((FIXTURES / name).read_text())
    return AlternatingMatrix.from_poly_matrix(parse_matrix(data["entries"], data["variables"])), data


def mirrored_constants(ring):
    """A graded 5x5 matrix with w = (0, 0, 0, 1, 1) whose constants (1, 2) and (2, 3) are nameless above the diagonal.

    Below them, (2, 1) is the constant of ``ring`` and (3, 2) a nameless one.
    """
    rng = random.Random(7)
    names = RINGS[3]
    w = (0, 0, 0, 1, 1)
    grid = [[Poly.zero()] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i + 1, 5):
            grid[i][j] = random_form(rng, names, w[i] + w[j])
            grid[j][i] = -grid[i][j]
    grid[0][1], grid[1][0] = Poly.const(3), Poly.const(-3, ring)
    grid[1][2], grid[2][1] = Poly.const(-2), Poly.const(2)
    return AlternatingMatrix(grid)


def test_upper_triangle_representation_equals_the_full_scan():
    rng = random.Random(60)
    matrices = {"structure-11": load_fixture("structure-11.json")[0]}
    for size in range(5, 12):
        while True:
            twists = [rng.randint(1, 3) for _ in range(size)]
            try:
                matrices[f"random {size}"] = random_graded_alternating(twists, rng)
                break
            except ValueError:  # no integral matrix degree
                continue
    matrices["mirrored by the ring"] = mirrored_constants(RINGS[3])
    matrices["mirrored by another ring"] = mirrored_constants(("z",))
    matrices["generic"] = AlternatingMatrix.generic(5)
    for label, m in matrices.items():
        codec, plus, minus = full_scan_representation(m)
        m._represent()
        assert (m._codec is None) == (codec is None), label
        if codec is not None:
            assert (m._codec.names, m._codec._base, m._codec.slot) == (codec.names, codec._base, codec.slot), label
            assert [list(r) for r in m._grid[0]] == [list(r) for r in plus], label
            assert [list(r) for r in m._grid[1]] == [list(r) for r in minus], label
        else:
            for got, want in zip(m._grid, (plus, minus)):
                assert [[typed(e) for e in r] for r in got] == [[typed(e) for e in r] for r in want], label
    assert matrices["mirrored by the ring"]._codec is not None and matrices["mirrored by another ring"]._codec is None


def assert_same_alternating(got, want):
    assert [[typed(e) for e in r] for r in got.entries] == [[typed(e) for e in r] for r in want.entries]
    assert (got.size, got.names, got._row_masks, got._sparse_rows) == (want.size, want.names, want._row_masks, want._sparse_rows)

    def pfaffians(m):
        try:
            return [typed(p) for p in (m.submaximal_pfaffians() if m.size % 2 else [m.pfaffian()])]
        except ValueError as exc:  # constants of two rings meet in the dict kernel
            return str(exc)

    assert pfaffians(got) == pfaffians(want)


def test_trusted_matrices_equal_checked_ones():
    fixture, data = load_fixture("structure-11.json")
    sparse = AlternatingMatrix.from_upper(7, {(1, 2): 3, (1, 5): -2, (2, 6): 4, (3, 4): 1, (3, 7): 5, (4, 6): -1, (5, 7): 2, (6, 7): 7})
    for m in (fixture, sparse, mirrored_constants(RINGS[3]), mirrored_constants(("z",)), AlternatingMatrix.generic(5)):
        order = [1, 4, 3] + [i for i in range(m.size) if i not in (1, 4, 3)]
        checked = AlternatingMatrix([[m.entries[i][j] for j in order] for i in order])
        assert_same_alternating(m._permuted(order), checked)
        keep = [i for i in range(m.size) if i not in (0, 3)]
        assert_same_alternating(m.delete((1, 4)), AlternatingMatrix([[m.entries[i][j] for j in keep] for i in keep]))
        adjoint = m.adjoint([i + 1 for i in keep[len(keep) % 2 :]])
        assert_same_alternating(adjoint, AlternatingMatrix(adjoint.entries))
    pres = AlternatingPresentation(fixture, (2, 5, 9), tuple(data["twists"]))
    mat, twists = pres.reordered()
    order = [1, 4, 8] + [i for i in range(11) if i not in (1, 4, 8)]
    assert_same_alternating(mat, AlternatingMatrix([[fixture.entries[i][j] for j in order] for i in order]))
    assert twists == tuple(data["twists"][i] for i in order)
    # the public constructor still checks
    x = Poly.variable("x1", RINGS[1])
    for grid in ([[0, x], [x, 0]], [[x, 0], [0, 0]], [[0, x, 0], [-x, 0, 1], [0, 1, 0]]):
        with pytest.raises(ValueError):
            AlternatingMatrix(grid)


def reference_masks(m, mask, seen):
    """Every mask the expansion reaches from ``mask``: along the row with fewest nonzero entries in mask, the first on ties."""
    if mask in seen:
        return
    seen.add(mask)
    rows = [i for i in range(m.size) if mask >> i & 1]
    if rows:
        a = min(rows, key=lambda i: ((m._row_masks[i] & mask).bit_count(), i))
        for b in rows:
            if b != a and m._row_masks[a] >> b & 1:
                reference_masks(m, mask & ~(1 << a) & ~(1 << b), seen)


def test_expansion_rows_follow_the_fewest_nonzero_rule():
    rng = random.Random(70)
    for trial in range(40):
        size = rng.randint(2, 9)
        density = rng.choice((0.3, 0.6, 0.9, 1.0))
        upper = {(i, j): rng.choice((1, -1)) * rng.randint(1, 5) for i in range(1, size + 1) for j in range(i + 1, size + 1) if rng.random() < density}
        m = AlternatingMatrix.from_upper(size, upper)
        full = (1 << size) - 1
        tops = [full & ~(1 << i) for i in range(size)] if size % 2 else [full]
        seen = {0}
        for top in tops:
            reference_masks(m, top, seen)
        got = m.submaximal_pfaffians() if size % 2 else [m.pfaffian()]
        assert set(m._pf_memo) == seen, (trial, size, density)
        want = [m.delete((i + 1,)).pfaffian_oracle() * (-1) ** i for i in range(size)] if size % 2 else [m.pfaffian_oracle()]
        assert [p.constant_value() for p in got] == [p.constant_value() for p in want]


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def _linear_presentation(size, seed):
    """A linear size x size presentation in x1, x2, x3 from text, as the CLI reads it."""
    rng = random.Random(seed)
    names = RINGS[3]
    grid = [["0"] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            cs = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in names]
            grid[i][j] = "".join(f"{c:+d}*{v}" for c, v in zip(cs, names))
            grid[j][i] = "".join(f"{-c:+d}*{v}" for c, v in zip(cs, names))
    matrix = AlternatingMatrix.from_poly_matrix(parse_matrix(grid, names))
    twist = (size - 1) // 2
    return AlternatingPresentation(matrix, (1, 2, 3), (twist,) * size)


def test_structure_path_never_reaches_the_dict_kernel(monkeypatch):
    presentations = [_linear_presentation(size, size) for size in (7, 9, 11)]

    def broken(*args, **kwargs):
        raise AssertionError("dict kernel called")

    monkeypatch.setattr(exact, "_sum_of_products", broken)
    monkeypatch.setattr(pfaffian, "_sum_of_products", broken)
    for pres in presentations:
        report = verify_complex(build_aci_complex(pres))
        assert report.ok


def test_generic_pfaffian_reaches_the_dict_kernel(monkeypatch):
    m = AlternatingMatrix.generic(9)

    def broken(*args, **kwargs):
        raise AssertionError("dict kernel called")

    monkeypatch.setattr(pfaffian, "_sum_of_products", broken)
    with pytest.raises(AssertionError, match="dict kernel called"):
        m.submaximal_pfaffians()


@pytest.mark.parametrize(
    "fixture, fits, built",
    [
        ("structure-11.json", [32, 64, 32], [32, 64, 39, 32, 26]),
        ("structure-11-x20.json", [64, None, 64], [64, 64, 52]),
    ],
    ids=["structure-11", "structure-11-x20"],
)
def test_slot_widths_on_the_11x11_fixtures(fixture, fits, built, monkeypatch):
    """The codecs ``fit`` picks for the memo, d1 @ d2 and d2 @ d3, and the slots of every codec built.

    None is the dict kernel, whose bound passes 2**63.  A composition
    that ``fit`` accepts builds its zero test's codec, with the bound's
    own bit length, right after the one ``fit`` returns.
    """
    matrix, data = load_fixture(fixture)
    pres = AlternatingPresentation(matrix, (2, 5, 9), tuple(data["twists"]))
    codecs, slots = [], []
    fit, init = _Dense.fit, _Dense.__init__
    monkeypatch.setattr(_Dense, "fit", lambda *args: codecs.append(fit(*args)) or codecs[-1])
    monkeypatch.setattr(_Dense, "__init__", lambda self, names, degree, slot: slots.append(slot) or init(self, names, degree, slot))
    assert verify_complex(build_aci_complex(pres)).ok
    assert [None if c is None else c.slot for c in codecs] == fits
    assert slots == built
