import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from bettiforge.exact import (
    _MAX_DEGREE,
    _TAG_BATCH,
    _W,
    Poly,
    PolyMatrix,
    _coefficient,
    _has_fraction,
    _layout,
    _steps,
    _sum_of_products,
    collect_names,
    monomials,
    parse_matrix,
    parse_poly,
    variables,
)
from support import operator_matmul


def test_product_difference_of_squares():
    x, y = variables("x y")
    assert (x + y) * (x - y) == x * x - y * y


def test_ring_axioms_random():
    rng = random.Random(5)
    names = ("x", "y")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exp = (rng.randint(0, 3), rng.randint(0, 3))
            terms[exp] = Fraction(rng.randint(-5, 5))
        return Poly(names, terms)

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_scalar_coercion():
    x, = variables("x")
    assert 2 * x + 1 == x + x + Poly.const(1, ("x",))
    assert x - x == 0
    assert Fraction(1, 2) * (x + x) == x


def _reference(names, terms):
    """Reference polynomial: all-Fraction coefficients through the validating constructor."""
    return Poly(names, {e: Fraction(c) for e, c in terms.items()})


def _reference_add(p, q):
    out = {e: Fraction(c) for e, c in p.terms.items()}
    for e, c in q.terms.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _reference(p.names, out)


def _reference_mul(p, q):
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * cb
    return _reference(p.names, out)


def _assert_int_first(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int if c.denominator == 1 else type(c) is Fraction


def test_int_first_coefficients_random():
    rng = random.Random(31)
    names = ("x", "y")

    def rand_poly():
        # mixed int and Fraction inputs, including integral Fractions and halves that pair up
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exp] = rng.choice(
                (rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))), Fraction(6, 3))
            )
        return Poly(names, terms)

    for _ in range(200):
        a, b = rand_poly(), rand_poly()
        cases = (
            (a + b, _reference_add(a, b)),
            (a - b, _reference_add(a, _reference(names, {e: -c for e, c in b.terms.items()}))),
            (a * b, _reference_mul(a, b)),
            (a**2, _reference_mul(a, a)),
            (a**3, _reference_mul(_reference_mul(a, a), a)),
        )
        for got, want in cases:
            _assert_int_first(got)
            assert got == want and got.terms == want.terms
            assert str(got) == str(want)
    x, = variables("x")
    half = Fraction(1, 2) * (x + x)
    assert str(half) == "x" and type(half.terms[(1,)]) is int


def _operator_sum(pairs, names=()):
    """The sum of products through Poly operators, the kernel's reference."""
    acc = Poly.zero(names)
    for a, b in pairs:
        acc = acc + a * b
    return acc


def _typed_terms(p):
    return {e: (type(c), c) for e, c in p.terms.items()}


def test_sum_of_products_matches_operators():
    rng = random.Random(67)

    def operand(ring):
        kind = rng.randrange(5)
        if kind == 0:
            return Poly.zero(ring)
        if kind == 1:
            return Poly.zero()
        if kind == 2 or not ring:  # a nameless constant
            return Poly.const(rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2))))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exp] = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))))
        return Poly(ring, terms)

    # the kernel sums in the ring its caller names; nameless constants are constants of any ring
    for _ in range(400):
        for ring in ((), ("x", "y")):
            pairs = [(operand(ring), operand(ring)) for _ in range(rng.randint(0, 6))]
            want = _operator_sum(pairs, ring)
            got = _sum_of_products(pairs, ring)
            _assert_int_first(got)
            assert got.names == want.names == ring
            assert _typed_terms(got) == _typed_terms(want)


def test_sum_of_products_cancellation_and_constants():
    x, y = variables("x y")
    xy = x.names
    half = Fraction(1, 2) * x
    # Fractions that add up to an integer come back as int
    got = _sum_of_products([(half, y), (y, half), (Poly.const(Fraction(1, 3)), Poly.const(3))], xy)
    assert got == x * y + 1
    assert _typed_terms(got) == {(1, 1): (int, 1), (0, 0): (int, 1)}
    # a full cancellation is the zero polynomial of the ring
    got = _sum_of_products([(x, y), (-x, y), (Poly.const(2), x), (x, Poly.const(-2))], xy)
    assert got.is_zero and got.names == xy and got.terms == {}
    # constants in the ring () stay nameless; the empty sum is the zero of the ring
    assert _typed_terms(_sum_of_products([(Poly.const(2), Poly.const(3))], ())) == {(): (int, 6)}
    assert _sum_of_products([], xy).names == xy
    # nameless constants are summed into the ring the caller names
    got = _sum_of_products([(Poly.const(2), Poly.const(3)), (x, y)], xy)
    assert _typed_terms(got) == {(0, 0): (int, 6), (1, 1): (int, 1)}


def test_coefficient_boundary_rejects_float_and_bool():
    x, = variables("x")
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(ValueError):
            Poly.const(bad)
        with pytest.raises(ValueError):
            Poly(("x",), {(1,): bad})
        with pytest.raises(ValueError):
            x + bad
        with pytest.raises(ValueError):
            PolyMatrix([[bad]])
        assert x != bad
    with pytest.raises(ValueError):
        parse_matrix([[0, 0.1], [-0.1, 0]])
    for zero_denominator in (lambda: Poly.const("1/0"), lambda: parse_poly("1/0*x")):
        with pytest.raises(ValueError):
            zero_denominator()
    assert Poly.const("1/3") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["x", None, [1], object()], ids=["str", "none", "list", "object"])
def test_matrix_entries_that_are_not_numbers_are_refused(bad):
    with pytest.raises(ValueError, match="entry must be a polynomial or a number"):
        PolyMatrix([[1, bad]])
    assert type(Poly.const(Fraction(4, 2)).constant_value()) is int


def test_coefficient_text_errors_name_the_grammar():
    # the sign of a scientific exponent splits the term, so "1e" is read as a coefficient
    for text in ("1e-5*x", "1e+5*x", "2e*x", "1/2/3*x"):
        with pytest.raises(ValueError, match="coefficient must be an integer or a rational") as info:
            parse_poly(text, ("x",))
        assert "Invalid literal" not in str(info.value)
    assert parse_poly("1e5*x", ("x",)) == 100000 * variables("x")[0]


def test_coefficient_exponent_is_capped():
    # Fraction builds 10**k exactly, so the size of k is refused before the value is built
    for text in ("1e4301", "1E-4301", "2.5e00004301", "1e1_0000_000", " 1e99999 ", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent is above the cap 4300"):
            _coefficient(text)
    assert _coefficient("1e4300") == _coefficient("1e0_004_300") == 10**4300
    assert _coefficient("2.5E-4300") == Fraction(5, 2 * 10**4300)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Poly(("x", "y"), {(1,): 1}), r"exponent \(1,\) does not match 2 variables"),
        (lambda: Poly(("x",), {(-1,): 1}), r"negative exponent in \(-1,\)"),
        (lambda: PolyMatrix([[1, 2], [3]]), "rows have inconsistent lengths"),
        (lambda: PolyMatrix([[1, 2]]) + PolyMatrix([[1], [2]]), "dimension mismatch in matrix addition"),
    ],
    ids=["exponent-length", "negative-exponent", "ragged-rows", "add-dimensions"],
)
def test_construction_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("e", [2.5, True, "3"], ids=["float", "bool", "string"])
def test_exponents_must_be_plain_ints(e):
    with pytest.raises(ValueError, match="exponents must be ints"):
        Poly(("x",), {(e,): 1})
    assert Poly(("x",), {(3,): 1}) == parse_poly("x^3")


def test_constant_hash_agrees_with_equality():
    assert Poly.const(3) == 3
    assert hash(Poly.const(3)) == hash(3)
    assert {Poly.const(3): 1}[3] == 1
    half = Poly.const(Fraction(1, 2), ("x",))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(Poly.zero(("x",))) == hash(0)


def test_homogeneity():
    p = parse_poly("x^2 + x*y")
    assert p.homogeneous_degree() == 2 and p.is_homogeneous()
    q = parse_poly("x + y^2")
    assert q.homogeneous_degree() is None and not q.is_homogeneous()
    z = Poly.zero(("x", "y"))
    # the zero form is homogeneous of every degree
    assert z.is_homogeneous() and z.homogeneous_degree() is None


def test_parse_and_format_round_trip():
    text = "3*x1^2*x2 - x3"
    p = parse_poly(text)
    assert str(p) == text
    assert parse_poly(str(p), p.names) == p
    assert str(parse_poly("-a")) == "-a"
    assert str(parse_poly("1/2*x + x", ("x",))) == "3/2*x"
    with pytest.raises(ValueError):
        parse_poly("x +", ("x",))
    with pytest.raises(ValueError):
        parse_poly("q", ("x",))


def test_constant_value():
    assert Poly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    x, = variables("x")
    with pytest.raises(ValueError):
        x.constant_value()


def test_matrix_det_2x2():
    m = parse_matrix([["a", "b"], ["c", "d"]])
    assert m.determinant() == parse_poly("a*d - b*c", m.entry(0, 0).names)
    # a constant matrix keeps its ring through the Bareiss branch, and so does its adjugate
    m = parse_matrix([["1", "2"], ["3", "4"]], ("x",))
    assert m.determinant() == -2 and m.determinant().names == ("x",)
    assert m.adjugate() == parse_matrix([["4", "-2"], ["-3", "1"]]) and m.adjugate().names == ("x",)
    # a 1x1 adjugate is [1], in the matrix's ring, though its one minor is 0x0
    for cell in ("5", "x"):
        adj = parse_matrix([[cell]], ("x",)).adjugate()
        assert adj == PolyMatrix([[1]]) and adj.names == ("x",)


def test_transpose_involution():
    m = parse_matrix([["a", "b", "c"], ["d", "e", "f"]])
    assert m.transpose().transpose() == m


def test_matmul_associative_symbolic():
    rng = random.Random(9)
    names = tuple(f"t{i}" for i in range(4))

    def rand_matrix():
        return PolyMatrix(
            [
                [
                    Poly(names, {tuple(rng.randint(0, 1) for _ in names): rng.randint(-3, 3)})
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )

    for _ in range(10):
        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        assert (a @ b) @ c == a @ (b @ c)


def test_matmul_dimension_mismatch():
    a = PolyMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def _matmul_outcome(product, a, b):
    """The shape, then the names and typed packed terms of every entry; or the ValueError message."""
    try:
        m = product(a, b)
    except ValueError as exc:
        return "error", str(exc)
    entries = [[(e.names, {k: (type(c), c) for k, c in e._terms.items()}) for e in row] for row in m.entries]
    return (m.rows, m.cols), entries


def test_matmul_matches_operator_fold():
    rng = random.Random(71)
    names = ("x", "y")

    def entry():
        kind = rng.randrange(6)
        if kind == 0:
            return Poly.zero(rng.choice(((), names)))
        if kind == 1:  # a nameless constant
            return Poly.const(rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2))))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, 2), rng.randint(0, 2))
            # halves and thirds that often add up to integers
            terms[exp] = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))))
        return Poly(names, terms)

    def matrix(rows, cols):
        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
        seen["nameless"] += sum(not e.names for row in grid for e in row)
        return PolyMatrix(grid)

    zero = Poly.zero()
    seen = {"zero entry": 0, "fraction": 0, "nameless": 0}
    for _ in range(300):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = matrix(n, k), matrix(k, m)
        if rng.random() < 0.3:  # an all-zero row of a and column of b
            i, j = rng.randrange(n), rng.randrange(m)
            a = PolyMatrix([[zero] * k if r == i else row for r, row in enumerate(a.entries)])
            b = PolyMatrix([[zero if c == j else e for c, e in enumerate(row)] for row in b.entries])
        want = _matmul_outcome(operator_matmul, a, b)
        assert _matmul_outcome(PolyMatrix.__matmul__, a, b) == want
        for row in (a @ b).entries:
            for e in row:
                _assert_int_first(e)
                seen["zero entry"] += e.is_zero
                seen["fraction"] += _has_fraction(e._terms)
    assert all(seen.values()), seen

    # empty products: no columns to sum over, or no rows at all
    for a, b in ((PolyMatrix([[], []]), PolyMatrix([])), (PolyMatrix([]), PolyMatrix([]))):
        assert _matmul_outcome(PolyMatrix.__matmul__, a, b) == _matmul_outcome(operator_matmul, a, b)

    # products that cancel to zero: the alternating matrix of (p, q, r) kills that column
    x, y = variables(names)
    p, q, r = Fraction(1, 2) * x, y + Fraction(1, 3), 3 * x * y
    skew = PolyMatrix([[zero, r, -q], [-r, zero, p], [q, -p, zero]])
    column = PolyMatrix([[p], [q], [r]])
    assert _matmul_outcome(PolyMatrix.__matmul__, skew, column) == _matmul_outcome(operator_matmul, skew, column)
    got = skew @ column
    assert all(e.is_zero and e.names == names for (e,) in got.entries)


def test_matmul_errors_match_operator_fold():
    rng = random.Random(73)
    rings = ((), ("x", "y"), ("z",))
    half = 2 ** (_W - 1)

    def entry(ring):
        kind = rng.randrange(5)
        if kind == 0:
            return Poly.zero(rng.choice(((), ring)))
        if kind == 1 and ring:  # half the degree cap: the square of it is above the cap
            return Poly(ring, {(half,) + (0,) * (len(ring) - 1): 1})
        return Poly(ring, {(rng.randint(0, 2),) * len(ring): rng.randint(1, 3)})

    def matrix(rows, cols):
        ring = rng.choice(rings)
        return PolyMatrix([[entry(ring) for _ in range(cols)] for _ in range(rows)])

    messages = {"variable sets differ": 0, "above the cap": 0, "dimension mismatch": 0, "ok": 0}
    for _ in range(400):
        n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        k2 = k if rng.random() < 0.9 else k + 1
        a, b = matrix(n, k), matrix(k2, m)
        want = _matmul_outcome(operator_matmul, a, b)
        assert _matmul_outcome(PolyMatrix.__matmul__, a, b) == want
        kind = next((key for key in messages if key in want[1]), "ok") if want[0] == "error" else "ok"
        messages[kind] += 1
    assert all(messages.values()), messages

    # sizes are checked first, then the two rings, then each pair's degrees
    x = Poly.variable("x", ("x", "y"))
    big = Poly(("x", "y"), {(half, 0): 1})
    big_z = Poly(("z",), {(half,): 1})
    cases = (
        (PolyMatrix([[x, big]]), PolyMatrix([[x], [big]]), f"product degree {2 * half} is above the cap {_MAX_DEGREE}"),
        (PolyMatrix([[big_z]]), PolyMatrix([[big]]), "variable sets differ: ('z',) vs ('x', 'y')"),
        (PolyMatrix([[big_z, big_z]]), PolyMatrix([[big]]), "dimension mismatch: 1x2 @ 1x1"),
    )
    for a, b, message in cases:
        assert _matmul_outcome(operator_matmul, a, b) == ("error", message)
        assert _matmul_outcome(PolyMatrix.__matmul__, a, b) == ("error", message)


def test_matrices_keep_one_ring():
    xy = ("x", "y")
    x, y = (Poly.variable(v, xy) for v in xy)
    z = Poly.variable("z", ("z",))
    two_rings = r"^variable sets differ: \('x', 'y'\) vs \('z',\)$"
    # a second variable tuple is refused when the matrix is built, even for a zero entry
    for grid in ([[x, z]], [[x], [z]], [[x, 1], [Poly.zero(("z",)), y]], [[0, x], [z * z, 1]]):
        with pytest.raises(ValueError, match=two_rings):
            PolyMatrix(grid)
    # nameless constants take the ring on, with their equality, hash and text unchanged
    m = PolyMatrix([[Poly.const(2), x], [0, Fraction(1, 2)]])
    assert m.names == xy and all(e.names == xy for row in m.entries for e in row)
    assert m.entries[0][0] == 2 == Poly.const(2) and hash(m.entries[0][0]) == hash(2)
    assert str(m) == "[2, x]\n[0, 1/2]"
    assert PolyMatrix([[1, Fraction(1, 3)]]).names == () and PolyMatrix([]).names == ()
    assert parse_matrix([["0", "1"]], xy).names == xy
    # the product of a matrix with no variables and one of a ring is in that ring, on both sides
    constants, column, row = PolyMatrix([[1, -1]]), PolyMatrix([[x], [x]]), PolyMatrix([[x, y]])
    for product in (constants @ column, row.transpose() @ constants, constants @ PolyMatrix([[0], [0]]).scale(x)):
        assert product.names == xy and all(e.names == xy for r in product.entries for e in r)
    assert (constants @ column).is_zero and constants.product_witness(column) is None
    assert PolyMatrix([[1, 1]]).product_witness(column) == (0, 0, 2 * x)
    # two rings are refused by the product and the zero test alike, whatever the entries
    for a, b in ((row, PolyMatrix([[z], [z]])), (PolyMatrix([[Poly.zero(xy)]]), PolyMatrix([[z]]))):
        for product in (a.__matmul__, a.product_witness):
            with pytest.raises(ValueError, match=two_rings):
                product(b)


def test_bareiss_matches_cofactor():
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            integral = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            # int and non-integral Fraction entries mixed; one entry is always non-integral
            rational = [
                [rng.randint(-6, 6) + rng.choice((0, Fraction(1, 2), Fraction(-2, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            rational[n - 1][0] += Fraction(1, 5)
            for rows in (integral, rational):
                m = PolyMatrix(rows)
                lifted = PolyMatrix([[Poly(("u",), {(0,): v}) for v in row] for row in rows])
                det = m.determinant().constant_value()
                assert det == lifted._cofactor_det(
                    tuple(range(n)), tuple(range(n)), {}
                ).constant_value()
                if rows is integral:
                    assert type(det) is int


def test_adjugate_contract():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        m = PolyMatrix(rows)
        det = m.determinant()
        assert m @ m.adjugate() == PolyMatrix.identity(n).scale(det)
        assert m.adjugate() @ m == PolyMatrix.identity(n).scale(det)


def test_monomials_count():
    assert len(monomials(("x", "y", "z"), 4)) == math.comb(6, 2)
    assert monomials(("x",), 0) == [Poly.const(1, ("x",))]
    assert monomials(("x",), -1) == []


# ----------------------------------------------------------------------
# packed monomial keys
# ----------------------------------------------------------------------


def _random_exponents(rng, n, top=4):
    return tuple(rng.choice((0, 0, 1, rng.randint(0, top))) for _ in range(n))


def test_packed_keys_round_trip():
    rng = random.Random(71)
    for n in (0, 1, 3, 78):
        pack, unpack = _layout(n)
        samples = {(0,) * n}
        if n:
            samples.add((_MAX_DEGREE,) + (0,) * (n - 1))
            samples.add((0,) * (n - 1) + (_MAX_DEGREE,))
            samples.add((_MAX_DEGREE - n + 1,) + (1,) * (n - 1))
        samples.update(_random_exponents(rng, n, top=1000) for _ in range(200))
        for exp in samples:
            key = pack(exp)
            assert unpack(key) == exp
            # the layout: total degree on top, then e1 ... en, one _W-bit field each
            want = sum(exp) << (_W * n)
            for i, e in enumerate(exp):
                want |= e << (_W * (n - 1 - i))
            assert key == want
        assert pack((0,) * n) == 0
        # the parser's name table and Poly.variable give each variable alone the same layout
        names = tuple(f"v{i}" for i in range(n))
        for i, name in enumerate(names):
            want = 1 << (_W * n) | 1 << (_W * (n - 1 - i))
            assert _steps(names)[name] == want
            assert Poly.variable(name, names)._terms == {want: 1}
            assert Poly.variable(name, names) == Poly(names, {tuple(int(j == i) for j in range(n)): 1})


def test_packed_key_order_is_graded_lex():
    rng = random.Random(73)
    for n in (1, 2, 3, 7, 45):
        pack, _ = _layout(n)
        exps = list({_random_exponents(rng, n) for _ in range(300)})
        by_key = sorted(exps, key=pack)
        assert by_key == sorted(exps, key=lambda e: (sum(e), e))


def _reference_str(p):
    """The formatter over the public ``terms`` view and the (degree, exponents) sort key."""
    if not p.terms:
        return "0"
    parts = []
    for exp, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = []
        for name, e in zip(p.names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


# exponents around the byte boundaries of a key field, and the cap
_WIDE_EXPONENTS = (2, 255, 256, 257, 65536, _MAX_DEGREE)


def _wide_exponents(rng, n):
    """An exponent tuple that mixes 0, 1 and the values above, of total degree at most the cap."""
    exp = [rng.choice((0, 0, 1)) for _ in range(n)]
    if n and rng.random() < 0.5:
        slot = rng.randrange(n)
        exp[slot] = rng.choice(_WIDE_EXPONENTS)
        if exp[slot] == _MAX_DEGREE:
            exp = [0] * n
            exp[slot] = _MAX_DEGREE
    return tuple(exp)


def test_str_matches_reference_formatter():
    rng = random.Random(79)
    for n in (1, 3, 45):
        names = tuple(f"v{i}" for i in range(n))
        for _ in range(150):
            terms = {}
            for _ in range(rng.randint(0, 8)):
                exp = _random_exponents(rng, n)
                terms[exp] = rng.choice((1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            p = Poly(names, terms)
            assert str(p) == _reference_str(p)
            assert str(p * p) == _reference_str(_reference_mul(p, p))
    # wide exponents, square-free polynomials, every coefficient kind and 0 to 78 variables
    coefficients = (1, -1, 7, -7, 10**20, -(10**20), Fraction(3, 2), Fraction(-1, 10**20))
    for n in (0, 1, 3, 45, 78):
        names = tuple(f"v{i}" for i in range(n))
        for square_free in (True, False):
            for _ in range(60):
                terms = {}
                for _ in range(rng.randint(0, 8)):
                    exp = _random_exponents(rng, n, top=1) if square_free else _wide_exponents(rng, n)
                    terms[exp] = rng.choice(coefficients)
                if rng.random() < 0.3:  # a constant term
                    terms[(0,) * n] = rng.choice(coefficients)
                p = Poly(names, terms)
                assert str(p) == _reference_str(p)
    for value in (0, 1, -1, 10**20, Fraction(-5, 3)):
        for n in (0, 2):
            assert str(Poly.const(value, ("x", "y")[:n])) == _reference_str(Poly.const(value)) == str(value)
    # the square-free byte pass: three degree runs and a constant, with 1, -1, int and
    # Fraction heads in one polynomial
    p = Poly(
        ("a", "b", "c", "d"),
        {
            (1, 1, 1, 0): 1,
            (1, 0, 1, 1): -1,
            (0, 1, 1, 1): 10**20,
            (1, 1, 0, 0): 3,
            (0, 0, 1, 1): -1,
            (1, 0, 0, 1): Fraction(-2, 3),
            (0, 1, 0, 0): Fraction(1, 2),
            (0, 0, 0, 1): 1,
            (0, 0, 0, 0): -5,
        },
    )
    assert str(p) == _reference_str(p) == "a*b*c - a*c*d + 100000000000000000000*b*c*d + 3*a*b - 2/3*a*d - c*d + 1/2*b + d - 5"
    # the last variable of a 100- and a 127-variable ring (tags 199 and 253), and rings
    # of 128 and 129 variables, which take the general path
    for n in (100, 127, 128, 129):
        names = tuple(f"v{i}" for i in range(n))
        last, first_and_last, four = ([0] * n for _ in range(3))
        last[-1] = first_and_last[0] = first_and_last[-1] = 1
        four[0] = four[1] = four[-2] = four[-1] = 1
        terms = {tuple(last): 1, tuple(first_and_last): -1, tuple(four): 2, (1,) * n: Fraction(1, 2), (0,) * n: 7}
        p = Poly(names, terms)
        assert str(p) == _reference_str(p) and str(-p) == _reference_str(-p)
        assert str(p).endswith(f" - v0*v{n - 1} + v{n - 1} + 7")
    # runs longer than one byte pass: every square-free monomial of degree 4 (1,820) and 3
    # (560) in 16 variables
    names = tuple(f"v{i}" for i in range(16))
    terms = {}
    for d in (3, 4):
        for support in itertools.combinations(range(16), d):
            terms[tuple(int(i in support) for i in range(16))] = (-1) ** sum(support)
    p = Poly(names, terms)
    assert math.comb(16, 4) > _TAG_BATCH and str(p) == _reference_str(p)
    # one variable, one term: a run of a single tag
    for terms in ({(1,): 1}, {(1,): -1}, {(1,): -1, (0,): 1}, {(1,): Fraction(1, 3)}):
        p = Poly(("x",), terms)
        assert str(p) == _reference_str(p)


def _reference_parse(text, names=None):
    """The parser that builds an exponent list per term and validates through ``Poly.__init__``."""
    if names is None:
        names = tuple(sorted(set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))))
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    terms = {}
    pos = 0
    sign = 1
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        pos = 1
    while pos <= len(text):
        nxt = pos
        while nxt < len(text) and text[nxt] not in "+-":
            nxt += 1
        chunk = text[pos:nxt]
        if not chunk:
            raise ValueError(f"malformed polynomial: {text!r}")
        coeff = sign
        exp = [0] * len(names)
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"malformed term {chunk!r}")
            if factor[0].isdigit():
                if not factor.isascii() or "_" in factor:
                    raise ValueError(f"coefficient must be written in ASCII without '_', got {factor!r}")
                coeff *= _coefficient(factor)
                continue
            if "^" in factor:
                base, _, power = factor.partition("^")
                if not re.fullmatch(r"[0-9]+", power):
                    raise ValueError(f"exponent of {base!r} must be ASCII digits, got {power!r}")
                k = int(power)
            else:
                base, k = factor, 1
            if base not in index:
                raise ValueError(f"unknown variable {base!r}")
            exp[index[base]] += k
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
        if nxt >= len(text):
            break
        sign = -1 if text[nxt] == "-" else 1
        pos = nxt + 1
    return Poly(names, terms)


def _parse_outcome(parse, text, names):
    try:
        p = parse(text, names)
    except ValueError as exc:
        return "error", str(exc)
    return p.names, _typed_terms(p)


_BIG = 2 ** (_W - 1)
_PARSE_CASES = (
    # the degree cap is checked after the whole text: a later error wins,
    # a cancelling over-cap term still raises, and the first one is reported
    f"x^{2 ** _W} + q",
    f"x^{2 ** _W} - x^{2 ** _W}",
    f"x^{_BIG}*x^{_BIG} + y^{2 ** 40}",
    f"x^{_BIG}*y^{_BIG} + x^{_BIG}*y^{_BIG} + x +",
    f"x^{_MAX_DEGREE}",
    "0*x", "2/2*x", "007*x", "1.5*x", "1/3*x + 2/3*x", "1/2*x - 1/2*x + 3",
    " - 3 * x ^ 2 * y + y ", "+x", "-x", "x - x", "0", "1/0*x", "1e5*x", "1e-5*x",
    "x+", "+", "-", "", "  ", "x++y", "x**y", "*x", "x*", "x^", "x^-1", "x^1_0", "x^٣",
    "٣*x", "3_0*x", "x2", "q", "x^2^3", "2x", "x*3*y*1/2", "y^0*x^0",
)


def test_parser_matches_reference():
    names = ("x", "y", "z")
    for text in _PARSE_CASES:
        for ring in (names, None):
            assert _parse_outcome(parse_poly, text, ring) == _parse_outcome(_reference_parse, text, ring), text
    rng = random.Random(83)
    tokens = (
        "x", "y", "z", "q", "x", "y", "1", "0", "3", "007", "2/2", "1/3", "1.5", "10", "3_0", "٣",
        "^2", "^0", "^1", "^256", f"^{2 ** _W}", f"^{_BIG}", "^", "^٣",
        "*", "*", "*", "+", "-", "+", "-", " ",
    )
    for _ in range(3000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 12)))
        ring = names if rng.random() < 0.7 else None
        assert _parse_outcome(parse_poly, text, ring) == _parse_outcome(_reference_parse, text, ring), text
    # valid texts: printed polynomials read back through both parsers
    for _ in range(300):
        terms = {_wide_exponents(rng, 3): rng.choice((1, -1, 4, Fraction(-2, 7))) for _ in range(rng.randint(0, 6))}
        text = str(Poly(names, terms))
        assert _parse_outcome(parse_poly, text, names) == _parse_outcome(_reference_parse, text, names), text
        assert parse_poly(text, names) == Poly(names, terms)


def _matrix_outcome(parse, rows, names):
    try:
        m = parse(rows, names)
    except ValueError as exc:
        return "error", str(exc)
    return [[(p.names, _typed_terms(p)) for p in row] for row in m.entries]


def _cellwise_matrix(rows, names):
    """``parse_matrix`` with each cell parsed alone, so no term text is shared between cells."""
    if names is None:
        names = sorted(set().union(*(collect_names(cell) for row in rows for cell in row if isinstance(cell, str))))
    names = tuple(names)
    return PolyMatrix([[parse_poly(cell, names) if isinstance(cell, str) else Poly.const(cell, names) for cell in row] for row in rows])


def test_matrix_parse_reads_each_term_text_once_with_cellwise_results():
    over = f"x^{2 ** _W}"
    matrices = [
        # a term repeated with both signs, within a cell and across cells
        [["x + 2*y", "-x - 2*y"], ["2*y - x + 2*y", "x"]],
        # a malformed term, repeated: the first cell reports it
        [["y", "x*"], ["x*", "x*"]],
        [["x + y", "x + y*"], ["y*", "x"]],
        # an over-cap term read and then met again, followed by a malformed term: the malformed one comes first
        [[f"{over} - {over} + 2*", "x"]],
        [["x", f"{over} + y"], [over, "y"]],
        [["x", f"y - {over} + {over}"], ["x", "q"]],
        # rational and decimal coefficients, repeated with both signs
        [["1/3*x + 2e3*y", "-1/3*x - 2e3*y"], ["2e3*y - 1/3*x", "1/3*x + 1/3*x + 1/3*x"]],
        [["1/0*x", "y"]],
        [["x", 3], [Fraction(1, 2), "-x"]],
    ]
    rng = random.Random(91)
    tokens = ("x", "y", "2*x", "1/3*y", "2e3*x*y", "x^2", "x*", "q", "", over, "3", "x^٣")
    for _ in range(400):
        size = rng.randint(1, 3)
        matrices.append(
            [["".join(rng.choice("+-") + rng.choice(tokens) for _ in range(rng.randint(1, 4))) for _ in range(size)] for _ in range(size)]
        )
    for rows in matrices:
        for names in (("x", "y", "z"), None):
            assert _matrix_outcome(parse_matrix, rows, names) == _matrix_outcome(_cellwise_matrix, rows, names), rows


def test_nameless_constant_equals_and_hashes_like_named():
    for value in (0, 1, -3, Fraction(2, 5)):
        nameless = Poly.const(value)
        for names in (("x",), ("x", "y", "z"), tuple(f"v{i}" for i in range(45))):
            named = Poly.const(value, names)
            assert nameless == named and named == nameless
            assert hash(nameless) == hash(named) == hash(value)
            assert named.terms == ({(0,) * len(names): value} if value else {})
            # lifted through arithmetic, on either side, the constant takes the ring on
            x = Poly.variable(names[0], names)
            for lifted in (x + nameless, nameless + x, nameless * x, x * nameless):
                assert lifted.names == names
            assert (nameless + x) - x == named and nameless * x == named * x
    assert Poly.const(3).terms == {(): 3}


def test_term_degree_is_capped_at_input():
    for terms in ({(2**_W,): 1}, {(_MAX_DEGREE + 1,): 1}):
        with pytest.raises(ValueError, match="above the cap"):
            Poly(("x",), terms)
    with pytest.raises(ValueError, match="above the cap"):
        Poly(("x", "y"), {(2 ** (_W - 1), 2 ** (_W - 1)): 1})
    assert Poly(("x",), {(_MAX_DEGREE,): 1}).total_degree() == _MAX_DEGREE
    with pytest.raises(ValueError, match="above the cap"):
        parse_poly("x^99999999999")
    with pytest.raises(ValueError, match="above the cap"):
        parse_poly(f"x^{2 ** (_W - 1)}*x^{2 ** (_W - 1)}")
    assert parse_poly(f"x^{_MAX_DEGREE}").total_degree() == _MAX_DEGREE
    with pytest.raises(ValueError, match="above the cap"):
        monomials(("x", "y"), _MAX_DEGREE + 1)


def test_product_degree_guard():
    half = 2 ** (_W - 1)
    for names in (("x",), ("x", "y", "z")):
        x = Poly.variable("x", names)
        big = Poly(names, {(half,) + (0,) * (len(names) - 1): 1})
        below = Poly(names, {(half - 1,) + (0,) * (len(names) - 1): 1})
        with pytest.raises(ValueError, match="above the cap"):
            big * big
        with pytest.raises(ValueError, match="above the cap"):
            _sum_of_products([(x, x), (big, big)], names)
        # at the cap exactly the product is exact
        top = big * below
        assert top.total_degree() == _MAX_DEGREE
        assert top.terms == {(_MAX_DEGREE,) + (0,) * (len(names) - 1): 1}
        assert _sum_of_products([(big, below)], names) == top
        # a zero factor is no product at all
        assert (big * Poly.zero(names)).is_zero


def test_power_degree_is_refused_up_front():
    x, y = variables("x y")
    for n in (2**40, 10**30):
        with pytest.raises(ValueError, match="above the cap"):
            x**n
    with pytest.raises(ValueError, match="above the cap"):
        (x * y) ** (2 ** (_W - 1))
    assert (x * y) ** 3 == x * x * x * y * y * y
    assert Poly.zero(("x",)) ** 3 == 0
