import hashlib
import random
from fractions import Fraction

import pytest

from bettiforge import exact, pfaffian
from bettiforge.exact import Poly, PolyMatrix, parse_matrix, parse_poly
from bettiforge.pfaffian import (
    AlternatingMatrix,
    block_pfaffian,
    congruence,
    sign_bracket,
    three_generator_embedding,
)
from support import assemble_block, random_integer_matrix


def signless(p):
    """Canonical representative of {p, -p}: positive leading coefficient."""
    if p.is_zero:
        return p
    terms = p.terms
    return p if terms[max(terms, key=lambda e: (sum(e), e))] > 0 else -p  # graded-lex leading term


def ci_matrix_3x3():
    return AlternatingMatrix.from_poly_matrix(
        parse_matrix([[0, "a", "b"], ["-a", 0, "c"], ["-b", "-c", 0]])
    )


def test_sign_bracket():
    assert sign_bracket(1, 2) == 4
    assert sign_bracket(2, 1) == 3
    with pytest.raises(ValueError):
        sign_bracket(3, 3)


def test_empty_pfaffian_is_one():
    m = AlternatingMatrix([])
    assert m.pfaffian() == 1
    assert m.pfaffian_oracle() == 1


def test_pfaffian_2x2():
    m = AlternatingMatrix.generic(2)
    assert str(m.pfaffian()) == "a12"


def test_pfaffian_4x4_formula():
    m = AlternatingMatrix.generic(4)
    names = m.entry(1, 2).names
    assert m.pfaffian() == parse_poly("a12*a34 - a13*a24 + a14*a23", names)


def test_odd_pfaffian_rejected():
    m = AlternatingMatrix.generic(3)
    with pytest.raises(ValueError, match="odd-size pfaffian undefined"):
        m.pfaffian()
    with pytest.raises(ValueError):
        m.pfaffian_oracle()


def test_validation():
    with pytest.raises(ValueError):
        AlternatingMatrix([[1]])
    with pytest.raises(ValueError):
        AlternatingMatrix([[0, 1], [1, 0]])


def test_alternating_constructors_keep_one_ring():
    xy = ("x", "y")
    x, y = (Poly.variable(v, xy) for v in xy)
    z = Poly.variable("z", ("z",))
    two_rings = r"^variable sets differ: \('x', 'y'\) vs \('z',\)$"
    m = AlternatingMatrix.from_upper(3, {(1, 2): x, (1, 3): y, (2, 3): 1})
    refused = {
        "constructor": lambda: AlternatingMatrix([[0, x, 0], [-x, 0, z], [0, -z, 0]]),
        "zero diagonal entry": lambda: AlternatingMatrix([[0, x], [-x, Poly.zero(("z",))]]),
        "from_upper": lambda: AlternatingMatrix.from_upper(3, {(1, 2): x, (2, 3): z}),
        "augment": lambda: m.augment([1, 0, z]),
    }
    for label, build in refused.items():
        with pytest.raises(ValueError, match=two_rings):
            build()
    # nameless constants take the ring on, in either triangle and in a bordering
    assert m.names == xy and all(e.names == xy for row in m.entries for e in row)
    bordered = m.augment([1, 0, Poly.const(2)])
    assert bordered.names == xy and all(e.names == xy for row in bordered.entries for e in row)
    assert AlternatingMatrix([[0, 3], [-3, 0]]).names == () and AlternatingMatrix([]).names == ()
    # the ring carries to submatrices, adjoints and their pfaffians, constant or not
    for sub in (m.delete((1,)), m.adjoint((2, 3)), bordered.delete((1, 2, 3))):
        assert sub.names == xy and sub.pfaffian().names == xy


def negation_refusal(entries):
    """The constructor's refusal by building ``-grid[i][j]`` for each upper entry, as a message; None when it accepts."""
    grid = [[exact._checked_poly(e) for e in row] for row in entries]
    n = len(grid)
    for i in range(n):
        if not grid[i][i].is_zero:
            return f"diagonal entry ({i + 1},{i + 1}) must be zero"
        for j in range(i + 1, n):
            if grid[j][i] != -grid[i][j]:
                return f"entry ({j + 1},{i + 1}) is not the negative of ({i + 1},{j + 1})"
    return None


def test_skew_check_refuses_what_negation_refused():
    xy = ("x", "y")
    x, y = (Poly.variable(v, xy) for v in xy)
    z = Poly.variable("z", ("z",))
    third = Fraction(1, 3)
    # a second ring is refused before the entries are compared, naming the first two rings met
    two_rings = {
        "zero of two rings": (Poly.zero(("x",)), Poly.zero(("y",)), ("('x',) vs ('y',)", "('x', 'y') vs ('x',)")),
        "constants of two rings": (Poly.const(3, xy), Poly.const(-3, ("z",)), ("('x', 'y') vs ('z',)",) * 2),
        "forms of two rings": (x, -z, ("('x', 'y') vs ('z',)",) * 2),
    }
    for label, (upper, lower, messages) in two_rings.items():
        shapes = ([[0, upper], [lower, 0]], [[0, x, upper], [-x, 0, 0], [lower, 0, 0]])
        for entries, rings in zip(shapes, messages):
            with pytest.raises(ValueError) as info:
                AlternatingMatrix(entries)
            assert str(info.value) == f"variable sets differ: {rings}", label
    pairs = {
        "zero of a ring and nameless": (Poly.zero(xy), Poly.zero()),
        "nameless constant below a ring constant": (Poly.const(3, xy), Poly.const(-3)),
        "ring constant below a nameless constant": (Poly.const(3), Poly.const(-3, xy)),
        "fraction": (third * x - y, -third * x + y),
        "fraction of the wrong sign": (third * x, third * x),
        "fraction against its int numerator": (third * x, -x),
        "wrong sign on one term": (x + 2 * y, -x + 2 * y),
        "term missing below": (x + y, -x),
        "term missing above": (x, -x - y),
        "same size, another term": (x + y, -x - x * y),
        "equal, not negated": (x + y, x + y),
        "negated": (x * x - 5 * y, -(x * x) + 5 * y),
    }
    for label, (upper, lower) in pairs.items():
        for entries in ([[0, upper], [lower, 0]], [[0, x, upper], [-x, 0, 0], [lower, 0, 0]]):
            want = negation_refusal(entries)
            try:
                AlternatingMatrix(entries)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, label
    assert negation_refusal([[0, x], [-(x + y), 0]]) == "entry (2,1) is not the negative of (1,2)"
    # the first refusal in row order, before a later diagonal entry
    entries = [[0, x, y], [-x, 0, x], [y, -x, 1]]
    with pytest.raises(ValueError, match=r"^entry \(3,1\) is not the negative of \(1,3\)$"):
        AlternatingMatrix(entries)
    assert negation_refusal(entries) == "entry (3,1) is not the negative of (1,3)"


def test_oracle_equivalence_symbolic():
    for n in (2, 4, 6):
        m = AlternatingMatrix.generic(n)
        assert m.pfaffian() == m.pfaffian_oracle()


def test_oracle_equivalence_random_integers():
    rng = random.Random(101)
    for n in (2, 4, 6, 8):
        for _ in range(20):
            m = random_integer_matrix(n, rng)
            assert m.pfaffian() == m.pfaffian_oracle()


def test_pfaffian_squared_is_determinant():
    rng = random.Random(55)
    for n in (2, 4, 6, 8):
        for _ in range(5):
            m = random_integer_matrix(n, rng)
            pf = m.pfaffian()
            assert pf * pf == m.to_poly_matrix().determinant()
    for n in (2, 4):
        m = AlternatingMatrix.generic(n)
        pf = m.pfaffian()
        assert pf * pf == m.to_poly_matrix().determinant()


def test_delete_rows_cols():
    m = AlternatingMatrix.generic(4)
    lower = m.delete((1, 2))
    assert lower.size == 2 and lower.entry(1, 2) == m.entry(3, 4)
    assert m.delete(()) == m
    m5 = AlternatingMatrix.generic(5)
    lead = m5.delete((4, 5))
    assert lead.size == 3 and lead.entry(1, 2) == m5.entry(1, 2)
    with pytest.raises(ValueError):
        m.delete((0,))
    with pytest.raises(ValueError):
        m.delete((1, 1))


def _is_int_first(p):
    return all(type(c) is int if c.denominator == 1 else type(c) is Fraction for c in p.terms.values())


def _principal_cases(rng):
    """(matrix, 1-based rows in random order) on integer, rational, generic and bordered matrices.

    Each matrix has already expanded its own pfaffian or submaximal
    vector, so the principal minors are partly read from its memo.
    """
    mats = [random_integer_matrix(n, rng) for n in (6, 7, 8, 9)]
    # halves mixed with integers, so many minors are integral sums of Fractions
    values = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), 1, -1, 2)
    for n in (4, 5, 6, 7, 8):
        upper = {(i, j): rng.choice(values) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        mats.append(AlternatingMatrix.from_upper(n, upper))
    mats += [AlternatingMatrix.generic(n) for n in (6, 7)]
    mats.append(AlternatingMatrix.generic(5).augment([rng.randint(-2, 2) for _ in range(5)]))
    mats.append(random_integer_matrix(7, rng).augment([rng.randint(-3, 3) for _ in range(7)]))
    for m in mats:
        if m.size % 2:
            m.submaximal_pfaffians()
        else:
            m.pfaffian()
        for _ in range(8):
            rows = rng.sample(range(1, m.size + 1), 2 * rng.randint(0, m.size // 2))
            yield m, rows


def _complement(m, rows):
    return [i for i in range(1, m.size + 1) if i not in rows]


def test_principal_pfaffian_matches_delete_and_oracle():
    for m, rows in _principal_cases(random.Random(8)):
        sub = m.delete(_complement(m, rows))
        got = m.pfaffian(rows)
        assert got == sub.pfaffian() == sub.pfaffian_oracle()
        assert _is_int_first(got)


def test_principal_adjoint_matches_delete():
    for m, rows in _principal_cases(random.Random(9)):
        sub = m.delete(_complement(m, rows))
        adj = m.adjoint(rows)
        assert adj == sub.adjoint()
        pf = sub.pfaffian_oracle()
        k = len(rows)
        want = PolyMatrix([[pf if i == j else 0 for j in range(k)] for i in range(k)])
        assert adj.to_poly_matrix() @ sub.to_poly_matrix() == want


def test_principal_rows_are_validated():
    m = AlternatingMatrix.generic(6)
    assert m.pfaffian(()) == 1
    for bad in ((1, 2, 3, 3, 4), (0, 1), (1, 7)):
        with pytest.raises(ValueError):
            m.pfaffian(bad)
        with pytest.raises(ValueError):
            m.adjoint(bad)
    with pytest.raises(ValueError, match="odd-size pfaffian undefined"):
        m.pfaffian((1, 2, 3))
    with pytest.raises(ValueError, match="requires even size"):
        m.adjoint((2,))


def test_structure_minors_come_from_the_memo():
    # on a linear presentation, pf(beta) and its adjoint need no minor the
    # submaximal pfaffians have not already expanded; the memo holds the
    # dense forms of the expansion, one per row mask
    from bettiforge.pfaffian import random_graded_alternating

    for size in (7, 9, 11):
        m = random_graded_alternating([(size - 1) // 2] * size, random.Random(size))
        m.submaximal_pfaffians()
        assert m._codec is not None
        assert all(isinstance(value, tuple) for value in m._pf_memo.values())
        expanded = len(m._pf_memo)
        f_rows = range(4, size + 1)
        m.pfaffian(f_rows)
        m.adjoint(f_rows)
        assert len(m._pf_memo) == expanded


def test_oracle_does_not_use_the_kernel(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("sum-of-products kernel called")

    rng = random.Random(12)
    for m in (AlternatingMatrix.generic(6), random_integer_matrix(8, rng)):
        expected = m.pfaffian()
        monkeypatch.setattr(exact, "_sum_of_products", broken)
        monkeypatch.setattr(pfaffian, "_sum_of_products", broken)
        fresh = AlternatingMatrix(m.entries)
        assert fresh.pfaffian_oracle() == expected
        with pytest.raises(AssertionError, match="kernel called"):
            fresh.pfaffian()
        monkeypatch.undo()


def test_submaximal_pfaffians_3x3():
    pv = ci_matrix_3x3().submaximal_pfaffians()
    assert [str(q) for q in pv] == ["c", "-b", "a"]


def test_submaximal_pfaffian_1x1():
    m = AlternatingMatrix([[0]])
    assert m.submaximal_pfaffians() == (Poly.const(1),)


def test_submaximal_even_rejected():
    with pytest.raises(ValueError):
        AlternatingMatrix.generic(4).submaximal_pfaffians()


def test_syzygy_contract():
    # M @ p = 0 for the signed submaximal vector, generic odd sizes
    for n in (3, 5, 7):
        m = AlternatingMatrix.generic(n)
        col = PolyMatrix([[q] for q in m.submaximal_pfaffians()])
        assert (m.to_poly_matrix() @ col).is_zero


def test_adjoint_2x2():
    m = AlternatingMatrix.from_poly_matrix(parse_matrix([[0, "a"], ["-a", 0]]))
    adj = m.adjoint()
    assert str(adj.entry(1, 2)) == "-1"
    assert str(adj.entry(2, 1)) == "1"


def test_adjoint_contract():
    for n in (2, 4, 6):
        m = AlternatingMatrix.generic(n)
        mp = m.to_poly_matrix()
        mb = m.adjoint().to_poly_matrix()
        scaled_id = PolyMatrix.identity(n, m.pfaffian().names).scale(m.pfaffian())
        assert mb @ mp == scaled_id
        assert mp @ mb == scaled_id


def test_adjoint_of_zero_4x4_is_zero():
    z = AlternatingMatrix([[0] * 4 for _ in range(4)])
    assert z.adjoint().to_poly_matrix().is_zero


def test_adjoint_odd_rejected():
    with pytest.raises(ValueError):
        AlternatingMatrix.generic(3).adjoint()


def test_block_pfaffian_identity():
    for n in (4, 6):
        m = AlternatingMatrix.generic(n)
        a = m.entry(1, 2)
        top = m.to_poly_matrix().submatrix((0, 1), tuple(range(2, n)))
        c = m.delete((1, 2))
        assert block_pfaffian(a, top, c) == m.pfaffian()
        assert assemble_block(a, top, c) == m


def test_block_pfaffian_zero_core():
    # with a zero core of size >= 4 the whole pfaffian collapses to zero
    m = AlternatingMatrix.generic(6)
    names = m.entry(1, 2).names
    zero_core = AlternatingMatrix([[Poly.zero(names)] * 4 for _ in range(4)])
    a = m.entry(1, 2)
    top = m.to_poly_matrix().submatrix((0, 1), (2, 3, 4, 5))
    assert block_pfaffian(a, top, zero_core).is_zero
    assert assemble_block(a, top, zero_core).pfaffian().is_zero


def test_block_pfaffian_dimension_check():
    m = AlternatingMatrix.generic(4)
    top = m.to_poly_matrix().submatrix((0, 1), (2,))
    with pytest.raises(ValueError):
        block_pfaffian(m.entry(1, 2), top, m.delete((1, 2)))


def test_augment_unit_coefficient():
    m = ci_matrix_3x3()
    names = ("a", "b", "c")
    aug = m.augment([Poly.const(1, names), Poly.zero(names), Poly.zero(names)])
    assert aug.size == 5
    got = sorted(str(signless(q)) for q in aug.submaximal_pfaffians())
    assert got == sorted(["c", "b", "a", "c", "0"])


def test_augment_zero_coefficients():
    m = ci_matrix_3x3()
    aug = m.augment([0, 0, 0])
    got = sorted(str(signless(q)) for q in aug.submaximal_pfaffians())
    assert got == sorted(["c", "b", "a", "0", "0"])


def test_augment_sum_slot():
    # slot m+1 of the augmented matrix carries sum(a_i p_i) up to sign
    m = AlternatingMatrix.generic(5)
    ones = [Poly.const(1, m.entry(1, 2).names)] * 5
    aug = m.augment(ones)
    assert aug.size == 7
    pv = m.submaximal_pfaffians()
    total = pv[0] + pv[1] + pv[2] + pv[3] + pv[4]
    new_pv = aug.submaximal_pfaffians()
    assert signless(new_pv[5]) == signless(total)
    assert new_pv[6].is_zero
    assert [signless(q) for q in new_pv[:5]] == [signless(q) for q in pv]


def test_augment_property_random():
    rng = random.Random(77)
    for size in (3, 5):
        for _ in range(20):
            m = random_integer_matrix(size, rng)
            coeffs = [rng.randint(-5, 5) for _ in range(size)]
            pv = m.submaximal_pfaffians()
            target = Poly.zero()
            for c, q in zip(coeffs, pv):
                target = target + c * q
            aug = m.augment(coeffs)
            got = sorted(str(signless(q)) for q in aug.submaximal_pfaffians())
            want = sorted(str(signless(q)) for q in list(pv) + [target, Poly.zero()])
            assert got == want


def test_augment_length_mismatch():
    with pytest.raises(ValueError):
        ci_matrix_3x3().augment([1, 2])


@pytest.mark.parametrize(
    "build",
    [
        lambda: AlternatingMatrix([[0, "x"], ["-x", 0]]),
        lambda: AlternatingMatrix.from_upper(2, {(1, 2): "x"}),
        lambda: ci_matrix_3x3().augment(["x", 1, 1]),
        lambda: AlternatingMatrix([[0, None], [None, 0]]),
    ],
    ids=["init", "from-upper", "augment", "none"],
)
def test_entries_that_are_not_numbers_are_refused(build):
    with pytest.raises(ValueError, match="entry must be a polynomial or a number"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AlternatingMatrix([[0, 1], [-1, 0], [0, 0]]), "alternating matrix must be square"),
        (lambda: AlternatingMatrix.from_upper(3, {(2, 1): "x"}), r"bad upper-triangle key \(2,1\)"),
        (lambda: AlternatingMatrix([[0, 1], [-1, 0]]).augment([1, 1]), "augment requires odd size"),
        (lambda: three_generator_embedding(ci_matrix_3x3(), [[1, 0, 0]] * 2), "exactly three coefficient vectors"),
        (lambda: three_generator_embedding(ci_matrix_3x3(), [[1, 0, 0], [1, 0], [0, 0, 1]]), "must have length 3"),
        (lambda: pfaffian.random_graded_alternating([2], random.Random(1)), "need at least two rows"),
    ],
    ids=["not-square", "upper-key", "augment-even", "embedding-count", "embedding-length", "one-row"],
)
def test_construction_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_congruence_identity_permutation():
    m = ci_matrix_3x3()
    p = PolyMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    n = congruence(p, m)
    left = PolyMatrix([list(n.submaximal_pfaffians())])
    right = PolyMatrix([list(m.submaximal_pfaffians())]) @ p.adjugate()
    assert left == right
    assert p.determinant() == -1


def test_congruence_identity_diag_unit():
    m = ci_matrix_3x3()
    names = ("a", "b", "c")
    u = PolyMatrix([[3, 0, 0], [0, 1, 0], [0, 0, 1]])
    n = congruence(u, m)
    left = PolyMatrix([list(n.submaximal_pfaffians())])
    right = PolyMatrix([list(m.submaximal_pfaffians())]) @ u.adjugate()
    assert left == right


def test_congruence_identity_random():
    rng = random.Random(19)
    m = AlternatingMatrix.generic(5)
    names = m.entry(1, 2).names
    trials = 0
    while trials < 20:
        a = PolyMatrix(
            [[Poly.const(rng.randint(-3, 3), names) for _ in range(5)] for _ in range(5)]
        )
        if a.determinant().is_zero:
            continue
        trials += 1
        n = congruence(a, m)
        left = PolyMatrix([list(n.submaximal_pfaffians())])
        right = PolyMatrix([list(m.submaximal_pfaffians())]) @ a.adjugate()
        assert left == right


def test_congruence_identity_matrix():
    m = AlternatingMatrix.generic(5)
    i5 = PolyMatrix.identity(5, m.entry(1, 2).names)
    assert congruence(i5, m) == m


def test_congruence_dimension_check():
    with pytest.raises(ValueError):
        congruence(PolyMatrix.identity(4), ci_matrix_3x3())


def test_three_generator_embedding_generic():
    m = AlternatingMatrix.generic(5)
    names = m.entry(1, 2).names
    unit = lambda k: [Poly.const(1 if i == k else 0, names) for i in range(5)]
    emb = three_generator_embedding(m, [unit(0), unit(1), unit(2)])
    assert emb.size == 11
    pv = m.submaximal_pfaffians()
    got = sorted(str(signless(q)) for q in emb.submaximal_pfaffians())
    want = sorted(
        str(signless(q))
        for q in list(pv) + [pv[0], pv[1], pv[2], Poly.zero(), Poly.zero(), Poly.zero()]
    )
    assert got == want


def test_three_generator_embedding_zero_targets():
    m = ci_matrix_3x3()
    names = ("a", "b", "c")
    zeros = [Poly.zero(names)] * 3
    emb = three_generator_embedding(m, [zeros, zeros, zeros])
    assert emb.size == 9
    got = [str(signless(q)) for q in emb.submaximal_pfaffians()]
    assert got.count("0") == 6


def test_three_generator_embedding_ci_case():
    m = ci_matrix_3x3()
    names = ("a", "b", "c")
    unit = lambda k: [Poly.const(1 if i == k else 0, names) for i in range(3)]
    emb = three_generator_embedding(m, [unit(0), unit(1), unit(2)])
    assert emb.size == 9
    got = sorted(str(signless(q)) for q in emb.submaximal_pfaffians())
    assert got == sorted(["a", "b", "c", "a", "b", "c", "0", "0", "0"])


def test_lifting_identity():
    # alpha * pf(beta) + lambda^T @ beta_adj @ lambda equals the 3x3
    # alternating matrix whose signed pfaffian vector is (p1, p2, p3)
    for n in (5, 7):
        m = AlternatingMatrix.generic(n)
        mp = m.to_poly_matrix()
        alpha = mp.submatrix((0, 1, 2), (0, 1, 2))
        lam = mp.submatrix(tuple(range(3, n)), (0, 1, 2))
        beta = m.delete((1, 2, 3))
        p = beta.pfaffian()
        lifted = alpha.scale(p) + lam.transpose() @ beta.adjoint().to_poly_matrix() @ lam
        p1, p2, p3 = m.submaximal_pfaffians()[:3]
        psi = PolyMatrix([[0 * p, p3, -p2], [-p3, 0 * p, p1], [p2, -p1, 0 * p]])
        assert lifted == psi
        core = AlternatingMatrix.from_poly_matrix(psi)
        assert core.submaximal_pfaffians() == (p1, p2, p3)


def test_graded_random_generator():
    rng = random.Random(3)
    m = random_integer_matrix(5, rng)
    assert m.size == 5
    from bettiforge.pfaffian import random_graded_alternating

    g = random_graded_alternating([2, 2, 2, 3, 3], rng)
    theta = 6
    for i in range(1, 6):
        for j in range(1, 6):
            e = g.entry(i, j)
            if not e.is_zero:
                assert e.homogeneous_degree() == theta - [2, 2, 2, 3, 3][i - 1] - [2, 2, 2, 3, 3][j - 1]


# md5 of str() of each generic matrix, and of seeded graded matrices with the
# next draw of their generator: a rewrite of either construction must keep
# every entry, and draw the same random numbers in the same order
GENERIC_MD5 = {
    2: "db15c3e1ceb2f558353d0dad888c7e9b",
    3: "df16cefe680e64c7f8344626bf5fbc14",
    4: "d0992baf5b15a390f7921b22af62de2d",
    5: "250779c4619d590009cbdffc798ace00",
    6: "467f8ddcac1fb7449e430e36428a1924",
    7: "31f4cbfcd98aba2f9b9a37813b0c3880",
    8: "661ed38f1cbaa3db6d180737f5638c00",
}


def test_generic_matrices_are_pinned():
    for size, md5 in GENERIC_MD5.items():
        m = AlternatingMatrix.generic(size)
        assert hashlib.md5(str(m).encode()).hexdigest() == md5, size
        assert len(m.names) == size * (size - 1) // 2


@pytest.mark.parametrize(
    "seed, twists, md5, next_draw",
    [
        (0, (2, 2, 2, 2, 2), "f1ab4faf863cb7ee3b34faf36ec8ea98", 0.290329502402758),
        (7, (2, 2, 2, 3, 3), "c1ac31980ae15bd9a1f0ed6df995cde3", 0.6970420678269282),
        (11, (1, 1, 2, 2, 2, 2, 2), "6ee613f706b34be9d8fe60af5b83f8a2", 0.9958357204077907),
    ],
)
def test_random_graded_alternating_is_pinned(seed, twists, md5, next_draw):
    from bettiforge.pfaffian import random_graded_alternating

    rng = random.Random(seed)
    m = random_graded_alternating(twists, rng)
    assert hashlib.md5(str(m).encode()).hexdigest() == md5
    assert rng.random() == next_draw


@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "string"])
def test_random_graded_alternating_rejects_non_int_twists(bad):
    from bettiforge.pfaffian import random_graded_alternating

    with pytest.raises(ValueError, match="twists must be ints"):
        random_graded_alternating((bad, 2, 2, 2, 2), random.Random(0))


def test_matrix_equality_compares_shapes_rings_and_classes():
    assert PolyMatrix([]) == PolyMatrix([]) and AlternatingMatrix([]) == AlternatingMatrix([])
    assert PolyMatrix([[], []]) == PolyMatrix([[], []])
    assert PolyMatrix([]) != PolyMatrix([[], [], []])
    assert PolyMatrix([[], []]) != PolyMatrix([[], [], []])
    rows = [[0, "x"], ["-x", 0]]
    a = parse_matrix(rows, ("x",))
    assert a == parse_matrix(rows, ("x",)) and a != parse_matrix([[0, "x"], ["-x", 1]], ("x",))
    alt = AlternatingMatrix.from_poly_matrix(a)
    assert alt == AlternatingMatrix.from_poly_matrix(parse_matrix(rows, ("x",)))
    assert alt != AlternatingMatrix.from_poly_matrix(parse_matrix([[0, "2*x"], ["-2*x", 0]], ("x",)))
    assert alt != ci_matrix_3x3()
    # the same text in another ring is another polynomial; a constant is the same in every ring
    assert a != parse_matrix(rows, ("x", "y"))
    assert alt != AlternatingMatrix.from_poly_matrix(parse_matrix(rows, ("x", "y")))
    assert PolyMatrix([[1, 2]]) == parse_matrix([["1", "2"]], ("x",))
    assert AlternatingMatrix([[0, 3], [-3, 0]]) == AlternatingMatrix.from_poly_matrix(
        parse_matrix([[0, "3"], ["-3", 0]], ("y",))
    )
    # a PolyMatrix never equals an AlternatingMatrix, even with the same entries
    assert alt != a and a != alt and alt.to_poly_matrix() == a
