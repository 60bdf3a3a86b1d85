import json
import random
from pathlib import Path

import pytest

from bettiforge.aci import link_betti
from bettiforge.exact import Poly, PolyMatrix, parse_matrix
from bettiforge.gorenstein import theta_of
from bettiforge.multiset import IntMultiset
from bettiforge.pfaffian import AlternatingMatrix, random_graded_alternating
from bettiforge.structure import (
    AlternatingPresentation,
    GradedComplex,
    GradedFreeModule,
    build_aci_complex,
    colon_generators,
    verify_complex,
)

from support import operator_matmul

ms = IntMultiset.from_values
NAMES = ("x1", "x2", "x3")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize(
    "maps, message",
    [
        ((), "need one map per consecutive module pair"),
        ((PolyMatrix([[1, 2]]),), "map 0 is 1x2, expected 1x1"),
    ],
    ids=["map-count", "map-shape"],
)
def test_graded_complex_refuses_maps_that_do_not_fit(maps, message):
    modules = (GradedFreeModule((0,)), GradedFreeModule((1,)))
    with pytest.raises(ValueError, match=message):
        GradedComplex(modules, maps)


def presentation_5x5(seed=7):
    rng = random.Random(seed)
    return AlternatingPresentation(
        random_graded_alternating([2] * 5, rng), (1, 2, 3), (2,) * 5
    )


def presentation_7x7(seed=8):
    rng = random.Random(seed)
    return AlternatingPresentation(
        random_graded_alternating([3] * 7, rng), (1, 2, 3), (3,) * 7
    )


def test_presentation_validation():
    rng = random.Random(1)
    m5 = random_graded_alternating([2] * 5, rng)
    with pytest.raises(ValueError, match="odd"):
        AlternatingPresentation(AlternatingMatrix.generic(4), (1, 2, 3), (1,) * 4)
    with pytest.raises(ValueError, match="distinct"):
        AlternatingPresentation(m5, (1, 1, 2), (2,) * 5)
    with pytest.raises(ValueError, match="twists"):
        AlternatingPresentation(m5, (1, 2, 3), (2,) * 4)
    with pytest.raises(ValueError, match="integral"):
        AlternatingPresentation(m5, (1, 2, 3), (2, 2, 2, 2, 3))
    with pytest.raises(ValueError, match="homogeneous"):
        # theta stays 5 but the per-slot required degrees shift
        AlternatingPresentation(m5, (1, 2, 3), (2, 2, 2, 1, 3))
    # float twists gave a complex with float twists; bools and strings are no degrees either
    for twists in ((2.0,) * 5, (2, 2, 2, 2, True), (2, 2, 2, 2, "2")):
        with pytest.raises(ValueError, match="twists must be ints"):
            AlternatingPresentation(m5, (1, 2, 3), twists)


def test_top_right_block_is_lambda_t_times_beta_adjoint():
    """The d2 block read from the pfaffian memo equals lambda^T @ adj(beta), computed afresh."""
    rng = random.Random(97)
    for size in (5, 7, 9, 11):
        for _ in range(3):
            while True:
                twists = [rng.randint(1, 3) for _ in range(size)]
                if theta_of(twists) is not None:
                    break
            g_rows = tuple(sorted(rng.sample(range(1, size + 1), 3)))
            pres = AlternatingPresentation(random_graded_alternating(twists, rng), g_rows, tuple(twists))
            mat, _ = pres.reordered()
            lam_t = mat.to_poly_matrix().submatrix(tuple(range(3, size)), (0, 1, 2)).transpose()
            beta_adj = mat.delete((1, 2, 3)).adjoint().to_poly_matrix()
            want = lam_t @ beta_adj
            d2 = build_aci_complex(pres).maps[1]
            assert d2.submatrix((0, 1, 2), tuple(range(3, size))) == want


def test_build_5x5_shape():
    c = build_aci_complex(presentation_5x5())
    assert [m.rank for m in c.modules] == [1, 4, 5, 2]
    # beta block is 2x2, so the extra generator is the single entry there
    assert c.maps[0].cols == 4


def test_build_7x7_shape():
    c = build_aci_complex(presentation_7x7())
    assert [m.rank for m in c.modules] == [1, 4, 7, 4]


def test_verify_passes_generic():
    for pres in (presentation_5x5(), presentation_7x7()):
        report = verify_complex(build_aci_complex(pres))
        assert report.ok, report.to_json()


def test_verify_on_symbolic_generic():
    # composition-zero is an identity in the matrix entries, so it must
    # hold with every upper entry an independent variable
    m = AlternatingMatrix.generic(5)
    pf_vec = m.submaximal_pfaffians()
    beta = m.delete((1, 2, 3))
    lam_t = m.to_poly_matrix().submatrix((3, 4), (0, 1, 2)).transpose()
    p = beta.pfaffian()
    names = p.names
    top_right = lam_t @ beta.adjoint().to_poly_matrix()
    d1 = PolyMatrix([list(pf_vec[:3]) + [p]])
    d2 = PolyMatrix(
        [
            [p if i == j else Poly.zero(names) for j in range(3)] + list(top_right.row(i))
            for i in range(3)
        ]
        + [[-q for q in pf_vec[:3]] + [-q for q in pf_vec[3:]]]
    )
    d3 = PolyMatrix(
        [list(lam_t.row(i)) for i in range(3)]
        + [[-e for e in row] for row in beta.entries]
    )
    assert (d1 @ d2).is_zero
    assert (d2 @ d3).is_zero


def test_g_rows_need_not_be_leading():
    rng = random.Random(21)
    m = random_graded_alternating([2, 2, 3, 2, 3], rng)
    pres = AlternatingPresentation(m, (1, 3, 5), (2, 2, 3, 2, 3))
    assert pres.theta == 6
    c = build_aci_complex(pres)
    report = verify_complex(c)
    assert report.ok, report.to_json()
    # chosen rows have twists (2, 3, 3): theta_z = 8, d0 = 2
    tm = c.twist_multisets()
    assert tm[1] == ms([2, 2, 3, 3])
    assert tm[3] == ms([8 - 2, 8 - 2])


def test_degree_multisets_match_linkage():
    c5 = build_aci_complex(presentation_5x5())
    res5 = link_betti(ms([2] * 5), 5, (2, 2, 2))
    tm = c5.twist_multisets()
    assert tm[1] == res5.d_level
    assert tm[2] == res5.e_level
    assert tm[3] == res5.f_level

    c7 = build_aci_complex(presentation_7x7())
    res7 = link_betti(ms([3] * 7), 7, (3, 3, 3))
    tm = c7.twist_multisets()
    assert (tm[1], tm[2], tm[3]) == (res7.d_level, res7.e_level, res7.f_level)


def test_rank_bookkeeping():
    c = build_aci_complex(presentation_5x5())
    ranks = [m.rank for m in c.modules]
    assert ranks[0] - ranks[1] + ranks[2] - ranks[3] == 0


def _fixture_presentation(name):
    data = json.loads((FIXTURES / name).read_text())
    matrix = AlternatingMatrix.from_poly_matrix(parse_matrix(data["entries"], data["variables"]))
    return AlternatingPresentation(matrix, (2, 5, 9), tuple(data["twists"]))


def _inject(c, k, i, j, delta):
    """``c`` with ``delta`` added to entry (i, j) of map k."""
    maps = [[list(row) for row in m.entries] for m in c.maps]
    maps[k][i][j] = maps[k][i][j] + delta
    return GradedComplex(c.modules, tuple(map(PolyMatrix, maps)))


def test_fault_injection_composition():
    c = build_aci_complex(presentation_5x5())
    x1 = Poly.variable("x1", NAMES)
    bad = _inject(c, 1, 0, 0, x1)
    report = verify_complex(bad)
    assert not report.ok
    assert not report.pairs[0].composition_zero
    # the witnesses as the full products gave them
    assert [p.composition_witness for p in report.pairs] == [
        "(1,1) = -7*x1^3 + 2*x1^2*x2 + 25*x1^2*x3 + 12*x1*x2^2 + 24*x1*x2*x3 - 3*x1*x3^2",
        "(1,1) = -4*x1^2 - 2*x1*x2 - 4*x1*x3",
    ]
    # each composition against the first nonzero entry of the product folded
    # through the Poly operators: faults on the dense route and on the dict
    # kernel, one whose products differ in degree, and one in the last entry
    cases = [bad, _inject(c, 2, 4, 1, x1), _inject(c, 1, 0, 1, x1 * x1)]
    for name in ("structure-11.json", "structure-11-x20.json", "structure-11-x4.json"):
        big = build_aci_complex(_fixture_presentation(name))
        ring = big.maps[0].entries[0][0].names
        cases += [_inject(big, 1, 3, 10, Poly.variable("x1", ring) ** 5), _inject(big, 2, 0, 0, Poly.variable("x2", ring))]
    for bad in cases:
        report = verify_complex(bad)
        assert not report.ok
        for pair, (left, right) in zip(report.pairs, zip(bad.maps, bad.maps[1:])):
            product = operator_matmul(left, right)
            hit = next(((i, j, e) for i, row in enumerate(product.entries) for j, e in enumerate(row) if not e.is_zero), None)
            assert pair.composition_zero == (hit is None)
            assert pair.composition_witness == (hit and f"({hit[0] + 1},{hit[1] + 1}) = {hit[2]}")


def test_fault_injection_twist():
    c = build_aci_complex(presentation_5x5())
    modules = list(c.modules)
    modules[1] = GradedFreeModule((2, 2, 3, 1))
    report = verify_complex(GradedComplex(tuple(modules), c.maps))
    assert not report.homogeneous
    assert "degree" in report.homogeneity_witness


def test_homogeneity_witness_is_the_first_failure_over_all_maps():
    # both maps break the grading; the witness names the first bad entry in
    # map order, then row-major order within the map
    x = Poly.variable("x1", NAMES)
    modules = (GradedFreeModule((0,)), GradedFreeModule((1, 1)), GradedFreeModule((2,)))
    c = GradedComplex(modules, (PolyMatrix([[x, x * x]]), PolyMatrix([[x], [x * x * x]])))
    report = verify_complex(c)
    assert not report.homogeneous and not report.ok
    assert report.homogeneity_witness == "map 0 entry (1,2) should have degree 1"
    second_only = GradedComplex(modules, (PolyMatrix([[x, x]]), c.maps[1]))
    assert verify_complex(second_only).homogeneity_witness == "map 1 entry (2,1) should have degree 1"


def test_negative_required_degree_must_be_zero():
    # a slot whose required degree is negative may only hold the zero form
    mod_src = GradedFreeModule((1,))
    mod_tgt = GradedFreeModule((3,))
    bad = GradedComplex(
        (mod_tgt, mod_src), (PolyMatrix([[Poly.const(1, NAMES)]]),)
    )
    report = verify_complex(bad)
    assert not report.homogeneous
    ok = GradedComplex((mod_tgt, mod_src), (PolyMatrix([[Poly.zero(NAMES)]]),))
    assert verify_complex(ok).homogeneous


def test_colon_generators_generic():
    m = AlternatingMatrix.generic(5)
    pa, pb, pc, pabc = colon_generators(m, (1, 2, 3))
    assert (pa, pb, pc) == m.submaximal_pfaffians()[:3]
    assert pabc == m.entry(4, 5)


def test_colon_generators_degenerate_fourth():
    m = AlternatingMatrix.generic(5)
    grid = [[m.entries[i][j] for j in range(5)] for i in range(5)]
    zero = Poly.zero(m.entry(1, 2).names)
    grid[3][4] = zero
    grid[4][3] = zero
    degenerate = AlternatingMatrix(grid)
    assert colon_generators(degenerate, (1, 2, 3))[3].is_zero


def test_colon_generators_degrees_match_complex():
    pres = presentation_5x5()
    mat, twists = pres.reordered()
    pa, pb, pc, pabc = colon_generators(mat, (1, 2, 3))
    d_level = build_aci_complex(pres).modules[1].twists
    assert pa.homogeneous_degree() == d_level[0]
    assert pb.homogeneous_degree() == d_level[1]
    assert pc.homogeneous_degree() == d_level[2]
    assert pabc.homogeneous_degree() == d_level[3]


def test_colon_generators_fourth_output_degree_span():
    # p_abc * p_i lands in the ideal of the three chosen pfaffians, so its
    # degree must reach at least the smallest chosen degree (degree check
    # only; ideal membership itself is out of scope)
    pres = presentation_5x5()
    mat, twists = pres.reordered()
    pa, pb, pc, pabc = colon_generators(mat, (1, 2, 3))
    least = min(twists[:3])
    for i, q in enumerate(mat.submaximal_pfaffians()):
        if q.is_zero:
            continue
        assert pabc.homogeneous_degree() + q.homogeneous_degree() >= least


def test_colon_generators_validation():
    m = AlternatingMatrix.generic(5)
    with pytest.raises(ValueError):
        colon_generators(m, (1, 1, 2))
    with pytest.raises(ValueError):
        colon_generators(m, (1, 2, 9))
    with pytest.raises(ValueError):
        colon_generators(AlternatingMatrix.generic(4), (1, 2, 3))


def test_colon_generators_checks_the_rows_before_expanding():
    m = AlternatingMatrix.generic(7)
    with pytest.raises(ValueError, match="index 99 out of range 1..7"):
        colon_generators(m, (1, 2, 99))
    assert not m._pf_memo  # no pfaffian was expanded


def test_bordered_presentation_builds():
    # augmenting the linear 3x3 presentation adds slots of twist e and
    # theta - e; sigma then carries the null pfaffian
    ci = AlternatingMatrix.from_poly_matrix(
        parse_matrix([[0, "x1", "x2"], ["-x1", 0, "x3"], ["-x2", "-x3", 0]])
    )
    aug = ci.augment([Poly.variable("x1", NAMES), Poly.zero(NAMES), Poly.zero(NAMES)])
    pres = AlternatingPresentation(aug, (1, 2, 3), (1, 1, 1, 2, 1))
    c = build_aci_complex(pres)
    assert verify_complex(c).ok
    sigma_tail = aug.submaximal_pfaffians()[4]
    assert sigma_tail.is_zero


def linkage_example_2_2_8() -> dict:
    """Zero-dimensional quotient linked to five general points in a (2,2,8) complete intersection.

    Drives the multiset-level linkage with generator degrees {2,2,2,2,2},
    socle-syzygy degree 5, regular sequence type (2,2,8) and one bordered
    pair for the degree-8 member (partner slot at degree -3), then checks
    the expected four-term resolution and its minimalization.
    """
    result = link_betti(
        IntMultiset.from_values([2, 2, 2, 2, 2]),
        5,
        (2, 2, 8),
        IntMultiset.from_values([8]),
    )
    expected = {
        "d0": 7,
        "d": 19,
        "D": [2, 2, 7, 8],
        "E": [4, 9, 9, 9, 9, 9, 15],
        "F": [10, 10, 10, 15],
        "minimal_E": [4, 9, 9, 9, 9, 9],
        "minimal_F": [10, 10, 10],
    }
    got = {
        "d0": result.d0,
        "d": result.d,
        "D": result.d_level.to_list(),
        "E": result.e_level.to_list(),
        "F": result.f_level.to_list(),
        "minimal_E": result.minimal.e.to_list(),
        "minimal_F": result.minimal.f.to_list(),
    }
    if got != expected:
        raise RuntimeError(f"linkage example mismatch: {got} != {expected}")
    return {
        "resolution": result.to_json(),
        "ghost_removed": [15],
        "matches_expected": True,
    }


def test_linkage_example_report():
    report = linkage_example_2_2_8()
    assert report["matches_expected"]
    assert report["ghost_removed"] == [15]
    assert report["resolution"]["d0"] == 7
    assert report["resolution"]["resolution"]["F"] == [10, 10, 10, 15]
    assert report["resolution"]["minimal"]["F"] == [10, 10, 10]
