"""Polynomial-level construction of the four-term ACI resolution.

Given an odd graded alternating matrix and a choice of three rows G, the
quotient by the three corresponding submaximal pfaffians together with the
pfaffian of the complementary block resolves as

    0 -> K'(-d) -> G(-d0) (+) K -> G (+) R(-d0) -> R

with maps, written in block form against the split G / F = complement,

    d1 = [p_1  p_2  p_3  p]
    d2 = [[p * I_3,        lambda^T @ beta_adj],
          [-p_1 -p_2 -p_3, -sigma             ]]
    d3 = [[lambda^T],
          [-beta   ]]

where beta is the F x F block, p = pf(beta), lambda the F x G block,
sigma the F-part of the pfaffian vector.  The signs above are the unique
choice (up to simultaneous unit changes) making both compositions vanish
identically; composition-zero, homogeneity and rank bookkeeping are
checked by :func:`verify_complex`.  The compositions are tested for zero
with ``PolyMatrix.product_witness``: where a product would go dense, on
the Kronecker images of its operands at the width of its coefficient
bound, never decoded; the product is built only where it would take the
dict kernel, and one entry only for a witness.  Exactness itself is not
verified here: that needs depth machinery far beyond exact arithmetic,
and the construction is used as a complex-builder whose degree
bookkeeping must agree with the multiset-level linkage.
"""

from __future__ import annotations

from typing import Sequence

from ._frozen import Frozen
from .exact import Poly, PolyMatrix
from .gorenstein import theta_of
from .multiset import IntMultiset
from .pfaffian import AlternatingMatrix


class GradedFreeModule(Frozen):
    """Free module with ordered twist slots (order matters for map grading)."""

    _fields = ("twists",)
    twists: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.twists)


class GradedComplex(Frozen):
    """Chain of free modules; maps[k] goes from modules[k+1] into modules[k]."""

    _fields = ("modules", "maps")
    modules: tuple[GradedFreeModule, ...]
    maps: tuple[PolyMatrix, ...]

    def __init__(self, modules: tuple[GradedFreeModule, ...], maps: tuple[PolyMatrix, ...]) -> None:
        object.__setattr__(self, "modules", modules)
        object.__setattr__(self, "maps", maps)
        if len(maps) != len(modules) - 1:
            raise ValueError("need one map per consecutive module pair")
        for k, m in enumerate(maps):
            if m.rows != modules[k].rank or m.cols != modules[k + 1].rank:
                raise ValueError(
                    f"map {k} is {m.rows}x{m.cols}, expected "
                    f"{modules[k].rank}x{modules[k + 1].rank}"
                )

    def twist_multisets(self) -> list[IntMultiset]:
        return [IntMultiset.from_values(m.twists) for m in self.modules]


def _degree_violation(
    entries: Sequence[Sequence[Poly]], src: Sequence[int], tgt: Sequence[int]
) -> tuple[int, int, int] | None:
    """First nonzero entry (i, j) that is not homogeneous of degree src[j] - tgt[i] >= 0.

    Returned as 0-based (i, j, required degree); None when every nonzero
    entry has its degree.
    """
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            if entry.is_zero:
                continue
            need = src[j] - tgt[i]
            if need < 0 or entry.homogeneous_degree() != need:
                return i, j, need
    return None


class AlternatingPresentation(Frozen):
    """Odd graded alternating matrix with a marked G block of three rows.

    ``twists`` assigns each row its generator degree; entry (i, j) must be
    homogeneous of degree theta - t_i - t_j where theta is forced by the
    grading (theta = 2 * sum(twists) / (size - 1)).
    """

    _fields = ("matrix", "g_indices", "twists", "theta")
    matrix: AlternatingMatrix
    g_indices: tuple[int, int, int]  # 1-based rows forming the G block
    twists: tuple[int, ...]
    theta: int  # worked out from the twists

    def __init__(
        self, matrix: AlternatingMatrix, g_indices: tuple[int, int, int], twists: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "g_indices", g_indices)
        object.__setattr__(self, "twists", twists)
        m = matrix.size
        if m < 5 or m % 2 == 0:
            raise ValueError(f"presentation size must be odd and >= 5, got {m}")
        if len(twists) != m:
            raise ValueError(f"need {m} twists, got {len(twists)}")
        if any(isinstance(t, bool) or not isinstance(t, int) for t in twists):
            raise ValueError(f"twists must be ints, got {tuple(twists)}")
        g = tuple(g_indices)
        if len(set(g)) != 3 or any(not 1 <= i <= m for i in g):
            raise ValueError(f"g_indices must be 3 distinct rows in 1..{m}, got {g}")
        theta = theta_of(twists)
        if theta is None:
            raise ValueError("twists do not admit an integral matrix degree")
        object.__setattr__(self, "theta", theta)
        hit = _degree_violation(matrix.entries, [theta - t for t in twists], twists)
        if hit is not None:
            i, j, need = hit
            raise ValueError(
                f"entry ({i + 1},{j + 1}) must be homogeneous of degree {need}, "
                f"got {matrix.entries[i][j]}"
            )

    def reordered(self) -> tuple[AlternatingMatrix, tuple[int, ...]]:
        """Congruence-permuted copy with the G rows moved to the front."""
        g = [i - 1 for i in self.g_indices]
        order = g + [i for i in range(self.matrix.size) if i not in g]
        return self.matrix._permuted(order), tuple(self.twists[i] for i in order)


def build_aci_complex(pres: AlternatingPresentation) -> GradedComplex:
    """Assemble the four-term graded complex for the given presentation."""
    mat, twists = pres.reordered()
    m = mat.size
    theta = pres.theta
    theta_z = twists[0] + twists[1] + twists[2]
    d0 = theta_z - theta

    pf_vec = mat.submaximal_pfaffians()
    p123 = pf_vec[:3]
    sigma = pf_vec[3:]
    # pf(beta) and the entries of lambda^T @ beta_adj are read from mat's
    # minors, which the submaximal pfaffians above have mostly expanded:
    # entry (g, f) is (-1)^(f-3) pf(g, F - f), the row-g expansion of that
    # principal pfaffian
    f_rows = range(4, m + 1)
    p = mat.pfaffian(f_rows)
    top_right = []
    for g in (1, 2, 3):
        row = []
        for f in f_rows:
            value = mat.pfaffian([g] + [r for r in f_rows if r != f])
            row.append(-value if f % 2 == 0 else value)
        top_right.append(row)

    d1 = PolyMatrix([list(p123) + [p]])
    d2_rows = [
        [p if i == j else Poly.zero() for j in range(3)] + top_right[i]
        for i in range(3)
    ]
    d2_rows.append([-q for q in p123] + [-q for q in sigma])
    d2 = PolyMatrix(d2_rows)
    # d3 stacks lambda^T over -beta, where the F rows of mat hold lambda in
    # the G columns and beta in the F columns; beta is alternating, so
    # -beta = beta^T and d3 is the transpose of those rows
    d3 = PolyMatrix([list(column) for column in zip(*mat.entries[3:])])

    modules = (
        GradedFreeModule((0,)),
        GradedFreeModule((twists[0], twists[1], twists[2], d0)),
        GradedFreeModule(tuple(t + d0 for t in twists)),
        GradedFreeModule(tuple(theta_z - t for t in twists[3:])),
    )
    return GradedComplex(modules, (d1, d2, d3))


class PairReport(Frozen):
    _fields = ("composition_zero", "composition_witness")
    composition_zero: bool
    composition_witness: str | None


class ComplexReport(Frozen):
    _fields = ("pairs", "homogeneous", "homogeneity_witness", "rank_ok")
    pairs: tuple[PairReport, ...]
    homogeneous: bool
    homogeneity_witness: str | None
    rank_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.homogeneous
            and self.rank_ok
            and all(p.composition_zero for p in self.pairs)
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "compositions": [
                {"zero": p.composition_zero, "witness": p.composition_witness}
                for p in self.pairs
            ],
            "homogeneous": self.homogeneous,
            "homogeneity_witness": self.homogeneity_witness,
            "rank_ok": self.rank_ok,
        }


def verify_complex(c: GradedComplex) -> ComplexReport:
    """Check composition-zero, homogeneity and rank bookkeeping.

    Homogeneity: entry (i, j) of maps[k] must be homogeneous of degree
    source_twist(j) - target_twist(i); zero entries are exempt, and any
    slot whose required degree is negative must be zero.  Composition-zero:
    ``PolyMatrix.product_witness`` tests maps[k] @ maps[k + 1] on Kronecker
    images at the bound's own width where the product would go dense, and
    the witness is its first nonzero entry in row-major order.
    """
    hom_witness = None
    for k, mp in enumerate(c.maps):
        hit = _degree_violation(mp.entries, c.modules[k + 1].twists, c.modules[k].twists)
        if hit is not None:
            i, j, need = hit
            hom_witness = f"map {k} entry ({i + 1},{j + 1}) should have degree {need}"
            break
    pairs = []
    for k in range(len(c.maps) - 1):
        hit = c.maps[k].product_witness(c.maps[k + 1])
        if hit is None:
            pairs.append(PairReport(True, None))
        else:
            i, j, entry = hit
            pairs.append(PairReport(False, f"({i + 1},{j + 1}) = {entry}"))
    signed = sum(
        (-1) ** idx * module.rank for idx, module in enumerate(c.modules)
    )
    return ComplexReport(tuple(pairs), hom_witness is None, hom_witness, signed == 0)


def colon_generators(
    m: AlternatingMatrix, abc: Sequence[int]
) -> tuple[Poly, Poly, Poly, Poly]:
    """Generators (p_a, p_b, p_c, p_abc) of the colon of the pfaffian ideal.

    When (p_a, p_b, p_c) is a regular sequence, the colon ideal of the
    full submaximal-pfaffian ideal is generated by the three chosen
    pfaffians together with the order-(m-3) pfaffian obtained by deleting
    rows and columns a, b, c.
    """
    if m.size < 5 or m.size % 2 == 0:
        raise ValueError("matrix size must be odd and >= 5")
    a, b, c = abc
    if len({a, b, c}) != 3:
        raise ValueError("indices must be distinct")
    for i in (a, b, c):
        if not 1 <= i <= m.size:
            raise ValueError(f"index {i} out of range 1..{m.size}")
    pf_vec = m.submaximal_pfaffians()
    rest = [i for i in range(1, m.size + 1) if i not in (a, b, c)]
    return pf_vec[a - 1], pf_vec[b - 1], pf_vec[c - 1], m.pfaffian(rest)
