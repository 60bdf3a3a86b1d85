"""Pfaffian algebra of alternating matrices.

An alternating matrix is skew-symmetric with zero diagonal.  This module
provides the row-expansion pfaffian, an independent perfect-matching
oracle, submaximal pfaffian vectors, the pfaffian adjoint, the two-row
block expansion, bordered augmentation and congruence transforms.

Each matrix fixes its variable tuple once, and memoizes the pfaffians of
its principal submatrices by row bitmask.  The representation is picked
once per matrix, at the first expansion: when every nonzero entry is an
int-only form of the matrix's ring, the entries are graded (some weights
w give each nonzero entry (i, j) the degree w_i + w_j), they fill their
ints (``exact._fill``) and the degree and coefficient bounds of its
pfaffians fit ``exact._Dense``, the memo holds dense forms and each row
sum is a few big-int products; otherwise it holds Polys summed by
``exact._sum_of_products``.  ``pfaffian(rows)`` and ``adjoint(rows)``
evaluate a principal submatrix from that memo, so pf(beta) and its
adjoint on the rows left after the submaximal vector cost no new
expansion.  The perfect-matching oracle stays on the ``Poly`` operators
and shares no code with the expansion.

Sign conventions (fixed by contract, verified in the test suite):

* ``submaximal_pfaffians`` returns ``p_i = (-1)**(i+1) * pf(M_del_i)``
  (1-based ``i``), the unique-up-to-global-sign vector with ``M @ p = 0``.
* ``adjoint`` returns the alternating matrix ``Mbar`` with
  ``Mbar @ M = M @ Mbar = pf(M) * I``; entrywise
  ``Mbar[i][j] = -(-1)**bracket(i,j) * pf(M_del_ij)``.

With these choices the congruence identity
``pfvector(A M A^T) = pfvector(M) @ adjugate(A)`` holds exactly,
not merely up to sign.
"""

from __future__ import annotations

import random
from itertools import chain, compress
from operator import attrgetter, eq, neg
from typing import Iterable, Sequence

from .exact import _MIN_FILL, Poly, PolyMatrix, Scalar, _checked_poly, _Dense, _fill, _int_forms
from .exact import _sum_of_products, monomials, variables
from .gorenstein import theta_of


def sign_bracket(i: int, j: int) -> int:
    """Exponent bracket for pfaffian expansions, 1-based indices."""
    if i == j:
        raise ValueError("bracket is undefined for i == j")
    return i + j + 1 if i < j else i + j


def _graded(grid: Sequence[Sequence[tuple[int, int | None]]]) -> bool:
    """Whether weights w give each nonzero dense entry (i, j) the degree w_i + w_j.

    Then each product of the expansion over rows R has degree sum(w_i, i in R),
    one degree per sum as decoding needs.  Such w exist exactly when levels
    p(i, s), s in {0, 1}, with p(i, s) + p(j, 1 - s) = deg (i, j) on every nonzero
    entry do (w_i = (p(i, 0) + p(i, 1)) / 2); a walk from each unset (i, s) sets them.
    Node 2 * i + s stands for (i, s).
    """
    level: list[int | None] = [None] * (2 * len(grid))
    for start in range(len(level)):
        if level[start] is not None:
            continue
        level[start], stack = 0, [start]
        while stack:
            node = stack.pop()
            flip, have = 1 - (node & 1), level[node]
            for j, (value, degree) in enumerate(grid[node >> 1]):
                if value:
                    other, want = 2 * j + flip, degree - have
                    seen = level[other]
                    if seen is None:
                        level[other] = want
                        stack.append(other)
                    elif seen != want:
                        return False
    return True


def _negates(lower: Poly, upper: Poly) -> bool:
    """``lower == -upper``, coefficient by coefficient, without building ``-upper``.

    The rings align as ``Poly.__eq__`` aligns them: equal tuples agree, a
    nameless poly takes on the other's tuple, and two other tuples never
    agree, even for zero polynomials.
    """
    if lower.names != upper.names and lower.names and upper.names:
        return False
    a, b = lower._terms, upper._terms
    return len(a) == len(b) and all(map(eq, map(b.get, a), map(neg, a.values())))


def _perm_sign(seq: Sequence[int]) -> int:
    inversions = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inversions += 1
    return -1 if inversions % 2 else 1


class AlternatingMatrix:
    """Square skew matrix with zero diagonal over exact polynomials."""

    __slots__ = ("entries", "size", "names", "_row_masks", "_sparse_rows", "_pf_memo", "_codec", "_grid")

    def __init__(self, entries: Sequence[Sequence[Poly | Scalar]]):
        grid = tuple(tuple(_checked_poly(e) for e in row) for row in entries)
        n = len(grid)
        for row in grid:
            if len(row) != n:
                raise ValueError("alternating matrix must be square")
        for i in range(n):
            if not grid[i][i].is_zero:
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be zero")
            for j in range(i + 1, n):
                if not _negates(grid[j][i], grid[i][j]):
                    raise ValueError(f"entry ({j + 1},{i + 1}) is not the negative of ({i + 1},{j + 1})")
        self._adopt(grid)

    @classmethod
    def _trusted(cls, grid: tuple[tuple[Poly, ...], ...]) -> "AlternatingMatrix":
        """Wrap a square, alternating tuple of tuples of Polys, such as a permuted submatrix of a checked matrix, unchecked."""
        m = object.__new__(cls)
        m._adopt(grid)
        return m

    def _adopt(self, grid: tuple[tuple[Poly, ...], ...]) -> None:
        """Set the entries and what the expansion reads from them."""
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "size", len(grid))
        object.__setattr__(self, "names", next((e.names for row in grid for e in row if e.names), ()))
        # bit j of _row_masks[i] is set when entry (i + 1, j + 1) is nonzero
        bits = [1 << j for j in range(len(grid))]
        masks = tuple(sum(compress(bits, map(attrgetter("_terms"), row))) for row in grid)
        object.__setattr__(self, "_row_masks", masks)
        # bit i of _sparse_rows is set when row i + 1 has a zero entry off the diagonal
        full = (1 << len(grid)) - 1
        object.__setattr__(self, "_sparse_rows", sum(1 << i for i, m in enumerate(masks) if m != full ^ 1 << i))
        # pfaffians of principal submatrices by row bitmask, and the entries
        # M and -M they expand over in _grid: dense forms of _codec, or Polys
        # when _codec is None
        object.__setattr__(self, "_pf_memo", {})
        object.__setattr__(self, "_codec", None)
        object.__setattr__(self, "_grid", None)

    def __setattr__(self, name, value):
        raise AttributeError("AlternatingMatrix is immutable")

    def __reduce__(self):
        return AlternatingMatrix, (self.entries,)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_upper(cls, size: int, upper: dict[tuple[int, int], Poly | Scalar]) -> "AlternatingMatrix":
        """Build from the strict upper triangle, 1-based (i, j) keys with i < j."""
        grid: list[list[Poly | Scalar]] = [[0] * size for _ in range(size)]
        for (i, j), value in upper.items():
            if not (1 <= i < j <= size):
                raise ValueError(f"bad upper-triangle key ({i},{j})")
            v = _checked_poly(value)
            grid[i - 1][j - 1] = v
            grid[j - 1][i - 1] = -v
        return cls(grid)

    @classmethod
    def generic(cls, size: int) -> "AlternatingMatrix":
        """Fully symbolic matrix with a distinct variable ``a<i><j>`` per upper entry."""
        slots = [(i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)]
        names = [f"a{i}{j}" for i, j in slots]
        return cls.from_upper(size, dict(zip(slots, variables(names))))

    @classmethod
    def from_poly_matrix(cls, m: PolyMatrix) -> "AlternatingMatrix":
        return cls(m.entries)

    def to_poly_matrix(self) -> PolyMatrix:
        return PolyMatrix(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        """1-based access, matching the written conventions of this theory."""
        return self.entries[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlternatingMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        raise TypeError("AlternatingMatrix is unhashable")

    def __str__(self) -> str:
        return str(self.to_poly_matrix())

    def __repr__(self) -> str:
        return f"AlternatingMatrix(size={self.size})"

    # ------------------------------------------------------------------
    # submatrices
    # ------------------------------------------------------------------

    def _row_mask(self, indices: Iterable[int]) -> int:
        """Bitmask of 1-based, distinct row indices: bit i - 1 stands for row i."""
        mask = 0
        for i in indices:
            if not (1 <= i <= self.size):
                raise ValueError(f"index {i} out of range 1..{self.size}")
            if mask >> (i - 1) & 1:
                raise ValueError(f"repeated index {i}")
            mask |= 1 << (i - 1)
        return mask

    def delete(self, indices: Sequence[int]) -> "AlternatingMatrix":
        """Delete the given rows *and* columns (1-based, distinct)."""
        chosen = self._row_mask(indices)
        keep = [i for i in range(self.size) if not chosen >> i & 1]
        return self._permuted(keep)

    def _permuted(self, order: Sequence[int]) -> "AlternatingMatrix":
        """The matrix of entries (order[i], order[j]) for 0-based, distinct ``order``: a principal submatrix, reordered."""
        rows = self.entries
        return AlternatingMatrix._trusted(tuple(tuple(map(rows[i].__getitem__, order)) for i in order))

    # ------------------------------------------------------------------
    # pfaffians
    # ------------------------------------------------------------------

    def _principal(self, rows: Iterable[int] | None) -> int:
        """Row bitmask of the principal submatrix on ``rows`` (1-based); all rows when None."""
        return (1 << self.size) - 1 if rows is None else self._row_mask(rows)

    def pfaffian(self, rows: Iterable[int] | None = None) -> Poly:
        """pf(M), or with ``rows`` (1-based, distinct) the pfaffian of that principal submatrix.

        ``M.pfaffian(rows)`` equals ``M.delete(complement).pfaffian()`` and
        reuses the minors this matrix has already expanded.
        """
        mask = self._principal(rows)
        if mask.bit_count() % 2:
            raise ValueError("odd-size pfaffian undefined")
        return self._pf(mask)

    def _pf(self, mask: int) -> Poly:
        """pf of the principal submatrix on the rows set in ``mask``, through the memo."""
        if not self._pf_memo:
            self._represent()
        value = self._pf_memo.get(mask)
        if value is None:
            value = self._expand(mask)
        return value if self._codec is None else self._codec.decode(value, self.names)

    def _represent(self) -> None:
        """Start the memo on dense forms when the entries fit the codec, fill their ints and are graded, else on Polys.

        A 2h-pfaffian sums (2h - 1)!! products of h entries, so its degree is
        at most h times the largest entry degree, and its coefficients at
        most (2h - 1)!! * L**h, L the largest L1 norm of an entry.  Each
        entry below the diagonal is the negative of the one above it, so the
        scans and the encoding read the strict upper triangle, and -M is the
        transpose of the dense M.  Only a nameless constant may sit above a
        constant of some ring, and that ring decides the codec too.
        """
        n, entries = self.size, self.entries
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        upper = [entries[i][j] for i, j in pairs]
        mirrors = [entries[j][i] for (i, j), e in zip(pairs, upper) if e._terms and not e.names]
        codec, forms = None, _int_forms(chain(upper, mirrors))
        if forms is not None and forms[0] in ((), self.names):
            h = n // 2
            bound = forms[2] ** h
            for k in range(3, 2 * h, 2):
                bound *= k
            codec = _Dense.fit(self.names, h * forms[1], bound)
        # a row sum multiplies entries by minors, which fill about a quarter of their slots
        if codec is not None and _fill([upper], codec) >= 4 * _MIN_FILL:
            plus = [[(0, None)] * n for _ in range(n)]
            for (i, j), form in zip(pairs, map(codec.encode, upper)):
                plus[i][j], plus[j][i] = form, (-form[0], form[1])
            minus = tuple(zip(*plus))
            if not _graded(plus):
                codec = None
        else:
            codec = None
        if codec is None:
            plus = entries
            minus = tuple(tuple(-e for e in row) for row in plus)
        object.__setattr__(self, "_codec", codec)
        object.__setattr__(self, "_grid", (plus, minus))
        self._pf_memo[0] = Poly.const(1, self.names) if codec is None else (1, 0)

    def _expand(self, mask: int):
        """Expand the pfaffian at ``mask``, which the memo lacks, along the row a with fewest nonzero entries, the first on ties.

        The term of row b is M[a][b] * pf(rows but a, b), negated when the
        rows of ``mask`` below a and those but a below b differ in parity,
        so the sign flips at each row but a, walking up.  Minors the memo
        lacks are expanded first, in the order of b.  Dense terms are summed
        as they come, with no degree check per term: the matrix is graded.
        """
        memo, nonzero = self._pf_memo, self._row_masks
        # a row with no zero off the diagonal ties with the first row of mask, which wins
        a, fewest, rows = (mask & -mask).bit_length() - 1, mask.bit_count() - 1, mask & self._sparse_rows
        while rows:
            i = (rows & -rows).bit_length() - 1
            rows ^= 1 << i
            count = (nonzero[i] & mask).bit_count()
            if count < fewest:
                a, fewest = i, count
        rest, columns, dense = mask ^ (1 << a), nonzero[a], self._codec is not None
        rows, sign, row = rest, (mask & ((1 << a) - 1)).bit_count() & 1, (self._grid[0][a], self._grid[1][a])
        pairs, total, degree = [], 0, None
        while rows:
            low = rows & -rows
            rows ^= low
            if columns & low:
                minor = memo.get(rest ^ low)
                if minor is None:
                    minor = self._expand(rest ^ low)
                entry = row[sign][low.bit_length() - 1]
                if not dense:
                    pairs.append((entry, minor))
                elif minor[0]:
                    # _graded gave every product of one expansion the same degree
                    total += entry[0] * minor[0]
                    degree = entry[1] + minor[1]
            sign ^= 1
        memo[mask] = value = (total, degree) if dense else _sum_of_products(pairs, self.names)
        return value

    def pfaffian_oracle(self) -> Poly:
        """Signed sum over perfect matchings; independent of the expansion.

        It stays on ``Poly`` operators, so it shares no code with ``pfaffian``.
        """
        if self.size % 2:
            raise ValueError("odd-size pfaffian undefined")
        acc = Poly.zero(self.names)
        for matching in _perfect_matchings(tuple(range(self.size))):
            seq = [pos for pair in matching for pos in pair]
            prod = Poly.const(_perm_sign(seq), self.names)
            for i, j in matching:
                prod = prod * self.entries[i][j]
            acc = acc + prod
        return acc

    def submaximal_pfaffians(self) -> tuple[Poly, ...]:
        """Syzygy-signed vector p with M @ p = 0 (size must be odd)."""
        if self.size % 2 == 0:
            raise ValueError("submaximal pfaffian vector requires odd size")
        full = (1 << self.size) - 1
        out = []
        for i in range(self.size):
            value = self._pf(full & ~(1 << i))
            out.append(value if i % 2 == 0 else -value)
        return tuple(out)

    def adjoint(self, rows: Iterable[int] | None = None) -> "AlternatingMatrix":
        """Alternating Mbar with Mbar @ M = M @ Mbar = pf(M) * I.

        With ``rows`` (1-based, distinct) it is the adjoint of that
        principal submatrix, equal to ``M.delete(complement).adjoint()``,
        read from this matrix's minors.
        """
        mask = self._principal(rows)
        k = mask.bit_count()
        if k % 2:
            raise ValueError("pfaffian adjoint requires even size")
        idx = [i for i in range(self.size) if mask >> i & 1]
        grid: list[list[Poly]] = [[Poly.zero(self.names)] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                value = self._pf(mask & ~(1 << idx[a]) & ~(1 << idx[b]))
                if sign_bracket(a + 1, b + 1) % 2 == 0:
                    value = -value
                grid[a][b] = value
                grid[b][a] = -value
        return AlternatingMatrix._trusted(tuple(map(tuple, grid)))

    # ------------------------------------------------------------------
    # bordered augmentation
    # ------------------------------------------------------------------

    def augment(self, coeffs: Sequence[Poly | Scalar]) -> "AlternatingMatrix":
        """Border an odd matrix to size m+2 so the pfaffian vector gains sum(a_i p_i) and 0.

        The returned matrix has submaximal pfaffian vector
        ``-(p_1, ..., p_m, p, 0)`` where ``p = sum(coeffs[i] * p_i)``; as a
        multiset up to per-entry sign this is ``{p_1, ..., p_m, p, 0}``.
        """
        if self.size % 2 == 0:
            raise ValueError("augment requires odd size")
        coeffs = [_checked_poly(c) for c in coeffs]
        if len(coeffs) != self.size:
            raise ValueError(f"need {self.size} coefficients, got {len(coeffs)}")
        m = self.size
        grid: list[list[Poly]] = [[Poly.zero(self.names)] * (m + 2) for _ in range(m + 2)]
        for i in range(m):
            for j in range(m):
                grid[i][j] = self.entries[i][j]
        for i in range(m):
            grid[i][m + 1] = coeffs[i]
            grid[m + 1][i] = -coeffs[i]
        one = Poly.const(1, self.names)
        grid[m][m + 1] = -one
        grid[m + 1][m] = one
        return AlternatingMatrix(grid)


def _perfect_matchings(idx: tuple[int, ...]):
    """All perfect matchings of ``idx`` as lists of (lo, hi) pairs."""
    if not idx:
        yield []
        return
    first, rest = idx[0], idx[1:]
    for pos in range(len(rest)):
        partner = rest[pos]
        remaining = rest[:pos] + rest[pos + 1 :]
        for sub in _perfect_matchings(remaining):
            yield [(first, partner)] + sub


def block_pfaffian(a: Poly | Scalar, top: PolyMatrix, c: AlternatingMatrix) -> Poly:
    """Two-row block expansion: returns a*pf(C) + pf(B Cbar B^T).

    ``top`` is the 2 x (m-2) block sitting right of the leading
    ``[[0, a], [-a, 0]]`` corner; the result equals the pfaffian of the
    assembled m x m matrix.
    """
    if top.rows != 2 or top.cols != c.size:
        raise ValueError(f"top block must be 2x{c.size}, got {top.rows}x{top.cols}")
    a = _checked_poly(a)
    small = top @ c.adjoint().to_poly_matrix() @ top.transpose()
    # small is 2x2 alternating; its pfaffian is the (1,2) entry
    return a * c.pfaffian() + small.entry(0, 1)


def congruence(a: PolyMatrix, m: AlternatingMatrix) -> AlternatingMatrix:
    """Congruence transform A M A^T (alternating for any square A)."""
    if a.rows != a.cols or a.rows != m.size:
        raise ValueError("A must be square of the same size as M")
    return AlternatingMatrix.from_poly_matrix(a @ m.to_poly_matrix() @ a.transpose())


def three_generator_embedding(
    psi: AlternatingMatrix,
    coeff_vectors: Sequence[Sequence[Poly | Scalar]],
) -> AlternatingMatrix:
    """Border psi three times so three prescribed combinations join the pfaffian vector.

    Each of the three coefficient vectors expresses a target element over
    the submaximal pfaffian vector of ``psi``.  The result has size n+6 and
    its pfaffian multiset, up to per-entry sign, is
    ``{p_1..p_n} + {targets} + {0, 0, 0}``.

    Each augmentation negates the previous pfaffian vector, so the second
    and third coefficient vectors are re-expressed over the current vector
    before bordering.
    """
    if len(coeff_vectors) != 3:
        raise ValueError("exactly three coefficient vectors required")
    u, v, w = (tuple(_checked_poly(c) for c in vec) for vec in coeff_vectors)
    n = psi.size
    if any(len(vec) != n for vec in (u, v, w)):
        raise ValueError(f"coefficient vectors must have length {n}")
    zero = Poly.zero()
    m1 = psi.augment(u)
    m2 = m1.augment(tuple(-c for c in v) + (zero, zero))
    return m2.augment(w + (zero, zero, zero, zero))


def random_graded_alternating(twists: Sequence[int], rng: random.Random) -> AlternatingMatrix:
    """Random homogeneous alternating matrix in x1, x2, x3 for the given row twists.

    Entry (i, j) gets a random form of degree theta - t_i - t_j where
    theta = 2 * sum(twists) / (size - 1); slots of negative degree are
    zero.  Coefficients are drawn from +-1..4, avoiding 0 so the matrix
    stays generic.
    """
    twists = tuple(twists)
    if any(isinstance(t, bool) or not isinstance(t, int) for t in twists):
        raise ValueError(f"twists must be ints, got {twists}")
    size = len(twists)
    if size < 2:
        raise ValueError("need at least two rows")
    theta = theta_of(twists)
    if theta is None:
        raise ValueError("twists do not admit an integral matrix degree")
    names = ("x1", "x2", "x3")
    upper: dict[tuple[int, int], Poly] = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            d = theta - twists[i - 1] - twists[j - 1]
            if d < 0:
                continue
            pairs = [(Poly.const(rng.randint(1, 4) * rng.choice((1, -1))), mono) for mono in monomials(names, d)]
            upper[(i, j)] = _sum_of_products(pairs, names)
    return AlternatingMatrix.from_upper(size, upper)
