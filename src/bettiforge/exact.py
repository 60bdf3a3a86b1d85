"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are ``int``, promoted to :class:`fractions.Fraction` only
when a value is not an integer; a ``Fraction`` with denominator 1 is
stored back as ``int``.  Floats and bools are rejected, so every identity
in this package holds exactly and there is no floating point anywhere.
A polynomial is a map from monomials to nonzero coefficients together
with an ordered tuple of variable names.  Terms are kept canonical (no
zero coefficients) and displayed in graded lexicographic order.

Each monomial is stored as one packed ``int`` key.  In a ring of n
variables the key of x1^e1 * ... * xn^en holds n + 1 fields of ``_W``
bits each, most significant first: the total degree e1 + ... + en, then
e1, ..., en.  So the integer order of keys is graded lexicographic order,
a constant has key 0 in every ring, and the key of a product of two
monomials is the sum of their keys.  That sum is exact only while no
field carries into the next one, so the total degree of every term is
capped at ``_MAX_DEGREE`` = 2**_W - 1: the constructors reject higher
terms and the products refuse operands whose degrees add up past it, all
with ValueError.  ``Poly.terms`` is the public view keyed by exponent
tuples; it is decoded on each access.

Keys are encoded from one table, ``_units(n)``, built once per n: the
key of each variable alone.  A monomial's key is the sum of its exponents
times these unit keys.

Text is read and written straight from packed keys.  ``parse_poly`` and
``parse_matrix`` sum a term's key from the unit keys, looked up by name
in a dict built once per variable tuple; ``parse_matrix`` reads each
distinct term text of its matrix, without its sign, once.
``Poly.__str__`` sorts the keys once, looks up the text before each
monomial (" + ", " - ", or a formatted coefficient) and joins all of it
once.  When every exponent is 0 or 1 (as in a generic pfaffian) and the
ring has at most ``_MAX_TAGGED`` = 127 variables, ``_monomial_texts``
writes each run of keys of one degree in byte passes of up to
``_TAG_BATCH`` keys: a constant added to each key clears its degree field
and makes the low byte of exponent field i the tag 2i + e_i, one slice and one ``bytes.translate``
keep the odd tags of the pass's joined bytes, and a 256-entry table
names them.  So neither side loops over all variables in Python for each
term.

Matrices of polynomials are dense; everything here is desk scale (the
CLI accepts at most 13 rows), so cofactor expansion with memoization is
enough for symbolic determinants and fraction-free Bareiss elimination
covers the constant case.  A matrix has one ring, ``names``, fixed when
it is built (``_one_ring``): every entry with variables has that
variable tuple, and a nameless constant entry takes it on.  The kernels
below take that ring as an argument and check no entry's ring; only the
``Poly`` operators align two rings, in ``Poly._aligned``.

Sums of many products (each entry of a matrix product, the cofactor
determinant here and the pfaffian row expansion) go through one private
kernel, ``_sum_of_products``: it adds every term product of
sum(a_k * b_k) straight into one dict instead of building a polynomial
per product and per partial sum.

The pfaffian memo and the composition zero test skip that dict for
forms in few variables.  ``_Dense`` maps a homogeneous int polynomial of
degree d in n variables to one int, phi(P) = sum c * 2**(s * idx), with
a slot width of s bits and idx = e1*b**(n-2) + ... + e(n-1) for a degree
bound D and b = D + 1; the last exponent follows from d.  phi is the
evaluation x_i -> 2**(s * b**(n-1-i)), x_n -> 1, a ring homomorphism,
so sums and products of encoded values are exact at any size.  Decoding
needs every exponent at most D and every coefficient below 2**(s - 1)
in size: then adding 2**(s - 1) to every slot leaves one coefficient per
slot.  Callers bound both from their operands' degrees and L1 norms
(the L1 norm of a product is at most the product of the norms).
``_Dense.fit`` takes 32-bit slots when the coefficient bound is below
2**31 and 64-bit ones when it is below 2**63, and refuses a bound that
does not fit, a ring of more than three variables and a box of more
than ``_MAX_SLOTS`` slots; callers also keep to ``_sum_of_products``
when the operands' terms fill too few of the slots their ints span to
pay for the int products (``_MIN_FILL``).

``PolyMatrix.product_witness`` tells whether a product is zero, and names
its first nonzero entry.  Where the operands fit a codec and fill it, no
product is built: each entry is tested for zero on the Kronecker images
of its operands at the bound's own width, slots of s bits for a
coefficient bound below 2**s, and is never decoded.  The lowest nonzero
slot of a nonzero form cannot cancel, since its coefficient is below
2**s in size.  ``@`` always sums on the dict kernel.
"""

from __future__ import annotations

import functools
import re
import struct
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, attrgetter, itemgetter, mul, neg, or_
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._text import _DIGITS_RE, _NAME_RE, _clip

Scalar = Union[int, Fraction]
_SIGN_RE = re.compile(r"([+-])")
# The exponent of a rational literal such as "2.5e-3", in the grammar
# ``Fraction`` reads.  Fraction builds 10**k exactly, so "1e10000000" alone
# would take half a minute.  The cap on k matches the 4,300 digits Python
# allows an int literal by default.
_EXPONENT_RE = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
_MAX_EXPONENT = 4300

# Bits per field of a packed monomial key, and the largest total degree a
# term may have.  The fields are big-endian struct fields of code _FIELD,
# which must be the unsigned integer of _W bits.
_W = 32
_MAX_DEGREE = (1 << _W) - 1
_FIELD = "I"
# The most variables text may name.  A key takes _W * (n + 1) bits, so a
# polynomial with n terms in n variables holds about 4 * n**2 bytes.  A
# generic 13x13 alternating matrix has 78 variables.
_MAX_VARIABLES = 100
# The most variables of a ring whose square-free monomials _monomial_texts
# writes in one byte pass: the tags 2i + e_i of its exponent fields are then
# at most 253, one byte each.  Only the Python API builds a larger ring;
# text names at most _MAX_VARIABLES.
_MAX_TAGGED = 127
_EVEN_BYTES = bytes(range(0, 256, 2))
# The most keys one byte pass takes: a pass holds about 8 * n bytes a key in
# n variables.  str of a generic 12x12 pfaffian (10,395 keys of one degree,
# 66 variables) peaked at 6.6 MB in one pass and at 1.8 MB in passes of
# this many, at the same speed (tracemalloc).
_TAG_BATCH = 1024
# The text before a term's monomial in Poly.__str__ when its coefficient is 1 or -1.
_UNIT_HEADS = {1: " + ", -1: " - "}
# The most variables and slots (monomials in the first n - 1 variables) a
# dense form may have; see _Dense.
_MAX_DENSE_VARIABLES = 3
_MAX_SLOTS = 4096
# Multiplying ints of s and t slots costs about s * t / 32 term products of
# _sum_of_products (5 ns a slot pair against 160 ns a term product, CPython
# 3.11 on a shared 2-vCPU Xeon), so the composition zero test goes dense
# when the fills (terms per slot, see _fill) of its two sides multiply to
# at least this;
# ROADMAP "Decided" has the measurements.
_MIN_FILL = 1 / 32


@functools.lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The key of each variable alone in the n-variable ring: 1 in its field and in the degree field."""
    top = 1 << (_W * n)
    return tuple(top | 1 << (_W * (n - 1 - i)) for i in range(n))


@functools.lru_cache(maxsize=None)
def _layout(n: int) -> tuple[Callable[[Sequence[int]], int], Callable[[int], tuple[int, ...]]]:
    """(pack, unpack) between exponent tuples and keys of the n-variable ring.

    ``pack`` takes nonnegative exponents of total degree at most
    ``_MAX_DEGREE``; ``unpack`` returns the exponents without the degree.
    """
    units = _units(n)
    exponents = struct.Struct(f">{_W // 8}x{n}{_FIELD}")  # skips the degree field
    size = exponents.size

    def pack(exp: Sequence[int]) -> int:
        return sum(map(mul, exp, units))

    def unpack(key: int) -> tuple[int, ...]:
        return exponents.unpack(key.to_bytes(size, "big"))

    return pack, unpack


@functools.lru_cache(maxsize=64)
def _tags(names: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """(offset, table) of the square-free pass of ``_monomial_texts`` in the ring of ``names``.

    ``offset`` holds 2i in exponent field i, so a square-free key plus
    ``offset`` has the tag 2i + e_i as the low byte of that field, and
    ``table[2i + 1]`` is ``names[i]``.  The ring has at most
    ``_MAX_TAGGED`` variables, so every tag fits in a byte.
    """
    n = len(names)
    offset = sum(2 * i << (_W * (n - 1 - i)) for i in range(n))
    table = [""] * 256
    table[1 : 2 * n : 2] = names
    return offset, tuple(table)


def _monomial_texts(names: tuple[str, ...], keys: list[int]) -> list[str]:
    """The text of each nonconstant key of the ring of ``names``, such as ``x1^2*x3``; ``keys`` descend.

    When every exponent of every key is 0 or 1, which a single OR of the
    keys shows, and the ring has at most ``_MAX_TAGGED`` variables, the
    keys are written in byte passes, each over one run of keys of one
    degree d (at most ``_TAG_BATCH`` of them).  Each key, its degree field
    cleared and the ``_tags`` offset added, gives its bytes; one slice of
    the pass's joined bytes takes every low byte, the tag 2i + e_i of
    exponent field i; ``bytes.translate`` drops the even tags, leaving the
    2i + 1 of each variable of each monomial in order; and the names read
    from the tag table are joined by ``*`` in groups of d.  Otherwise
    each key is decoded and written factor by factor.
    """
    n = len(names)
    shift = _W * n
    exponent_bits = (1 << shift) - 1
    low_bits = exponent_bits // _MAX_DEGREE  # the lowest bit of each exponent field
    if n <= _MAX_TAGGED and not functools.reduce(or_, keys, 0) & (exponent_bits ^ low_bits):
        offset, table = _tags(names)
        width = _W // 8
        texts: list[str] = []
        start, end = 0, len(keys)
        while start < end:
            degree = keys[start] >> shift
            # keys descend, so the run ends at the first key below degree << shift
            stop = min(bisect_right(keys, -(degree << shift), start, end, key=neg), start + _TAG_BATCH)
            tagged = map(add, keys[start:stop], repeat(offset - (degree << shift)))
            raw = b"".join(map(int.to_bytes, tagged, repeat(width * n), repeat("big")))
            tags = raw[width - 1 :: width].translate(None, _EVEN_BYTES)
            # itemgetter of one index returns the item bare; a leading index keeps a tuple
            factors = iter(itemgetter(0, *tags)(table)[1:])
            texts += map("*".join, zip(*[factors] * degree))
            start = stop
        return texts
    _, unpack = _layout(n)
    texts = []
    for exp in map(unpack, keys):
        factors = []
        for name, e in compress(zip(names, exp), exp):  # the nonzero exponents only
            factors.append(name if e == 1 else f"{name}^{e}")
        texts.append("*".join(factors))
    return texts


def _check_product_degree(a_terms: dict, b_terms: dict, shift: int) -> None:
    """Refuse a product of two nonzero term dicts whose degrees add up past ``_MAX_DEGREE``.

    Below the cap no field of a key sum can carry, so the sum of two keys
    is the key of the product.  ``shift`` is the bit offset of the degree
    field.
    """
    degree = (max(a_terms) >> shift) + (max(b_terms) >> shift)
    if degree > _MAX_DEGREE:
        raise ValueError(f"product degree {degree} is above the cap {_MAX_DEGREE}")


def _coefficient(value) -> Scalar:
    """Coerce an outside value to a coefficient: ``int`` passes, anything else becomes ``Fraction``.

    Floats and bools are rejected with ValueError: a binary float is not
    the rational its decimal text suggests, and ``True`` is not a number
    a user meant.  Rational strings such as ``"1/3"`` are accepted, and
    an exponent such as the 3 of ``"2.5e3"`` may be at most
    ``_MAX_EXPONENT`` in size.
    """
    if isinstance(value, (bool, float)):
        raise ValueError(f"coefficient must be an integer or a rational, got {_clip(value)}")
    if isinstance(value, int):
        return int(value)
    exponent = _EXPONENT_RE.search(value) if isinstance(value, str) else None
    if exponent is not None:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
            raise ValueError(f"coefficient exponent is above the cap {_MAX_EXPONENT}, got {_clip(value)}")
    try:
        c = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficient must be an integer or a rational, got {_clip(value)}") from exc
    return c.numerator if c.denominator == 1 else c


def _has_fraction(terms: dict) -> bool:
    return Fraction in map(type, terms.values())


def _int_first(terms: dict) -> dict:
    """Store integral ``Fraction`` coefficients back as ``int``, in place."""
    for exp, c in terms.items():
        if c.denominator == 1:
            terms[exp] = c.numerator
    return terms


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients.

    Coefficients are ``int``, or ``Fraction`` when not integral; floats
    and bools are rejected.  Terms live in ``_terms`` under packed keys
    (see the module docstring): the total degree in the top ``_W``-bit
    field, then one field per exponent.  Every term has total degree at
    most ``_MAX_DEGREE``.  ``terms`` is the exponent-tuple view of the
    same terms, decoded on each access.  The public constructor validates
    every term; arithmetic builds its results with :meth:`_trusted`.
    """

    __slots__ = ("names", "_terms")

    def __init__(self, names: Sequence[str], terms: dict[tuple[int, ...], Scalar]):
        names = tuple(names)
        pack, _ = _layout(len(names))
        clean: dict[int, Scalar] = {}
        for exp, coeff in terms.items():
            if any(type(e) is not int for e in exp):
                raise ValueError(f"exponents must be ints, got {exp!r}")
            if len(exp) != len(names):
                raise ValueError(f"exponent {exp} does not match {len(names)} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            degree = sum(exp)
            if degree > _MAX_DEGREE:
                raise ValueError(f"term degree {degree} is above the cap {_MAX_DEGREE}")
            c = _coefficient(coeff)
            if c != 0:
                key = pack(exp)
                clean[key] = clean.get(key, 0) + c
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_terms", _int_first({k: c for k, c in clean.items() if c != 0}))

    @classmethod
    def _trusted(cls, names: tuple[str, ...], terms: dict[int, Scalar]) -> "Poly":
        """Wrap packed terms this module produced, without validation.

        The caller guarantees what ``__init__`` would check: ``names`` is a
        tuple, every key is a packed key of that many variables, and every
        coefficient is nonzero and int-first.  No ``Poly`` mutates its
        dict, so ``terms`` may be shared with other polynomials.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "names", names)
        object.__setattr__(p, "_terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly._trusted, (self.names, self._terms)

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """The terms keyed by exponent tuple, decoded on each access."""
        _, unpack = _layout(len(self.names))
        return {unpack(k): c for k, c in self._terms.items()}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, names: Sequence[str] = ()) -> "Poly":
        return cls(names, {})

    @classmethod
    def const(cls, value: Scalar, names: Sequence[str] = ()) -> "Poly":
        c = _coefficient(value)
        return cls._trusted(tuple(names), {0: c} if c else {})

    @classmethod
    def variable(cls, name: str, names: Sequence[str]) -> "Poly":
        names = tuple(names)
        return cls._trusted(names, {_units(len(names))[names.index(name)]: 1})

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not any(self._terms)

    def constant_value(self) -> Scalar:
        if not self._terms:
            return 0
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self._terms.values()))

    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(self._terms) >> (_W * len(self.names))

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms, or None.

        None means either "not homogeneous" or "zero polynomial"; the zero
        polynomial is homogeneous of every degree (see is_homogeneous), so
        it cannot report a single value here.  Keys order by degree first,
        so the smallest and the largest key tell.
        """
        terms = self._terms
        if not terms:
            return None
        shift = _W * len(self.names)
        degree = max(terms) >> shift
        return degree if min(terms) >> shift == degree else None

    def is_homogeneous(self) -> bool:
        return self.is_zero or self.homogeneous_degree() is not None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _aligned(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if self.names == other.names:
            return self, other
        # a nameless poly is a constant, and key 0 is a constant in every ring
        if not self.names:
            return Poly._trusted(other.names, self._terms), other
        if not other.names:
            return self, Poly._trusted(self.names, other._terms)
        raise ValueError(f"variable sets differ: {self.names} vs {other.names}")

    @staticmethod
    def _coerce(value: "Poly | Scalar") -> "Poly":
        """Poly as is, a number as a constant (ValueError for floats and bools), else NotImplemented."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, float, Fraction)):
            return Poly.const(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        terms = dict(a._terms)
        get = terms.get
        for key, coeff in b._terms.items():
            c = get(key, 0) + coeff
            if c:
                terms[key] = c
            else:
                del terms[key]
        if _has_fraction(a._terms) or _has_fraction(b._terms):
            _int_first(terms)
        return Poly._trusted(a.names, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.names, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._aligned(other)
        a_terms, b_terms = a._terms, b._terms
        terms: dict[int, Scalar] = {}
        if a_terms and b_terms:
            _check_product_degree(a_terms, b_terms, _W * len(a.names))
            get = terms.get
            b_items = b_terms.items()
            for ka, ca in a_terms.items():
                for kb, cb in b_items:
                    key = ka + kb
                    c = get(key, 0) + ca * cb
                    if c:
                        terms[key] = c
                    else:
                        del terms[key]
            if _has_fraction(a_terms) or _has_fraction(b_terms):
                _int_first(terms)
        return Poly._trusted(a.names, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        degree = n * max(self.total_degree(), 0)
        if degree > _MAX_DEGREE:
            raise ValueError(f"power degree {degree} is above the cap {_MAX_DEGREE}")
        out = Poly.const(1, self.names)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        try:
            other = Poly._coerce(other)
        except ValueError:  # floats and bools are not coefficients, so never equal
            return NotImplemented
        if other is NotImplemented:
            return NotImplemented
        try:
            a, b = self._aligned(other)
        except ValueError:
            return False
        return a._terms == b._terms

    def __hash__(self) -> int:
        # constants compare equal to their value, so they hash like it
        if self.is_constant:
            return hash(self.constant_value())
        return hash(("Poly", self.names, tuple(sorted(self._terms.items()))))

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        keys = sorted(terms, reverse=True)
        const = terms.get(0)  # key 0 sorts last
        if const is not None:
            keys.pop()
        heads = [_UNIT_HEADS.get(c) or (f" + {c}*" if c > 0 else f" - {-c}*") for c in map(terms.__getitem__, keys)]
        parts = list(chain.from_iterable(zip(heads, _monomial_texts(self.names, keys))))
        if const is not None:
            parts.append(f" + {const}" if const > 0 else f" - {-const}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"Poly({self})"


def _checked_poly(value) -> Poly:
    """A matrix entry or coefficient from a caller as a Poly: a Poly as is, a number as a constant.

    Anything else raises ValueError; ``Poly._coerce`` returns NotImplemented
    for it instead, as the operator protocol needs.
    """
    if isinstance(value, Poly):
        return value
    p = Poly._coerce(value)
    if p is NotImplemented:
        raise ValueError(f"entry must be a polynomial or a number, got {type(value).__name__}")
    return p


def _one_ring(entries: Iterable[Iterable[Poly | Scalar]]) -> tuple[tuple[str, ...], tuple[tuple[Poly, ...], ...]]:
    """The ring of a matrix and its grid of entries as Polys, each nameless constant taking that ring on.

    Every entry with variables must have the same variable tuple, else
    ValueError naming the first two tuples met in row-major order.  A grid
    with no variables has the ring ``()``.  Entries nearly always share
    one tuple object, so each tuple is compared with the first nonempty
    one (``list.count`` tests identity first), and only a grid with a
    second ring pays for hashing the tuples.
    """
    grid = tuple(tuple(map(_checked_poly, row)) for row in entries)
    rings = list(map(attrgetter("names"), chain.from_iterable(grid)))
    names = next(filter(None, rings), ())
    nameless = rings.count(())
    if names and rings.count(names) + nameless != len(rings):
        first, second = [ring for ring in dict.fromkeys(rings) if ring][:2]
        raise ValueError(f"variable sets differ: {first} vs {second}")
    if names and nameless:
        grid = tuple(tuple(e if e.names else Poly._trusted(names, e._terms) for e in row) for row in grid)
    return names, grid


def _sum_of_products(pairs: Sequence[tuple[Poly, Poly]], names: tuple[str, ...]) -> Poly:
    """``Poly.zero(names) + a1*b1 + a2*b2 + ...`` over the (a, b) pairs of the ring of ``names``, in one dict.

    Every term product is added straight into the result, with no
    intermediate polynomial per product or per partial sum; the operand
    with fewer terms runs in the outer loop.  Each pair whose operands are
    both nonzero gets the degree check of ``*``, with its ValueError
    message: degrees add up to at most ``_MAX_DEGREE``.  Coefficients stay
    int-first and zero coefficients are dropped.
    """
    terms: dict[int, Scalar] = {}
    get, shift = terms.get, _W * len(names)
    for a, b in pairs:
        a_terms, b_terms = a._terms, b._terms
        if not a_terms or not b_terms:
            continue
        _check_product_degree(a_terms, b_terms, shift)
        if len(a_terms) > len(b_terms):
            a_terms, b_terms = b_terms, a_terms
        b_items = b_terms.items()
        for ka, ca in a_terms.items():
            for kb, cb in b_items:
                key = ka + kb
                c = get(key, 0) + ca * cb
                if c:
                    terms[key] = c
                else:
                    del terms[key]
    # a sum that met a Fraction holds a Fraction, integral or not
    if _has_fraction(terms):
        _int_first(terms)
    return Poly._trusted(names, terms)


def _int_forms(polys: Iterable[Poly], names: tuple[str, ...]) -> tuple[int, int] | None:
    """(largest degree, largest L1 norm) of the nonzero ``polys`` of the ring of ``names``, when each is an int-only form.

    None also when the ring has more than _MAX_DENSE_VARIABLES variables.
    """
    if len(names) > _MAX_DENSE_VARIABLES:
        return None
    degree, norm, shift = 0, 0, _W * len(names)
    for p in polys:
        terms = p._terms
        if not terms:
            continue
        # keys order by degree first, and a Fraction coefficient makes the norm a Fraction
        d, l1 = max(terms) >> shift, sum(map(abs, terms.values()))
        if min(terms) >> shift != d or type(l1) is not int:
            return None
        degree, norm = max(degree, d), max(norm, l1)
    return degree, norm


class _Dense(dict):
    """The codec phi of one ring, degree bound D and slot width s; see the module docstring.

    A dense form is (phi(P), degree of P), and (0, None) for zero.  As a
    dict it maps each packed key met so far to its weight 2**(s * idx).
    """

    __slots__ = ("names", "slot", "_shifts", "_base", "_unit")

    @classmethod
    def fit(cls, names: tuple[str, ...], degree: int, bound: int) -> "_Dense | None":
        """The codec for decoded forms of degree at most ``degree`` with coefficients at most ``bound``, if one fits.

        Its slots have 32 bits when ``bound`` is below 2**31, else 64.
        """
        n = len(names)
        if not 0 < n <= _MAX_DENSE_VARIABLES or degree > _MAX_DEGREE or bound >> 63:
            return None
        if (degree + 1) ** (n - 1) > _MAX_SLOTS:
            return None
        return cls(names, degree, 64 if bound >> 31 else 32)

    def __init__(self, names: tuple[str, ...], degree: int, slot: int):
        n = len(names)
        self.names, self.slot, self._base, self._unit = names, slot, degree + 1, _units(n)[-1]
        self._shifts = tuple(range(_W * (n - 1), 0, -_W))  # the fields of x1 .. x(n-1)

    def index(self, key: int) -> int:
        """The slot of the monomial ``key``: e1*b**(n-2) + ... + e(n-1)."""
        idx = 0
        for shift in self._shifts:
            idx = idx * self._base + (key >> shift & _MAX_DEGREE)
        return idx

    def __missing__(self, key: int) -> int:
        weight = self[key] = 1 << self.slot * self.index(key)
        return weight

    def encode(self, p: Poly) -> tuple[int, int | None]:
        """The dense form of ``p``, a form ``_int_forms`` accepted, so that any one key tells its degree."""
        terms = p._terms
        if not terms:
            return 0, None
        return sum(map(mul, terms.values(), map(self.__getitem__, terms))), next(iter(terms)) >> _W * len(p.names)

    def decode(self, form: tuple[int, int | None], names: tuple[str, ...]) -> Poly:
        value, degree = form
        if not value:
            return Poly._trusted(names, {})
        keys, offset, layout = _slot_table(self._shifts, self._base, self.slot)
        half, start = 1 << (self.slot - 1), degree * self._unit
        slots = layout.unpack((value + offset).to_bytes(layout.size, "little"))
        return Poly._trusted(names, {start + key: c - half for key, c in zip(keys, slots) if c != half})


@functools.lru_cache(maxsize=16)
def _slot_table(shifts: tuple[int, ...], base: int, slot: int) -> tuple[tuple[int, ...], int, struct.Struct]:
    """What decoding a box of base**len(shifts) slots of ``slot`` bits needs, built once per box and width.

    That is the key of each slot's monomial in degree 0 (degree d adds d
    times the unit of the last variable), 2**(slot - 1) in every slot, and
    the slots' layout.
    """
    keys = [0]
    for shift in shifts:
        steps = [((1 << shift) - 1) * e for e in range(base)]
        keys = [k + step for k in keys for step in steps]
    count = len(keys)
    offset = ((1 << slot * count) - 1) // ((1 << slot) - 1) << (slot - 1)
    return tuple(keys), offset, struct.Struct(f"<{count}{'I' if slot == 32 else 'Q'}")


def _fill(lines: Iterable[Sequence[Poly]], codec: _Dense) -> float:
    """Terms per slot of the nonzero polys in ``lines`` under ``codec``.

    A form's int spans the slots up to that of its largest key, idx + 1
    slots when the weight 2**(s * idx) of that key has s * idx + 1 bits.
    """
    forms = [p._terms for line in lines for p in line if p._terms]
    bits = sum(map(int.bit_length, map(codec.__getitem__, map(max, forms))))
    slots = (bits - len(forms)) // codec.slot + len(forms)
    return sum(map(len, forms)) / slots if slots else 1.0


def _dense_sum(pairs: Iterable[tuple[tuple, tuple]]) -> tuple[int, int | None] | None:
    """The dense form of sum(x * y) over pairs of dense forms; None when two nonzero products differ in degree."""
    total, degree = 0, None
    for (x, dx), (y, dy) in pairs:
        if x and y:
            if degree is None:
                degree = dx + dy
            elif dx + dy != degree:
                return None
            total += x * y
    return total, degree


def _entry_sum(row: Sequence[Poly], col: Sequence[Poly], names: tuple[str, ...]) -> Poly:
    """The kernel's entry of a product in the ring of ``names``: the sum over the k where ``row`` and ``col`` are both nonzero."""
    return _sum_of_products([(a, b) for a, b in zip(row, col) if a._terms and b._terms], names)


def variables(names: str | Sequence[str]) -> tuple[Poly, ...]:
    """Create generator polynomials, e.g. ``x, y = variables("x y")``."""
    names = tuple(names.split()) if isinstance(names, str) else tuple(names)
    return tuple(Poly.variable(n, names) for n in names)


def monomials(names: Sequence[str], degree: int) -> list[Poly]:
    """All monomials of the given total degree, in graded-lex order."""
    names = tuple(names)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slot: int) -> None:
        if slot == len(names) - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slot + 1)

    if degree < 0:
        return []
    if degree > _MAX_DEGREE:
        raise ValueError(f"degree {degree} is above the cap {_MAX_DEGREE}")
    if not names:
        return [Poly.const(1)] if degree == 0 else []
    rec([], degree, 0)
    pack, _ = _layout(len(names))
    return [Poly._trusted(names, {pack(exp): 1}) for exp in out]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def collect_names(text: str) -> set[str]:
    return set(_NAME_RE.findall(text))


@functools.lru_cache(maxsize=64)
def _steps(names: tuple[str, ...]) -> dict[str, int]:
    """Name -> the key of that variable alone, for parsing in the ring of ``names``.

    A factor ``v^k`` adds ``k * step[v]`` to a term's key, which puts k
    into v's exponent field and into the degree field.  The dict is
    shared by every caller and must not be changed.  More than
    ``_MAX_VARIABLES`` names raise ValueError before any key is built.
    """
    if len(names) > _MAX_VARIABLES:
        raise ValueError(f"{len(names)} variables; at most {_MAX_VARIABLES} are supported")
    return dict(zip(names, _units(len(names))))


def parse_poly(text: str, names: Sequence[str] | None = None) -> Poly:
    """Parse a human-readable polynomial like ``3*x1^2*x2 - x3``.

    The grammar is a signed sum of terms; each term is a '*'-separated
    product of rational constants and ``var`` or ``var^k`` factors; the
    constants are ASCII text without '_', and ``k`` is ASCII digits.  If
    ``names`` is omitted the variables are the identifiers found in the
    text, sorted.  A term of total degree above ``_MAX_DEGREE`` raises
    ValueError.
    """
    if names is None:
        names = sorted(collect_names(text))
    names = tuple(names)
    return _parse(text, names, _steps(names), {})


def _parse(
    text: str, names: tuple[str, ...], steps: dict[str, int], seen: dict[str, tuple[int, int, Scalar]]
) -> Poly:
    """``parse_poly`` with the variable table of ``names`` at hand; see there.

    ``seen`` maps each term text already read in the ring, without its
    sign, to its (key, degree, coefficient), so a text is read once per
    map; only terms that parsed are in it, so every error is raised where
    reading the text alone would raise it.  A term above the degree cap is
    reported only once the whole text has parsed, so every other error in
    the text comes first.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    # [sign, term, sign, term, ...], an implicit '+' before an unsigned first term
    pieces = _SIGN_RE.split(text if text[0] in "+-" else "+" + text)
    terms: dict[int, Scalar] = {}
    over_cap = None  # the degree of the first term above the cap
    for i in range(1, len(pieces), 2):
        chunk = pieces[i + 1]
        term = seen.get(chunk)
        if term is not None:
            key, degree, coeff = term
        else:
            if not chunk:
                raise ValueError(f"malformed polynomial: {_clip(text)}")
            coeff = 1
            key = degree = 0
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"malformed term {_clip(chunk)}")
                if factor[0].isdigit():
                    if not factor.isascii() or "_" in factor:
                        raise ValueError(f"coefficient must be written in ASCII without '_', got {_clip(factor)}")
                    coeff *= int(factor) if factor.isdigit() else _coefficient(factor)
                    continue
                if "^" in factor:
                    base, _, power = factor.partition("^")
                    if not _DIGITS_RE.fullmatch(power):
                        raise ValueError(f"exponent of {_clip(base)} must be ASCII digits, got {_clip(power)}")
                    k = int(power)
                else:
                    base, k = factor, 1
                step = steps.get(base)
                if step is None:
                    raise ValueError(f"unknown variable {_clip(base)}")
                key += k * step
                degree += k
            seen[chunk] = key, degree, coeff
        if degree > _MAX_DEGREE:
            if over_cap is None:
                over_cap = degree
        else:
            terms[key] = terms.get(key, 0) + (-coeff if pieces[i] == "-" else coeff)
    if over_cap is not None:
        raise ValueError(f"term degree {over_cap} is above the cap {_MAX_DEGREE}")
    terms = {key: c for key, c in terms.items() if c}
    if _has_fraction(terms):
        _int_first(terms)
    return Poly._trusted(names, terms)


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------


class PolyMatrix:
    """Immutable dense matrix of Poly entries of one ring, ``names``; see ``_one_ring``."""

    __slots__ = ("rows", "cols", "entries", "names")

    def __init__(self, entries: Sequence[Sequence[Poly | Scalar]]):
        names, grid = _one_ring(entries)
        if grid and any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("rows have inconsistent lengths")
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", len(grid[0]) if grid else 0)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __reduce__(self):
        return PolyMatrix, (self.entries,)

    @classmethod
    def identity(cls, n: int, names: Sequence[str] = ()) -> "PolyMatrix":
        one = Poly.const(1, names)
        zero = Poly.zero(names)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Poly:
        """0-based access."""
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Poly, ...]:
        return self.entries[i]

    def __iter__(self) -> Iterator[tuple[Poly, ...]]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        raise TypeError("PolyMatrix is unhashable")

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix addition")
        return PolyMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix([[-e for e in row] for row in self.entries])

    def scale(self, factor: Poly | Scalar) -> "PolyMatrix":
        return PolyMatrix([[e * factor for e in row] for row in self.entries])

    def _product_ring(self, other: "PolyMatrix") -> tuple[str, ...]:
        """The ring of ``self @ other``: ValueError when the sizes do not chain, then when the rings differ."""
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.names != other.names and self.names and other.names:
            raise ValueError(f"variable sets differ: {self.names} vs {other.names}")
        return self.names or other.names

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        names = self._product_ring(other)
        columns = tuple(zip(*other.entries))
        return PolyMatrix([[_entry_sum(row, col, names) for col in columns] for row in self.entries])

    def product_witness(self, other: "PolyMatrix") -> tuple[int, int, Poly] | None:
        """The first nonzero entry of ``self @ other`` in row-major order, as 0-based (i, j, entry); None when the product is zero.

        An entry over k pairs has degree at most d_A + d_B and coefficients
        at most the bound k * L_A * L_B.  When both sides are int forms,
        ``_Dense.fit`` takes those bounds and the fills of the two
        sides multiply to at least ``_MIN_FILL``, no product is built: each
        entry is tested on the Kronecker images of its operands, under a
        codec whose slots have the bit length s of the bound, and nothing
        is decoded.  The image of a nonzero form E of one degree is
        2**(s * idx) * (c + 2**s * m) for its lowest nonzero coefficient c
        and some int m, and 0 < |c| <= bound < 2**s, so it is not zero.
        Only an entry whose image is nonzero, or whose products differ in
        degree (``_dense_sum`` gives None), is summed by the kernel.  A
        bound of 0 means a side is all zero, and so is the product.
        Otherwise the whole product is built by ``@``, refusals included;
        sizes and rings are checked first, as ``@`` checks them.
        """
        names = self._product_ring(other)
        left = _int_forms(chain(*self.entries), names)
        right = left and _int_forms(chain(*other.entries), names)
        codec = None
        if right:
            bound = self.cols * left[1] * right[1]
            if not bound:
                return None
            degree = left[0] + right[0]
            if _Dense.fit(names, degree, bound) is not None:
                # the fill does not depend on the slot width, so the test codec routes too
                codec = _Dense(names, degree, bound.bit_length())
                if _fill(self.entries, codec) * _fill(other.entries, codec) < _MIN_FILL:
                    codec = None
        if codec is None:
            product = self @ other
            return next(((i, j, e) for i, row in enumerate(product) for j, e in enumerate(row) if e._terms), None)
        columns = tuple(zip(*other.entries))
        dense_cols = [list(map(codec.encode, col)) for col in columns]
        for i, row in enumerate(self.entries):
            r = list(map(codec.encode, row))
            for j, (col, c) in enumerate(zip(columns, dense_cols)):
                form = _dense_sum(zip(r, c))
                if form is None or form[0]:
                    value = _entry_sum(row, col, names)
                    if value._terms:
                        return i, j, value
        return None

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        """0-based row/column selection."""
        return PolyMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for row in self.entries for e in row)

    # -- determinants ---------------------------------------------------

    def determinant(self) -> Poly:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Poly.const(1, self.names)
        if self.is_constant:
            return Poly.const(self._bareiss_determinant(), self.names)
        memo: dict[tuple[int, ...], Poly] = {}
        return self._cofactor_det(tuple(range(self.rows)), tuple(range(self.cols)), memo)

    def _bareiss_determinant(self) -> Scalar:
        n = self.rows
        m = [[e.constant_value() for e in row] for row in self.entries]
        sign = 1
        prev = Fraction(1)
        for k in range(n - 1):
            if m[k][k] == 0:
                for r in range(k + 1, n):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def _cofactor_det(
        self,
        rows: tuple[int, ...],
        cols: tuple[int, ...],
        memo: dict[tuple[int, ...], Poly],
    ) -> Poly:
        if not rows:
            return Poly.const(1)
        key = rows + (-1,) + cols
        cached = memo.get(key)
        if cached is not None:
            return cached
        i = rows[0]
        rest = rows[1:]
        pairs = []
        for pos, j in enumerate(cols):
            e = self.entries[i][j]
            if e.is_zero:
                continue
            minor = self._cofactor_det(rest, cols[:pos] + cols[pos + 1 :], memo)
            pairs.append((e if pos % 2 == 0 else -e, minor))
        value = _sum_of_products(pairs, self.names)
        memo[key] = value
        return value

    def adjugate(self) -> "PolyMatrix":
        """Classical adjugate: adj(A) @ A = A @ adj(A) = det(A) * I."""
        if not self.is_square:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:  # the one minor is 0x0, whose matrix has lost the ring
            return PolyMatrix([[Poly.const(1, self.names)]])
        idx = tuple(range(n))
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                rows = tuple(r for r in idx if r != j)
                cols = tuple(c for c in idx if c != i)
                minor = self.submatrix(rows, cols).determinant()
                row.append(minor if (i + j) % 2 == 0 else -minor)
            out.append(row)
        return PolyMatrix(out)

    # -- display / encoding ----------------------------------------------

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def parse_matrix(
    rows: Sequence[Sequence[str | Scalar]], names: Sequence[str] | None = None
) -> PolyMatrix:
    """Parse a grid of polynomial strings / numbers with a shared variable set.

    Each distinct term text, without its sign, is read once per call.
    """
    if names is None:
        found: set[str] = set()
        for row in rows:
            for cell in row:
                if isinstance(cell, str):
                    found |= collect_names(cell)
        names = tuple(sorted(found))
    names = tuple(names)
    steps, seen = _steps(names), {}
    grid = []
    for row in rows:
        out = []
        for cell in row:
            if isinstance(cell, str):
                out.append(_parse(cell, names, steps, seen))
            else:
                out.append(Poly.const(cell, names))
        grid.append(out)
    return PolyMatrix(grid)

