"""Exact finite multisets of integers.

The package hands out generator degrees, syzygy twists and socle degrees
as finite multisets of integers.  The classifier in ``aci`` decides on
sorted tuples of ints and builds a multiset only when one is read.  Values
may be negative: bordered pfaffian presentations force twist slots below
zero.
A multiset stores the sorted tuple of its values, with repeats, so
equality is structural and JSON round-trips are canonical.
"""

from __future__ import annotations

from collections import Counter
from operator import add, and_, or_, sub
from typing import Callable, Iterable, Iterator

from ._frozen import Frozen


def _sorted_ints(values: Iterable[int]) -> list[int]:
    """One list of the values, sorted; each must be a non-bool ``int``, else ValueError.

    The check runs once, on the list as given, and the message shows that
    list unsorted.
    """
    vals = list(values)
    if not {int}.issuperset(map(type, vals)):
        raise ValueError(f"multiset values must be ints, got {vals!r}")
    vals.sort()
    return vals


class IntMultiset(Frozen):
    """A multiset of integers stored as the sorted tuple of its values, e.g. ``(3, 6, 6, 6)``."""

    __slots__ = _fields = ("vals",)
    vals: tuple[int, ...]

    def __init__(self, values: Iterable[int] = ()) -> None:
        """The multiset of these values; each must be a non-bool ``int``, else ValueError."""
        object.__setattr__(self, "vals", tuple(_sorted_ints(values)))

    # Frozen's equality and hash spelled out for the one field:
    # bench/spans.py patches ``__eq__`` on this class.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.vals == other.vals
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vals,))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntMultiset":
        """The multiset of these values: the constructor under its documented name."""
        return cls(values)

    @classmethod
    def empty(cls) -> "IntMultiset":
        return cls(())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def multiplicity(self, value: int) -> int:
        return self.vals.count(value)

    def card(self) -> int:
        """Total element count |M|."""
        return len(self.vals)

    def norm(self) -> int:
        """Weighted sum of values with multiplicity."""
        return sum(self.vals)

    def values(self) -> list[int]:
        """Expanded sorted list with repetitions, e.g. [3, 6, 6, 6]."""
        return list(self.vals)

    def __len__(self) -> int:
        return self.card()

    def __iter__(self) -> Iterator[int]:
        return iter(self.vals)

    def __contains__(self, value: int) -> bool:
        return self.multiplicity(value) > 0

    def __bool__(self) -> bool:
        return bool(self.vals)

    # ------------------------------------------------------------------
    # multiset algebra
    # ------------------------------------------------------------------

    def _combine(self, other: "IntMultiset", op: Callable[[Counter, Counter], Counter]) -> "IntMultiset":
        """``op`` on the two multisets as Counters.

        Counter's ``&``, ``|``, ``+`` and ``-`` keep only positive counts, so
        ``elements()`` lists each value as often as the result holds it.
        """
        return IntMultiset(op(Counter(self.vals), Counter(other.vals)).elements())

    def intersect(self, other: "IntMultiset") -> "IntMultiset":
        """Value-wise minimum of multiplicities."""
        return self._combine(other, and_)

    def union(self, other: "IntMultiset") -> "IntMultiset":
        """Value-wise maximum of multiplicities."""
        return self._combine(other, or_)

    def sum(self, other: "IntMultiset") -> "IntMultiset":
        """Disjoint union: multiplicities add."""
        return self._combine(other, add)

    def diff(self, other: "IntMultiset") -> "IntMultiset":
        """Truncated difference: keeps value v with multiplicity max(0, m_self - m_other)."""
        return self._combine(other, sub)

    def is_submultiset(self, other: "IntMultiset") -> bool:
        return Counter(self.vals) <= Counter(other.vals)

    def affine(self, n: int, sign: int) -> "IntMultiset":
        """Map every value y to n + sign*y, preserving multiplicities.

        ``sign`` must be +1 or -1.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return IntMultiset([n + sign * v for v in self.vals])

    __and__ = intersect
    __or__ = union
    __add__ = sum
    __sub__ = diff
    __le__ = is_submultiset

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def to_list(self) -> list[int]:
        return self.values()

    def __str__(self) -> str:
        return "{{" + ",".join(str(v) for v in self.vals) + "}}"
