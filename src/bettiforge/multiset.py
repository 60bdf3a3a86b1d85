"""Exact finite multisets of integers.

All degree bookkeeping in this package (generator degrees, syzygy twists,
socle degrees) is carried by finite multisets of integers.  Values may be
negative: bordered pfaffian presentations force twist slots below zero.
The representation is a run-length encoding sorted by value, so equality
is structural and JSON round-trips are canonical.
"""

from __future__ import annotations

from collections import Counter
from operator import add, and_, or_, sub
from typing import Callable, Iterable, Iterator, Sequence

from ._frozen import Frozen


def _sorted_runs(vals: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (value, multiplicity) runs of a sorted sequence of ints, without any check."""
    if not vals:
        return ()
    runs = []
    prev, count = vals[0], 0
    for v in vals:
        if v == prev:
            count += 1
        else:
            runs.append((prev, count))
            prev, count = v, 1
    runs.append((prev, count))
    return tuple(runs)


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
    """A multiset of integers stored as sorted ``(value, multiplicity)`` runs."""

    __slots__ = _fields = ("entries",)
    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()) -> None:
        prev = None
        for value, mult in entries:
            if type(value) is not int:
                raise ValueError(f"multiset values must be ints, got {value!r}")
            if type(mult) is not int:
                raise ValueError(f"multiplicity of {value} must be an int, got {mult!r}")
            if mult < 1:
                raise ValueError(f"multiplicity of {value} must be positive, got {mult}")
            if prev is not None and value <= prev:
                raise ValueError("entries must be strictly increasing by value")
            prev = value
        object.__setattr__(self, "entries", entries)

    # Frozen's equality and hash spelled out for the one field: they are
    # the hot pair, and bench/spans.py patches ``__eq__`` on this class.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "IntMultiset":
        """Run-length encoding of the sorted values; each must be a non-bool ``int``, else ValueError.

        The one check runs on the values themselves, in :func:`_sorted_ints`.
        The runs are then valid by construction (int values, strictly
        increasing after the sort, each counted at least once), so
        :func:`_sorted_runs` encodes them instead of ``__init__`` walking
        them again.
        """
        return cls._trusted(_sorted_runs(_sorted_ints(values)))

    @classmethod
    def _from_sorted(cls, vals: Sequence[int]) -> "IntMultiset":
        """Run-length encoding of a sorted sequence of ints, without any check.

        The :meth:`_trusted` contract holds: only for ints the package
        computed itself and has already sorted.  Outside values go through
        :meth:`from_values`.
        """
        return cls._trusted(_sorted_runs(vals))

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, int], ...]) -> "IntMultiset":
        """Wrap runs without validation.

        Only code that builds the runs itself may call it, and it must
        guarantee what ``__init__`` would check: int values strictly
        increasing, each with a positive int multiplicity.  That holds for
        :meth:`_from_sorted` on values :func:`_sorted_ints` has checked or
        the package computed itself, and for runs derived from other valid
        runs by steps that keep the order and drop zero counts (as
        :meth:`_combine` does).  Anything read from outside the package
        goes through the validating constructor.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def empty(cls) -> "IntMultiset":
        return cls(())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def multiplicity(self, value: int) -> int:
        for v, m in self.entries:
            if v == value:
                return m
            if v > value:
                break
        return 0

    def card(self) -> int:
        """Total element count |M|."""
        return sum(m for _, m in self.entries)

    def norm(self) -> int:
        """Weighted sum of values with multiplicity."""
        return sum(v * m for v, m in self.entries)

    def values(self) -> list[int]:
        """Expanded sorted list with repetitions, e.g. [3, 6, 6, 6]."""
        out: list[int] = []
        for v, m in self.entries:
            if m == 1:
                out.append(v)
            else:
                out.extend([v] * m)
        return out

    def min(self) -> int:
        if not self.entries:
            raise ValueError("empty multiset has no minimum")
        return self.entries[0][0]

    def max(self) -> int:
        if not self.entries:
            raise ValueError("empty multiset has no maximum")
        return self.entries[-1][0]

    def __len__(self) -> int:
        return self.card()

    def __iter__(self) -> Iterator[int]:
        return iter(self.values())

    def __contains__(self, value: int) -> bool:
        return self.multiplicity(value) > 0

    def __bool__(self) -> bool:
        return bool(self.entries)

    # ------------------------------------------------------------------
    # multiset algebra
    # ------------------------------------------------------------------

    def _combine(self, other: "IntMultiset", op: Callable[[Counter, Counter], Counter]) -> "IntMultiset":
        """``op`` on the two multisets as Counters.

        Counter's ``&``, ``|``, ``+`` and ``-`` keep only positive counts,
        so the sorted result is valid by construction and is wrapped with
        :meth:`_trusted`.
        """
        counts = op(Counter(dict(self.entries)), Counter(dict(other.entries)))
        return IntMultiset._trusted(tuple(sorted(counts.items())))

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
        return Counter(dict(self.entries)) <= Counter(dict(other.entries))

    def affine(self, n: int, sign: int) -> "IntMultiset":
        """Map every value y to n + sign*y, preserving multiplicities.

        ``sign`` must be +1 or -1.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == 1:
            return IntMultiset(tuple((n + v, m) for v, m in self.entries))
        return IntMultiset(tuple((n - v, m) for v, m in reversed(self.entries)))

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
        return "{{" + ",".join(str(v) for v in self.values()) + "}}"
