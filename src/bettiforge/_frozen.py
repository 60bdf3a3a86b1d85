"""Frozen value classes built from plain methods.

``dataclasses`` would cost about half of the CLI's start-up: importing it
loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated
class execs generated code.  Two small bases give the package's result
and data classes their value behaviour:

* equality by (class, field tuple), so a value is unequal to another
  class with the same fields and to the plain tuple of its fields, and
  the hash is that of the field tuple;
* the repr ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``;
* pickling and copies set the fields directly, so a loaded object does
  not rerun its class's validation.  A pickle names the class's fields,
  and one whose names differ from the class's ``_fields`` is refused.

Both list their fields in order in ``_fields``, the order of their
annotations: a :class:`Frozen` class spells it out, and :class:`Record`
reads it from the annotations.

:class:`Record` is a tuple of its fields, built with one ``tuple.__new__``
call and read through C-level field descriptors, as ``typing.NamedTuple``
is.  The four classes built on every decision are records: ``AciBetti``,
``Verdict``, ``AciTypeFailure`` and ``GorensteinFailure``.  A record's
own ``__new__`` checks its arguments, if any, and builds it.  A record
also unpacks, indexes and iterates in field order; it refuses ordering
comparisons, which as tuple order would disagree with ``AciBetti.key``.

:class:`Frozen` stores its fields in slots.  Its own ``__init__`` takes
one positional argument per field and stores them unchecked; a class
whose values need checking defines its own ``__init__``, which sets each
field with ``object.__setattr__``.  ``IntMultiset`` stays a
:class:`Frozen`: as a one-field tuple, ``len``, ``in`` and iteration
would act on the field, not on the multiset's values.
"""

from __future__ import annotations

from collections import _tuplegetter  # the field descriptor of typing.NamedTuple


def _rebuild(cls: type, fields: tuple[str, ...], values: tuple) -> "_Value":
    """The object of class ``cls`` with these field values, built without validation.

    ``fields`` are the field names the object was pickled with; they must
    be the class's ``_fields``, else TypeError.
    """
    if fields != cls._fields:
        raise TypeError(f"cannot load a {cls.__qualname__} pickled with fields {fields!r}: the class has {cls._fields!r}")
    if issubclass(cls, tuple):
        return tuple.__new__(cls, values)
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


class _Value:
    """The rules :class:`Frozen` and :class:`Record` share: repr, immutability and pickling."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _rebuild, (self.__class__, self._fields, self._astuple())


class Frozen(_Value):
    """Base of the immutable value classes that store their fields in slots; see the module docstring."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(self._fields)} arguments, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())


def _unordered(op: str):
    def refuse(self: tuple, other: object) -> bool:
        raise TypeError(f"{op!r} not supported between instances of {type(self).__name__!r} and {type(other).__name__!r}")

    return refuse


class Record(_Value, tuple):
    """Base of the immutable value classes that are tuples of their fields; see the module docstring.

    A subclass declares ``__slots__ = ()``, annotates its fields in order
    and defines ``__new__``, which builds the object with
    ``tuple.__new__(cls, (field, ...))``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    # Another tuple gets an answer here: NotImplemented would hand the
    # comparison to tuple's, which compares the fields of any two tuples.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
    __lt__ = _unordered("<")
    __le__ = _unordered("<=")
    __gt__ = _unordered(">")
    __ge__ = _unordered(">=")
