"""Frozen value classes built from plain methods.

``dataclasses`` would cost about half of the CLI's start-up: importing it
loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated
class execs generated code.  :class:`Frozen` gives the value behaviour
the package's result and data classes need:

* equality and hashing by (class, field tuple), the hash being that of
  the field tuple;
* the repr ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``;
* pickling and deep copies set the fields directly, so an unpickled
  object does not rerun its class's validation.

A subclass lists its fields in order in ``_fields``, the order of its
annotations.  :class:`Frozen`'s own ``__init__`` takes one positional
argument per field and stores them unchecked; a class whose values need
checking, or that is built once per decision on a hot path, defines its
own ``__init__``, which sets each field with ``object.__setattr__``.
"""

from __future__ import annotations


def _rebuild(cls: type, values: tuple) -> "Frozen":
    """The object of class ``cls`` with these field values, built without ``cls.__init__``."""
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


class Frozen:
    """Base of the immutable value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(self._fields)} arguments, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return _rebuild, (self.__class__, self._astuple())
