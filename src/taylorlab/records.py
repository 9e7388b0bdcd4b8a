"""Immutable record bases for the package's value types.

Each record class names its fields in ``_fields`` and sets them once, in
its own ``__init__``, through ``self.__dict__``; assigning to an attribute
afterwards raises ``AttributeError``. The methods are written out, not
generated: generating them runs ``exec`` per class, which cost about 1 ms
per class at import. A ``TupleRecord`` holds its fields as a tuple instead,
for the records built by the hundred per request.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and value.__class__ is not bool


class Frozen:
    """Immutable record compared by identity; ``repr`` lists its fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Record(Frozen):
    """Frozen record with value equality and hash over its fields in order."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class TupleRecord(Frozen, tuple):
    """Frozen record held as the tuple of its fields in order, so that a hot
    loop builds one with ``tuple.__new__(cls, values)``, skipping the class's
    checks, and unpacks it like a tuple. Otherwise it behaves as a
    ``Record``: fields read by name, value equality only with its own class
    (never with a plain tuple), no ordering, and the hash of its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    # A plain tuple operand gets an answer here: returning NotImplemented
    # would hand the comparison to the tuple, which compares by items.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} records have no order")

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild the record through the class's own __new__
        return tuple(self)
