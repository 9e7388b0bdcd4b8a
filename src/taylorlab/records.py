"""Immutable record bases for the package's value types.

A ``Record`` is a value, held as the tuple of its fields in ``_fields``
order: its class's ``__new__`` checks them and calls ``tuple.__new__``, and
each field reads by name through a property made once per class (generating
methods with ``exec`` cost about 1 ms per class at import). A ``Frozen``
record holds arrays or dicts in ``__dict__``, set once by its ``__init__``,
and compares by identity; unlike a tuple, it can be weakly referenced.
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


# the tuple's own ordering method for each operator
_ORDER = {"<": tuple.__lt__, "<=": tuple.__le__, ">": tuple.__gt__, ">=": tuple.__ge__}


# The method for ``op``: ``by_fields`` against a record of the same class, if
# given, else the TypeError Python raises for operands with no order. A tuple
# operand is refused here, since returning NotImplemented would hand the
# comparison to the tuple, which compares by items.
def _ordering(op: str, by_fields=None):
    def compare(self, other):
        if by_fields is not None and other.__class__ is self.__class__:
            return by_fields(self, other)
        if isinstance(other, tuple):
            raise TypeError(f"'{op}' not supported between instances of "
                            f"{type(self).__name__!r} and {type(other).__name__!r}")
        return NotImplemented

    return compare


def ordered(cls):
    """Class decorator: order a ``Record`` class by its fields in order."""
    cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = (_ordering(*kv) for kv in _ORDER.items())
    return cls


class Record(Frozen, tuple):
    """Frozen record held as the tuple of its fields, which a hot loop may
    build with ``tuple.__new__(cls, values)`` and unpack. It equals only a
    record of its class with equal fields, hashes as their tuple, and has
    no order unless its class is ``ordered``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    # A plain tuple operand gets its answer here, as in _ordering.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __lt__, __le__, __gt__, __ge__ = map(_ordering, _ORDER)
    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild the record through the class's own __new__
        return tuple(self)
