"""Immutable record bases for the package's value types.

Each record class names its fields in ``_fields`` and sets them once, in
its own ``__init__``, through ``self.__dict__``; assigning to an attribute
afterwards raises ``AttributeError``. The methods are written out, not
generated: generating them runs ``exec`` per class, which cost about 1 ms
per class at import.
"""

from __future__ import annotations

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
