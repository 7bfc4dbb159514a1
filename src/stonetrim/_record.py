"""Base classes for the package's small value types.

A ``Record`` subclass names its compared fields in ``_compare`` and gets
equality over them, checked class for class; ``_show`` names the fields its
repr shows (the compared ones unless given).  A mutable record is unhashable.
A ``Frozen`` record hashes the tuple of its compared fields and rejects
assignment after ``__init__``, which fills its ``__slots__`` in order with
``_fill``; copies and pickles of it are rebuilt through ``__init__``.
These are the methods a generated record class would have.  The standard
library's generator is not used because importing it (and with it
``inspect``) costs more start-up than the package's own order core.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _compare: tuple[str, ...] = ()
    _show: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._compare
        if not names:
            return
        get = attrgetter(*names)
        cls._key = staticmethod(
            get if len(names) > 1 else lambda self: (get(self),))
        if "_show" not in cls.__dict__:
            cls._show = names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # a tuple compares an item with itself by identity, so this is the
        # same answer as comparing the field tuples
        if self is other:
            return True
        key = self._key
        return key(self) == key(other)

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._show)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
