"""``Record``: the base of the slotted records.

A record whose fields are never reassigned is a ``collections.namedtuple``,
a value that equal ones can share when hashable (``Sonum``, ``DurationToken``,
``Parameters``). One that is changed after it is built (``Columna``) or that
checks its fields (``RenderConfig``) lists its fields in order as its
``__slots__``, writes its own ``__init__`` and gets from ``Record`` a repr
naming the fields and field-wise ``==`` (so it is unhashable). Neither kind
imports ``dataclasses`` or ``typing``, which cost start-up time.

``Memo`` is not a record: it is the writers' table of formatted fragments,
each built on first use and then shared.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Memo(dict):
    """``func(key)`` for each key, computed on first use and kept."""

    __slots__ = ("func",)

    def __init__(self, func) -> None:
        self.func = func

    def __missing__(self, key):
        value = self[key] = self.func(key)
        return value
