"""Base of the immutable ``__slots__`` records whose equality is not a tuple's.

A subclass lists its fields in ``__slots__`` and sets them in ``__init__``
with ``_fill``.  Equality and hash read every slot but those named by the
class keyword ``ignore``, so an ignored field (a provenance note, a cached
value) never splits two equal records.
The slots without a leading underscore are the public fields: ``__init__``
takes them in ``__slots__`` order, and the repr and pickling use them.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, ignore: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key_of = staticmethod(attrgetter(*[n for n in cls.__slots__ if n not in ignore]))
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def _fill(self, *values: object) -> None:
        """Set every slot, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key_of(self) == self._key_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return (type(self), tuple(getattr(self, n) for n in self._fields))
