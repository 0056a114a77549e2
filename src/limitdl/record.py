"""The one base of the library's record classes.

A record is a plain class that names its fields in ``__match_args__``,
declares them in ``__slots__`` and sets them in an explicit ``__init__``;
`Record` gives it equality, hashing, ``repr`` and pickling from those
names, so no class needs generated methods.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable


def _fields_getter(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """The method that returns the tuple of the named fields."""
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


class Record:
    """Two records are equal when they have the same class and equal keys.
    A record's key is the tuple of its fields in ``__match_args__`` order,
    unless its class defines ``_key`` to leave some fields out.  The hash is
    the hash of the key, cached in the ``_hash`` slot on first use.

    An immutable record sets ``_hash = None`` in its ``__init__`` (a record
    without fields inherits the one below) and never assigns a field
    afterwards, nor a cache slot outside its accessor (tests/test_values.py
    checks the source; nothing checks at run time, where a guard would cost
    more than the caches save).  A mutable record sets ``__hash__ = None``
    instead and is unhashable."""

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__match_args__" in cls.__dict__ and "_key" not in cls.__dict__:
            cls._key = _fields_getter(cls.__match_args__)

    def __init__(self) -> None:
        self._hash = None

    def _key(self) -> tuple:
        return ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key())
        return h

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(self.__match_args__,
                                         self._fields())) + ")"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()  # the cached hash is not carried
