"""
The bases of the package's value classes.

Each value class names its fields in ``__match_args__``, in constructor
order, and writes its own ``__init__``; these bases give it what a
dataclass would: a repr of its fields, ``==`` (same class, equal fields)
and pickling by a call of the constructor.  A frozen class refuses
assignment and deletion with an ``AttributeError`` and hashes as the tuple
of its fields; the others are unhashable.  A class keeps its fields in
``__slots__``, so that no instance has a ``__dict__``: a value holds its
fields and nothing else.  The package does not use ``dataclasses``: it
loads ``inspect`` and ``ast``, and it compiles each class's methods at
import, which together took about a quarter of a one-shot CLI call's
import.
"""

from __future__ import annotations

__all__ = ["Record", "FrozenRecord", "set_field"]

# How a frozen class's own code writes a field.  One global name saves the
# attribute lookup of ``object.__setattr__`` on every field write of the hot
# constructors: with it, PerfectMatching, MatchStats and StatRecord take
# 484, 863 and 971 ns a call, against 566, 990 and 1103 ns with
# ``object.__setattr__`` spelled out (timeit: best of 9 runs of 200,000
# calls, median over 6 fresh interpreters; Python 3.11.7, 2-core Xeon).
set_field = object.__setattr__


class Record:
    """A mutable record: repr, ``==`` and pickling from ``__match_args__``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class FrozenRecord(Record):
    """A record hashed as the tuple of its fields, which refuses assignment
    and deletion as a frozen dataclass does; its own code writes a field
    with ``set_field``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
