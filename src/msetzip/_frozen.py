"""The one base of the package's immutable value types.

A subclass names its fields in __slots__, in constructor order, and its
own __init__ runs its checks and then sets them all with _set.
The base gives it what a frozen dataclass would, written once as plain
methods rather than generated per class at import:

  * equality and hash over the field values, a value of another class
    never equal;
  * the repr Name(field=value, ...);
  * AttributeError on setting or deleting any attribute;
  * copy and pickle through __reduce__, which rebuilds the value by
    calling the class on its fields.  The default restore of slot state
    would set them through the refusing __setattr__.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # every class's slots, base first, as a dataclass orders inherited fields
        fields = cls.__match_args__ = tuple(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())
        )
        # _astuple(value) is the tuple of its fields, read in one C call
        # where attrgetter gives a tuple, for two names or more
        cls._astuple = staticmethod(
            attrgetter(*fields)
            if len(fields) > 1
            else lambda value: tuple([getattr(value, name) for name in fields])
        )

    def _set(self, *values) -> None:
        """Set the fields, in __slots__ order, past the refusing __setattr__."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        astuple = self._astuple
        return astuple(self) == astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple(self)
