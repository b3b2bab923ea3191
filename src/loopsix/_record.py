"""Frozen ``__slots__`` records, the package's value classes.

They stand in for ``@dataclass(frozen=True)``: importing ``dataclasses``
pulls in ``inspect``, and each decorator ``exec``s its methods at start-up.
"""


class Frozen:
    """Fields in ``__slots__``, set once in ``__init__`` by ``object.__setattr__``
    or :meth:`_assign`; a dataclass ``repr``; identity equality (``eq=False``)."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__slots__]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._fields()


class Record(Frozen):
    """A frozen value: equal to a record of its class with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())
