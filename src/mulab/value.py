"""Value classes written out by hand: no code is generated at import.

A subclass of ``Value`` names its fields in ``_fields`` and writes them
in its own ``__init__`` with ``setfield``.  From ``Value`` it gets:

* ``==`` over those fields, only with an instance of the very same
  class.  Nested values and tuples are opened from an explicit stack,
  so two separately built chains of any depth compare without recursion;
* ``hash`` of the tuple of those fields, so equal values hash alike;
* a repr that names them, as in ``Found(index=3)``;
* a refusal to assign or delete attributes: both raise
  ``FrozenInstanceError``.

A field left out of ``_fields`` (a cache worked out from the others, or
a record that ``==`` reads another way) is invisible to all three.  The
class keyword ``eq=False`` keeps object identity for ``==`` and ``hash``.
"""

from __future__ import annotations

__all__ = ["Value", "FrozenInstanceError", "setfield"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion from, a frozen value."""


# writes a field of a frozen value; only an __init__ should call it
setfield = object.__setattr__


class Value:
    """Base of the value classes; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # pairs still to compare, leftmost on top, as tuple == would go
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            t = type(a)
            if t is not type(b):
                if not a == b:
                    return False
            elif t is tuple:
                if len(a) != len(b):
                    return False
                stack += zip(reversed(a), reversed(b))
            elif t.__eq__ is Value.__eq__:
                stack += zip(reversed(a._values()), reversed(b._values()))
            elif not a == b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
