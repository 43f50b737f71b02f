"""Value classes on one base class: no code is generated at import.

A subclass of ``Value`` names its fields in ``_fields``.  From ``Value``
it gets:

* a constructor that takes the fields positionally, in that order, and
  only so: a call with another number of arguments, or with a field by
  name, raises ``TypeError``.  Each field lands in the instance's own
  ``__dict__``;
* ``==`` over those fields, only with an instance of the very same
  class;
* ``hash`` of the tuple of those fields, so equal values hash alike;
* a repr that names them, as in ``Found(index=3)``;
* a refusal to assign or delete attributes: both raise
  ``FrozenInstanceError``.

``==``, ``hash`` and repr open nested values and tuples from an explicit
stack, so a chain of any depth compares, hashes and prints without
recursion.

A class that checks its fields or works out more from them keeps an
``__init__`` of its own: it checks its arguments, then writes its fields
through ``Value.__init__``.  The formula nodes of ``mulab.formulas``
(and ``RuleStep``, and ``Quant`` after its check) write theirs out with
``setfield``, in ``_fields`` order, and take defaults and names through
their own signatures: a normalize run builds thousands, and the generic
constructor's loop costs more than the writes.
A field left out of ``_fields`` (a cache worked out from the others, or
a record that ``==`` reads another way) is written with ``setfield`` and
is invisible to ``==``, ``hash`` and repr.  The class keyword
``eq=False`` keeps object identity for ``==`` and ``hash``.
"""

from __future__ import annotations

__all__ = ["Value", "FrozenInstanceError", "setfield"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion from, a frozen value."""


# writes a field of a frozen value; only an __init__ should call it, or
# code that works out a cache lazily, as the normalizer keeps each
# formula node's rule summary
setfield = object.__setattr__


def _nested(x: object) -> bool:
    """Whether ``hash`` opens ``x`` from its stack: a tuple, or a value
    hashed over its fields."""
    return type(x) is tuple or type(x).__hash__ is Value.__hash__


class _Hashed:
    """Stands in a tuple for a value or tuple whose hash is known: a tuple
    hashes the hashes of its items, so it hashes alike either way."""

    __slots__ = ("hash",)

    def __init__(self, h: int) -> None:
        self.hash = h

    def __hash__(self) -> int:
        return self.hash


class Value:
    """Base of the value classes; see the module docstring."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args) -> None:
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                            f"arguments but {len(args)} were given")
        # not self.__dict__.update: reading __dict__ turns the instance's
        # inline attribute values into a dict, which is larger and slower
        # to read from
        for name, value in zip(fields, args):
            setfield(self, name, value)

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
        # the field tuples of every nested value, and the nested tuples,
        # parents before children, leftmost first
        order, stack = [], [self._values()]
        while stack:
            items = stack.pop()
            order.append(items)
            stack += [x if type(x) is tuple else x._values()
                      for x in reversed(items) if _nested(x)]
        # children before parents: each leaves its hash on `hashes`, and
        # its parent takes them back leftmost first
        hashes = []
        for items in reversed(order):
            hashes.append(hash(tuple([_Hashed(hashes.pop()) if _nested(x)
                                      else x for x in items])))
        return hashes[0]

    def __repr__(self) -> str:
        # text still to write, and (x,) for an object x still to show
        parts, stack = [], [(self,)]
        while stack:
            top = stack.pop()
            if type(top) is str:
                parts.append(top)
                continue
            x, = top
            t = type(x)
            if t is tuple:
                opening, closing = "(", ",)" if len(x) == 1 else ")"
                shown = [("", item) for item in x]
            elif t.__repr__ is Value.__repr__:
                opening, closing = f"{t.__qualname__}(", ")"
                shown = [(f"{name}=", getattr(x, name)) for name in x._fields]
            else:
                parts.append(repr(x))
                continue
            pieces = [opening]
            for i, (label, item) in enumerate(shown):
                pieces += [f", {label}" if i else label, (item,)]
            pieces.append(closing)
            stack += reversed(pieces)
        return "".join(parts)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
