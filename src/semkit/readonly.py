"""Read-only collections for the environment worlds, and the base of immutable records.

Each environment loader hands out every collection it built as a
:class:`ReadOnlyList`, so a program can read a world but never change what a
later program, gold programs included, is run against.  That makes
``run_program`` a pure function of (dialect, text, world).  A record that must
not be a tuple and must not change once built derives from :class:`Frozen`, or from
:class:`Value` when it compares by its fields.
"""

from __future__ import annotations

from .errors import MrExecError


class ReadOnlyList(list):
    """A ``list`` whose mutators raise :class:`MrExecError` ``read-only``.

    Indexing, ``+``, ``len``, ``sorted``, equality and ``isinstance(x, list)``
    behave as for any list; ``list(x)`` and ``sorted(x)`` give a private copy
    that may be mutated.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise MrExecError("read-only", "environment collections are read-only; "
                                       "list(...) makes a private copy")

    append = extend = insert = remove = pop = clear = sort = reverse = _refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse

    def __reduce__(self):  # copy and pickle rebuild from the items, not by appending
        return ReadOnlyList, (list(self),)


class Frozen:
    """Base of an immutable ``__slots__`` record.  A subclass's ``__init__`` sets each field
    once, through ``object.__setattr__``; after that, assigning or deleting an attribute
    raises ``AttributeError``.  Copy and pickle restore the fields the same way.  A frozen
    record compares by identity; a :class:`Value` by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # (None, {slot: value}), as object.__reduce_ex__ gives it
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Value(Frozen):
    """A frozen record that compares and hashes as the tuple of its fields, against records
    of its own class only, and shows itself as ``Name(field=value, ...)``.  Its fields are
    its class's ``_fields``, which default to its ``__slots__``; a slot left out of
    ``_fields`` (a map derived from the fields, say) takes no part in eq, hash or repr."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
