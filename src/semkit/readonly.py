"""Read-only collections for the environment worlds.

Each environment loader hands out every collection it built as a
:class:`ReadOnlyList`, so a program can read a world but never change what a
later program, gold programs included, is run against.  That makes
``run_program`` a pure function of (dialect, text, world).
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
