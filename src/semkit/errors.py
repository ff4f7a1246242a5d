"""Exception types shared across the toolkit.

Parse-time problems raise :class:`MrParseError` (or its
:class:`UnsupportedConstructError` refinement); runtime problems inside an
environment raise :class:`MrExecError` with a stable machine-readable
``code``.  :func:`semkit.execute.run_program` catches both and turns them into
captured failure outcomes instead of crashing a batch run.  A completion
client failure (:class:`CacheMissError`, :class:`TransportError`) is the
harness's, not the model's: scoring books it as the verdict ``harness-error``.
"""

from __future__ import annotations

from types import BuiltinMethodType, FunctionType, MethodType, ModuleType


class SemkitError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(SemkitError):
    """A data file violates its documented schema or an invariant."""


class MrParseError(SemkitError):
    """A meaning-representation text failed to parse."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at position {position})"
        super().__init__(message + where)


# The FunQL, λ-DCS and Dataflow-Simple readers reject an opening bracket that
# nests deeper than this with a parse error at its position; the pymr check
# rejects a statement or expression nested deeper, at its line.
MAX_DEPTH = 100
TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"


class UnsupportedConstructError(MrParseError):
    """A program uses a construct outside the supported subset."""

    def __init__(self, construct: str, message: str | None = None, line: int | None = None):
        self.construct = construct
        super().__init__(message or f"unsupported construct: {construct}", line=line)


class MrExecError(SemkitError):
    """A program failed while executing against an environment.

    ``code`` is one of a small stable vocabulary, e.g. ``name-not-found``,
    ``attribute-not-found``, ``type-mismatch``, ``index-out-of-range``,
    ``unknown-person``, ``unresolvable-constraint``, ``unknown-property``,
    ``conflicting-clause``, ``invalid-datetime``, ``arity``,
    ``unsupported-construct``, ``read-only``.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


_DISPLAYS = {list: "[{}]", tuple: "({})", set: "{{{}}}", frozenset: "frozenset({{{}}})"}


def shown(value, _within=()) -> str:
    """``value`` as a failure message shows it: its repr, or, for values whose repr
    holds a memory address or a module path (objects with the default repr, classes
    outside ``builtins``, functions, methods of builtin or default-repr objects), its
    class's or its own qualified name, which is the same in every process.  A list,
    tuple or set shows its items so (a set holding such an item sorts them, as their
    order may follow their addresses), and one within itself (``_within``) as repr does.
    An int wider than 14284 bits shows its width, not its digits."""
    if (isinstance(value, (type, FunctionType)) and value.__module__ != "builtins"
            or isinstance(value, BuiltinMethodType) and not isinstance(value.__self__, ModuleType)
            or isinstance(value, MethodType) and type(value.__self__).__repr__ is object.__repr__):
        return value.__qualname__
    kind = type(value)
    if kind.__repr__ is object.__repr__:
        return kind.__qualname__
    if kind is int and value.bit_length() > 14284:  # at most 4300 digits, str()'s default limit
        return f"<int of {value.bit_length()} bits>"
    if kind not in _DISPLAYS:
        return repr(value)
    if id(value) in _within:
        return _DISPLAYS[kind].format("...")
    items = [shown(item, (*_within, id(value))) for item in value]
    if kind is set or kind is frozenset:
        if not items:  # set() or frozenset()
            return repr(value)
        if items != [shown(item) if type(item) is int else repr(item) for item in value]:
            items.sort()  # a renamed item: the set's order may follow its address
    return _DISPLAYS[kind].format(", ".join(items) + "," * (kind is tuple and len(items) == 1))


class PoolExhaustedError(SemkitError):
    """More items were requested than the pool can provide."""


class CacheMissError(SemkitError):
    """A replay lookup found no cached completion."""

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        super().__init__(f"no cached completion for fingerprint {fingerprint}")


class TransportError(SemkitError):
    """The completion endpoint could not be reached or answered garbage."""
