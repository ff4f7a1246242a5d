"""Exception types shared across the toolkit.

Parse-time problems raise :class:`MrParseError` (or its
:class:`UnsupportedConstructError` refinement); runtime problems inside an
environment raise :class:`MrExecError` with a stable machine-readable
``code``.  Harness code catches ``MrExecError`` and turns it into a captured
execution-failure outcome instead of crashing a batch run.  A completion
client failure (:class:`CacheMissError`, :class:`TransportError`) is the
harness's, not the model's: scoring books it as the verdict ``harness-error``.
"""

from __future__ import annotations


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


class PoolExhaustedError(SemkitError):
    """More items were requested than the pool can provide."""


class CacheMissError(SemkitError):
    """A replay lookup found no cached completion."""

    def __init__(self, fingerprint: str):
        self.fingerprint = fingerprint
        super().__init__(f"no cached completion for fingerprint {fingerprint}")


class TransportError(SemkitError):
    """The completion endpoint could not be reached or answered garbage."""
