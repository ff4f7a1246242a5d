"""The dialect registry: parse, execute and extract operators for any MR dialect.

:data:`DIALECTS` holds, per dialect, the environment it runs against, the
interpreter module it needs and its parse and execute steps; every interpreter
module's ``extract_operators`` gives a program's operator set.
:data:`ENVIRONMENTS` names each environment's loader module and function; that
module also declares the environment's pymr surface, ``PYMR``.  A module named
here is imported on the first call that needs it, so a process compiles only the
interpreters and worlds it runs.  Programs arrive as text.  An interpreter's
``exec_*`` returns its :class:`~semkit.outcomes.Denotation` or
:class:`~semkit.outcomes.WorldDelta`, or raises; :func:`run_program` is the one
place that turns either into an :class:`~semkit.outcomes.Outcome`, so failures
of any kind (parse or runtime) come back as captured failures.  Pairing a dialect
with the wrong environment raises :class:`SemkitError`.

:func:`load_environment` parses a world file once per process while its bytes
are unchanged (:func:`semkit.resources.parsed`): every caller with that path
gets the same world object, which pays off where one process runs several
experiments against it.  Loaded worlds are shared and read-only by contract;
their lists refuse changes, so no program run can alter them.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from . import resources
from .errors import SemkitError
from .outcomes import Outcome

# environment -> (loader module, loader function)
ENVIRONMENTS = {
    "geo": ("semkit.geo", "load_geobase"),
    "social": ("semkit.social", "load_social_db"),
    "calendar": ("semkit.calflow", "load_world"),
}


@dataclass(frozen=True)
class Dialect:
    environment: str | None  # None: runs against any environment
    module: str  # the interpreter module, handed to each step as ``m``
    parse: Callable  # (m, text) -> ast
    execute: Callable  # (m, ast, environment, env_object) -> Denotation | WorldDelta, or raises


# Steps look the interpreter functions up on their module at call time, so a
# rebound module attribute (a tracer, a test double) is the one that runs.
DIALECTS = {
    "funql": Dialect("geo", "semkit.funql", lambda m, text: m.parse_funql(text),
                     lambda m, ast, env, world: m.exec_funql(ast, world)),
    "ldcs": Dialect("social", "semkit.social", lambda m, text: m.parse_ldcs(text, "full"),
                    lambda m, ast, env, world: m.exec_ldcs_simple(m.simplify_ldcs(ast), world)),
    "ldcs-simple": Dialect("social", "semkit.social",
                           lambda m, text: m.parse_ldcs(text, "simple"),
                           lambda m, ast, env, world: m.exec_ldcs_simple(ast, world)),
    "dataflow-simple": Dialect("calendar", "semkit.calflow", lambda m, text: m.parse_dfs(text),
                               lambda m, ast, env, world: m.exec_dfs(ast, world)),
    "pymr": Dialect(None, "semkit.pymr", lambda m, text: m.parse_pymr(text),
                    lambda m, ast, env, world: m.exec_pymr(ast, env, world)),
}


def dialect_for(dialect: str, environment: str | None = None) -> Dialect:
    """The registry entry of ``dialect``, checked against ``environment`` when given."""
    if dialect not in DIALECTS:
        raise SemkitError(f"unknown dialect {dialect!r} (known: {', '.join(DIALECTS)})")
    entry = DIALECTS[dialect]
    if environment is not None and (environment not in ENVIRONMENTS
                                    or entry.environment not in (None, environment)):
        raise SemkitError(f"dialect {dialect!r} does not run against {environment!r}")
    return entry


def run_program(dialect: str, text: str, environment: str, env_object) -> Outcome:
    """Parse and execute one program; never raises for program-level problems."""
    entry = dialect_for(dialect, environment)
    m = import_module(entry.module)
    try:
        return Outcome.success(entry.execute(m, entry.parse(m, text), environment, env_object))
    except Exception as exc:  # noqa: BLE001 - the one capture point, by contract
        return Outcome.from_exception(exc)


def memoized_runs(environment: str, env_object) -> Callable[[str, str], Outcome]:
    """A ``run(dialect, text)`` that runs each distinct (dialect, text) once.

    The one outcome memo of an experiment or a bootstrap call, shared by
    predicted and gold programs, and called from one thread only: programs run
    on the thread that scores them.  Loaders hand out read-only worlds, so
    ``run_program`` is a pure function of (dialect, text, world) and a repeated
    key may return the first run's outcome.  A run that raised keeps nothing.
    """
    outcomes: dict[tuple[str, str], Outcome] = {}

    def run(dialect: str, text: str) -> Outcome:
        key = (dialect, text)
        if key not in outcomes:
            # the module global, so a rebound run_program (tracer, test double) runs
            outcomes[key] = run_program(dialect, text, environment, env_object)
        return outcomes[key]

    return run


def operators_of(dialect: str, text: str) -> frozenset[str]:
    """Unigram operator set of one program, per the dialect's extraction rule."""
    entry = dialect_for(dialect)
    m = import_module(entry.module)
    return m.extract_operators(entry.parse(m, text))


def load_environment(environment: str, path):
    """The environment object an execution needs (model, db or world), parsed once per
    process while the file's bytes are unchanged and shared, read-only, by every caller."""
    if environment not in ENVIRONMENTS:
        raise SemkitError(f"unknown environment {environment!r}")
    module, loader = ENVIRONMENTS[environment]
    load = getattr(import_module(module), loader)
    return resources.parsed(environment, path, lambda data: load(path, data))
