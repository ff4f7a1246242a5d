"""The dialect registry: parse, execute and extract operators for any MR dialect.

:data:`DIALECTS` holds, per dialect, the environment it runs against and its
parse, execute and operator-extraction steps; :data:`ENVIRONMENTS` holds the
environment loaders.  Programs arrive as text, and failures of any kind (parse
or runtime) come back as captured :class:`~semkit.outcomes.Outcome` failures;
pairing a dialect with the wrong environment raises :class:`SemkitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import calflow, funql, geo, pymr, social
from .errors import SemkitError
from .outcomes import Outcome

ENVIRONMENTS = {
    "geo": geo.load_geobase,
    "social": social.load_social_db,
    "calendar": calflow.load_world,
}


@dataclass(frozen=True)
class Dialect:
    environment: str | None  # None: runs against any environment
    parse: Callable  # text -> ast
    execute: Callable  # (ast, environment, env_object) -> Outcome
    operators: Callable  # ast -> frozenset of operator names


# Steps look the interpreter functions up on their modules at call time, so a
# rebound module attribute (a tracer, a test double) is the one that runs.
DIALECTS = {
    "funql": Dialect("geo", lambda text: funql.parse_funql(text),
                     lambda ast, env, world: Outcome.success(funql.exec_funql(ast, world)),
                     lambda ast: funql.extract_operators(ast)),
    "ldcs": Dialect("social", lambda text: social.parse_ldcs(text, "full"),
                    lambda ast, env, world: Outcome.success(
                        social.exec_ldcs_simple(social.simplify_ldcs(ast), world)),
                    lambda ast: social.extract_operators(ast)),
    "ldcs-simple": Dialect("social", lambda text: social.parse_ldcs(text, "simple"),
                           lambda ast, env, world: Outcome.success(
                               social.exec_ldcs_simple(ast, world)),
                           lambda ast: social.extract_operators(ast)),
    "dataflow-simple": Dialect("calendar", lambda text: calflow.parse_dfs(text),
                               lambda ast, env, world: Outcome.success(
                                   calflow.exec_dfs(ast, world)[1]),
                               lambda ast: calflow.extract_operators(ast)),
    "pymr": Dialect(None, lambda text: pymr.parse_pymr(text),
                    lambda ast, env, world: pymr.exec_pymr(ast, env, world),
                    lambda ast: pymr.extract_operators(ast)),
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
    try:
        return entry.execute(entry.parse(text), environment, env_object)
    except SemkitError as exc:
        return Outcome.from_exception(exc)
    except Exception as exc:  # noqa: BLE001 - captured by contract
        return Outcome.failure("execution-error", f"{type(exc).__name__}: {exc}")


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
    return entry.operators(entry.parse(text))


def load_environment(environment: str, path):
    """Load the environment object an execution needs (model, db or world)."""
    if environment not in ENVIRONMENTS:
        raise SemkitError(f"unknown environment {environment!r}")
    return ENVIRONMENTS[environment](path)
