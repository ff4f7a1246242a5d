"""FunQL: the GeoQuery query language.

Grammar (EBNF)::

    program = "answer" "(" expr ")"
    expr    = op "(" expr { "," expr } ")"
            | entity "(" name { "," name } ")"
            | "all"
    op      = identifier in OPERATORS
    entity  = identifier in ENTITY_OPS
    name    = "'" any chars except "'" "'"

Identifiers match ``[a-z_][a-z0-9_]*``; whitespace is insignificant and the
printer emits none except after commas.

Operator semantics
------------------
Each operator is declared once, in the table of its family: :data:`ENTITY_OPS`
(literals, denoting singleton sets, or every same-named city for
``cityid(name, '_')``), :data:`TYPE_PREDICATES`, :data:`RELATIONS`,
:data:`EXTRACTORS` (entity sets to number multisets, one value per entity) and
:data:`SUPERLATIVES`.  Relations come in suffixed pairs: for a relation
rel(a, b), ``rel_1`` binds argument 1 to its input and returns the b's,
``rel_2`` binds argument 2 and returns the a's; so ``loc_2(X)`` is everything
located in X.  The step table ``_STEPS``, which the interpreter dispatches
through, holds the families and the rest: ``count`` and ``sum`` reduce;
``largest_one(X(S))`` / ``smallest_one`` rank S by the extractor X;
``most(P(rel_i(S)))`` / ``fewest`` pick the pivot entities related to the
most/fewest members of S.  Rankings return every tied entity, and an empty
input yields an empty result rather than an error.  :data:`OPERATORS`
(operator -> arity), which the parser checks, is derived from ``_STEPS``.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from .errors import MAX_DEPTH, TOO_DEEP, MrExecError, MrParseError
from .geo import ENTITY_KINDS, City, Country, GeoModel, Place, River, State, entity_ref
from .outcomes import Denotation
from .readonly import Value


class All(Value):
    __slots__ = ()

    def __repr__(self):
        return "All"


ALL = All()


class EntityLiteral(NamedTuple):
    kind: str  # a key of ENTITY_OPS
    name: str
    qualifier: str | None = None


class Apply(NamedTuple):
    op: str
    args: tuple


# an identifier, with the "(" that applies it; a quoted name; a bracket or a comma;
# any other non-space character is a token error
_TOKEN = re.compile(r"([a-z_][a-z0-9_]*)\s*(\()?|('[^']*')|(\()|(\))|(,)|(\S)")
# reader states: what the next token must be
_EXPR, _NEXT_ARG, _NAME, _NEXT_NAME, _END = range(5)


def parse_funql(text: str):
    """Parse a FunQL program; the root must be a one-argument answer(...).

    One pass over the tokens with an explicit stack of open applications, so
    nesting is bounded by :data:`~semkit.errors.MAX_DEPTH`, not by recursion.
    A character no token can start with is reported before any other error.
    """
    try:
        return _read(text)
    except MrParseError:
        bad = next((m for m in _TOKEN.finditer(text) if m.lastindex == 7), None)
        if bad is not None:
            raise MrParseError(f"unexpected character {bad.group()!r}",
                               position=bad.start()) from None
        raise


def _read(text: str):
    stack = []  # open applications and entity literals: (operator, position, arguments)
    state = _EXPR
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        token = match.group(1) or match.group()
        if group == 7:
            raise MrParseError(f"unexpected character {token!r}", position=match.start())
        if state == _EXPR:
            if group == 2:
                if len(stack) == MAX_DEPTH:
                    raise MrParseError(TOO_DEEP, position=match.start(2))
                if token in ENTITY_OPS:
                    state = _NAME
                elif token not in OPERATORS:
                    raise MrParseError(f"unknown operator {token!r}", position=match.start())
                stack.append((token, match.start(), []))
                continue
            if token != "all" or group != 1:
                raise MrParseError(f"bare identifier {token!r} (only 'all' may appear unapplied)"
                                   if group == 1 else f"expected an operator, found {token!r}",
                                   position=match.start())
            value = ALL
        elif state == _NAME:
            if group != 3:
                raise MrParseError(f"expected name, found {token!r}", position=match.start())
            stack[-1][2].append(token[1:-1])
            state = _NEXT_NAME
            continue
        elif state == _END:
            raise MrParseError(f"trailing input {token!r}", position=match.start())
        elif group == 6:
            state = _NAME if state == _NEXT_NAME else _EXPR
            continue
        elif group != 5:
            raise MrParseError(f"expected rparen, found {token!r}", position=match.start())
        elif state == _NEXT_NAME:
            value = _entity(*stack.pop())
        else:
            op, pos, args = stack.pop()
            if len(args) != OPERATORS[op]:
                raise MrParseError(f"{op} takes {OPERATORS[op]} argument(s), got {len(args)}",
                                   position=pos)
            value = Apply(op=op, args=tuple(args))
        if stack:
            stack[-1][2].append(value)
            state = _NEXT_ARG
        else:
            root, state = value, _END
    if state != _END:
        raise MrParseError("unexpected end of input (unbalanced parentheses?)",
                           position=len(text))
    if not (isinstance(root, Apply) and root.op == "answer"):
        raise MrParseError("program root must be answer(...)")
    return root


def _entity(kind: str, pos: int, names: list[str]) -> EntityLiteral:
    if len(names) > 2:
        raise MrParseError(f"{kind} takes at most two names", position=pos)
    qualifier = names[1] if len(names) == 2 else None
    if qualifier is not None and kind != "cityid":
        raise MrParseError(f"{kind} takes a single name", position=pos)
    return EntityLiteral(kind=kind, name=names[0].lower(),
                         qualifier=qualifier.lower() if qualifier else qualifier)


def render_funql(ast) -> str:
    """Print an AST back to text; parse(render(ast)) == ast."""
    if isinstance(ast, All):
        return "all"
    if isinstance(ast, EntityLiteral):
        if ast.qualifier is not None:
            return f"{ast.kind}('{ast.name}', '{ast.qualifier}')"
        return f"{ast.kind}('{ast.name}')"
    return f"{ast.op}({', '.join(render_funql(a) for a in ast.args)})"


def extract_operators(ast) -> frozenset[str]:
    """All operator/literal-kind unigrams in a program, except the answer wrapper."""
    found: set[str] = set()

    def walk(node):
        if isinstance(node, All):
            found.add("all")
        elif isinstance(node, EntityLiteral):
            found.add(node.kind)
        else:
            if node.op != "answer":
                found.add(node.op)
            for arg in node.args:
                walk(arg)

    walk(ast)
    return frozenset(found)


# --- interpreter ----------------------------------------------------------

class _Entities:
    """An ordered, duplicate-free entity collection."""

    def __init__(self, items=()):
        self.items = []
        seen = set()
        for item in items:
            if id(item) not in seen:
                seen.add(id(item))
                self.items.append(item)


class _Numbers:
    def __init__(self, values, unit=None):
        self.values = [float(v) for v in values]
        self.unit = unit


def _type_error(op, value):
    got = "numbers" if isinstance(value, _Numbers) else "entities"
    raise MrExecError("type-mismatch", f"{op} cannot be applied to {got} of this shape")


# entity literal -> the entities it denotes in a model (the first of that name,
# or every city of that name in the state it is qualified by)
ENTITY_OPS = {
    "stateid": lambda m, lit: [s for s in m.states if s.name == lit.name][:1],
    "cityid": lambda m, lit: [c for c in m.cities if c.name == lit.name
                              and lit.qualifier in (None, "_", c.state.abbreviation)],
    "riverid": lambda m, lit: [r for r in m.rivers if r.name == lit.name][:1],
    "placeid": lambda m, lit: [p for p in m.places if p.name == lit.name][:1],
    "countryid": lambda m, lit: [m.country] if m.country.name == lit.name else [],
}

# type predicate -> whether an entity passes it
TYPE_PREDICATES = {
    "state": lambda e: isinstance(e, State),
    "city": lambda e: isinstance(e, City),
    "river": lambda e: isinstance(e, River),
    "place": lambda e: isinstance(e, Place),
    "mountain": lambda e: isinstance(e, Place) and e.kind == "mountain",
    "lake": lambda e: isinstance(e, Place) and e.kind == "lake",
    "capital": lambda e: isinstance(e, City) and e.state.capital is e,
    "major": lambda e: isinstance(e, (City, River)) and e.is_major,
}


def _located(m, x) -> list:
    if isinstance(x, (City, Place)):
        return [x.state, m.country]
    if isinstance(x, River):
        return [*x.traverses, m.country]
    return [m.country] if isinstance(x, State) else []


def _contents(m, y) -> list:
    if isinstance(y, State):
        return [*(c for c in m.cities if c.state is y), *(p for p in m.places if p.state is y),
                *(r for r in m.rivers if y in r.traverses)]
    if isinstance(y, Country):
        return [*m.states, *m.cities, *m.rivers, *m.places]
    return []


def _borders(m, x) -> list:
    return list(x.next_to) if isinstance(x, State) else []


# relation operator -> the image of one entity under it: for a relation rel(a, b),
# rel_1 binds argument 1 (input a, returns the b's), rel_2 argument 2 (input b,
# returns the a's)
RELATIONS = {
    "loc_1": _located,
    "loc_2": _contents,
    "next_to_1": _borders,
    "next_to_2": _borders,
    "traverse_1": lambda m, x: list(x.traverses) if isinstance(x, River) else [],
    "traverse_2": lambda m, y: [r for r in m.rivers if y in r.traverses]
    if isinstance(y, State) else [],
    "high_point_1": lambda m, x: [x.high_point] if isinstance(x, State) else [],
    "high_point_2": lambda m, y: [s for s in m.states if s.high_point is y],
    "low_point_1": lambda m, x: [x.low_point] if isinstance(x, State) else [],
    "low_point_2": lambda m, y: [s for s in m.states if s.low_point is y],
}

_SIZED = (State, City, River, Country)  # what has a size: area, population or length

# extractor -> (the entity kinds it is defined on, the attribute it reads, its unit,
# whether largest_one/smallest_one rank by it)
EXTRACTORS = {
    "area_1": ((State, Country), "area", "km2", True),
    "population_1": ((State, City, Country), "population", "count", True),
    "density_1": ((State,), "density", "per_km2", True),
    "elevation_1": ((Place,), "elevation", "m", False),
    "len": ((River,), "length", "km", False),
    "size": (_SIZED, "size", None, False),
}
_RANKABLE = "/".join(op for op, (*_, ranking) in EXTRACTORS.items() if ranking)

# superlative -> (max or min, the entity kinds it ranks, the attribute it ranks by)
SUPERLATIVES = {
    "largest": (max, _SIZED, "size"),
    "smallest": (min, _SIZED, "size"),
    "highest": (max, (Place,), "elevation"),
    "lowest": (min, (Place,), "elevation"),
    "longest": (max, (River,), "length"),
    "shortest": (min, (River,), "length"),
}


def _eval(model: GeoModel, node):
    if isinstance(node, All):
        return _Entities([*model.states, *model.cities, *model.rivers, *model.places])
    if isinstance(node, EntityLiteral):
        return _Entities(ENTITY_OPS[node.kind](model, node))
    return _STEPS[node.op][1](model, node.op, node.args)


def _entities(model: GeoModel, op: str, node) -> _Entities:
    """The value of ``node``, an argument of ``op``, which must be an entity set."""
    value = _eval(model, node)
    if not isinstance(value, _Entities):
        _type_error(op, value)
    return value


def _best(pick, keyed) -> _Entities:
    """Every entity of the (key, entity) pairs whose key ``pick`` (max or min) selects."""
    if not keyed:
        return _Entities()
    target = pick(k for k, _ in keyed)
    return _Entities([e for k, e in keyed if k == target])


def _rank(op: str, value: _Entities, pick, kinds, attribute: str) -> _Entities:
    if not all(isinstance(e, kinds) for e in value.items):
        _type_error(op, value)
    return _best(pick, [(getattr(e, attribute), e) for e in value.items])


def _type_filter(model, op, args):
    keep = TYPE_PREDICATES[op]
    return _Entities([e for e in _entities(model, op, args[0]).items if keep(e)])


def _relate(model, op, args):
    image = RELATIONS[op]
    return _Entities([t for e in _entities(model, op, args[0]).items for t in image(model, e)])


def _extract(model, op, args):
    kinds, attribute, unit, _ = EXTRACTORS[op]
    items = _entities(model, op, args[0]).items
    for entity in items:
        if not isinstance(entity, kinds):
            raise MrExecError("type-mismatch",
                              f"{op} not defined for {ENTITY_KINDS[type(entity)]}")
    return _Numbers([getattr(e, attribute) for e in items], unit if items else None)


def _superlative(model, op, args):
    return _rank(op, _entities(model, op, args[0]), *SUPERLATIVES[op])


def _by_attribute(pick, model, op, args):
    """largest_one(X(S)) / smallest_one: the members of S with the max or min X."""
    child = args[0]
    if not (isinstance(child, Apply) and child.op in EXTRACTORS and EXTRACTORS[child.op][3]):
        raise MrExecError("type-mismatch", f"{op} expects {_RANKABLE} of a set")
    return _rank(op, _entities(model, op, child.args[0]), pick, *EXTRACTORS[child.op][:2])


def _pivot_count(pick, model, op, args):
    """most(P(rel_i(S))) / fewest: the pivots related to the most or fewest of S."""
    child = args[0]
    if not (isinstance(child, Apply) and child.op in TYPE_PREDICATES
            and isinstance(child.args[0], Apply) and child.args[0].op in RELATIONS):
        raise MrExecError("type-mismatch", f"{op} expects P(rel_i(S))")
    image = RELATIONS[child.args[0].op]
    sources = _entities(model, op, child.args[0].args[0]).items
    return _best(pick, [(sum(1 for s in sources if any(t is pivot for t in image(model, s))),
                         pivot) for pivot in _eval(model, child).items])


def _combine(shared, model, op, args):
    """exclude / intersection: the left members (not) in the right set; both sides run first."""
    left, right = _eval(model, args[0]), _eval(model, args[1])
    for side in (left, right):  # the message names the first operand that is not entities
        if not isinstance(side, _Entities):
            _type_error(op, side)
    right_ids = {id(e) for e in right.items}
    return _Entities([e for e in left.items if (id(e) in right_ids) == shared])


def _count(model, op, args):
    value = _eval(model, args[0])
    return _Numbers([len(value.items) if isinstance(value, _Entities) else len(value.values)],
                    "count")


def _sum(model, op, args):
    value = _eval(model, args[0])
    if not isinstance(value, _Numbers):
        _type_error(op, value)
    return _Numbers([sum(value.values)], value.unit)


# operator -> (arity, step(model, op, argument nodes))
_STEPS = {
    "answer": (1, lambda model, op, args: _eval(model, args[0])),
    "count": (1, _count),
    "sum": (1, _sum),
    "exclude": (2, partial(_combine, False)),
    "intersection": (2, partial(_combine, True)),
    "most": (1, partial(_pivot_count, max)),
    "fewest": (1, partial(_pivot_count, min)),
    "largest_one": (1, partial(_by_attribute, max)),
    "smallest_one": (1, partial(_by_attribute, min)),
    **dict.fromkeys(TYPE_PREDICATES, (1, _type_filter)),
    **dict.fromkeys(RELATIONS, (1, _relate)),
    **dict.fromkeys(EXTRACTORS, (1, _extract)),
    **dict.fromkeys(SUPERLATIVES, (1, _superlative)),
}
OPERATORS: dict[str, int] = {op: arity for op, (arity, _) in _STEPS.items()}


def exec_funql(ast, model: GeoModel) -> Denotation:
    """Execute a parsed program against a geography model."""
    result = _eval(model, ast)
    if isinstance(result, _Numbers):
        return Denotation.of_numbers(result.values, result.unit)
    return Denotation.of_entities(entity_ref(e) for e in result.items)
