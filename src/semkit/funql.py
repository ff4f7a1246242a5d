"""FunQL: the GeoQuery query language.

Grammar (EBNF)::

    program = "answer" "(" expr ")"
    expr    = op "(" expr { "," expr } ")"
            | entity "(" name { "," name } ")"
            | "all"
    op      = identifier in the operator registry
    entity  = "stateid" | "cityid" | "riverid" | "placeid" | "countryid"
    name    = "'" any chars except "'" "'"

Identifiers match ``[a-z_][a-z0-9_]*``; whitespace is insignificant and the
printer emits none except after commas.

Operator semantics
------------------
Unary type predicates (state, city, river, place, mountain, lake, capital,
major) intersect their input with entities of that kind.  Entity literals
denote singleton sets (or every same-named city for ``cityid(name, '_')``).
Relations come in suffixed pairs: for a relation rel(a, b), ``rel_1`` binds
argument 1 to its input and returns the b's, ``rel_2`` binds argument 2 and
returns the a's; so ``loc_2(X)`` is everything located in X and
``traverse_2(X)`` the rivers traversing X.  Attribute extractors (area_1,
population_1, density_1, elevation_1, len, size) turn entity sets into number
multisets, one value per entity; ``count`` and ``sum`` reduce.  Superlatives
(largest/smallest by size, highest/lowest by elevation, longest/shortest by
length, largest_one/smallest_one over an extractor application) return every
tied entity, and an empty input yields an empty result rather than an error.
``most(P(rel_i(S)))`` / ``fewest`` pick the pivot entities related to the
most/fewest members of S.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MAX_DEPTH, TOO_DEEP, MrExecError, MrParseError
from .geo import City, Country, GeoModel, Place, River, State
from .outcomes import Denotation


@dataclass(frozen=True)
class All:
    def __repr__(self):
        return "All"


ALL = All()


@dataclass(frozen=True)
class EntityLiteral:
    kind: str  # stateid | cityid | riverid | placeid | countryid
    name: str
    qualifier: str | None = None


@dataclass(frozen=True)
class Apply:
    op: str
    args: tuple


FunqlAst = object  # Apply | EntityLiteral | All

TYPE_PREDICATES = ("state", "city", "river", "place", "mountain", "lake", "capital", "major")
RELATION_SUFFIXED = (
    "loc_1", "loc_2",
    "next_to_1", "next_to_2",
    "traverse_1", "traverse_2",
    "high_point_1", "high_point_2",
    "low_point_1", "low_point_2",
)
EXTRACTORS = ("area_1", "population_1", "density_1", "elevation_1", "len", "size")
SUPERLATIVES = ("largest", "smallest", "highest", "lowest", "longest", "shortest")
ENTITY_OPS = {
    "stateid": "state",
    "cityid": "city",
    "riverid": "river",
    "placeid": "place",
    "countryid": "country",
}

# operator -> arity
OPERATORS: dict[str, int] = {"answer": 1, "count": 1, "sum": 1, "most": 1, "fewest": 1,
                             "largest_one": 1, "smallest_one": 1, "exclude": 2, "intersection": 2}
for _name in (*TYPE_PREDICATES, *RELATION_SUFFIXED, *EXTRACTORS, *SUPERLATIVES):
    OPERATORS[_name] = 1

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


def _kind(entity) -> str:
    return {State: "state", City: "city", River: "river",
            Place: "place", Country: "country"}[type(entity)]


def _type_error(op, value):
    got = "numbers" if isinstance(value, _Numbers) else "entities"
    raise MrExecError("type-mismatch", f"{op} cannot be applied to {got} of this shape")


class _Evaluator:
    def __init__(self, model: GeoModel):
        self.model = model

    # relation images: rel_1 binds argument 1 (input x, returns {b : rel(x, b)}),
    # rel_2 binds argument 2 (input y, returns {a : rel(a, y)})
    def _loc_up(self, x):
        if isinstance(x, City) or isinstance(x, Place):
            return [x.state, self.model.country]
        if isinstance(x, River):
            return [*x.traverses, self.model.country]
        if isinstance(x, State):
            return [self.model.country]
        return []

    def _loc_down(self, y):
        if isinstance(y, State):
            inside = [c for c in self.model.cities if c.state is y]
            inside += [p for p in self.model.places if p.state is y]
            inside += [r for r in self.model.rivers if y in r.traverses]
            return inside
        if isinstance(y, Country):
            return [*self.model.states, *self.model.cities, *self.model.rivers, *self.model.places]
        return []

    def relation(self, name: str):
        base, suffix = name.rsplit("_", 1)
        if base == "loc":
            img1, img2 = self._loc_up, self._loc_down
        elif base == "next_to":
            img1 = img2 = lambda x: list(x.next_to) if isinstance(x, State) else []
        elif base == "traverse":
            img1 = lambda x: list(x.traverses) if isinstance(x, River) else []
            img2 = lambda y: [r for r in self.model.rivers if y in r.traverses] \
                if isinstance(y, State) else []
        elif base == "high_point":
            img1 = lambda x: [x.high_point] if isinstance(x, State) else []
            img2 = lambda y: [s for s in self.model.states if s.high_point is y]
        elif base == "low_point":
            img1 = lambda x: [x.low_point] if isinstance(x, State) else []
            img2 = lambda y: [s for s in self.model.states if s.low_point is y]
        else:
            raise MrExecError("type-mismatch", f"unknown relation {name}")
        return img1 if suffix == "1" else img2

    def universe(self):
        m = self.model
        return _Entities([*m.states, *m.cities, *m.rivers, *m.places])

    def literal(self, lit: EntityLiteral):
        m = self.model
        if lit.kind == "stateid":
            hit = m.find_state(lit.name)
            return _Entities([hit] if hit else [])
        if lit.kind == "cityid":
            matches = [c for c in m.cities if c.name == lit.name]
            if lit.qualifier not in (None, "_"):
                matches = [c for c in matches if c.state.abbreviation == lit.qualifier]
            return _Entities(matches)
        if lit.kind == "riverid":
            hit = m.find_river(lit.name)
            return _Entities([hit] if hit else [])
        if lit.kind == "placeid":
            hit = m.find_place(lit.name)
            return _Entities([hit] if hit else [])
        if lit.kind == "countryid":
            return _Entities([m.country] if m.country.name == lit.name else [])
        raise MrExecError("type-mismatch", f"unknown literal kind {lit.kind}")

    def type_filter(self, op: str, value: _Entities) -> _Entities:
        if op == "state":
            keep = lambda e: isinstance(e, State)
        elif op == "city":
            keep = lambda e: isinstance(e, City)
        elif op == "river":
            keep = lambda e: isinstance(e, River)
        elif op == "place":
            keep = lambda e: isinstance(e, Place)
        elif op in ("mountain", "lake"):
            keep = lambda e: isinstance(e, Place) and e.kind == op
        elif op == "capital":
            keep = lambda e: isinstance(e, City) and e.state.capital is e
        elif op == "major":
            keep = lambda e: isinstance(e, (City, River)) and e.is_major
        else:  # pragma: no cover - registry and parser agree
            raise MrExecError("type-mismatch", f"unknown predicate {op}")
        return _Entities([e for e in value.items if keep(e)])

    def extract(self, op: str, value: _Entities) -> _Numbers:
        def one(entity):
            if op == "area_1" and isinstance(entity, (State, Country)):
                return entity.area, "km2"
            if op == "population_1" and isinstance(entity, (State, City, Country)):
                return entity.population, "count"
            if op == "density_1" and isinstance(entity, State):
                return entity.density, "per_km2"
            if op == "elevation_1" and isinstance(entity, Place):
                return entity.elevation, "m"
            if op == "len" and isinstance(entity, River):
                return entity.length, "km"
            if op == "size" and not isinstance(entity, Place):
                return entity.size, None
            raise MrExecError("type-mismatch", f"{op} not defined for {_kind(entity)}")

        values, unit = [], None
        for entity in value.items:
            v, unit = one(entity)
            values.append(v)
        return _Numbers(values, unit)

    def superlative(self, op: str, value: _Entities) -> _Entities:
        if not value.items:
            return _Entities()
        if op in ("largest", "smallest"):
            for entity in value.items:
                if isinstance(entity, Place):
                    _type_error(op, value)
            key = lambda e: e.size
        elif op in ("highest", "lowest"):
            for entity in value.items:
                if not isinstance(entity, Place):
                    _type_error(op, value)
            key = lambda e: e.elevation
        else:  # longest / shortest
            for entity in value.items:
                if not isinstance(entity, River):
                    _type_error(op, value)
            key = lambda e: e.length
        pick = max if op in ("largest", "highest", "longest") else min
        target = pick(key(e) for e in value.items)
        return _Entities([e for e in value.items if key(e) == target])

    def argmax_by_attribute(self, op: str, node: Apply) -> _Entities:
        child = node.args[0]
        if not (isinstance(child, Apply) and child.op in ("area_1", "population_1", "density_1")):
            raise MrExecError(
                "type-mismatch", f"{node.op} expects area_1/population_1/density_1 of a set"
            )
        base = self.eval(child.args[0])
        if not isinstance(base, _Entities):
            _type_error(node.op, base)
        if not base.items:
            return _Entities()
        attr = {"area_1": "area", "population_1": "population", "density_1": "density"}[child.op]
        try:
            keyed = [(getattr(e, attr), e) for e in base.items]
        except AttributeError:
            _type_error(node.op, base)
        pick = max if node.op == "largest_one" else min
        target = pick(k for k, _ in keyed)
        return _Entities([e for k, e in keyed if k == target])

    def pivot_count(self, node: Apply) -> _Entities:
        child = node.args[0]
        if not (isinstance(child, Apply) and child.op in TYPE_PREDICATES
                and isinstance(child.args[0], Apply) and child.args[0].op in RELATION_SUFFIXED):
            raise MrExecError("type-mismatch", f"{node.op} expects P(rel_i(S))")
        relation = self.relation(child.args[0].op)
        sources = self.eval(child.args[0].args[0])
        if not isinstance(sources, _Entities):
            _type_error(node.op, sources)
        pivots = self.eval(child)
        if not pivots.items:
            return _Entities()
        counts = []
        for pivot in pivots.items:
            n = sum(1 for s in sources.items if any(t is pivot for t in relation(s)))
            counts.append((n, pivot))
        pick = max if node.op == "most" else min
        target = pick(n for n, _ in counts)
        return _Entities([p for n, p in counts if n == target])

    def eval(self, node):
        if isinstance(node, All):
            return self.universe()
        if isinstance(node, EntityLiteral):
            return self.literal(node)
        op = node.op
        if op in ("most", "fewest"):
            return self.pivot_count(node)
        if op in ("largest_one", "smallest_one"):
            return self.argmax_by_attribute(op, node)
        if op in ("exclude", "intersection"):
            left, right = self.eval(node.args[0]), self.eval(node.args[1])
            if not isinstance(left, _Entities) or not isinstance(right, _Entities):
                _type_error(op, left)
            right_ids = {id(e) for e in right.items}
            if op == "exclude":
                return _Entities([e for e in left.items if id(e) not in right_ids])
            return _Entities([e for e in left.items if id(e) in right_ids])

        value = self.eval(node.args[0])
        if op == "answer":
            return value
        if op in TYPE_PREDICATES:
            if not isinstance(value, _Entities):
                _type_error(op, value)
            return self.type_filter(op, value)
        if op in RELATION_SUFFIXED:
            if not isinstance(value, _Entities):
                _type_error(op, value)
            relation = self.relation(op)
            out = []
            for item in value.items:
                out.extend(relation(item))
            return _Entities(out)
        if op in EXTRACTORS:
            if not isinstance(value, _Entities):
                _type_error(op, value)
            return self.extract(op, value)
        if op in SUPERLATIVES:
            if not isinstance(value, _Entities):
                _type_error(op, value)
            return self.superlative(op, value)
        if op == "count":
            n = len(value.items) if isinstance(value, _Entities) else len(value.values)
            return _Numbers([n], "count")
        if op == "sum":
            if not isinstance(value, _Numbers):
                _type_error(op, value)
            return _Numbers([sum(value.values)], value.unit)
        raise MrExecError("type-mismatch", f"unhandled operator {op}")  # pragma: no cover


def entity_ref(entity) -> tuple[str, str]:
    """Canonical (kind, name) pair; cities are qualified by state abbreviation."""
    if isinstance(entity, City):
        return ("city", f"{entity.name}, {entity.state.abbreviation}")
    return (_kind(entity), entity.name)


def exec_funql(ast, model: GeoModel) -> Denotation:
    """Execute a parsed program against a geography model."""
    result = _Evaluator(model).eval(ast)
    if isinstance(result, _Numbers):
        return Denotation.of_numbers(result.values, result.unit)
    return Denotation.of_entities(entity_ref(e) for e in result.items)
