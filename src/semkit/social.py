"""The two λ-DCS dialects over the people database of :mod:`semkit.social_db`.

The *full* dialect wraps every application in ``(call SW.op ...)``, every
string in ``(string x)``, years in ``(date y -1 -1)``, plain numbers in
``(number n)``, and bare entities in set position in ``(call SW.singleton e)``.
The *simple* dialect removes all of that noise: heads are bare operator names
and literals are bare tokens.  ``simplify_ldcs`` / ``desimplify_ldcs`` convert
between them and are exact inverses on the supported fragment; canonical
rendering uses single spaces and parentheses only around applications.

Programs are plain trees: a list is a tuple of its items, a symbol its ``str`` and a
number its ``float``.  ``parse_ldcs`` reads the tree with an explicit
stack (brackets nested deeper than :data:`~semkit.errors.MAX_DEPTH` are a parse
error), then checks it against the dialect its caller names and returns it.
``simplify_ldcs`` turns a checked full-dialect tree into a simple-dialect one
and reports a full-dialect form it does not support; ``exec_ldcs_simple`` and
``extract_operators`` take simple-dialect trees, so a full-dialect program is
simplified first (the registry's ``ldcs`` parse step does that).

Simple-dialect operators::

    listValue(set)                      size(set)            singleton(x)
    filter(set, prop, op, value)        concat(set, set)
    getProperty(set, prop)              aggregate(mode, set)     mode: sum|avg|min|max
    superlative(set, mode, prop)        countSuperlative(set, mode, prop)
    countComparative(set, prop, op, n)  op: = != < > <= >=       mode: argmax|argmin

Each operator's argument kinds are declared once, in :data:`SIMPLE_OPS`, and each
property's value kind and its values for one person in :data:`PROPERTIES`; the
evaluator and the typing-wrapper restoration dispatch through both tables.
``!prop`` is the reverse property (value to owners); ``(getProperty en.person
!type)`` denotes every person.  Results are entity/value lists; ``concat``
preserves duplicates, everything else has set semantics.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

from .errors import MAX_DEPTH, TOO_DEEP, MrExecError, MrParseError
from .outcomes import Denotation, denotation_of
from .social_db import Person, SocialApi, value_ref


# --- s-expressions --------------------------------------------------------

# "("; ")"; a number (the whole token); any other token: a symbol
_TOKEN = re.compile(r"(\()|(\))|(-?\d+(?:\.\d+)?(?![^\s()]))|[^\s()]+")


def parse_ldcs(text: str, dialect: str):
    """The tree of one s-expression program, checked against ``dialect`` (``"full"``, else
    simple): syntax errors come first, else the first dialect mismatch in preorder."""
    root = _read(text)
    _check(root, dialect == "full")
    return root


def _read(text: str):
    """The tree of ``text``: a list is a tuple of its items, a token a str or float."""
    stack = []  # the enclosing lists: (items, "(" position)
    items = None  # the innermost open list
    opened, root = 0, None  # its "(" position; the tree, once read
    for match in _TOKEN.finditer(text):
        if root is not None:
            raise MrParseError("trailing input after program", position=match.start())
        group = match.lastindex
        if group == 1:  # "("
            if items is not None:
                if len(stack) + 2 > MAX_DEPTH:
                    raise MrParseError(TOO_DEEP, position=match.start())
                stack.append((items, opened))
            items, opened = [], match.start()
            continue
        if group == 2:  # ")"
            if items is None:
                raise MrParseError("unexpected ')'", position=match.start())
            node = tuple(items)
            items, opened = stack.pop() if stack else (None, 0)
        else:
            node = float(match.group()) if group == 3 else match.group()
        if items is None:
            root = node
        else:
            items.append(node)
    if items is not None:
        raise MrParseError("missing closing parenthesis", position=opened)
    if root is None:
        raise MrParseError("unexpected end of input", position=0)
    return root


def _check(node, full: bool) -> None:
    """Raise the first dialect mismatch of ``node`` in preorder; a list's head is not
    looked into."""
    if node.__class__ is not tuple:
        return
    if not node:
        raise MrParseError("empty application ()")
    head = node[0]
    if not full:
        if head.__class__ is str and (head == "call" or head.startswith("SW.")):
            raise MrParseError("dialect-mismatch: 'call'/'SW.' does not belong in the simple dialect")
    elif head == "call":
        if len(node) < 2 or not (node[1].__class__ is str and node[1].startswith("SW.")):
            raise MrParseError("dialect-mismatch: call requires an SW.-namespaced callee")
    elif head not in ("string", "date", "number"):
        raise MrParseError(f"dialect-mismatch: full-dialect head {render_ldcs(head)!r} "
                           "is not call/typing")
    for child in node[1:]:  # recursion is bounded: _read caps nesting at MAX_DEPTH
        _check(child, full)


def render_ldcs(node) -> str:
    """Canonical rendering: single spaces, parentheses only around applications."""
    if node.__class__ is str:
        return node
    if node.__class__ is float:
        return str(int(node)) if node.is_integer() else repr(node)
    return "(" + " ".join(render_ldcs(child) for child in node) + ")"


# --- simplify / desimplify ------------------------------------------------

# simple-dialect operator -> argument kinds
SIMPLE_OPS: dict[str, tuple[str, ...]] = {
    "listValue": ("set",),
    "filter": ("set", "prop", "op", "value"),
    "getProperty": ("set", "prop"),
    "size": ("set",),
    "singleton": ("set",),
    "concat": ("set", "set"),
    "superlative": ("set", "mode", "prop"),
    "countSuperlative": ("set", "mode", "prop"),
    "countComparative": ("set", "prop", "op", "count"),
    "aggregate": ("mode", "set"),
}

# property -> (kind of its values, which drives typing-wrapper restoration; its
# values for one person)
PROPERTIES: dict[str, tuple[str, Callable[[Person], list]]] = {
    "gender": ("enum", lambda p: [p.gender]),
    "birthdate": ("date", lambda p: [p.birthdate]),
    "birthplace": ("enum", lambda p: [p.birthplace]),
    "height": ("number", lambda p: [p.height]),
    "relationship_status": ("enum", lambda p: [p.relationship_status]),
    "friends": ("person", lambda p: list(p.friends)),
    "institution": ("enum", lambda p: [e.institution for e in p.education]),
    "education_start_date": ("date", lambda p: [e.start_date for e in p.education]),
    "education_end_date": ("date", lambda p: [e.end_date for e in p.education]),
    "employer": ("enum", lambda p: [e.employer for e in p.employment]),
    "job_title": ("enum", lambda p: [e.job_title for e in p.employment]),
    "employment_start_date": ("date", lambda p: [e.start_date for e in p.employment]),
    "employment_end_date": ("date", lambda p: [e.end_date for e in p.employment]),
}


def _is_entity(node) -> bool:
    return node.__class__ is str and node.startswith("en.")


def simplify_ldcs(node):
    """The simple-dialect tree of a checked full-dialect one, stripped of call/SW./typing/
    singleton noise; the first form it does not support, in preorder, raises."""
    return _simplify(node)  # recursion stays off the public name, which a tracer may rebind


def _simplify(node):
    if node.__class__ is not tuple:
        return node
    head, args = node[0], node[1:]
    if head == "call":
        callee, args = args[0][len("SW."):], args[1:]
        if callee == "singleton" and len(args) == 1 and _is_entity(args[0]):
            return args[0]
        return (callee, *(_simplify(a) for a in args))
    if head == "string":
        if len(args) != 1 or args[0].__class__ is not str:
            raise MrParseError("unsupported form: (string ...) must wrap one token")
    elif head == "date":
        if (len(args) != 3 or not all(a.__class__ is float for a in args)
                or args[1] != -1 or args[2] != -1):
            raise MrParseError("unsupported form: only year-granularity (date y -1 -1) dates")
    elif len(args) != 1 or args[0].__class__ is not float:
        raise MrParseError("unsupported form: (number ...) must wrap one number")
    return args[0]  # the token a typing wrapper wraps


def desimplify_ldcs(node):
    """The canonical full-dialect tree of a simple-dialect one; inverse of simplify_ldcs."""
    if _is_entity(node):
        return ("call", "SW.singleton", node)
    if node.__class__ is tuple:
        return _desimplify_app(node)
    raise MrParseError(f"cannot desimplify {render_ldcs(node)!r} in set position")


def _desimplify_app(node: tuple):
    head, args = node[0], node[1:]
    if head.__class__ is not str or head not in SIMPLE_OPS:
        raise MrParseError(f"unknown operator {render_ldcs(head)!r}")
    kinds = SIMPLE_OPS[head]
    if len(args) != len(kinds):
        raise MrParseError(f"{head} takes {len(kinds)} arguments, got {len(args)}")
    out = ["call", "SW." + head]
    prop = None
    for kind, arg in zip(kinds, args):
        if arg in PROPERTIES:
            prop = arg
        if kind == "set":
            out.append(desimplify_ldcs(arg))
        elif kind in ("prop", "op", "mode"):
            if arg.__class__ is not str:
                raise MrParseError(f"{head}: expected a symbol for {kind}")
            out.append(("string", arg))
        elif kind == "count":
            if arg.__class__ is not float:
                raise MrParseError(f"{head}: expected a number")
            out.append(("number", arg))
        else:  # value
            out.append(_desimplify_value(arg, prop))
    return tuple(out)


def _desimplify_value(node, prop: str | None):
    if _is_entity(node):
        return node
    if node.__class__ is tuple:
        return _desimplify_app(node)
    if node.__class__ is float:
        kind = PROPERTIES[prop][0] if prop in PROPERTIES else None
        if kind == "date":
            return ("date", node, -1.0, -1.0)
        if kind == "number":
            return ("number", node)
        raise MrParseError(f"cannot restore typing for a number value of {prop!r}")
    raise MrParseError(f"cannot desimplify value {render_ldcs(node)!r}")


# --- execution -------------------------------------------------------------

_PERSON_TYPE = "en.person"
# filter and countComparative operators besides = and !=, on numbers
_ORDERS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}
# superlative modes and aggregate modes: what each computes
_PICKS = {"argmax": max, "argmin": min}
_AGGREGATES = {"sum": sum, "avg": lambda values: sum(values) / len(values), "min": min,
               "max": max}


def _values_of(prop: str) -> Callable[[Person], list]:
    """The values-of-one-person function of ``prop``, looked up before any set is: an
    unknown property fails whatever the set holds, the empty set included."""
    if prop not in PROPERTIES:
        raise MrExecError("unknown-property", f"no property {prop!r}")
    return PROPERTIES[prop][1]


def _comparison(op: str) -> str:
    """``op`` if it is a comparison operator; checked, as a property is, before any set is."""
    if op not in _ORDERS and op not in ("=", "!="):
        raise MrExecError("type-mismatch", f"unknown comparison operator {op!r}")
    return op


def _key(item):
    """What two result items share when they are the same: a person's identity, or the
    value of anything else."""
    return id(item) if isinstance(item, Person) else ("v", item)


def _dedup(items):
    out, seen = [], set()
    for item in items:
        key = _key(item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


class _LdcsEval:
    def __init__(self, db: SocialApi):
        self.db = db

    def eval(self, node) -> list:
        if node.__class__ is float:
            return [node]
        if node.__class__ is str:
            if node == _PERSON_TYPE:
                return [node]
            if node.startswith("en.person."):
                return [self.db.find_person_by_id(node)]
            if node.startswith("en."):
                return [node]
            raise MrExecError("name-not-found", f"unbound symbol {node!r}")
        head = node[0]
        if head.__class__ is not str:
            raise MrExecError("type-mismatch", f"operator is not a symbol: {render_ldcs(head)}")
        if head not in SIMPLE_OPS:
            raise MrExecError("name-not-found", f"unknown operator {head!r}")
        args = node[1:]
        if len(args) != len(SIMPLE_OPS[head]):
            raise MrExecError("arity", f"{head} takes {len(SIMPLE_OPS[head])} arguments")
        return getattr(self, "_" + head)(*args)

    def _persons(self, items, op: str) -> list[Person]:
        for item in items:
            if not isinstance(item, Person):
                raise MrExecError("type-mismatch", f"{op} expects people, got {item!r}")
        return items

    def _listValue(self, x):
        return self.eval(x)

    _singleton = _listValue

    def _size(self, x):
        return [len(self.eval(x))]

    def _concat(self, a, b):
        return self.eval(a) + self.eval(b)

    def _getProperty(self, x, name):
        if name.__class__ is not str:
            raise MrExecError("type-mismatch", "getProperty expects a property symbol")
        if name == "!type":
            out = []
            for item in self.eval(x):
                if item == _PERSON_TYPE:
                    out.extend(self.db.people)
                elif isinstance(item, Person):
                    out.append(_PERSON_TYPE)
                else:
                    raise MrExecError("type-mismatch", f"!type of {item!r}")
            return _dedup(out)
        values_of = _values_of(name.removeprefix("!"))
        items = self.eval(x)
        if name.startswith("!"):
            values = {_key(v) for v in items}
            return [p for p in self.db.people if not values.isdisjoint(map(_key, values_of(p)))]
        out = []
        for person in self._persons(items, "getProperty"):
            out.extend(values_of(person))
        return _dedup(out)

    def _filter(self, x, prop, op, value):
        if prop.__class__ is not str or op.__class__ is not str:
            raise MrExecError("type-mismatch", "filter expects property and operator symbols")
        values_of, op = _values_of(prop), _comparison(op)
        items = self._persons(self.eval(x), "filter")
        targets = self.eval(value)
        out = []
        for person in items:
            if self._compare_any(values_of(person), op, targets):
                out.append(person)
        return out

    def _compare_any(self, values, op: str, targets) -> bool:
        if op in ("=", "!="):
            return {_key(v) for v in values}.isdisjoint(map(_key, targets)) == (op == "!=")
        order = _ORDERS[op]
        for v in values:
            for t in targets:
                if not isinstance(v, (int, float)) or not isinstance(t, (int, float)):
                    raise MrExecError("type-mismatch", f"{op} needs numeric operands")
                if order(v, t):
                    return True
        return False

    def _keyed(self, x, prop, numeric: bool):
        if prop.__class__ is not str:
            raise MrExecError("type-mismatch", "superlative expects a property symbol")
        values_of = _values_of(prop)
        items = self._persons(self.eval(x), "superlative")
        keyed = []
        for person in items:
            values = values_of(person)
            if numeric:
                if not values:
                    continue
                if not all(isinstance(v, (int, float)) for v in values):
                    raise MrExecError("type-mismatch", f"{prop} is not numeric")
                keyed.append((max(values), person))
            else:
                keyed.append((len(values), person))
        return keyed

    def _superlative(self, x, mode, prop):
        return self._pick(self._keyed(x, prop, numeric=True), mode)

    def _countSuperlative(self, x, mode, prop):
        return self._pick(self._keyed(x, prop, numeric=False), mode)

    def _pick(self, keyed, mode):
        if mode.__class__ is not str or mode not in _PICKS:
            raise MrExecError("type-mismatch", "mode must be argmax or argmin")
        if not keyed:
            return []
        target = _PICKS[mode](k for k, _ in keyed)
        return [p for k, p in keyed if k == target]

    def _countComparative(self, x, prop, op, count):
        if count.__class__ is not float:
            raise MrExecError("type-mismatch", "countComparative needs a number")
        if prop.__class__ is not str or op.__class__ is not str:
            raise MrExecError("type-mismatch",
                              "countComparative needs property and operator symbols")
        values_of, op = _values_of(prop), _comparison(op)
        items = self._persons(self.eval(x), "countComparative")
        out = []
        for person in items:
            n = len(values_of(person))
            if self._compare_any([n], op, [count]):
                out.append(person)
        return out

    def _aggregate(self, mode, x):
        if mode.__class__ is not str or mode not in _AGGREGATES:
            raise MrExecError("type-mismatch", f"aggregate mode must be {'/'.join(_AGGREGATES)}")
        values = self.eval(x)
        if not values or not all(isinstance(v, (int, float)) for v in values):
            raise MrExecError("type-mismatch", "aggregate needs a nonempty number set")
        return [_AGGREGATES[mode](values)]


def exec_ldcs_simple(node, db: SocialApi) -> Denotation:
    """Execute a simple-dialect tree against the people database; its result is read as a
    social pymr answer is."""
    return denotation_of(_LdcsEval(db).eval(node), (Person, str), value_ref)


def extract_operators(node) -> frozenset[str]:
    """Heads, property/operator symbols and enum kinds of a simple-dialect tree.  An
    ``en.<kind>.<name>`` entity counts as its kind."""
    symbols, stack = set(), [node]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            stack.extend(node)
        elif node.__class__ is str:
            symbols.add(node)
    operators = frozenset(text.split(".")[1] if text.startswith("en.") else text
                          for text in symbols if not text.startswith("en.") or text.count(".") >= 2)
    if not operators:
        raise MrParseError("empty program has no operators")
    return operators

