"""The two λ-DCS dialects over the people database of :mod:`semkit.social_db`.

The *full* dialect wraps every application in ``(call SW.op ...)``, every
string in ``(string x)``, years in ``(date y -1 -1)``, plain numbers in
``(number n)``, and bare entities in set position in ``(call SW.singleton e)``.
The *simple* dialect removes all of that noise: heads are bare operator names
and literals are bare tokens.  ``simplify_ldcs`` / ``desimplify_ldcs`` convert
between them and are exact inverses on the supported fragment; canonical
rendering uses single spaces and parentheses only around applications.

Programs are plain trees: a list is a tuple of its items, a token a
:class:`Sym` or :class:`Num`.  ``parse_ldcs`` reads the tree with an explicit
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
from .readonly import Value
from .social_db import Person, SocialApi, value_ref


# --- s-expressions --------------------------------------------------------

class Sym(Value):
    __slots__ = ("text",)

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)


class Num(Value):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def render(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


# "("; ")"; a number (the whole token); any other token: a symbol
_TOKEN = re.compile(r"(\()|(\))|(-?\d+(?:\.\d+)?(?![^\s()]))|[^\s()]+")


def parse_ldcs(text: str, dialect: str):
    """The tree of one s-expression program, checked against ``dialect`` (``"full"``, else
    simple): syntax errors come first, else the first dialect mismatch in preorder."""
    root = _read(text)
    _check(root, dialect == "full")
    return root


def _read(text: str):
    """The tree of ``text``: a list is a tuple of its items, a token a Sym or Num."""
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
            node = Num(float(match.group())) if group == 3 else Sym(match.group())
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
    text = node[0].text if node[0].__class__ is Sym else None
    if not full:
        if text is not None and (text == "call" or text.startswith("SW.")):
            raise MrParseError("dialect-mismatch: 'call'/'SW.' does not belong in the simple dialect")
    elif text == "call":
        if len(node) < 2 or not (node[1].__class__ is Sym and node[1].text.startswith("SW.")):
            raise MrParseError("dialect-mismatch: call requires an SW.-namespaced callee")
    elif text not in ("string", "date", "number"):
        name = text if text is not None else str(node[0])
        raise MrParseError(f"dialect-mismatch: full-dialect head {name!r} is not call/typing")
    for child in node[1:]:  # recursion is bounded: _read caps nesting at MAX_DEPTH
        _check(child, full)


def render_ldcs(node) -> str:
    """Canonical rendering: single spaces, parentheses only around applications."""
    if isinstance(node, Sym):
        return node.text
    if isinstance(node, Num):
        return node.render()
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
    return isinstance(node, Sym) and node.text.startswith("en.")


def simplify_ldcs(node):
    """The simple-dialect tree of a checked full-dialect one, stripped of call/SW./typing/
    singleton noise; the first form it does not support, in preorder, raises."""
    return _simplify(node)  # recursion stays off the public name, which a tracer may rebind


def _simplify(node):
    if node.__class__ is not tuple:
        return node
    head, args = node[0].text, node[1:]
    if head == "call":
        callee, args = args[0].text[len("SW."):], args[1:]
        if callee == "singleton" and len(args) == 1 and _is_entity(args[0]):
            return args[0]
        return (Sym(callee), *(_simplify(a) for a in args))
    if head == "string":
        if len(args) != 1 or args[0].__class__ is not Sym:
            raise MrParseError("unsupported form: (string ...) must wrap one token")
    elif head == "date":
        if (len(args) != 3 or not all(a.__class__ is Num for a in args)
                or args[1].value != -1 or args[2].value != -1):
            raise MrParseError("unsupported form: only year-granularity (date y -1 -1) dates")
    elif len(args) != 1 or args[0].__class__ is not Num:
        raise MrParseError("unsupported form: (number ...) must wrap one number")
    return args[0]  # the token a typing wrapper wraps


def desimplify_ldcs(node):
    """The canonical full-dialect tree of a simple-dialect one; inverse of simplify_ldcs."""
    if _is_entity(node):
        return (Sym("call"), Sym("SW.singleton"), node)
    if isinstance(node, tuple):
        return _desimplify_app(node)
    raise MrParseError(f"cannot desimplify {node!r} in set position")


def _desimplify_app(node: tuple):
    head = node[0]
    if not isinstance(head, Sym) or head.text not in SIMPLE_OPS:
        name = head.text if isinstance(head, Sym) else str(head)
        raise MrParseError(f"unknown operator {name!r}")
    kinds = SIMPLE_OPS[head.text]
    args = node[1:]
    if len(args) != len(kinds):
        raise MrParseError(f"{head.text} takes {len(kinds)} arguments, got {len(args)}")
    out = [Sym("call"), Sym("SW." + head.text)]
    prop = None
    for kind, arg in zip(kinds, args):
        if isinstance(arg, Sym) and arg.text in PROPERTIES:
            prop = arg.text
        if kind == "set":
            out.append(desimplify_ldcs(arg))
        elif kind in ("prop", "op", "mode"):
            if not isinstance(arg, Sym):
                raise MrParseError(f"{head.text}: expected a symbol for {kind}")
            out.append((Sym("string"), arg))
        elif kind == "count":
            if not isinstance(arg, Num):
                raise MrParseError(f"{head.text}: expected a number")
            out.append((Sym("number"), arg))
        else:  # value
            out.append(_desimplify_value(arg, prop))
    return tuple(out)


def _desimplify_value(node, prop: str | None):
    if _is_entity(node):
        return node
    if isinstance(node, tuple):
        return _desimplify_app(node)
    if isinstance(node, Num):
        kind = PROPERTIES[prop][0] if prop in PROPERTIES else None
        if kind == "date":
            return (Sym("date"), node, Num(-1), Num(-1))
        if kind == "number":
            return (Sym("number"), node)
        raise MrParseError(f"cannot restore typing for a number value of {prop!r}")
    raise MrParseError(f"cannot desimplify value {node!r}")


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
        if isinstance(node, Num):
            return [node.value]
        if isinstance(node, Sym):
            token = node.text
            if token == _PERSON_TYPE:
                return [token]
            if token.startswith("en.person."):
                return [self.db.find_person_by_id(token)]
            if token.startswith("en."):
                return [token]
            raise MrExecError("name-not-found", f"unbound symbol {token!r}")
        if not isinstance(node[0], Sym):
            raise MrExecError("type-mismatch",
                              f"operator is not a symbol: {render_ldcs(node[0])}")
        head = node[0].text
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

    def _getProperty(self, x, prop):
        if not isinstance(prop, Sym):
            raise MrExecError("type-mismatch", "getProperty expects a property symbol")
        name = prop.text
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
        if not isinstance(prop, Sym) or not isinstance(op, Sym):
            raise MrExecError("type-mismatch", "filter expects property and operator symbols")
        values_of, op = _values_of(prop.text), _comparison(op.text)
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
        if not isinstance(prop, Sym):
            raise MrExecError("type-mismatch", "superlative expects a property symbol")
        values_of = _values_of(prop.text)
        items = self._persons(self.eval(x), "superlative")
        keyed = []
        for person in items:
            values = values_of(person)
            if numeric:
                if not values:
                    continue
                if not all(isinstance(v, (int, float)) for v in values):
                    raise MrExecError("type-mismatch", f"{prop.text} is not numeric")
                keyed.append((max(values), person))
            else:
                keyed.append((len(values), person))
        return keyed

    def _superlative(self, x, mode, prop):
        return self._pick(self._keyed(x, prop, numeric=True), mode)

    def _countSuperlative(self, x, mode, prop):
        return self._pick(self._keyed(x, prop, numeric=False), mode)

    def _pick(self, keyed, mode):
        if not isinstance(mode, Sym) or mode.text not in _PICKS:
            raise MrExecError("type-mismatch", "mode must be argmax or argmin")
        if not keyed:
            return []
        target = _PICKS[mode.text](k for k, _ in keyed)
        return [p for k, p in keyed if k == target]

    def _countComparative(self, x, prop, op, count):
        if not isinstance(count, Num):
            raise MrExecError("type-mismatch", "countComparative needs a number")
        if not isinstance(prop, Sym) or not isinstance(op, Sym):
            raise MrExecError("type-mismatch",
                              "countComparative needs property and operator symbols")
        values_of, op = _values_of(prop.text), _comparison(op.text)
        items = self._persons(self.eval(x), "countComparative")
        out = []
        for person in items:
            n = len(values_of(person))
            if self._compare_any([n], op, [count.value]):
                out.append(person)
        return out

    def _aggregate(self, mode, x):
        if not isinstance(mode, Sym) or mode.text not in _AGGREGATES:
            raise MrExecError("type-mismatch", f"aggregate mode must be {'/'.join(_AGGREGATES)}")
        values = self.eval(x)
        if not values or not all(isinstance(v, (int, float)) for v in values):
            raise MrExecError("type-mismatch", "aggregate needs a nonempty number set")
        return [_AGGREGATES[mode.text](values)]


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
        elif node.__class__ is Sym:
            symbols.add(node.text)
    operators = frozenset(text.split(".")[1] if text.startswith("en.") else text
                          for text in symbols if not text.startswith("en.") or text.count(".") >= 2)
    if not operators:
        raise MrParseError("empty program has no operators")
    return operators

