"""Social-network environment: people database and the two λ-DCS dialects.

The database holds people (``en.person.*`` ids) with enum-valued attributes
(``en.gender.male`` style id strings), year-granularity dates, friendships
(symmetric), and education/employment history records.

Dialects
--------
The *full* dialect wraps every application in ``(call SW.op ...)``, every
string in ``(string x)``, years in ``(date y -1 -1)``, plain numbers in
``(number n)``, and bare entities in set position in ``(call SW.singleton e)``.
The *simple* dialect removes all of that noise: heads are bare operator names
and literals are bare tokens.  ``simplify_ldcs`` / ``desimplify_ldcs`` convert
between them and are exact inverses on the supported fragment; canonical
rendering uses single spaces and parentheses only around applications.

``parse_ldcs`` reads either dialect in one pass over the tokens, with an
explicit stack: it builds the tree, checks the dialect and collects the
operator set of the simple-dialect tree, which ``extract_operators`` returns
without simplifying or walking the tree again.  Brackets nested deeper than
:data:`~semkit.errors.MAX_DEPTH` are a parse error.

Simple-dialect operators::

    listValue(set)                      size(set)            singleton(x)
    filter(set, prop, op, value)        concat(set, set)
    getProperty(set, prop)              aggregate(mode, set)     mode: sum|avg|min|max
    superlative(set, mode, prop)        countSuperlative(set, mode, prop)
    countComparative(set, prop, op, n)  op: = != < > <= >=       mode: argmax|argmin

``!prop`` is the reverse property (value to owners); ``(getProperty en.person
!type)`` denotes every person.  Results are entity/value lists; ``concat``
preserves duplicates, everything else has set semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import MAX_DEPTH, TOO_DEEP, DataFormatError, MrExecError, MrParseError
from .outcomes import Denotation
from .readonly import ReadOnlyList
from .resources import read_world


@dataclass(eq=False)
class EducationRecord:
    institution: str
    start_date: int
    end_date: int


@dataclass(eq=False)
class EmploymentRecord:
    employer: str
    job_title: str
    start_date: int
    end_date: int


@dataclass(eq=False)
class Person:
    id: str
    name: str
    gender: str
    birthdate: int
    birthplace: str
    height: int
    relationship_status: str
    is_student: bool
    friends: list["Person"] = field(default_factory=list)
    education: list[EducationRecord] = field(default_factory=list)
    employment: list[EmploymentRecord] = field(default_factory=list)

    def __repr__(self):
        return f"<{self.id}>"


@dataclass(eq=False)
class SocialDb:
    people: list[Person]

    def __post_init__(self):
        self.by_id = {p.id: p for p in self.people}

    def find_person_by_id(self, person_id: str) -> Person:
        if person_id not in self.by_id:
            raise MrExecError("name-not-found", f"no person {person_id!r}")
        return self.by_id[person_id]


_PERSON_KEYS = ("id", "name", "gender", "birthdate", "birthplace", "height",
                "relationship_status", "is_student")


def load_social_db(path) -> SocialDb:
    record = read_world(path, _PERSON_KEYS)
    people: list[Person] = []
    by_id: dict[str, Person] = {}
    for raw in record["people"]:
        person = Person(
            id=raw["id"],
            name=raw["name"],
            gender=raw["gender"],
            birthdate=int(raw["birthdate"]),
            birthplace=raw["birthplace"],
            height=int(raw["height"]),
            relationship_status=raw["relationship_status"],
            is_student=bool(raw["is_student"]),
            education=[EducationRecord(e["institution"], int(e["start_date"]), int(e["end_date"]))
                       for e in raw.get("education", [])],
            employment=[EmploymentRecord(e["employer"], e["job_title"],
                                         int(e["start_date"]), int(e["end_date"]))
                        for e in raw.get("employment", [])],
        )
        if person.id in by_id:
            raise DataFormatError(f"{path}: duplicate person id {person.id!r}")
        for rec in [*person.education, *person.employment]:
            if rec.start_date > rec.end_date:
                raise DataFormatError(f"{path}: {person.id}: start_date after end_date")
        by_id[person.id] = person
        people.append(person)
    for raw in record["people"]:
        person = by_id[raw["id"]]
        for friend_id in raw.get("friends", []):
            if friend_id not in by_id:
                raise DataFormatError(f"{path}: {person.id}: unknown friend {friend_id!r}")
            person.friends.append(by_id[friend_id])
    for person in people:
        for friend in person.friends:
            if person not in friend.friends:
                raise DataFormatError(
                    f"{path}: friendship not symmetric: {person.id} -> {friend.id}"
                )
    for person in people:
        person.friends = ReadOnlyList(person.friends)
        person.education = ReadOnlyList(person.education)
        person.employment = ReadOnlyList(person.employment)
    return SocialDb(people=ReadOnlyList(people))


# --- s-expressions --------------------------------------------------------

@dataclass(frozen=True)
class Sym:
    text: str


@dataclass(frozen=True)
class Num:
    value: float

    def render(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(self.value)


SList = tuple  # applications are plain tuples of nodes


@dataclass(frozen=True)
class LdcsAst:
    root: object
    dialect: str  # "full" | "simple"
    operators: frozenset[str]  # symbol unigrams of the simple-dialect tree
    unsupported: str | None = None  # why a full-dialect tree does not simplify


# "(", or the full dialect's "(call SW.<op>"; ")"; a number (the whole token);
# any other token: a symbol
_TOKEN = re.compile(r"(\()(?:\s*call\s+(SW\.[^\s()]*))?|(\))|(-?\d+(?:\.\d+)?(?![^\s()]))|"
                    r"[^\s()]+")
# how a list is checked: not at all, its dialect, its dialect and simplification;
# a simplified "(call SW.<op>" list keeps its symbol arguments as they are read
_FREE, _CHECKED, _SIMPLIFIED, _KEEPING = range(4)


def parse_ldcs(text: str, dialect: str) -> LdcsAst:
    """Parse one s-expression program in the given dialect ("full" or "simple").

    Each list is checked as it closes.  Errors are those of a recursive reader:
    syntax errors, else the first dialect mismatch in preorder.
    """
    if dialect not in ("full", "simple"):
        raise ValueError(f"unknown dialect {dialect!r}")
    full = dialect == "full"
    nodes: dict[str, object] = {}  # token -> its Sym or Num, shared within this parse
    seen: set[str] = set()  # full dialect: symbols of the simplified tree
    problems = []  # (kind, "(" position, message) of checked lists: preorder by position
    stack = []  # the enclosing lists: (items, position, mode)
    items = None  # the innermost open list
    opened, mode = 0, _KEEPING if full else _FREE  # its "(" position, how it is checked
    root = stack  # none read yet
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 3:  # ")"
            if items is None:
                raise MrParseError("unexpected ')'" if root is stack else
                                   "trailing input after program", position=match.start())
            node = tuple(items)
            if mode == _KEEPING:
                if not (items[1].text == "SW.singleton" and len(items) == 3
                        and _is_entity(items[2])):
                    seen.add(items[1].text[3:])
            elif mode:
                problem = _check_list(node, mode, full, seen)
                if problem is not None:
                    problems.append((problem[0], opened, problem[1]))
            if not stack:
                root, items = node, None
                continue
            items, opened, mode = stack.pop()
            items.append(node)
        elif items is None and root is not stack:
            raise MrParseError("trailing input after program", position=match.start())
        elif group is None or group == 4:  # a symbol or a number
            token = match.group()
            node = nodes.get(token)
            if node is None:
                node = nodes[token] = Sym(token) if group is None else Num(float(token))
            if mode == _KEEPING and group is None:  # also a full-dialect root symbol
                seen.add(token)
            if items is None:
                root = node
            else:
                items.append(node)
        else:  # "(", or "(call SW.<op>"
            if items is None:
                mode = _SIMPLIFIED if full else _CHECKED
            else:
                if len(stack) + 2 > MAX_DEPTH:
                    raise MrParseError(TOO_DEEP, position=match.start())
                stack.append((items, opened, mode))
                # a checked list's head is not looked into; its other lists are
                # checked (one in callee position is already its parent's mismatch)
                mode = _FREE if not (mode and items) else \
                    _SIMPLIFIED if mode == _KEEPING else _CHECKED
            opened, items = match.start(), []
            if group == 2:
                callee = match.group(2)
                items = [nodes.get("call") or nodes.setdefault("call", Sym("call")),
                         nodes.get(callee) or nodes.setdefault(callee, Sym(callee))]
                if mode == _SIMPLIFIED:
                    mode = _KEEPING
    if items is not None:
        raise MrParseError("missing closing parenthesis", position=opened)
    if root is stack:
        raise MrParseError("unexpected end of input", position=0)
    problem = min(problems, default=(None, 0, None))  # "mismatch" sorts before "unsupported"
    if problem[0] == "mismatch":
        raise MrParseError(problem[2])
    if not full:
        seen = {token for token, node in nodes.items() if node.__class__ is Sym}
    return LdcsAst(root, dialect, _operator_names(seen), problem[2])


def _check_list(node: tuple, mode: int, full: bool, seen: set) -> tuple[str, str] | None:
    """The dialect mismatch of a checked list or why it does not simplify; a
    simplified ``string`` wrapper adds the symbol it keeps to ``seen``."""
    if not node:
        return "mismatch", "empty application ()"
    text = node[0].text if node[0].__class__ is Sym else None
    if not full:
        if text is not None and (text == "call" or text.startswith("SW.")):
            return "mismatch", "dialect-mismatch: 'call'/'SW.' does not belong in the simple dialect"
    elif text == "call":
        if len(node) < 2 or not (isinstance(node[1], Sym) and node[1].text.startswith("SW.")):
            return "mismatch", "dialect-mismatch: call requires an SW.-namespaced callee"
    elif text not in ("string", "date", "number"):
        name = text if text is not None else str(node[0])
        return "mismatch", f"dialect-mismatch: full-dialect head {name!r} is not call/typing"
    elif mode != _SIMPLIFIED:
        pass
    elif text == "string":
        if len(node) != 2 or not isinstance(node[1], Sym):
            return "unsupported", "unsupported form: (string ...) must wrap one token"
        seen.add(node[1].text)
    elif text == "date":
        if (len(node) != 4 or not all(isinstance(n, Num) for n in node[1:])
                or node[2].value != -1 or node[3].value != -1):
            return "unsupported", "unsupported form: only year-granularity (date y -1 -1) dates"
    elif len(node) != 2 or not isinstance(node[1], Num):
        return "unsupported", "unsupported form: (number ...) must wrap one number"
    return None


def _operator_names(symbols) -> frozenset[str]:
    """Symbols as operator unigrams: an ``en.<kind>.<name>`` entity counts as its kind."""
    return frozenset(text.split(".")[1] if text.startswith("en.") else text
                     for text in symbols if not text.startswith("en.") or text.count(".") >= 2)


def render_ldcs(ast: LdcsAst) -> str:
    """Canonical rendering: single spaces, parentheses only around applications."""
    return _render_node(ast.root)


def _render_node(node) -> str:
    if isinstance(node, Sym):
        return node.text
    if isinstance(node, Num):
        return node.render()
    return "(" + " ".join(_render_node(child) for child in node) + ")"


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

# property -> kind of its values (drives typing-wrapper restoration and filters)
PROPERTIES: dict[str, str] = {
    "gender": "enum",
    "birthdate": "date",
    "birthplace": "enum",
    "height": "number",
    "relationship_status": "enum",
    "friends": "person",
    "institution": "enum",
    "education_start_date": "date",
    "education_end_date": "date",
    "employer": "enum",
    "job_title": "enum",
    "employment_start_date": "date",
    "employment_end_date": "date",
}


def _is_entity(node) -> bool:
    return isinstance(node, Sym) and node.text.startswith("en.")


def simplify_ldcs(ast: LdcsAst) -> LdcsAst:
    """Strip call/SW./typing/singleton noise from a full-dialect program."""
    if ast.dialect != "full":
        raise ValueError("simplify_ldcs expects a full-dialect program")
    if ast.unsupported is not None:
        raise MrParseError(ast.unsupported)
    return LdcsAst(_simplify(ast.root), "simple", ast.operators)


def _simplify(node):
    if isinstance(node, (Sym, Num)):
        return node
    if node[0].text != "call":
        return node[1]  # the token a typing wrapper wraps
    callee = node[1].text[len("SW."):]
    args = node[2:]
    if callee == "singleton" and len(args) == 1 and _is_entity(args[0]):
        return args[0]
    return (Sym(callee), *(_simplify(a) for a in args))


def desimplify_ldcs(ast: LdcsAst) -> LdcsAst:
    """Restore the canonical full dialect; inverse of simplify_ldcs."""
    if ast.dialect != "simple":
        raise ValueError("desimplify_ldcs expects a simple-dialect program")
    return LdcsAst(_desimplify_set(ast.root), "full", ast.operators)


def _desimplify_set(node):
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
            out.append(_desimplify_set(arg))
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
        kind = PROPERTIES.get(prop or "")
        if kind == "date":
            return (Sym("date"), node, Num(-1), Num(-1))
        if kind == "number":
            return (Sym("number"), node)
        raise MrParseError(f"cannot restore typing for a number value of {prop!r}")
    raise MrParseError(f"cannot desimplify value {node!r}")


# --- execution -------------------------------------------------------------

_PERSON_TYPE = "en.person"


def _property_values(person: Person, prop: str):
    if prop == "gender":
        return [person.gender]
    if prop == "birthdate":
        return [person.birthdate]
    if prop == "birthplace":
        return [person.birthplace]
    if prop == "height":
        return [person.height]
    if prop == "relationship_status":
        return [person.relationship_status]
    if prop == "friends":
        return list(person.friends)
    if prop == "institution":
        return [e.institution for e in person.education]
    if prop == "education_start_date":
        return [e.start_date for e in person.education]
    if prop == "education_end_date":
        return [e.end_date for e in person.education]
    if prop == "employer":
        return [e.employer for e in person.employment]
    if prop == "job_title":
        return [e.job_title for e in person.employment]
    if prop == "employment_start_date":
        return [e.start_date for e in person.employment]
    if prop == "employment_end_date":
        return [e.end_date for e in person.employment]
    raise MrExecError("unknown-property", f"no property {prop!r}")


def _dedup(items):
    out, seen = [], set()
    for item in items:
        key = id(item) if isinstance(item, Person) else ("v", item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


class _LdcsEval:
    def __init__(self, db: SocialDb):
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
            raise MrExecError("unknown-property", f"unbound symbol {token!r}")
        head = node[0].text if isinstance(node[0], Sym) else None
        if head not in SIMPLE_OPS:
            raise MrExecError("unknown-property", f"unknown operator {head!r}")
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

    def _singleton(self, x):
        return self.eval(x)

    def _size(self, x):
        return [len(self.eval(x))]

    def _concat(self, a, b):
        return self.eval(a) + self.eval(b)

    def _getProperty(self, x, prop):
        if not isinstance(prop, Sym):
            raise MrExecError("type-mismatch", "getProperty expects a property symbol")
        items = self.eval(x)
        name = prop.text
        if name == "!type":
            out = []
            for item in items:
                if item == _PERSON_TYPE:
                    out.extend(self.db.people)
                elif isinstance(item, Person):
                    out.append(_PERSON_TYPE)
                else:
                    raise MrExecError("type-mismatch", f"!type of {item!r}")
            return _dedup(out)
        if name.startswith("!"):
            base = name[1:]
            if base not in PROPERTIES:
                raise MrExecError("unknown-property", f"no property {base!r}")
            values = set(self._value_keys(items))
            return [p for p in self.db.people
                    if values & set(self._value_keys(_property_values(p, base)))]
        out = []
        for person in self._persons(items, "getProperty"):
            out.extend(_property_values(person, name))
        return _dedup(out)

    @staticmethod
    def _value_keys(items):
        return [id(v) if isinstance(v, Person) else ("v", v) for v in items]

    def _filter(self, x, prop, op, value):
        if not isinstance(prop, Sym) or not isinstance(op, Sym):
            raise MrExecError("type-mismatch", "filter expects property and operator symbols")
        items = self._persons(self.eval(x), "filter")
        targets = self.eval(value)
        out = []
        for person in items:
            values = _property_values(person, prop.text)
            if self._compare_any(values, op.text, targets):
                out.append(person)
        return out

    def _compare_any(self, values, op: str, targets) -> bool:
        if op == "=":
            return any(self._eq(v, t) for v in values for t in targets)
        if op == "!=":
            return not any(self._eq(v, t) for v in values for t in targets)
        for v in values:
            for t in targets:
                if not isinstance(v, (int, float)) or not isinstance(t, (int, float)):
                    raise MrExecError("type-mismatch", f"{op} needs numeric operands")
                if (op == "<" and v < t) or (op == ">" and v > t) \
                        or (op == "<=" and v <= t) or (op == ">=" and v >= t):
                    return True
        return False

    @staticmethod
    def _eq(a, b) -> bool:
        if isinstance(a, Person) or isinstance(b, Person):
            return a is b
        return a == b

    def _keyed(self, x, prop, numeric: bool):
        if not isinstance(prop, Sym):
            raise MrExecError("type-mismatch", "superlative expects a property symbol")
        items = self._persons(self.eval(x), "superlative")
        keyed = []
        for person in items:
            values = _property_values(person, prop.text)
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
        if not isinstance(mode, Sym) or mode.text not in ("argmax", "argmin"):
            raise MrExecError("type-mismatch", "mode must be argmax or argmin")
        if not keyed:
            return []
        target = max(k for k, _ in keyed) if mode.text == "argmax" else min(k for k, _ in keyed)
        return [p for k, p in keyed if k == target]

    def _countComparative(self, x, prop, op, count):
        if not isinstance(count, Num):
            raise MrExecError("type-mismatch", "countComparative needs a number")
        if not isinstance(prop, Sym) or not isinstance(op, Sym):
            raise MrExecError("type-mismatch",
                              "countComparative needs property and operator symbols")
        items = self._persons(self.eval(x), "countComparative")
        out = []
        for person in items:
            n = len(_property_values(person, prop.text))
            if self._compare_any([n], op.text, [count.value]):
                out.append(person)
        return out

    def _aggregate(self, mode, x):
        if not isinstance(mode, Sym) or mode.text not in ("sum", "avg", "min", "max"):
            raise MrExecError("type-mismatch", "aggregate mode must be sum/avg/min/max")
        values = self.eval(x)
        if not values or not all(isinstance(v, (int, float)) for v in values):
            raise MrExecError("type-mismatch", "aggregate needs a nonempty number set")
        if mode.text == "sum":
            return [sum(values)]
        if mode.text == "avg":
            return [sum(values) / len(values)]
        return [max(values) if mode.text == "max" else min(values)]


def value_ref(item) -> tuple[str, str]:
    """Canonical (kind, id) pair for a social execution result item."""
    if isinstance(item, Person):
        return ("person", item.id)
    parts = str(item).split(".")
    kind = parts[1] if len(parts) >= 3 and parts[0] == "en" else "value"
    return (kind, str(item))


def exec_ldcs_simple(ast: LdcsAst, db: SocialDb) -> Denotation:
    """Execute a simple-dialect program against the people database."""
    if ast.dialect != "simple":
        raise ValueError("exec_ldcs_simple expects the simple dialect")
    items = _LdcsEval(db).eval(ast.root)
    if items and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        return Denotation.of_numbers(items)
    if any(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        raise MrExecError("type-mismatch", "mixed numbers and entities in a result")
    return Denotation.of_entities(value_ref(v) for v in items)


def extract_operators(ast: LdcsAst) -> frozenset[str]:
    """Heads, property/operator symbols and enum kinds of the simple-dialect tree.

    ``parse_ldcs`` collects them while reading; a full-dialect program counts
    the symbols of its simplification, so one that does not simplify raises here.
    """
    if ast.unsupported is not None:
        raise MrParseError(ast.unsupported)
    if not ast.operators:
        raise MrParseError("empty program has no operators")
    return ast.operators
