"""The one-pass FunQL, λ-DCS and Dataflow-Simple readers against the recursive
readers they replaced, kept here as references, and the nesting budget."""

import random
import re
import time

import pytest

from semkit import calflow, funql
from semkit.calflow import Call, NumberArg, Word, parse_dfs
from semkit.errors import MAX_DEPTH, TOO_DEEP, MrParseError
from semkit.execute import run_program
from semkit.funql import ALL, Apply, EntityLiteral, parse_funql
from semkit.social import (Num, Sym, desimplify_ldcs, extract_operators, parse_ldcs,
                           render_ldcs, simplify_ldcs)

# --- reference: the recursive λ-DCS reader, dialect check and simplify-and-walk ---

_SEXP_TOKEN = re.compile(r"\s*(\(|\)|[^\s()]+)")
_NUMBER = re.compile(r"-?\d+(\.\d+)?$")


def _read(tokens, index):
    if index >= len(tokens):
        raise MrParseError("unexpected end of input", position=tokens[-1][1] if tokens else 0)
    token, pos = tokens[index]
    if token == "(":
        items = []
        index += 1
        while True:
            if index >= len(tokens):
                raise MrParseError("missing closing parenthesis", position=pos)
            if tokens[index][0] == ")":
                return tuple(items), index + 1
            node, index = _read(tokens, index)
            items.append(node)
    if token == ")":
        raise MrParseError("unexpected ')'", position=pos)
    if _NUMBER.match(token):
        return Num(float(token)), index + 1
    return Sym(token), index + 1


def _check_dialect(node, dialect):
    if not isinstance(node, tuple):
        return
    if not node:
        raise MrParseError("empty application ()")
    head = node[0]
    if dialect == "full":
        if isinstance(head, Sym) and head.text == "call":
            if len(node) < 2 or not (isinstance(node[1], Sym) and node[1].text.startswith("SW.")):
                raise MrParseError("dialect-mismatch: call requires an SW.-namespaced callee")
            rest = node[2:]
        elif isinstance(head, Sym) and head.text in ("string", "date", "number"):
            rest = node[1:]
        else:
            name = head.text if isinstance(head, Sym) else str(head)
            raise MrParseError(f"dialect-mismatch: full-dialect head {name!r} is not call/typing")
    else:
        if isinstance(head, Sym) and (head.text == "call" or head.text.startswith("SW.")):
            raise MrParseError("dialect-mismatch: 'call'/'SW.' does not belong in the simple dialect")
        rest = node[1:]
    for child in rest:
        _check_dialect(child, dialect)


def reference_parse_ldcs(text, dialect):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _SEXP_TOKEN.match(text, pos)
        if match is None:
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    node, index = _read(tokens, 0)
    if index != len(tokens):
        raise MrParseError("trailing input after program", position=tokens[index][1])
    _check_dialect(node, dialect)
    return node


def _reference_simplify(node):
    if isinstance(node, (Sym, Num)):
        return node
    head = node[0]
    if head.text == "call":
        callee = node[1].text[len("SW."):]
        args = node[2:]
        if callee == "singleton" and len(args) == 1 and isinstance(args[0], Sym) \
                and args[0].text.startswith("en."):
            return args[0]
        return (Sym(callee), *(_reference_simplify(a) for a in args))
    if head.text == "string":
        if len(node) != 2 or not isinstance(node[1], Sym):
            raise MrParseError("unsupported form: (string ...) must wrap one token")
        return node[1]
    if head.text == "date":
        if (len(node) != 4 or not all(isinstance(n, Num) for n in node[1:])
                or node[2].value != -1 or node[3].value != -1):
            raise MrParseError("unsupported form: only year-granularity (date y -1 -1) dates")
        return node[1]
    if head.text == "number":
        if len(node) != 2 or not isinstance(node[1], Num):
            raise MrParseError("unsupported form: (number ...) must wrap one number")
        return node[1]
    raise MrParseError(f"unsupported form: head {head.text!r}")


def reference_ldcs_operators(root, dialect):
    node = root if dialect == "simple" else _reference_simplify(root)
    found = set()

    def walk(item):
        if isinstance(item, Num):
            return
        if isinstance(item, Sym):
            parts = item.text.split(".")
            if item.text.startswith("en."):
                if len(parts) >= 3:
                    found.add(parts[1])
            else:
                found.add(item.text)
            return
        for child in item:
            walk(child)

    walk(node)
    if not found:
        raise MrParseError("empty program has no operators")
    return frozenset(found)


# --- reference: the recursive peek/take FunQL parser -------------------------------

_FUNQL_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[a-z_][a-z0-9_]*)|(?P<name>'[^']*')|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
)


class ReferenceFunqlParser:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            match = _FUNQL_TOKEN.match(text, pos)
            if match is None:
                raise MrParseError(f"unexpected character {text[pos]!r}", position=pos)
            if match.lastgroup != "ws":
                self.tokens.append((match.lastgroup, match.group(), pos))
            pos = match.end()
        self.index = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind=None):
        token = self.peek()
        if token is None:
            raise MrParseError("unexpected end of input (unbalanced parentheses?)",
                               position=len(self.text))
        if kind is not None and token[0] != kind:
            raise MrParseError(f"expected {kind}, found {token[1]!r}", position=token[2])
        self.index += 1
        return token

    def expr(self):
        kind, value, pos = self.take()
        if kind == "ident":
            if self.peek() is not None and self.peek()[0] == "lparen":
                return self._application(value, pos)
            if value == "all":
                return ALL
            raise MrParseError(f"bare identifier {value!r} (only 'all' may appear unapplied)",
                               position=pos)
        raise MrParseError(f"expected an operator, found {value!r}", position=pos)

    def _application(self, op, pos):
        self.take("lparen")
        if op in funql.ENTITY_OPS:
            names = [self.take("name")[1][1:-1]]
            while self.peek() is not None and self.peek()[0] == "comma":
                self.take("comma")
                names.append(self.take("name")[1][1:-1])
            self.take("rparen")
            if len(names) > 2:
                raise MrParseError(f"{op} takes at most two names", position=pos)
            qualifier = names[1] if len(names) == 2 else None
            if qualifier is not None and op != "cityid":
                raise MrParseError(f"{op} takes a single name", position=pos)
            return EntityLiteral(kind=op, name=names[0].lower(),
                                 qualifier=qualifier.lower() if qualifier else qualifier)
        if op not in funql.OPERATORS:
            raise MrParseError(f"unknown operator {op!r}", position=pos)
        args = [self.expr()]
        while self.peek() is not None and self.peek()[0] == "comma":
            self.take("comma")
            args.append(self.expr())
        self.take("rparen")
        if len(args) != funql.OPERATORS[op]:
            raise MrParseError(
                f"{op} takes {funql.OPERATORS[op]} argument(s), got {len(args)}", position=pos
            )
        return Apply(op=op, args=tuple(args))


def reference_parse_funql(text):
    parser = ReferenceFunqlParser(text)
    ast = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise MrParseError(f"trailing input {leftover[1]!r}", position=leftover[2])
    if not (isinstance(ast, Apply) and ast.op == "answer"):
        raise MrParseError("program root must be answer(...)")
    return ast


def reference_funql_operators(ast):
    found = set()

    def walk(node):
        if node is ALL:
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


# --- reference: the recursive peek/take Dataflow-Simple parser ---------------------

_HEAD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?\d+$")


def _dfs_tokens(text):
    tokens = []
    buffer = ""
    buffer_start = 0
    for index, char in enumerate(text):
        if char in "(),":
            if buffer.strip():
                tokens.append(("span", " ".join(buffer.split()), buffer_start))
            buffer = ""
            tokens.append((char, char, index))
        else:
            if not buffer.strip():
                buffer_start = index
            buffer += char
    if buffer.strip():
        tokens.append(("span", " ".join(buffer.split()), buffer_start))
    return tokens


class ReferenceDfsParser:
    def __init__(self, text):
        self.tokens = _dfs_tokens(text)
        self.index = 0
        self.length = len(text)

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self, kind=None):
        token = self.peek()
        if token is None:
            raise MrParseError("unexpected end of input", position=self.length)
        if kind is not None and token[0] != kind:
            raise MrParseError(f"expected {kind!r}, found {token[1]!r}", position=token[2])
        self.index += 1
        return token

    def call(self):
        kind, head, pos = self.take("span")
        if not _HEAD_RE.match(head):
            raise MrParseError(f"bad call head {head!r}", position=pos)
        if head not in calflow.DFS_HEADS:
            raise MrParseError(f"unknown head {head!r}", position=pos)
        self.take("(")
        args = []
        if self.peek() is not None and self.peek()[0] != ")":
            args.append(self.arg())
            while self.peek() is not None and self.peek()[0] == ",":
                self.take(",")
                args.append(self.arg())
        self.take(")")
        low, high = calflow.DFS_HEADS[head]
        if len(args) < low or (high is not None and len(args) > high):
            raise MrParseError(f"{head} takes {low}..{high if high is not None else 'n'} "
                               f"arguments, got {len(args)}", position=pos)
        return Call(head=head, args=tuple(args))

    def arg(self):
        token = self.peek()
        if token is None:
            raise MrParseError("unexpected end of input", position=self.length)
        if token[0] == "span":
            follower = self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
            if follower is not None and follower[0] == "(":
                return self.call()
            self.take("span")
            if _INT_RE.match(token[1]):
                return NumberArg(int(token[1]))
            return Word(token[1])
        raise MrParseError(f"expected an argument, found {token[1]!r}", position=token[2])


def reference_parse_dfs(text):
    parser = ReferenceDfsParser(text)
    ast = parser.call()
    leftover = parser.peek()
    if leftover is not None:
        raise MrParseError(f"trailing input {leftover[1]!r}", position=leftover[2])
    return ast


def reference_dfs_operators(ast):
    found = set()

    def walk(node):
        if isinstance(node, Call):
            found.add(node.head)
            for arg in node.args:
                walk(arg)

    walk(ast)
    return frozenset(found)


# --- inputs -------------------------------------------------------------------------

def outcome(fn, *args):
    """("ok", the value), or the error's type, message and position."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "position", None)


def mutants(text, token, replacements, rng, count):
    """Seeded mutants: one token dropped, two tokens swapped, or one token replaced."""
    spans = [m.span() for m in token.finditer(text)]
    for _ in range(count):
        roll = rng.random()
        if roll < 0.35 or len(spans) < 2:
            start, end = spans[rng.randrange(len(spans))]
            yield text[:start] + text[end:]
        elif roll < 0.7:
            first, second = sorted(rng.sample(range(len(spans)), 2))
            (a, b), (c, d) = spans[first], spans[second]
            yield text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
        else:
            start, end = spans[rng.randrange(len(spans))]
            yield text[:start] + f" {rng.choice(replacements)} " + text[end:]


LDCS_TOKEN = re.compile(r"\(|\)|[^\s()]+")
LDCS_REPLACEMENTS = ("call", "SW.singleton", "string", "date", "number", "()", "-1")
FUNQL_TOKEN = re.compile(r"'[^']*'|\w+|[^\w\s]")
FUNQL_REPLACEMENTS = ("(", ")", ",", "all", "'texas'", "cityid", "answer", "Z", "'", "7")
DFS_TOKEN = re.compile(r"[(),]|[^\s(),]+")
DFS_REPLACEMENTS = ("(", ")", ",", "AND", "CreateEvent", "12", "FRIDAY", "date_by_mdy", "a b")


def ldcs_inputs(overnight):
    """(text, dialect) pairs: every bundled program in both dialects, and its mutants."""
    rng = random.Random(11)
    for example in overnight.examples:
        for text in (example.programs["ldcs"], example.programs["ldcs-simple"]):
            for variant in (text, *mutants(text, LDCS_TOKEN, LDCS_REPLACEMENTS, rng, 60)):
                yield variant, "full"
                yield variant, "simple"
    for edge in ("", "  ", ")", "()", "(())", "((a) b)", "(1 2)", "((call SW.x) y)", "x y",
                 "2004", "en.person", "en.person.alice", "(call)", "(call SW.)",
                 "(call SW.singleton en.person.alice)", "(call SW.en.person.x)",
                 "(string (call SW.a))", "(date (call SW.f (string 1)) -1 -1)",
                 "(call SW.f (string) (string 2))", "(number 1.5)", "(call SW.f -1.5x 1.5)",
                 "(call\u00a0SW.size\n(call SW.singleton\ten.person.alice)\x1c)",
                 "(call SW.f ((call SW.g)) (call SW.h (string a)))"):
        yield edge, "full"
        yield edge, "simple"


def test_ldcs_reader_matches_reference(overnight):
    counts = {"read": 0, "failed": 0, "operators": 0}
    for text, dialect in ldcs_inputs(overnight):
        expected = outcome(reference_parse_ldcs, text, dialect)
        got = outcome(parse_ldcs, text, dialect)
        if expected[0] != "ok":
            counts["failed"] += 1
            assert got == expected, (text, dialect)
            continue
        counts["read"] += 1
        tree = got[1]
        assert tree == expected[1], (text, dialect)
        simple = outcome(simplify_ldcs, tree) if dialect == "full" else ("ok", tree)
        if dialect == "full":
            assert simple == outcome(_reference_simplify, expected[1]), text
        operators = outcome(reference_ldcs_operators, expected[1], dialect)
        got_operators = simple if simple[0] != "ok" else outcome(extract_operators, simple[1])
        assert got_operators == operators, (text, dialect)
        counts["operators"] += operators[0] == "ok"
    # every outcome kind is exercised: trees with operators, trees without, errors
    assert counts["operators"] > 800 and counts["read"] > counts["operators"] \
        and counts["failed"] > 1000, counts


def test_simplify_and_desimplify_keep_the_operator_set(overnight):
    checked = 0
    for text, dialect in ldcs_inputs(overnight):
        read = outcome(parse_ldcs, text, dialect)
        if read[0] != "ok":
            continue
        tree = read[1]
        converted = outcome(simplify_ldcs if dialect == "full" else desimplify_ldcs, tree)
        if converted[0] == "ok":
            full = tree if dialect == "full" else converted[1]
            assert outcome(lambda f: extract_operators(simplify_ldcs(f)), full) == \
                outcome(reference_ldcs_operators, full, "full"), (text, dialect)
            checked += 1
    assert checked > 250, checked


def test_funql_reader_matches_reference(geoquery):
    rng = random.Random(12)
    read = failed = 0
    for example in geoquery.examples:
        text = example.programs["funql"]
        for variant in (text, *mutants(text, FUNQL_TOKEN, FUNQL_REPLACEMENTS, rng, 60)):
            expected = outcome(reference_parse_funql, variant)
            got = outcome(parse_funql, variant)
            assert got == expected, variant
            if expected[0] == "ok":
                read += 1
                assert funql.extract_operators(got[1]) == reference_funql_operators(expected[1])
            else:
                failed += 1
    assert read > 300 and failed > 1000, (read, failed)


def test_dfs_reader_matches_reference(smcalflow):
    rng = random.Random(13)
    read = failed = 0
    for example in smcalflow.examples:
        text = example.programs["dataflow-simple"]
        for variant in (text, *mutants(text, DFS_TOKEN, DFS_REPLACEMENTS, rng, 60)):
            expected = outcome(reference_parse_dfs, variant)
            got = outcome(parse_dfs, variant)
            assert got == expected, variant
            if expected[0] == "ok":
                read += 1
                assert calflow.extract_operators(got[1]) == reference_dfs_operators(expected[1])
            else:
                failed += 1
    assert read > 100 and failed > 500, (read, failed)


@pytest.mark.parametrize("text", [
    "", "answer(", "answer(all", "answer(all,", "answer(stateid(", "answer(stateid('a',",
    "answer(all))", "answer(all) x", "answer(all) Z", "answer(ZZ) (", "answer(x) 'open",
    "answer(cityid('a', 'b', 'c'))", "answer(stateid('a', 'b'))", "all", "state(all)",
    "answer (  state\n(all) )", "answer(stateid(all))", "answer(all(all))",
    "answer(\u00a0state(\u2003all)\x1c)", "answer(state(\u200ball))",
])
def test_funql_edge_inputs_match_reference(text):
    assert outcome(parse_funql, text) == outcome(reference_parse_funql, text)


@pytest.mark.parametrize("text", [
    "", "  ", "(", "Central Park", "foo", "CreateEvent", "CreateEvent ,", "CreateEvent )",
    "CreateEvent(", "CreateEvent(,", "CreateEvent( a ,", "CreateEvent() x", "CreateEvent()(",
    "CreateEvent( AND() )", "CreateEvent( has_duration( 60 ) b )", "CreateEvent(\n  )",
    "CreateEvent( at_location(  Room \t 12  ) )", "CreateEvent( AND( x(",
    "CreateEvent(\u00a0at_location(\u2003Room\x1c12 ) )\u3000",
])
def test_dfs_edge_inputs_match_reference(text):
    assert outcome(parse_dfs, text) == outcome(reference_parse_dfs, text)


# --- the nesting budget -----------------------------------------------------------

def depth(text):
    """Deepest bracket nesting of the text."""
    deepest = level = 0
    for char in text:
        if char == "(":
            level += 1
            deepest = max(deepest, level)
        elif char == ")":
            level -= 1
    return deepest


def funql_program(levels):
    return "answer(" + "state(" * (levels - 1) + "all" + ")" * levels


def ldcs_simple_program(levels):
    return "(listValue " * (levels - 1) + "(getProperty en.person !type)" + ")" * (levels - 1)


def ldcs_full_program(levels):
    return ("(call SW.listValue " * (levels - 2)
            + "(call SW.getProperty (call SW.singleton en.person) (string !type))"
            + ")" * (levels - 2))


def dfs_program(levels):
    return ("CreateEvent( " + "AND( " * (levels - 2) + "at_location( Room 12 )"
            + " )" * (levels - 1))


def nth_bracket(text, n):
    return [i for i, char in enumerate(text) if char == "("][n - 1]


def test_bundled_programs_are_well_inside_the_budget(geoquery, overnight, smcalflow):
    assert depth(funql_program(1)) == 1
    assert depth("answer(elevation_1(highest(place(loc_2(largest(state(all)))))))") == 7
    deepest = max(depth(text) for data in (geoquery, overnight, smcalflow)
                  for example in data.examples for text in example.programs.values())
    assert deepest == 7 < MAX_DEPTH


def budget_cases(levels):
    return [("funql", funql_program(levels), "geo"),
            ("ldcs-simple", ldcs_simple_program(levels), "social"),
            ("ldcs", ldcs_full_program(levels), "social"),
            ("dataflow-simple", dfs_program(levels), "calendar")]


@pytest.fixture
def worlds(geo_model, social_db, calendar_world):
    return {"geo": geo_model, "social": social_db, "calendar": calendar_world}


def test_program_at_the_budget_parses_and_runs(worlds):
    simple = parse_ldcs(ldcs_simple_program(MAX_DEPTH - 1), "simple")
    assert render_ldcs(desimplify_ldcs(simple)) == ldcs_full_program(MAX_DEPTH)
    for dialect, text, environment in budget_cases(MAX_DEPTH):
        assert depth(text) == MAX_DEPTH, dialect
        result = run_program(dialect, text, environment, worlds[environment])
        assert result.ok, (dialect, result.message)


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 5000])
def test_nesting_past_the_budget_is_a_quick_parse_error(worlds, levels):
    for dialect, text, environment in budget_cases(levels):
        assert depth(text) == levels, dialect
        started = time.perf_counter()
        result = run_program(dialect, text, environment, worlds[environment])
        assert time.perf_counter() - started < 1.0, dialect
        assert result.error == "parse-error", (dialect, result.message)
        # reported at the bracket that crosses the budget, where reading stops
        assert result.message == \
            f"{TOO_DEEP} (at position {nth_bracket(text, MAX_DEPTH + 1)})", dialect
