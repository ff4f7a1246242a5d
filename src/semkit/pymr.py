"""Restricted-Python meaning representations: the checker and the sandboxed evaluator.

A program is a single ``def answer():`` function (no parameters, no decorators,
optional return annotation) whose body uses only the supported subset:

* statements: single-target assignment, expression statement, ``return``,
  ``for ... in ...``, ``if``/``else``;
* expressions: literals, list displays, calls with positional/keyword
  arguments, attribute access, single indexing, list comprehensions,
  generator expressions (only as the sole argument of any/all/max/min/sum/
  list/set), one-parameter lambdas in argument position, single-operator
  comparisons, ``and``/``or``/``not``, ``+ - * /``, ``in``/``not in``;
* builtins: max, min, len, sum, sorted, list, set, any, all, abs;
  collection methods: list.append/extend/remove, set.add/update.

Anything else is rejected at parse time with a structured
unsupported-construct error (string methods, which cannot be detected
statically in untyped code, are rejected when evaluated); the same checked
pass collects the program's operator set.  Evaluation is
sandboxed: the only resolvable names are the environment binding (below), the
builtin registry, and local assignments; unknown names and attributes become
captured failures, never host behavior.

This module imports no world.  Each world's module (named in
:data:`semkit.execute.ENVIRONMENTS`) declares ``PYMR = (bind, names, readable,
namespaces, answer)``: ``bind(world)`` gives the top-level names, ``names`` the
closed name surface (:func:`binding_names`); instances of ``readable`` classes and
``namespaces`` classes themselves expose attributes; ``answer(value, binding)``
is the outcome value of what the program returned.

Runtime errors (name-not-found, attribute-not-found, type-mismatch,
index-out-of-range, empty-input, ...) raise :class:`~semkit.errors.MrExecError`;
:func:`semkit.execute.run_program` captures them, like any other exception, into
failure outcomes, so a batch run scores them as incorrect without crashing.
"""

from __future__ import annotations

import ast as pyast
import builtins
import operator
from dataclasses import dataclass
from importlib import import_module

from . import execute
from .errors import MAX_DEPTH, TOO_DEEP, MrExecError, MrParseError, UnsupportedConstructError
from .outcomes import Denotation, WorldDelta

BUILTIN_NAMES = ("max", "min", "len", "sum", "sorted", "list", "set", "any", "all", "abs")
_GENEXP_HOSTS = ("any", "all", "max", "min", "sum", "list", "set")
LIST_METHODS = ("append", "extend", "remove")
SET_METHODS = ("add", "update")


@dataclass(frozen=True)
class PymrAst:
    func: pyast.FunctionDef
    operators: frozenset[str]  # collected while the program is checked


# --- parsing ----------------------------------------------------------------

_STMT_NAMES = {
    pyast.While: "while", pyast.With: "with", pyast.Try: "try", pyast.Raise: "raise",
    pyast.Import: "import", pyast.ImportFrom: "import", pyast.ClassDef: "class",
    pyast.FunctionDef: "nested function", pyast.AsyncFunctionDef: "async function",
    pyast.AugAssign: "augmented assignment", pyast.AnnAssign: "annotated assignment",
    pyast.Delete: "del", pyast.Global: "global", pyast.Nonlocal: "nonlocal",
    pyast.Assert: "assert", pyast.Match: "match",
    pyast.Break: "break", pyast.Continue: "continue", pyast.Pass: "pass",
}

_EXPR_NAMES = {
    pyast.Dict: "dict display", pyast.Set: "set display", pyast.DictComp: "dict comprehension",
    pyast.SetComp: "set comprehension", pyast.Await: "await", pyast.Yield: "yield",
    pyast.YieldFrom: "yield", pyast.JoinedStr: "f-string", pyast.Starred: "starred expression",
    pyast.NamedExpr: "walrus assignment", pyast.IfExp: "conditional expression",
    pyast.Slice: "slice", pyast.Tuple: "tuple display",
}

# the supported operators: what each evaluates to
_BINOPS = {pyast.Add: operator.add, pyast.Sub: operator.sub,
           pyast.Mult: operator.mul, pyast.Div: operator.truediv}
_CMPOPS = {pyast.Eq: operator.eq, pyast.NotEq: operator.ne, pyast.Lt: operator.lt,
           pyast.LtE: operator.le, pyast.Gt: operator.gt, pyast.GtE: operator.ge,
           pyast.In: lambda a, b: a in b, pyast.NotIn: lambda a, b: a not in b}
_GENEXP_MESSAGE = ("generator expressions may only be the sole argument of "
                   "any/all/max/min/sum/list/set")


def parse_pymr(text: str) -> PymrAst:
    """Parse program text, enforcing the construct subset, and collect its operators.

    One pass over the function body checks every node and collects the
    operator set :func:`extract_operators` returns: accessed attributes not
    starting with ``_`` and called names that are not builtins.  The same pass
    bounds nesting by :data:`~semkit.errors.MAX_DEPTH` (each statement,
    expression and comprehension clause is one level), so evaluation never
    recurses deeper; input too deep for Python's own parser is rejected too.
    """
    try:
        module = pyast.parse(text)
    except SyntaxError as exc:
        raise MrParseError(f"syntax error: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise MrParseError(TOO_DEEP) from None
    body = [s for s in module.body if not _is_docstring(s)]
    if len(body) != 1 or not isinstance(body[0], pyast.FunctionDef):
        for stmt in module.body:
            if isinstance(stmt, (pyast.Import, pyast.ImportFrom)):
                raise UnsupportedConstructError("import", line=stmt.lineno)
        raise MrParseError("program must be exactly one top-level function")
    func = body[0]
    if func.name != "answer":
        raise MrParseError(f"the function must be named 'answer', not {func.name!r}")
    args = func.args
    if (args.args or args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg
            or args.defaults or args.kw_defaults):
        raise MrParseError("answer() takes no parameters")
    if func.decorator_list:
        raise UnsupportedConstructError("decorator", line=func.decorator_list[0].lineno)
    found: set[str] = set()
    for stmt in func.body:
        _check_stmt(stmt, found, 1)
    if func.returns is not None:  # tolerated unchecked, so walked for operators
        for node in pyast.walk(func.returns):
            if type(node) is pyast.Attribute and not node.attr.startswith("_"):
                found.add(node.attr)
            elif (type(node) is pyast.Call and type(node.func) is pyast.Name
                  and node.func.id not in BUILTIN_NAMES):
                found.add(node.func.id)
    return PymrAst(func=func, operators=frozenset(found))


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, pyast.Expr) and isinstance(stmt.value, pyast.Constant)
            and isinstance(stmt.value.value, str))


def _check_stmt(stmt, found: set, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise MrParseError(TOO_DEEP, line=stmt.lineno)
    kind = type(stmt)
    name = _STMT_NAMES.get(kind)
    if name is not None:
        raise UnsupportedConstructError(name, line=stmt.lineno)
    if kind is pyast.Assign:
        if len(stmt.targets) != 1:
            raise UnsupportedConstructError("chained assignment", line=stmt.lineno)
        target = type(stmt.targets[0])
        if target is pyast.Attribute:
            raise UnsupportedConstructError("attribute assignment", line=stmt.lineno)
        if target is not pyast.Name:
            raise UnsupportedConstructError("destructuring assignment", line=stmt.lineno)
        _check_expr(stmt.value, found, depth + 1)
    elif kind is pyast.Expr:
        _check_expr(stmt.value, found, depth + 1)
    elif kind is pyast.Return:
        if stmt.value is not None:
            _check_expr(stmt.value, found, depth + 1)
    elif kind is pyast.For:
        if stmt.orelse:
            raise UnsupportedConstructError("for-else", line=stmt.lineno)
        if type(stmt.target) is not pyast.Name:
            raise UnsupportedConstructError("destructuring loop target", line=stmt.lineno)
        _check_expr(stmt.iter, found, depth + 1)
        for inner in stmt.body:
            _check_stmt(inner, found, depth + 1)
    elif kind is pyast.If:
        _check_expr(stmt.test, found, depth + 1)
        for inner in [*stmt.body, *stmt.orelse]:
            _check_stmt(inner, found, depth + 1)
    else:
        raise UnsupportedConstructError(kind.__name__.lower(),
                                        line=getattr(stmt, "lineno", None))


def _check_expr(expr, found: set, depth: int, in_call_args: bool = False) -> None:
    kind = type(expr)
    if kind is pyast.Name or kind is pyast.Constant:
        return
    if depth > MAX_DEPTH:
        raise MrParseError(TOO_DEEP, line=expr.lineno)
    depth += 1
    name = _EXPR_NAMES.get(kind)
    if name is not None:
        raise UnsupportedConstructError(name, line=getattr(expr, "lineno", None))
    if kind is pyast.Attribute:
        if not expr.attr.startswith("_"):
            found.add(expr.attr)
        _check_expr(expr.value, found, depth)
    elif kind is pyast.Call:
        _check_expr(expr.func, found, depth)
        host = expr.func.id if type(expr.func) is pyast.Name else None
        if host is not None and host not in BUILTIN_NAMES:
            found.add(host)
        for arg in expr.args:
            if type(arg) is pyast.GeneratorExp:
                if host not in _GENEXP_HOSTS or len(expr.args) != 1:
                    raise UnsupportedConstructError(
                        "generator expression", _GENEXP_MESSAGE, line=arg.lineno)
                _check_comprehension(arg, found, depth)
            else:
                _check_expr(arg, found, depth, in_call_args=True)
        for kw in expr.keywords:
            if kw.arg is None:
                raise UnsupportedConstructError("**kwargs", line=expr.lineno)
            _check_expr(kw.value, found, depth, in_call_args=True)
    elif kind is pyast.List:
        for item in expr.elts:
            _check_expr(item, found, depth)
    elif kind is pyast.Subscript:
        if type(expr.slice) is pyast.Slice:
            raise UnsupportedConstructError("slice", line=expr.lineno)
        _check_expr(expr.value, found, depth)
        _check_expr(expr.slice, found, depth)
    elif kind is pyast.Lambda:
        if not in_call_args:
            raise UnsupportedConstructError(
                "lambda", "lambda is only allowed as a call argument", line=expr.lineno)
        args = expr.args
        if (len(args.args) != 1 or args.posonlyargs or args.kwonlyargs
                or args.vararg or args.kwarg or args.defaults):
            raise UnsupportedConstructError(
                "lambda", "lambda must take exactly one parameter", line=expr.lineno)
        _check_expr(expr.body, found, depth)
    elif kind is pyast.ListComp:
        _check_comprehension(expr, found, depth)
    elif kind is pyast.GeneratorExp:
        raise UnsupportedConstructError("generator expression", _GENEXP_MESSAGE,
                                        line=expr.lineno)
    elif kind is pyast.Compare:
        if len(expr.ops) != 1:
            raise UnsupportedConstructError("chained comparison", line=expr.lineno)
        if type(expr.ops[0]) not in _CMPOPS:
            raise UnsupportedConstructError(
                f"operator {type(expr.ops[0]).__name__}", line=expr.lineno)
        _check_expr(expr.left, found, depth)
        _check_expr(expr.comparators[0], found, depth)
    elif kind is pyast.BoolOp:
        for value in expr.values:
            _check_expr(value, found, depth)
    elif kind is pyast.UnaryOp:
        if type(expr.op) not in (pyast.Not, pyast.USub):
            raise UnsupportedConstructError("unary operator", line=expr.lineno)
        _check_expr(expr.operand, found, depth)
    elif kind is pyast.BinOp:
        if type(expr.op) not in _BINOPS:
            raise UnsupportedConstructError(
                f"operator {type(expr.op).__name__}", line=expr.lineno)
        _check_expr(expr.left, found, depth)
        _check_expr(expr.right, found, depth)
    else:
        raise UnsupportedConstructError(kind.__name__.lower(),
                                        line=getattr(expr, "lineno", None))


def _check_comprehension(comp, found: set, depth: int) -> None:
    # evaluation nests one level per clause, and the element inside them all
    _check_expr(comp.elt, found, depth + len(comp.generators))
    for gen in comp.generators:
        if gen.is_async:
            raise UnsupportedConstructError("async comprehension")
        if type(gen.target) is not pyast.Name:
            raise UnsupportedConstructError("destructuring comprehension target")
        _check_expr(gen.iter, found, depth)
        for cond in gen.ifs:
            _check_expr(cond, found, depth)
        depth += 1


# --- environment surfaces -----------------------------------------------------

def _surface(environment: str) -> tuple:
    """The ``PYMR`` record of the environment's module, imported on first use."""
    return import_module(execute.ENVIRONMENTS[environment][0]).PYMR


def binding_names(environment: str) -> frozenset[str]:
    """The closed name surface of an environment: roots, classes, members.

    This is exactly the set of names the corresponding full domain
    description declares (tests assert both directions).
    """
    return _surface(environment)[1]


# --- evaluation ---------------------------------------------------------------

class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Lambda:
    def __init__(self, node: pyast.Lambda, interp: "_Interpreter", scope: dict):
        self.node = node
        self.interp = interp
        self.scope = scope

    def __call__(self, value):
        inner = dict(self.scope)
        inner[self.node.args.args[0].arg] = value
        return self.interp.eval(self.node.body, inner)


_BUILTINS = {name: getattr(builtins, name) for name in BUILTIN_NAMES}


class _Interpreter:
    def __init__(self, binding: dict, readable: tuple, namespaces: tuple):
        self.binding, self.readable, self.namespaces = binding, readable, namespaces

    def run(self, func: pyast.FunctionDef):
        scope: dict = {}
        try:
            for stmt in func.body:
                self.exec_stmt(stmt, scope)
        except _Return as ret:
            return ret.value
        return None

    def exec_stmt(self, stmt, scope: dict) -> None:
        if isinstance(stmt, pyast.Assign):
            scope[stmt.targets[0].id] = self.eval(stmt.value, scope)
        elif isinstance(stmt, pyast.Expr):
            self.eval(stmt.value, scope)
        elif isinstance(stmt, pyast.Return):
            raise _Return(self.eval(stmt.value, scope) if stmt.value is not None else None)
        elif isinstance(stmt, pyast.For):
            iterable = self.eval(stmt.iter, scope)
            for item in self._iter(iterable):
                scope[stmt.target.id] = item
                for inner in stmt.body:
                    self.exec_stmt(inner, scope)
        elif isinstance(stmt, pyast.If):
            branch = stmt.body if self.eval(stmt.test, scope) else stmt.orelse
            for inner in branch:
                self.exec_stmt(inner, scope)
        else:  # pragma: no cover - parser rejects everything else
            raise MrExecError("unsupported-construct", type(stmt).__name__)

    @staticmethod
    def _iter(value):
        if isinstance(value, (list, tuple, set, frozenset)):
            return list(value)
        raise MrExecError("type-mismatch", f"cannot iterate over {type(value).__name__}")

    def eval(self, expr, scope: dict):
        if isinstance(expr, pyast.Constant):
            return expr.value
        if isinstance(expr, pyast.Name):
            return self._lookup(expr.id, scope)
        if isinstance(expr, pyast.List):
            return [self.eval(e, scope) for e in expr.elts]
        if isinstance(expr, pyast.Attribute):
            return self._attribute(self.eval(expr.value, scope), expr.attr)
        if isinstance(expr, pyast.Subscript):
            return self._index(self.eval(expr.value, scope), self.eval(expr.slice, scope))
        if isinstance(expr, pyast.Call):
            return self._call(expr, scope)
        if isinstance(expr, pyast.Lambda):
            return _Lambda(expr, self, scope)
        if isinstance(expr, pyast.ListComp):
            return self._comprehension(expr, scope)
        if isinstance(expr, pyast.Compare):
            return self._compare(expr, scope)
        if isinstance(expr, pyast.BoolOp):
            result = None
            for value_expr in expr.values:
                result = self.eval(value_expr, scope)
                if isinstance(expr.op, pyast.And) and not result:
                    return result
                if isinstance(expr.op, pyast.Or) and result:
                    return result
            return result
        if isinstance(expr, pyast.UnaryOp):
            operand = self.eval(expr.operand, scope)
            if isinstance(expr.op, pyast.Not):
                return not operand
            return self._arith(lambda a, b: -a, operand, 0, "-")
        if isinstance(expr, pyast.BinOp):
            left = self.eval(expr.left, scope)
            right = self.eval(expr.right, scope)
            return self._arith(_BINOPS[type(expr.op)], left, right, type(expr.op).__name__)
        raise MrExecError("unsupported-construct", type(expr).__name__)  # pragma: no cover

    @staticmethod
    def _arith(op, left, right, label):
        try:
            return op(left, right)
        except ZeroDivisionError as exc:
            raise MrExecError("division-by-zero", str(exc)) from exc
        except TypeError as exc:
            raise MrExecError("type-mismatch", f"{label}: {exc}") from exc

    def _lookup(self, name: str, scope: dict):
        if name in scope:
            return scope[name]
        if name in self.binding:
            return self.binding[name]
        if name in _BUILTINS:
            return _BUILTINS[name]
        raise MrExecError("name-not-found", f"name {name!r} is not defined")

    def _attribute(self, base, attr: str):
        if attr.startswith("_"):
            raise MrExecError("attribute-not-found", f"no attribute {attr!r}")
        if isinstance(base, list):
            if attr in LIST_METHODS:
                return getattr(base, attr)
            raise MrExecError("attribute-not-found", f"lists have no attribute {attr!r}")
        if isinstance(base, set):
            if attr in SET_METHODS:
                return getattr(base, attr)
            raise MrExecError("attribute-not-found", f"sets have no attribute {attr!r}")
        if isinstance(base, self.readable) or (isinstance(base, type) and base in self.namespaces):
            try:
                return getattr(base, attr)
            except AttributeError as exc:
                raise MrExecError("attribute-not-found", str(exc)) from exc
        raise MrExecError(
            "attribute-not-found",
            f"values of type {type(base).__name__} expose no attributes")

    @staticmethod
    def _index(base, key):
        if not isinstance(base, (list, str)):
            raise MrExecError("type-mismatch", f"cannot index {type(base).__name__}")
        if not isinstance(key, int) or isinstance(key, bool):
            raise MrExecError("type-mismatch", "indices must be integers")
        try:
            return base[key]
        except IndexError as exc:
            raise MrExecError("index-out-of-range", str(exc)) from exc

    def _call(self, expr: pyast.Call, scope: dict):
        func = self.eval(expr.func, scope)
        args = []
        for arg in expr.args:
            if isinstance(arg, pyast.GeneratorExp):
                args.append(self._comprehension(arg, scope))
            else:
                args.append(self.eval(arg, scope))
        kwargs = {kw.arg: self.eval(kw.value, scope) for kw in expr.keywords}
        if not callable(func):
            raise MrExecError("type-mismatch", f"{type(func).__name__} is not callable")
        try:
            return func(*args, **kwargs)
        except MrExecError:
            raise
        except ValueError as exc:
            raise MrExecError("empty-input", str(exc)) from exc
        except TypeError as exc:
            raise MrExecError("type-mismatch", str(exc)) from exc

    def _comprehension(self, comp, scope: dict):
        results = []

        def loop(generators, inner_scope):
            if not generators:
                results.append(self.eval(comp.elt, inner_scope))
                return
            gen = generators[0]
            for item in self._iter(self.eval(gen.iter, inner_scope)):
                child = dict(inner_scope)
                child[gen.target.id] = item
                if all(self.eval(cond, child) for cond in gen.ifs):
                    loop(generators[1:], child)

        loop(list(comp.generators), dict(scope))
        return results

    def _compare(self, expr: pyast.Compare, scope: dict):
        left = self.eval(expr.left, scope)
        right = self.eval(expr.comparators[0], scope)
        try:
            return _CMPOPS[type(expr.ops[0])](left, right)
        except TypeError as exc:
            raise MrExecError("type-mismatch", str(exc)) from exc


def exec_pymr(ast: PymrAst, environment: str, env_object) -> Denotation | WorldDelta:
    """Run a parsed program against an environment: its answer, or raises."""
    bind, _, readable, namespaces, answer = _surface(environment)
    binding = bind(env_object)
    return answer(_Interpreter(binding, readable, namespaces).run(ast.func), binding)


def extract_operators(ast: PymrAst) -> frozenset[str]:
    """Accessed attributes, called non-builtin names, constructors, enum members.

    The set is collected by :func:`parse_pymr` while it checks the program.
    """
    return ast.operators
