"""Meaning-preserving rewrites of every bundled gold program score ``correct``.

The scorer must be blind to a program's form.  Each rewrite below keeps a gold
program's meaning, so :func:`semkit.evaluation.scorer` must score it ``correct``
against every gold program of its example, in every dialect the example has:

* pymr: ``ast.unparse`` (quote style and spacing), renamed locals, and each
  call's keyword arguments in reverse order;
* Dataflow-Simple: each other order of the clauses of each ``AND( ... )``;
* FunQL: the operands of each ``intersection`` swapped.

The DSL rewrites edit the parsed trees, which are plain named tuples, strings
and numbers, and render them back to text.  Hoisting a literal into a local
variable is left out: a calendar name held in a variable is not canonicalized
(``test_a_name_held_in_a_variable_is_not_canonicalized``).
"""

import ast
import itertools

import pytest

from semkit.calflow import Call, parse_dfs, render_dfs
from semkit.evaluation import scorer
from semkit.funql import Apply, parse_funql, render_funql


@pytest.fixture(scope="module")
def bundled(geoquery, overnight, smcalflow, geo_model, social_db, calendar_world):
    """environment -> (its dataset, a scorer over its bundled world)"""
    return {"geo": (geoquery, scorer("geo", geo_model)),
            "social": (overnight, scorer("social", social_db)),
            "calendar": (smcalflow, scorer("calendar", calendar_world))}


def scored(score, example, dialect, programs) -> int:
    """How many scorings ``programs`` (rewrites of the example's ``dialect`` gold) took; each
    must be ``correct`` against every gold program of ``example``."""
    count = 0
    for program in programs:
        for gold_dialect, gold in example.programs.items():
            verdict = score(dialect, program, gold_dialect, gold)
            assert verdict == "correct", (example.id, gold_dialect, program)
            count += 1
    return count


# --- pymr: rewrites of the Python syntax tree --------------------------------------

def renamed_locals(tree: ast.Module) -> ast.Module:
    """Every name the program binds (assignment, loop, comprehension or lambda target)
    renamed to one that nothing else uses."""
    bound = sorted({node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
                   | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)})
    fresh = {name: f"renamed_{at}" for at, name in enumerate(bound)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in fresh:
            node.id = fresh[node.id]
        elif isinstance(node, ast.arg) and node.arg in fresh:
            node.arg = fresh[node.arg]
    return tree


def reversed_keywords(tree: ast.Module) -> ast.Module:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            node.keywords.reverse()
    return tree


PYMR_REWRITES = {"unparse": lambda tree: tree, "rename locals": renamed_locals,
                 "reverse keywords": reversed_keywords}


def test_pymr_golds_rewritten_score_correct(bundled):
    count, changed = 0, dict.fromkeys(PYMR_REWRITES, 0)
    for dataset, score in bundled.values():
        for example in dataset.examples:
            gold = example.programs["pymr"]
            unparsed = ast.unparse(ast.parse(gold))
            for name, rewrite in PYMR_REWRITES.items():
                program = ast.unparse(rewrite(ast.parse(gold)))
                changed[name] += program != (gold if name == "unparse" else unparsed)
                count += scored(score, example, "pymr", [program])
    assert count == 600
    # how many of the 90 golds each rewrite changes (the last two: beyond unparsing)
    assert changed == {"unparse": 60, "rename locals": 60, "reverse keywords": 20}


# --- the DSLs: rewrites of the parsed trees ------------------------------------------

def variants(node, kind, rewrite):
    """Each tree made from ``node`` by replacing one of its ``kind`` nodes (an application
    with ``args``) by one of ``rewrite(that node)``."""
    if not isinstance(node, kind):
        return
    yield from rewrite(node)
    for at, arg in enumerate(node.args):
        for variant in variants(arg, kind, rewrite):
            yield node._replace(args=(*node.args[:at], variant, *node.args[at + 1:]))


def and_permutations(node: Call):
    if node.head == "AND":  # every order but the first, which is the program's own
        for order in itertools.islice(itertools.permutations(node.args), 1, None):
            yield node._replace(args=order)


def intersection_swapped(node: Apply):
    if node.op == "intersection":
        yield node._replace(args=node.args[::-1])


def test_dataflow_simple_golds_with_permuted_and_clauses_score_correct(bundled):
    dataset, score = bundled["calendar"]
    count = 0
    for example in dataset.examples:
        tree = parse_dfs(example.programs["dataflow-simple"])
        programs = [render_dfs(v) for v in variants(tree, Call, and_permutations)]
        count += scored(score, example, "dataflow-simple", programs)
    assert count == 392


def test_funql_golds_with_swapped_intersection_operands_score_correct(bundled):
    dataset, score = bundled["geo"]
    count = 0
    for example in dataset.examples:
        tree = parse_funql(example.programs["funql"])
        programs = [render_funql(v) for v in variants(tree, Apply, intersection_swapped)]
        assert all(program != render_funql(tree) for program in programs)
        count += scored(score, example, "funql", programs)
    assert count == 2
