"""Domain descriptions and prompt assembly.

DD sources are JSON declaration lists, one file per (environment, dialect).
Each declaration is::

    {"kind": "class" | "method" | "attribute" | "constant" | "enum-member" | "operator",
     "name": str, "parent": class name (members only),
     "params": [{"name": str, "type": str}, ...], "returns": str,
     "type": str, "signature": str, "doc": str}

Rendering variants (``render_dd``):

* ``full`` — every declaration with signatures; method/constant bodies elided
  as ``...``;
* ``no-typing`` — full with every type annotation and return type stripped;
* ``operator-list`` — declaration names only, one per line;
* ``none`` — empty text.

Prompts are assembled from a versioned plain-text template holding the slots
``[DD]``, ``[query-i]``, ``[solution-i]`` and ``[query-test]``.  Its DD header
block, the lines through the ``[DD]`` line and the blank line after it, is
included only when a DD variant is active.  The demo block follows it: the
``[query-i]`` line through the ``[solution-i]`` line and the blank line after
it, expanded once per demonstration, in order.  This module alone knows where
the test utterance goes: :func:`prompt_segments` compiles a template, DD and
demonstrations into the constant text around the ``[query-test]`` slots.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import DataFormatError, SemkitError
from .resources import STRING, Schema, data_path, read_json

DD_VARIANTS = ("none", "operator-list", "no-typing", "full")
_SLOTS = re.compile(r"(\[(?:DD|query-i|solution-i)\])")  # the markers a demo block fills
_DD_SLOT = re.compile(r"(\[DD\])")  # the one marker the lines around it fill


_DECLARATION = Schema(("kind", STRING), ("name", STRING), ("parent", STRING, None))
_KINDS = ("class", "method", "attribute", "constant", "enum-member", "operator")


def load_dd_source(path) -> list[dict]:
    """A DD source's declarations (string ``kind``, ``name`` and optional ``parent``, no two
    with one parent and name); else a DataFormatError naming the file and the entry."""
    declarations = read_json(path)
    if not isinstance(declarations, list):
        raise DataFormatError(f"{path}: expected a JSON list of declarations")
    seen = set()
    for at, decl in enumerate(declarations):
        kind, name, parent = _DECLARATION.read(decl, path, ("declarations", at))
        if kind not in _KINDS:
            raise DataFormatError(f"{path}: declarations[{at}]: bad declaration kind {kind!r}")
        if (parent, name) in seen:
            raise DataFormatError(f"{path}: declarations[{at}]: duplicate declaration "
                                  f"{(parent, name)}")
        seen.add((parent, name))
    return declarations


def dd_names(declarations: list[dict]) -> frozenset[str]:
    return frozenset(decl["name"] for decl in declarations)


def _signature(decl: dict, typed: bool) -> str:
    params = decl.get("params", [])
    if typed:
        rendered = ", ".join(
            f"{p['name']}: {p['type']}" if p.get("type") else p["name"] for p in params)
    else:
        rendered = ", ".join(p["name"] for p in params)
    text = f"{decl['name']}({rendered})"
    if typed and decl.get("returns"):
        text += f" -> {decl['returns']}"
    return text


def _render_declaration(decl: dict, typed: bool, indent: str) -> str:
    kind = decl["kind"]
    doc = decl.get("doc")
    if kind == "class":
        line = f"class {decl['name']}:"
    elif kind == "method":
        line = f"{indent}def {_signature(decl, typed)}: ..."
    elif kind == "attribute":
        if typed and decl.get("type"):
            line = f"{indent}{decl['name']}: {decl['type']}"
        else:
            line = f"{indent}{decl['name']}"
    elif kind == "enum-member":
        line = f"{indent}{decl['name']}"
    elif kind == "constant":
        if typed and decl.get("type"):
            line = f"{decl['name']}: {decl['type']} = ..."
        else:
            line = f"{decl['name']} = ..."
    else:  # operator (DSL declarations, described in the signature/doc text)
        line = decl.get("signature") or decl["name"]
    if doc:
        line += f"  # {doc}" if kind != "operator" else f": {doc}"
    return line


def render_dd(declarations: list[dict], variant: str) -> str:
    """Render a DD source in one of the ablation variants (see module docstring)."""
    if variant not in DD_VARIANTS:
        raise ValueError(f"unknown DD variant {variant!r}")
    if variant == "none":
        return ""
    if variant == "operator-list":
        return "\n".join(decl["name"] for decl in declarations)
    typed = variant == "full"
    lines = []
    for decl in declarations:
        if decl["kind"] == "class":
            lines.append(_render_declaration(decl, typed, ""))
            for member in declarations:
                if member.get("parent") == decl["name"]:
                    lines.append(_render_declaration(member, typed, "    "))
            lines.append("")
        elif not decl.get("parent") and decl["kind"] != "class":
            lines.append(_render_declaration(decl, typed, ""))
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def default_template() -> str:
    """The bundled prompt template, ``prompt_template_v1.txt``."""
    return data_path("prompt_template_v1.txt").read_text(encoding="utf-8")


def build_prompt(template: str, dd_variant: str, dd_text: str,
                 demonstrations: tuple[tuple[str, str], ...], test_utterance: str) -> str:
    """Instantiate ``template`` with a DD, (utterance, program) demonstrations and the test
    utterance; byte-deterministic in its inputs."""
    return test_utterance.join(prompt_segments(template, dd_variant, dd_text, demonstrations))


@lru_cache(maxsize=8)
def prompt_segments(template: str, dd_variant: str, dd_text: str,
                    demonstrations: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
    """The filled template's constant text around its ``[query-test]`` slots: the prompt
    for test utterance ``u`` is ``u.join(segments)``, so ``segments[0]`` is all of it
    before the first slot."""
    if (dd_variant == "none") != (dd_text == ""):
        raise SemkitError("dd_variant none requires empty dd_text and vice versa")
    if dd_variant == "none" and not demonstrations:
        raise SemkitError("a prompt needs a domain description or at least one demonstration")
    head, block, tail = _template_parts(template, dd_variant != "none")
    slots = {"[DD]": dd_text}
    segments, text = [], []
    for runs, demo in [(head, ())] + [(block, demo) for demo in demonstrations] + [(tail, ())]:
        if demo:
            slots["[query-i]"], slots["[solution-i]"] = demo
        for cut, run in enumerate(runs):
            if cut:
                segments.append("".join(text))
                text = []
            # a marker gets its slot's value and data text is kept, even one holding a marker
            text += map(slots.get, run, run)
    segments.append("".join(text)[:-1])  # each part ends in a newline, but the prompt does not
    return tuple(segments)


@lru_cache(maxsize=8)
def _template_parts(template: str, with_dd: bool) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """The lines before the demo block, the block and the lines after it, each with a
    newline after every line, cut at its ``[query-test]`` slots into runs of text split
    around the markers the part fills."""
    lines = template.splitlines()
    at = {}
    for slot in ("[DD]", "[query-i]", "[solution-i]", "[query-test]"):
        at[slot] = next((i for i, line in enumerate(lines) if slot in line), None)
        if at[slot] is None:
            raise SemkitError(f"prompt template has no {slot} slot")

    def paragraph_end(i: int) -> int:  # past line i and the blank line after it, if any
        return i + 2 if i + 1 < len(lines) and lines[i + 1] == "" else i + 1

    header_end, query_at = paragraph_end(at["[DD]"]), at["[query-i]"]
    if not header_end <= query_at <= at["[solution-i]"]:
        raise SemkitError("prompt template: the demo block, from the [query-i] line to the "
                          "[solution-i] line, must follow the DD header block")
    block_end = paragraph_end(at["[solution-i]"])
    parts = ((lines[0 if with_dd else header_end:query_at], _DD_SLOT),
             (lines[query_at:block_end], _SLOTS), (lines[block_end:], _DD_SLOT))
    return tuple(tuple(tuple(markers.split(run)) for run in "".join(
        line + "\n" for line in part).split("[query-test]")) for part, markers in parts)

