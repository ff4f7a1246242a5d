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

Prompts are assembled from a versioned plain-text template whose first three
lines are the DD header block (included only when a DD variant is active) and
which carries ``[DD]``, ``[query-i]``, ``[solution-i]`` and ``[query-test]``
slots; demonstrations expand the query/solution block once per demo, in order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import DataFormatError, SemkitError
from .resources import template_path

DD_VARIANTS = ("none", "operator-list", "no-typing", "full")
_SLOT = re.compile(r"(\[(?:DD|query-i|solution-i|query-test)\])")


def load_dd_source(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        declarations = json.load(fh)
    seen = set()
    for decl in declarations:
        if decl.get("kind") not in ("class", "method", "attribute", "constant",
                                    "enum-member", "operator"):
            raise DataFormatError(f"{path}: bad declaration kind {decl.get('kind')!r}")
        key = (decl.get("parent"), decl["name"])
        if key in seen:
            raise DataFormatError(f"{path}: duplicate declaration {key}")
        seen.add(key)
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


@dataclass(frozen=True)
class PromptSpec:
    dd_variant: str
    dd_text: str
    demonstrations: tuple[tuple[str, str], ...]  # (utterance, program)
    test_utterance: str
    dialect: str
    template_id: str = "v1"


def default_template(template_id: str = "v1") -> str:
    return template_path(template_id).read_text(encoding="utf-8")


def build_prompt(spec: PromptSpec, template: str | None = None) -> str:
    """Instantiate the prompt template; byte-deterministic in its inputs."""
    if (spec.dd_variant == "none") != (spec.dd_text == ""):
        raise SemkitError("dd_variant none requires empty dd_text and vice versa")
    if spec.dd_variant == "none" and not spec.demonstrations:
        raise SemkitError("a prompt needs a domain description or at least one demonstration")
    head, block, tail = _template_parts(template or default_template(spec.template_id),
                                        spec.dd_variant != "none")
    slots = {"[DD]": spec.dd_text, "[query-test]": spec.test_utterance}
    parts = [_fill(head, slots)] if head else []
    ending = [_fill(tail, slots)] if tail else []
    demo = dict(slots)
    for utterance, program in spec.demonstrations:
        demo["[query-i]"], demo["[solution-i]"] = utterance, program
        parts.append(_fill(block, demo))
    return "\n".join(parts + ending)


@lru_cache(maxsize=8)
def _template_parts(template: str, with_dd: bool) -> tuple[tuple[str, ...], ...]:
    """The lines before the demo block, the block and the lines after it, each split
    around its slot markers (empty for a part without lines)."""
    lines = template.splitlines()
    if not with_dd:
        lines = lines[3:]  # the DD header block is exactly the first three lines
    query_at = next(i for i, l in enumerate(lines) if "[query-i]" in l)
    solution_at = next(i for i, l in enumerate(lines) if "[solution-i]" in l)
    block_end = solution_at + 1
    if block_end < len(lines) and lines[block_end] == "":
        block_end += 1
    return tuple(tuple(_SLOT.split("\n".join(part))) if part else ()
                 for part in (lines[:query_at], lines[query_at:block_end], lines[block_end:]))


def _fill(pieces: tuple[str, ...], slots: dict[str, str]) -> str:
    """Template pieces joined with each marker replaced by its slot's value, so data
    text holding a marker (a demo utterance with ``[DD]``, say) goes in as it is."""
    return "".join(map(slots.get, pieces, pieces))


def count_prompt_tokens(text: str, tokenizer=None) -> int:
    """Whitespace token count by default; pass a callable for model-specific counts."""
    if tokenizer is not None:
        counted = tokenizer(text)
        return counted if isinstance(counted, int) else len(counted)
    return len(text.split())
