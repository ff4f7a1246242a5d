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

Prompts fill the bundled template, ``prompt_template_v1.txt``, whose one
shape is three paragraphs separated by blank lines: the DD header holding
``[DD]``, the demo paragraph holding ``[query-i]`` then ``[solution-i]``, and
the test paragraph holding ``[query-test]``, each slot once.  A prompt is the
DD header, only when the DD text is non-empty, then the demo paragraph once per
demonstration, in order, then the test paragraph, joined by blank lines.  This
module alone knows where the test utterance goes: :func:`prompt_segments` gives
the constant text before and after it, ``(lead, tail)``.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DataFormatError, SemkitError
from .resources import STRING, Schema, data_path, read_json

DD_VARIANTS = ("none", "operator-list", "no-typing", "full")


_DECLARATION = Schema(("kind", STRING), ("name", STRING), ("parent", STRING, None))
_KINDS = ("class", "method", "attribute", "constant", "enum-member", "operator")


def load_dd_source(path) -> list[dict]:
    """A DD source's declarations (at least one; string ``kind``, non-empty ``name``,
    optional ``parent``; no two share parent and name), else a DataFormatError on the file."""
    declarations = read_json(path)
    if not isinstance(declarations, list):
        raise DataFormatError(f"{path}: expected a JSON list of declarations")
    if not declarations:
        raise DataFormatError(f"{path}: a DD source declares nothing")
    seen = set()
    for at, decl in enumerate(declarations):
        kind, name, parent = _DECLARATION.read(decl, path, ("declarations", at))
        if kind not in _KINDS:
            raise DataFormatError(f"{path}: declarations[{at}]: bad declaration kind {kind!r}")
        if not name:
            raise DataFormatError(f"{path}: declarations[{at}]: empty name")
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


def build_prompt(template: str, dd_text: str, demonstrations: tuple[tuple[str, str], ...],
                 test_utterance: str) -> str:
    """Fill ``template`` with a DD text, (utterance, program) demonstrations and the test
    utterance; byte-deterministic in its inputs."""
    lead, tail = prompt_segments(template, dd_text, demonstrations)
    return lead + test_utterance + tail


@lru_cache(maxsize=8)
def prompt_segments(template: str, dd_text: str,
                    demonstrations: tuple[tuple[str, str], ...]) -> tuple[str, str]:
    """``(lead, tail)``, the filled template's text before and after the test utterance.
    Slot values go in as written, even one holding a slot marker."""
    if not dd_text and not demonstrations:
        raise SemkitError("a prompt needs a domain description or at least one demonstration")
    dd_head, dd_foot, demo_head, demo_mid, demo_foot, test_head, tail = _layout(template)
    parts = [dd_head, dd_text, dd_foot, "\n\n"] if dd_text else []
    for utterance, program in demonstrations:
        parts += (demo_head, utterance, demo_mid, program, demo_foot, "\n\n")
    parts.append(test_head)
    return "".join(parts), tail


_PARAGRAPH_SLOTS = (("[DD]",), ("[query-i]", "[solution-i]"), ("[query-test]",))


@lru_cache(maxsize=1)
def _layout(template: str) -> tuple[str, ...]:
    """The template's seven pieces of text around its four slots, in order, if it has the
    shape the module docstring gives; else a SemkitError."""
    paragraphs, pieces = template.split("\n\n"), []
    for paragraph, slots in zip(paragraphs, _PARAGRAPH_SLOTS):
        for slot in slots:
            before, found, paragraph = paragraph.partition(slot)
            pieces.append(before if found and template.count(slot) == 1 else None)
        pieces.append(paragraph)
    if len(paragraphs) != 3 or None in pieces:
        raise SemkitError("prompt template must be three paragraphs, separated by blank "
                          "lines, holding [DD], then [query-i] and [solution-i], then "
                          "[query-test], each slot once")
    return tuple(pieces)
