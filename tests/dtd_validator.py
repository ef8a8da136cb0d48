"""A small generic DTD validator, used as an independent oracle.

Neither lxml nor xmllint is available in this environment, so validation
is done here from first principles: element content models in a DTD are
regular expressions over child-element names, and attribute lists are
(type, default) declarations. This module parses DTD text generically
(it knows nothing about the emitter or its vocabulary) and checks a
parsed document against it.

Supported subset: EMPTY/ANY and parenthesized content models with
',', '|', '?', '*', '+'; ATTLIST types CDATA and enumerations; defaults
#REQUIRED, #IMPLIED, #FIXED "v" and literal defaults. That covers plain
data-oriented DTDs; mixed content (#PCDATA) is rejected explicitly.
"""

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

_DECL_RE = re.compile(r"<!(ELEMENT|ATTLIST)\s+([^\s>]+)\s+([^>]*)>", re.S)
_MODEL_TOKEN_RE = re.compile(r"[^\s(),|?*+]+|[(),|?*+]")
_ATT_TOKEN_RE = re.compile(r"\([^)]*\)|\"[^\"]*\"|'[^']*'|#?[^\s()\"']+")


@dataclass
class AttDecl:
    enum: set[str] | None  # None = CDATA-like, any value
    default: str  # "#REQUIRED", "#IMPLIED", "#FIXED", or a literal
    fixed_value: str | None = None


@dataclass
class Dtd:
    content: dict[str, re.Pattern | None] = field(default_factory=dict)  # None = ANY
    attlists: dict[str, dict[str, AttDecl]] = field(default_factory=dict)


def _compile_model(model: str) -> re.Pattern | None:
    model = model.strip()
    if model == "ANY":
        return None
    if model == "EMPTY":
        return re.compile(r"^$")
    if "#PCDATA" in model:
        raise ValueError("mixed content models are not supported by this validator")
    parts: list[str] = []
    for m in _MODEL_TOKEN_RE.finditer(model):
        tok = m.group(0)
        if tok == ",":
            continue  # sequence is concatenation
        if tok in "()|?*+":
            parts.append(tok)
        else:
            parts.append(f"(?:{re.escape(tok)} )")
    return re.compile("^" + "".join(parts) + "$")


def parse_dtd(text: str) -> Dtd:
    dtd = Dtd()
    for kind, name, body in _DECL_RE.findall(text):
        if kind == "ELEMENT":
            dtd.content[name] = _compile_model(body)
        else:
            attrs = dtd.attlists.setdefault(name, {})
            tokens = _ATT_TOKEN_RE.findall(body)
            i = 0
            while i < len(tokens):
                att_name, att_type, default = tokens[i : i + 3]
                i += 3
                decl = AttDecl(
                    enum=set(v.strip() for v in att_type[1:-1].split("|"))
                    if att_type.startswith("(")
                    else None,
                    default=default,
                )
                if default == "#FIXED":
                    decl.fixed_value = tokens[i].strip("\"'")
                    i += 1
                attrs[att_name] = decl
    return dtd


def validate(document_text: str, dtd: Dtd) -> list[str]:
    """Return all violations (empty list = valid)."""
    root = ET.fromstring(document_text)
    problems: list[str] = []

    def walk(el: ET.Element) -> None:
        model = dtd.content.get(el.tag, "missing")
        if model == "missing":
            problems.append(f"undeclared element '{el.tag}'")
            return
        if model is not None:
            children = "".join(child.tag + " " for child in el)
            if not model.match(children):
                problems.append(
                    f"children of '{el.tag}' do not match its content model: "
                    f"[{children.strip()}]"
                )
        declared = dtd.attlists.get(el.tag, {})
        for att, value in el.attrib.items():
            decl = declared.get(att)
            if decl is None:
                problems.append(f"undeclared attribute '{att}' on '{el.tag}'")
            elif decl.enum is not None and value not in decl.enum:
                problems.append(
                    f"attribute '{att}' on '{el.tag}' has value '{value}' "
                    f"outside its enumeration"
                )
            elif decl.fixed_value is not None and value != decl.fixed_value:
                problems.append(f"attribute '{att}' on '{el.tag}' must be fixed")
        for att, decl in declared.items():
            if decl.default == "#REQUIRED" and att not in el.attrib:
                problems.append(f"required attribute '{att}' missing on '{el.tag}'")
        for child in el:
            walk(child)

    if root.tag not in dtd.content:
        problems.append(f"root element '{root.tag}' is not declared")
    else:
        walk(root)
    return problems
