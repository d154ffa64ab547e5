"""Deterministic property-file emission with line-map maintenance."""

from __future__ import annotations

from verikg.rtl.ast import render_expr
from verikg.sva import ast as S

HEADER = "// generated property file"

_KEYWORD_BY_KIND = {"assertion": "assert", "assumption": "assume", "cover": "cover"}


def render_statement(decl: S.PropertyDecl) -> str:
    """Canonical single-line statement for a parsed property; raw source
    for one that failed to parse."""
    if decl.body is None:
        return decl.raw_source.strip() or "// (unparsed property)"
    return f"{_KEYWORD_BY_KIND[decl.kind]} property ({decl.body.text});"


def emit_properties(pf: S.PropertyFile) -> str:
    """Render the file: header, default clock, macros (name order), then
    properties in id order, each preceded by its `// property:` marker.
    pf.line_map is updated to the emitted positions."""
    lines: list[str] = [HEADER]
    if pf.default_clock is not None:
        lines.append(
            f"default clocking @({pf.default_clock.edge} "
            f"{render_expr(pf.default_clock.signal)}); endclocking")
    if pf.macros:
        lines.append("")
        for name, replacement in sorted(pf.macros):
            lines.append(f"`define {name} {replacement}")
    pf.line_map = {}
    for decl in sorted(pf.properties, key=lambda p: p.prop_id):
        lines.append("")
        marker_line = len(lines) + 1
        lines.append(f"// property: {decl.prop_id}")
        for stmt_line in render_statement(decl).split("\n"):
            lines.append(stmt_line)
        end_line = len(lines)
        pf.line_map[decl.prop_id] = (marker_line, end_line)
    return "\n".join(lines) + "\n"
