"""Parser for the emitted property-file format.

Statements: an optional `default clocking` line, backtick macro definitions,
and labeled or marker-attributed assert/assume/cover property statements.
Sequences are linear chains of boolean expressions joined by ##n or ##[m:n]
delays; implication is legal only at the top level of a property body.
"""

from __future__ import annotations

import re

from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl import ast as rtl
from verikg.rtl.lexer import LexError, tokenize
from verikg.rtl.parser import Cursor, ExprParser, ParseError
from verikg.sva import ast as S

_DEFINE_RE = re.compile(r"^\s*`define\s+([A-Za-z_][A-Za-z0-9_$]*)\s+(.*?)\s*$")
_MARKER_RE = re.compile(r"^\s*//\s*property:\s*(\S+)\s*$")

_KIND_BY_KEYWORD = {"assert": "assertion", "assume": "assumption", "cover": "cover"}


class SvaExprParser(ExprParser):
    """RTL expressions plus sampled-value functions and macro references."""

    def parse_special_primary(self):
        t = self.cur.peek()
        if t.kind == "MACRO":
            self.cur.next()
            return S.MacroRef(t.text)
        name = t.text
        if name == "$past":
            self.cur.next()
            self.cur.expect("(")
            inner = self.parse_expr()
            depth = 1
            if self.cur.accept(","):
                dt = self.cur.peek()
                if dt.kind != "NUMBER" or dt.width is not None:
                    raise ParseError(dt.line, dt.col,
                                     "$past depth must be a plain integer")
                self.cur.next()
                depth = dt.value
            self.cur.expect(")")
            if depth < 1:
                raise ParseError(t.line, t.col, "$past depth must be >= 1")
            if depth > S.MAX_DELAY_BOUND:
                raise ParseError(t.line, t.col,
                                 f"$past depth {depth} exceeds bound {S.MAX_DELAY_BOUND}",
                                 DiagCode.BOUND_EXCEEDED)
            return S.Past(inner, depth)
        if name in ("$rose", "$fell", "$stable"):
            self.cur.next()
            self.cur.expect("(")
            inner = self.parse_expr()
            self.cur.expect(")")
            return {"$rose": S.Rose, "$fell": S.Fell, "$stable": S.Stable}[name](inner)
        raise ParseError(t.line, t.col, f"unsupported system function {name!r}",
                         DiagCode.UNSUPPORTED)


class _PropParser:
    def __init__(self, cur: Cursor, max_delay: int):
        self.cur = cur
        self.exprs = SvaExprParser(cur)
        self.max_delay = max_delay

    def parse_clock(self) -> S.ClockSpec:
        self.cur.expect("@")
        self.cur.expect("(")
        self.cur.expect("posedge")
        sig = self.exprs.parse_primary()
        self.cur.expect(")")
        return S.ClockSpec("posedge", sig)

    def parse_delay(self) -> tuple[int, int]:
        tok = self.cur.expect("##")
        t = self.cur.peek()
        if t.kind == "NUMBER":
            self.cur.next()
            lo = hi = t.value
        elif self.cur.accept("["):
            lo_t = self.cur.peek()
            if lo_t.kind != "NUMBER":
                raise ParseError(lo_t.line, lo_t.col, "expected delay bound")
            self.cur.next()
            self.cur.expect(":")
            hi_t = self.cur.peek()
            if hi_t.kind != "NUMBER":
                raise ParseError(hi_t.line, hi_t.col, "expected delay bound")
            self.cur.next()
            self.cur.expect("]")
            lo, hi = lo_t.value, hi_t.value
            if hi < lo:
                raise ParseError(tok.line, tok.col, f"empty delay range [{lo}:{hi}]")
        else:
            raise ParseError(t.line, t.col, "expected ##n or ##[m:n]")
        if hi > self.max_delay:
            raise ParseError(tok.line, tok.col,
                             f"delay bound {hi} exceeds maximum {self.max_delay}",
                             DiagCode.BOUND_EXCEEDED)
        return lo, hi

    def parse_sequence(self) -> S.Sequence:
        if self.cur.at("##"):  # leading delay, e.g. the consequent in |-> ##1 b
            lo, hi = self.parse_delay()
        else:
            lo, hi = 0, 0
        steps = [S.SeqStep(lo, hi, self.exprs.parse_expr())]
        while self.cur.at("##"):
            lo, hi = self.parse_delay()
            steps.append(S.SeqStep(lo, hi, self.exprs.parse_expr()))
        return S.Sequence(tuple(steps))

    def parse_body(self, kind: str) -> S.PropBody:
        clock = None
        if self.cur.at("@"):
            clock = self.parse_clock()
        disable = None
        if self.cur.at("disable"):
            self.cur.next()
            self.cur.expect("iff")
            self.cur.expect("(")
            disable = self.exprs.parse_expr()
            self.cur.expect(")")
        first = self.parse_sequence()
        impl = S.ImplKind.NONE
        antecedent = None
        consequent = first
        t = self.cur.peek()
        if t.kind == "PUNCT" and t.text in ("|->", "|=>"):
            self.cur.next()
            if kind == "cover":
                raise ParseError(t.line, t.col,
                                 "cover property takes a plain sequence, not an implication")
            impl = S.ImplKind.OVERLAP if t.text == "|->" else S.ImplKind.NONOVERLAP
            antecedent = first
            consequent = self.parse_sequence()
        t = self.cur.peek()
        if t.kind == "PUNCT" and t.text in ("|->", "|=>"):
            raise ParseError(t.line, t.col,
                             "implication may appear only at the top level of a property",
                             DiagCode.NESTED_IMPLICATION)
        return S.PropBody(impl, antecedent, consequent, disable, clock)


def _statement_source(source_lines: list[str], start_line: int, end_line: int) -> str:
    return "\n".join(source_lines[start_line - 1:end_line]).strip()


def parse_properties_with_recovery(source: str, max_delay: int = S.MAX_DELAY_BOUND
                                   ) -> tuple[S.PropertyFile, Diagnostics]:
    """Parse with per-statement error recovery.

    Properties whose statement failed to parse are kept with body=None and
    their raw source retained so repair agents can see it. Diagnostics carry
    the enclosing property id when determinable.
    """
    diags = Diagnostics()
    pf = S.PropertyFile()
    source_lines = source.split("\n")

    markers: dict[int, str] = {}
    macro_def_lines: dict[str, int] = {}
    stripped_lines: list[str] = []
    for i, line in enumerate(source_lines, start=1):
        dm = _DEFINE_RE.match(line)
        if dm:
            name, replacement = dm.group(1), dm.group(2)
            if name in dict(pf.macros):
                diags.error(i, 1, f"duplicate macro {name!r}", DiagCode.DUPLICATE)
            else:
                pf.macros.append((name, replacement))
                macro_def_lines[name] = i
            stripped_lines.append("")
            continue
        mm = _MARKER_RE.match(line)
        if mm:
            markers[i] = mm.group(1)
        stripped_lines.append(line)
    stripped = "\n".join(stripped_lines)

    try:
        tokens = tokenize(stripped)
    except LexError as le:
        diags.error(le.line, le.col, le.message, DiagCode.SYNTAX)
        return pf, diags
    cur = Cursor(tokens)
    pp = _PropParser(cur, max_delay)
    serial = 0
    # A marker attributes the next property statement after it; when several
    # markers precede one statement, the nearest wins.
    marker_list = sorted(markers.items())
    marker_pos = 0

    def take_marker(line: int) -> tuple[str | None, int | None]:
        nonlocal marker_pos
        chosen: tuple[int, str] | None = None
        while marker_pos < len(marker_list) and marker_list[marker_pos][0] <= line:
            chosen = marker_list[marker_pos]
            marker_pos += 1
        if chosen is None:
            return None, None
        return chosen[1], chosen[0]

    def pending_id(line: int, label: str | None) -> tuple[str, int]:
        nonlocal serial
        marked, marker_line = take_marker(line)
        if marked is not None:
            return marked, marker_line
        if label:
            return label, line
        serial += 1
        return f"P{serial:03d}", line

    while cur.peek().kind != "EOF":
        t = cur.peek()
        if t.text == "default":
            try:
                cur.next()
                cur.expect("clocking")
                clock = pp.parse_clock()
                cur.expect(";")
                cur.expect("endclocking")
                if pf.default_clock is not None:
                    diags.error(t.line, t.col, "duplicate default clocking",
                                DiagCode.DUPLICATE)
                pf.default_clock = clock
            except ParseError as pe:
                diags.error(pe.line, pe.col, pe.message, pe.code)
                _resync(cur)
            continue

        label = None
        start_line = t.line
        prop_id = None
        span_start = start_line
        kind = "assertion"
        try:
            if t.kind == "ID" and t.text not in _KIND_BY_KEYWORD \
                    and cur.peek(1).text == ":":
                label = cur.next().text
                cur.next()
                t = cur.peek()
            if t.text not in _KIND_BY_KEYWORD:
                raise ParseError(t.line, t.col,
                                 f"expected assert/assume/cover, found {t.text!r}")
            kind = _KIND_BY_KEYWORD[cur.next().text]
            prop_id, span_start = pending_id(start_line, label)
            cur.expect("property")
            cur.expect("(")
            body = pp.parse_body(kind)
            cur.expect(")")
            end_tok = cur.expect(";")
            decl = S.PropertyDecl(prop_id, kind, body, start_line,
                                  _statement_source(source_lines, start_line,
                                                    end_tok.line))
            pf.properties.append(decl)
            pf.line_map[prop_id] = (min(span_start, start_line), end_tok.line)
        except ParseError as pe:
            if prop_id is None:
                prop_id, span_start = pending_id(start_line, label)
            diags.error(pe.line, pe.col, pe.message, pe.code, prop_id=prop_id)
            end_line = _resync(cur)
            pf.properties.append(S.PropertyDecl(
                prop_id, kind, None, start_line,
                _statement_source(source_lines, start_line, max(end_line, start_line))))
            pf.line_map[prop_id] = (min(span_start, start_line),
                                    max(end_line, start_line))

    seen: set[str] = set()
    for p in pf.properties:
        if p.prop_id in seen:
            diags.error(p.line, 1, f"duplicate property id {p.prop_id!r}",
                        DiagCode.DUPLICATE, prop_id=p.prop_id)
        seen.add(p.prop_id)
        # backtick defines are sequential: a use before the definition line
        # is an error, attributed to the enclosing property
        if p.body is not None and macro_def_lines:
            body = p.body
            exprs = [st.expr for seq in (body.antecedent, body.consequent)
                     if seq is not None for st in seq.steps]
            if body.disable is not None:
                exprs.append(body.disable)
            used = {n.name for e in exprs for n in rtl.walk(e)
                    if isinstance(n, S.MacroRef)}
            for name in sorted(used):
                def_line = macro_def_lines.get(name)
                if def_line is not None and def_line > p.line:
                    diags.error(p.line, 1,
                                f"macro {name!r} used before its definition "
                                f"(line {def_line})",
                                DiagCode.UNDEFINED_MACRO, prop_id=p.prop_id)
    return pf, diags


def _resync(cur: Cursor) -> int:
    line = cur.peek().line
    while cur.peek().kind != "EOF":
        t = cur.next()
        line = t.line
        if t.text == ";":
            break
    return line


def parse_properties(source: str, max_delay: int = S.MAX_DELAY_BOUND):
    """Parse a property file. Returns PropertyFile on success, Diagnostics
    when any statement failed."""
    pf, diags = parse_properties_with_recovery(source, max_delay)
    if diags.has_errors():
        return diags
    return pf
