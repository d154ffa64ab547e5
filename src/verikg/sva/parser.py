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
from verikg.rtl.lexer import STATEMENT_RE, LexError, Token, tokenize
from verikg.rtl.parser import Cursor, ExprParser, ParseError
from verikg.sva import ast as S
from verikg.sva.memo import Statement, StatementMemo

_DEFINE_RE = re.compile(r"^\s*`define\s+([A-Za-z_][A-Za-z0-9_$]*)\s+(.*?)\s*$")
_MARKER_RE = re.compile(r"^\s*//\s*property:\s*(\S+)\s*$")

# `endclocking` as the next token, after whitespace only
_ENDCLOCKING_RE = re.compile(r"[ \t\r\n]*endclocking(?![A-Za-z0-9_$])")

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
    def __init__(self, cur: Cursor):
        self.cur = cur
        self.exprs = SvaExprParser(cur)

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
        if hi > S.MAX_DELAY_BOUND:
            raise ParseError(tok.line, tok.col,
                             f"delay bound {hi} exceeds maximum {S.MAX_DELAY_BOUND}",
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


def parse_properties_with_recovery(source: str, memo: StatementMemo | None = None
                                   ) -> tuple[S.PropertyFile, Diagnostics]:
    """Parse with per-statement error recovery.

    Properties whose statement failed to parse are kept with body=None and
    their raw source retained so repair agents can see it. Diagnostics carry
    the enclosing property id when determinable.

    With a `memo`, a statement found in it is neither lexed nor parsed, and
    a statement parsed on its own is added to it, failed or clean. The
    result is the same as without one.
    """
    fp = _FileParse(source)
    try:
        if memo is None:
            fp.parse_region(tokenize(fp.stripped))
        else:
            fp.parse_with_memo(memo)
    except LexError as le:
        # the whole file fails: only the line pre-pass stands
        diags = Diagnostics(fp.diags.items[:fp.prepass_errors])
        diags.error(le.line, le.col, le.message, DiagCode.SYNTAX)
        return S.PropertyFile(macros=fp.pf.macros), diags
    fp.check_whole_file()
    return fp.pf, fp.diags


class _FileParse:
    """The parse of one file. The line pre-pass takes out macro definitions
    and finds `// property:` markers; then statements are taken in order,
    from tokens or from a memo, and share the file-wide state: property ids
    (markers, labels, serial numbers) and the default clock."""

    def __init__(self, source: str):
        self.pf = S.PropertyFile()
        self.diags = Diagnostics()
        self.source_lines = source.split("\n")
        self.macro_def_lines: dict[str, int] = {}
        # A marker attributes the next property statement after it; when
        # several markers precede one statement, the nearest wins.
        self.markers: list[tuple[int, str]] = []
        self.marker_pos = 0
        self.serial = 0
        stripped_lines: list[str] = []
        for i, line in enumerate(self.source_lines, start=1):
            dm = _DEFINE_RE.match(line)
            if dm:
                name, replacement = dm.group(1), dm.group(2)
                if name in self.macro_def_lines:
                    self.diags.error(i, 1, f"duplicate macro {name!r}", DiagCode.DUPLICATE)
                else:
                    self.pf.macros.append((name, replacement))
                    self.macro_def_lines[name] = i
                stripped_lines.append("")
                continue
            mm = _MARKER_RE.match(line)
            if mm:
                self.markers.append((i, mm.group(1)))
            stripped_lines.append(line)
        self.stripped = "\n".join(stripped_lines)
        self.prepass_errors = len(self.diags.items)
        # where the text not yet lexed or looked up in the memo starts
        self.pos = 0
        self.line = 1

    def pending_id(self, line: int, label: str | None) -> tuple[str, int]:
        """The id of the property statement starting at `line`, and the
        line its span starts at (its marker's, when it has one)."""
        chosen: tuple[int, str] | None = None
        while self.marker_pos < len(self.markers) \
                and self.markers[self.marker_pos][0] <= line:
            chosen = self.markers[self.marker_pos]
            self.marker_pos += 1
        if chosen is not None:
            return chosen[1], chosen[0]
        if label:
            return label, line
        self.serial += 1
        return f"P{self.serial:03d}", line

    def take(self, stmt: Statement, line: int, col: int) -> None:
        """Take into the file the property statement whose parse is `stmt`
        and whose first token is at `line`, `col`."""
        prop_id, span_start = self.pending_id(line, stmt.label)
        pe = stmt.error
        if pe is not None:
            self.diags.error(line + pe.line, pe.col if pe.line else col + pe.col,
                             pe.message, pe.code, prop_id=prop_id)
        end_line = line + stmt.newlines
        self.pf.properties.append(S.PropertyDecl(
            prop_id, stmt.kind, stmt.body, line,
            _statement_source(self.source_lines, line, end_line)))
        self.pf.line_map[prop_id] = (min(span_start, line), end_line)

    def parse_with_memo(self, memo: StatementMemo) -> None:
        text = self.stripped
        while self.pos < len(text):
            m = STATEMENT_RE.match(text, self.pos)
            if m is None:  # the rest is lexed and parsed as one region
                self.parse_region(self.next_region(None))
                break
            start = m.start("stmt")
            line = self.line + text.count("\n", self.pos, start)
            stmt = memo.statements.get(m["stmt"])
            if stmt is None:
                tokens = self.next_region(m)
                if tokens[0].text == "default":
                    self.parse_region(tokens, self.extend)
                    continue
                # one property statement, ending at the region's end
                cur = Cursor(tokens)
                stmt = _statement(cur, _PropParser(cur))
                memo.remember(m["stmt"], stmt)
            self.take(stmt, line, start - text.rfind("\n", 0, start))
            self.line = line + stmt.newlines
            self.pos = m.end()

    def next_region(self, m: re.Match | None) -> list[Token]:
        """The tokens from `pos` through the end of `m`, or of the file."""
        end = m.end() if m is not None else len(self.stripped)
        tokens = tokenize(self.stripped, self.pos, end, self.line)
        self.line += self.stripped.count("\n", self.pos, end)
        self.pos = end
        return tokens

    def extend(self, tokens: list[Token], first: Token) -> None:
        """Put in place of the EOF token what the statement starting with
        `first` may read beyond the tokens, which end at a `;` or at an
        `endclocking`: a property statement reads through a `;`, and a
        default clocking statement reads the token after its `;`, which
        should be `endclocking`."""
        text = self.stripped
        if self.pos == len(text):
            return
        if first.text == "default":
            m = _ENDCLOCKING_RE.match(text, self.pos) or STATEMENT_RE.match(text, self.pos)
        elif tokens[-2].text != ";":
            m = STATEMENT_RE.match(text, self.pos)
        else:
            return
        tokens[-1:] = self.next_region(m)

    def parse_region(self, tokens: list[Token], extend=None) -> None:
        """Parse statements up to the EOF token. When the tokens are not the
        rest of the file, `extend(tokens, first)` adds what the statement
        starting with token `first` needs."""
        cur = Cursor(tokens)
        pp = _PropParser(cur)
        while cur.peek().kind != "EOF":
            first = cur.peek()
            if extend is not None:
                extend(tokens, first)
            if first.text == "default":
                self.default_clocking(cur, pp)
            else:
                self.take(_statement(cur, pp), first.line, first.col)

    def default_clocking(self, cur: Cursor, pp: _PropParser) -> None:
        t = cur.next()
        try:
            cur.expect("clocking")
            clock = pp.parse_clock()
            cur.expect(";")
            cur.expect("endclocking")
            if self.pf.default_clock is not None:
                self.diags.error(t.line, t.col, "duplicate default clocking",
                                 DiagCode.DUPLICATE)
            self.pf.default_clock = clock
        except ParseError as pe:
            self.diags.error(pe.line, pe.col, pe.message, pe.code)
            _resync(cur)

    def check_whole_file(self) -> None:
        seen: set[str] = set()
        for p in self.pf.properties:
            if p.prop_id in seen:
                self.diags.error(p.line, 1, f"duplicate property id {p.prop_id!r}",
                                 DiagCode.DUPLICATE, prop_id=p.prop_id)
            seen.add(p.prop_id)
            # backtick defines are sequential: a use before the definition line
            # is an error, attributed to the enclosing property
            if p.body is not None and self.macro_def_lines:
                body = p.body
                exprs = [st.expr for seq in (body.antecedent, body.consequent)
                         if seq is not None for st in seq.steps]
                if body.disable is not None:
                    exprs.append(body.disable)
                used = {n.name for e in exprs for n in rtl.walk(e)
                        if isinstance(n, S.MacroRef)}
                for name in sorted(used):
                    def_line = self.macro_def_lines.get(name)
                    if def_line is not None and def_line > p.line:
                        self.diags.error(p.line, 1,
                                         f"macro {name!r} used before its definition "
                                         f"(line {def_line})",
                                         DiagCode.UNDEFINED_MACRO, prop_id=p.prop_id)


def _statement(cur: Cursor, pp: _PropParser) -> Statement:
    """Parse one property statement, through its `;` (or, when it fails,
    the next `;`), with positions relative to its first token."""
    first = t = cur.peek()
    label = None
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
        cur.expect("property")
        cur.expect("(")
        body = pp.parse_body(kind)
        cur.expect(")")
        end_line = cur.expect(";").line
    except ParseError as pe:
        end_line = _resync(cur)
        line = pe.line - first.line
        error = ParseError(line, pe.col if line else pe.col - first.col,
                           pe.message, pe.code)
        return Statement(label, kind, None, end_line - first.line, error)
    return Statement(label, kind, body, end_line - first.line)


def _resync(cur: Cursor) -> int:
    line = cur.peek().line
    while cur.peek().kind != "EOF":
        t = cur.next()
        line = t.line
        if t.text == ";":
            break
    return line


def parse_properties(source: str):
    """Parse a property file. Returns PropertyFile on success, Diagnostics
    when any statement failed."""
    pf, diags = parse_properties_with_recovery(source)
    if diags.has_errors():
        return diags
    return pf
