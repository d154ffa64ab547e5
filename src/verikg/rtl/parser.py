"""Recursive-descent parser for the supported synchronous RTL subset.

Grammar: module/endmodule, parameter/localparam (integer), input/output/
reg/wire with [m:0] ranges, continuous assign, always @(posedge clk) with
if/else/case and blocking or non-blocking assignment, module instantiation
with named port connections. Everything else is rejected with an
UNSUPPORTED diagnostic naming the construct.
"""

from __future__ import annotations

from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl import ast
from verikg.rtl.lexer import LexError, Token, tokenize

KEYWORDS = {
    "module", "endmodule", "input", "output", "reg", "wire", "assign",
    "always", "posedge", "if", "else", "case", "endcase", "default",
    "begin", "end", "parameter", "localparam",
}

# Recognized-but-rejected constructs, reported by name.
UNSUPPORTED_KEYWORDS = {
    "generate", "endgenerate", "genvar", "function", "endfunction", "task",
    "endtask", "initial", "integer", "real", "signed", "negedge", "casez",
    "casex", "for", "while", "repeat", "forever", "fork", "join", "wait",
    "force", "release", "specify", "primitive", "inout", "tri", "supply0",
    "supply1", "defparam", "event", "always_ff", "always_comb",
    "always_latch", "typedef", "logic", "enum", "struct", "interface",
}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str,
                 code: DiagCode = DiagCode.SYNTAX):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message
        self.code = code


class Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # `tokens` ends in EOF and `next` never moves past it, so `pos` is
    # always a valid index.
    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.tokens[self.pos]
        return t.text == text and (t.kind == "PUNCT" or t.kind == "ID")

    def accept(self, text: str) -> Token | None:
        t = self.tokens[self.pos]
        if t.text == text and (t.kind == "PUNCT" or t.kind == "ID"):
            self.pos += 1
            return t
        return None

    def expect(self, text: str) -> Token:
        t = self.accept(text)
        if t is None:
            t = self.tokens[self.pos]
            raise ParseError(t.line, t.col, f"expected {text!r}, found {t.text!r}")
        return t

    def expect_id(self) -> Token:
        t = self.peek()
        if t.kind != "ID" or t.text in KEYWORDS or t.text in UNSUPPORTED_KEYWORDS:
            raise ParseError(t.line, t.col, f"expected identifier, found {t.text!r}")
        return self.next()


# ---------------------------------------------------------------------------
# Expressions (precedence climbing); the property parser builds on this.
# ---------------------------------------------------------------------------

_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["+", "-"],
]

# Binding power of each binary operator: its index in `_BINARY_LEVELS`.
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


# The most expression levels open at once: the expression itself, and each
# parenthesis, brace, select, `?:` arm and unary operator inside it opens
# one. A whole expression is held to it twice: as written, while it parses,
# and as `ast.render_expr` prints it (fully parenthesized), so that its
# printed form parses again and no later pass that walks the tree one frame
# per level meets a deeper one. Past it is a BOUND_EXCEEDED diagnostic, not
# a RecursionError.
MAX_EXPR_DEPTH = 100


def _too_deep(t: Token):
    raise ParseError(t.line, t.col, f"expression nests deeper than {MAX_EXPR_DEPTH} levels",
                     DiagCode.BOUND_EXCEEDED)


class ExprParser:
    """Expression parser over a Cursor; subclasses may extend primaries."""

    def __init__(self, cur: Cursor):
        self.cur = cur
        self.depth = 0  # expression levels open

    def parse_expr(self) -> ast.Expr:
        cur = self.cur
        start = cur.pos
        self.depth += 1
        try:
            if self.depth > MAX_EXPR_DEPTH:
                _too_deep(cur.tokens[start])
            e = self._parse_binary(0)
            if cur.accept("?"):
                then = self.parse_expr()
                cur.expect(":")
                other = self.parse_expr()
                e = ast.Ternary(e, then, other)
        finally:
            self.depth -= 1
        # Printing adds at most two levels per node, and each node takes a
        # token, so only a whole expression of many tokens is measured.
        if (not self.depth and 1 + 2 * (cur.pos - start) > MAX_EXPR_DEPTH
                and ast.render_depth(e) > MAX_EXPR_DEPTH):
            _too_deep(cur.tokens[start])
        return e

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Operators binding at `min_level` or tighter, left-associative."""
        left = self._parse_unary()
        cur = self.cur
        while True:
            # Only PUNCT tokens carry operator text.
            op = cur.tokens[cur.pos].text
            level = _PRECEDENCE.get(op)
            if level is None or level < min_level:
                return left
            cur.next()
            left = ast.Binary(op, left, self._parse_binary(level + 1))

    def _parse_unary(self) -> ast.Expr:
        t = self.cur.peek()
        if t.kind == "PUNCT" and t.text in ("~", "!", "-"):
            self.cur.next()
            self.depth += 1
            try:
                if self.depth > MAX_EXPR_DEPTH:
                    _too_deep(t)
                return ast.Unary(t.text, self._parse_unary())
            finally:
                self.depth -= 1
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        t = self.cur.peek()
        if t.kind == "SYSID" or t.kind == "MACRO":
            return self.parse_special_primary()
        if t.kind == "NUMBER":
            self.cur.next()
            return ast.Lit(t.value, t.width)
        if t.kind == "PUNCT" and t.text == "(":
            self.cur.next()
            e = self.parse_expr()
            self.cur.expect(")")
            return e
        if t.kind == "PUNCT" and t.text == "{":
            self.cur.next()
            parts = [self.parse_expr()]
            while self.cur.accept(","):
                parts.append(self.parse_expr())
            self.cur.expect("}")
            return ast.Concat(tuple(parts))
        if t.kind == "ID" and t.text not in KEYWORDS:
            if t.text in UNSUPPORTED_KEYWORDS:
                raise ParseError(t.line, t.col, f"construct {t.text!r}",
                                 DiagCode.UNSUPPORTED)
            name = self._parse_dotted_name()
            if self.cur.at("["):
                self.cur.next()
                msb = self.parse_expr()
                if self.cur.accept(":"):
                    lsb = self.parse_expr()
                else:
                    lsb = msb
                self.cur.expect("]")
                return ast.Select(name, msb, lsb)
            return ast.Id(name)
        raise ParseError(t.line, t.col, f"expected expression, found {t.text!r}")

    def parse_special_primary(self) -> ast.Expr:
        """Parse a primary that starts at a SYSID or MACRO token. Hook for the
        property parser ($past, macros); RTL rejects them."""
        t = self.cur.peek()
        if t.kind == "SYSID":
            raise ParseError(t.line, t.col, f"construct {t.text!r}",
                             DiagCode.UNSUPPORTED)
        raise ParseError(t.line, t.col, f"macro reference `{t.text}",
                         DiagCode.UNSUPPORTED)

    def _parse_dotted_name(self) -> str:
        parts = [self.cur.expect_id().text]
        while self.cur.peek().kind == "PUNCT" and self.cur.peek().text == "." \
                and self.cur.peek(1).kind == "ID":
            self.cur.next()
            parts.append(self.cur.expect_id().text)
        return ".".join(parts)


def eval_const(e: ast.Expr, env: dict[str, int]) -> int:
    """Constant-fold an expression over a parameter environment."""
    if isinstance(e, ast.Lit):
        return e.value
    if isinstance(e, ast.Id):
        if e.name in env:
            return env[e.name]
        raise ParseError(0, 0, f"not a constant: {e.name!r}")
    if isinstance(e, ast.Unary):
        v = eval_const(e.operand, env)
        if e.op == "~":
            return ~v  # caller masks
        if e.op == "!":
            return 0 if v else 1
        if e.op == "-":
            return -v
    if isinstance(e, ast.Binary):
        a = eval_const(e.left, env)
        b = eval_const(e.right, env)
        return {
            "&": a & b, "|": a | b, "^": a ^ b, "+": a + b, "-": a - b,
            "==": int(a == b), "!=": int(a != b), "<": int(a < b),
            "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
            "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
        }[e.op]
    if isinstance(e, ast.Ternary):
        return eval_const(e.then, env) if eval_const(e.cond, env) else eval_const(e.other, env)
    raise ParseError(0, 0, "expression is not constant here")


# ---------------------------------------------------------------------------
# Module parser
# ---------------------------------------------------------------------------

class _ModuleParser:
    def __init__(self, cur: Cursor, diags: Diagnostics):
        self.cur = cur
        self.diags = diags
        self.exprs = ExprParser(cur)

    def parse_module(self) -> ast.ModuleDecl | None:
        kw = self.cur.expect("module")
        name_tok = self.cur.expect_id()
        m = ast.ModuleDecl(name=name_tok.text, line=kw.line)
        declared_dirs: dict[str, tuple[str, Token]] = {}
        header_order: list[str] = []

        if self.cur.accept("#"):
            self.cur.expect("(")
            while True:
                self.cur.expect("parameter")
                self._parse_param_into(m, local=False)
                if not self.cur.accept(","):
                    break
            self.cur.expect(")")

        if self.cur.accept("("):
            if not self.cur.at(")"):
                while True:
                    self._parse_header_port(m, declared_dirs, header_order)
                    if not self.cur.accept(","):
                        break
            self.cur.expect(")")
        self.cur.expect(";")

        while not self.cur.at("endmodule"):
            t = self.cur.peek()
            if t.kind == "EOF":
                raise ParseError(t.line, t.col, "unexpected end of file inside module")
            try:
                self._parse_item(m)
            except ParseError as pe:
                self.diags.error(pe.line, pe.col, pe.message, pe.code)
                self._resync_item()
        self.cur.expect("endmodule")

        self._finalize_module(m, declared_dirs, header_order)
        return m

    def _parse_header_port(self, m: ast.ModuleDecl,
                           declared: dict, order: list[str]) -> None:
        t = self.cur.peek()
        if t.text in ("input", "output"):
            direction = self.cur.next().text
            kind = "wire"
            if self.cur.at("reg"):
                self.cur.next()
                kind = "reg"
            elif self.cur.at("wire"):
                self.cur.next()
            msb = lsb = None
            if self.cur.at("["):
                msb, lsb = self._parse_range()
            name = self.cur.expect_id()
            declared[name.text] = (direction, name)
            order.append(name.text)
            m.ports.append(ast.Port(name.text, direction, 1, name.line, msb, lsb))
            m.signals.append(ast.Signal(name.text, 1, kind, name.line, msb, lsb))
        else:
            name = self.cur.expect_id()
            order.append(name.text)

    def _parse_range(self) -> tuple[ast.Expr, ast.Expr]:
        self.cur.expect("[")
        msb = self.exprs.parse_expr()
        self.cur.expect(":")
        lsb = self.exprs.parse_expr()
        self.cur.expect("]")
        return msb, lsb

    def _parse_param_into(self, m: ast.ModuleDecl, local: bool) -> None:
        name = self.cur.expect_id()
        self.cur.expect("=")
        expr = self.exprs.parse_expr()
        m.parameters.append(ast.Param(name.text, 0, local, name.line, expr))

    def _parse_item(self, m: ast.ModuleDecl) -> None:
        t = self.cur.peek()
        if t.text in UNSUPPORTED_KEYWORDS:
            raise ParseError(t.line, t.col, f"construct {t.text!r}",
                             DiagCode.UNSUPPORTED)
        if t.text in ("parameter", "localparam"):
            local = self.cur.next().text == "localparam"
            while True:
                self._parse_param_into(m, local)
                if not self.cur.accept(","):
                    break
            self.cur.expect(";")
            return
        if t.text in ("input", "output", "reg", "wire"):
            self._parse_decl(m)
            return
        if t.text == "assign":
            self.cur.next()
            target, sel = self._parse_lvalue()
            self.cur.expect("=")
            rhs = self.exprs.parse_expr()
            self.cur.expect(";")
            m.assigns.append(ast.ContAssign(target, sel, rhs, "", t.line))
            return
        if t.text == "always":
            self._parse_always(m)
            return
        if t.kind == "ID" and t.text not in KEYWORDS:
            self._parse_instance(m)
            return
        raise ParseError(t.line, t.col, f"unexpected {t.text!r} in module body")

    def _parse_decl(self, m: ast.ModuleDecl) -> None:
        t = self.cur.next()
        direction = t.text if t.text in ("input", "output") else None
        kind = "reg" if t.text == "reg" else "wire"
        if direction and self.cur.at("reg"):
            self.cur.next()
            kind = "reg"
        elif direction and self.cur.at("wire"):
            self.cur.next()
        msb = lsb = None
        if self.cur.at("["):
            msb, lsb = self._parse_range()
        while True:
            name = self.cur.expect_id()
            if self.cur.at("["):
                raise ParseError(name.line, name.col,
                                 f"memory array {name.text!r}", DiagCode.UNSUPPORTED)
            if direction:
                m.ports.append(ast.Port(name.text, direction, 1, name.line, msb, lsb))
                existing = next((s for s in m.signals if s.name == name.text), None)
                if existing is None:
                    m.signals.append(ast.Signal(name.text, 1, kind, name.line, msb, lsb))
                else:
                    existing.kind = kind if kind == "reg" else existing.kind
            else:
                existing = next((s for s in m.signals if s.name == name.text), None)
                if existing is None:
                    m.signals.append(ast.Signal(name.text, 1, kind, name.line, msb, lsb))
                else:
                    # reg/wire re-declaration of a header port name
                    existing.kind = kind
                    existing.msb = msb if msb is not None else existing.msb
                    existing.lsb = lsb if lsb is not None else existing.lsb
            if not self.cur.accept(","):
                break
        self.cur.expect(";")

    def _parse_lvalue(self) -> tuple[str, tuple[ast.Expr, ast.Expr] | None]:
        name = self.cur.expect_id()
        sel = None
        if self.cur.at("["):
            msb = None
            self.cur.next()
            msb = self.exprs.parse_expr()
            if self.cur.accept(":"):
                lsb = self.exprs.parse_expr()
            else:
                lsb = msb
            self.cur.expect("]")
            sel = (msb, lsb)
        return name.text, sel

    def _parse_always(self, m: ast.ModuleDecl) -> None:
        kw = self.cur.expect("always")
        self.cur.expect("@")
        self.cur.expect("(")
        t = self.cur.peek()
        if t.text == "*":
            raise ParseError(t.line, t.col, "combinational always block",
                             DiagCode.UNSUPPORTED)
        self.cur.expect("posedge")
        clk = self.cur.expect_id().text
        t = self.cur.peek()
        if t.text == "or":
            raise ParseError(t.line, t.col,
                             "multiple sensitivity events (asynchronous reset)",
                             DiagCode.UNSUPPORTED)
        self.cur.expect(")")
        body = self._parse_stmt_block()
        m.always_blocks.append(ast.AlwaysBlock(clk, body, kw.line))

    def _parse_stmt_block(self) -> list[ast.AlwaysStmt]:
        if self.cur.accept("begin"):
            out: list[ast.AlwaysStmt] = []
            while not self.cur.at("end"):
                t = self.cur.peek()
                if t.kind == "EOF":
                    raise ParseError(t.line, t.col, "unexpected end of file in block")
                out.append(self._parse_stmt())
            self.cur.expect("end")
            return out
        return [self._parse_stmt()]

    def _parse_stmt(self) -> ast.AlwaysStmt:
        t = self.cur.peek()
        if t.text in UNSUPPORTED_KEYWORDS:
            raise ParseError(t.line, t.col, f"construct {t.text!r}",
                             DiagCode.UNSUPPORTED)
        if t.text == "if":
            self.cur.next()
            self.cur.expect("(")
            cond = self.exprs.parse_expr()
            self.cur.expect(")")
            then_body = self._parse_stmt_block()
            else_body = None
            else_line = None
            if self.cur.at("else"):
                else_tok = self.cur.next()
                else_line = else_tok.line
                else_body = self._parse_stmt_block()
            return ast.IfStmt(cond, then_body, else_body, "",
                              "" if else_body is not None else None,
                              t.line, else_line)
        if t.text == "case":
            self.cur.next()
            self.cur.expect("(")
            subject = self.exprs.parse_expr()
            self.cur.expect(")")
            arms: list[ast.CaseArm] = []
            while not self.cur.at("endcase"):
                at = self.cur.peek()
                if at.kind == "EOF":
                    raise ParseError(at.line, at.col, "unexpected end of file in case")
                if self.cur.accept("default"):
                    if any(a.labels is None for a in arms):
                        self.diags.error(at.line, at.col, "second default item in case",
                                         DiagCode.DUPLICATE)
                    self.cur.accept(":")
                    body = self._parse_stmt_block()
                    arms.append(ast.CaseArm(None, body, "", at.line))
                else:
                    labels = [self.exprs.parse_expr()]
                    while self.cur.accept(","):
                        labels.append(self.exprs.parse_expr())
                    self.cur.expect(":")
                    body = self._parse_stmt_block()
                    arms.append(ast.CaseArm(labels, body, "", at.line))
            self.cur.expect("endcase")
            return ast.CaseStmt(subject, arms, t.line)
        # assignment
        target, sel = self._parse_lvalue()
        if self.cur.accept("<="):
            blocking = False
        elif self.cur.accept("="):
            blocking = True
        else:
            p = self.cur.peek()
            raise ParseError(p.line, p.col,
                             f"expected '=' or '<=', found {p.text!r}")
        rhs = self.exprs.parse_expr()
        self.cur.expect(";")
        return ast.SeqAssign(target, sel, rhs, blocking, "", t.line)

    def _parse_instance(self, m: ast.ModuleDecl) -> None:
        mod_tok = self.cur.expect_id()
        params: dict[str, int] = {}
        if self.cur.accept("#"):
            self.cur.expect("(")
            while True:
                self.cur.expect(".")
                pname = self.cur.expect_id().text
                self.cur.expect("(")
                pexpr = self.exprs.parse_expr()
                self.cur.expect(")")
                try:
                    params[pname] = eval_const(pexpr, {p.name: p.value for p in m.parameters})
                except ParseError:
                    raise ParseError(mod_tok.line, mod_tok.col,
                                     f"non-constant parameter override {pname!r}")
                if not self.cur.accept(","):
                    break
            self.cur.expect(")")
        inst_tok = self.cur.expect_id()
        self.cur.expect("(")
        ports: dict[str, ast.Expr] = {}
        if not self.cur.at(")"):
            while True:
                t = self.cur.peek()
                if not self.cur.at("."):
                    raise ParseError(t.line, t.col, "positional port connection",
                                     DiagCode.UNSUPPORTED)
                self.cur.next()
                pname = self.cur.expect_id().text
                self.cur.expect("(")
                pexpr = self.exprs.parse_expr()
                self.cur.expect(")")
                ports[pname] = pexpr
                if not self.cur.accept(","):
                    break
        self.cur.expect(")")
        self.cur.expect(";")
        m.instances.append(ast.Instance(inst_tok.text, mod_tok.text, ports, params,
                                        mod_tok.line))

    def _resync_item(self) -> None:
        """Skip to the next ';', 'end' family token, or 'endmodule'."""
        depth = 0
        while True:
            t = self.cur.peek()
            if t.kind == "EOF" or t.text == "endmodule":
                return
            self.cur.next()
            if t.text == "begin":
                depth += 1
            elif t.text == "end":
                if depth == 0:
                    return
                depth -= 1
            elif t.text == ";" and depth == 0:
                return

    def _finalize_module(self, m: ast.ModuleDecl,
                         declared: dict, header_order: list[str]) -> None:
        # Evaluate parameter defaults in declaration order.
        env: dict[str, int] = {}
        for p in m.parameters:
            try:
                p.value = eval_const(p.expr, env)
            except ParseError:
                self.diags.error(p.line, 1,
                                 f"parameter {p.name!r} is not constant",
                                 DiagCode.SYNTAX)
                p.value = 0
            env[p.name] = p.value
        # Resolve declared ranges into widths.
        for s in m.signals:
            s.width = self._eval_width(s.msb, s.lsb, env, s.name, s.line)
        for p in m.ports:
            p.width = self._eval_width(p.msb, p.lsb, env, p.name, p.line)
        # Non-ANSI headers: every listed port needs a direction declaration.
        port_names = {p.name for p in m.ports}
        for name in header_order:
            if name not in port_names:
                self.diags.error(m.line, 1,
                                 f"port {name!r} has no direction declaration",
                                 DiagCode.SYNTAX)
        seen: set[str] = set()
        for s in m.signals:
            if s.name in seen:
                self.diags.error(s.line, 1,
                                 f"duplicate declaration of {s.name!r}",
                                 DiagCode.DUPLICATE)
            seen.add(s.name)

    def _eval_width(self, msb: ast.Expr | None, lsb: ast.Expr | None,
                    env: dict[str, int], name: str, line: int) -> int:
        if msb is None:
            return 1
        try:
            hi = eval_const(msb, env)
            lo = eval_const(lsb, env)
        except ParseError:
            self.diags.error(line, 1, f"non-constant range on {name!r}",
                             DiagCode.SYNTAX)
            return 1
        if lo != 0:
            self.diags.error(line, 1,
                             f"range on {name!r} must end at 0",
                             DiagCode.UNSUPPORTED)
            return max(hi - lo + 1, 1)
        if hi < lo:
            self.diags.error(line, 1, f"ascending range on {name!r}",
                             DiagCode.UNSUPPORTED)
            return 1
        return hi - lo + 1


def parse_rtl(source: str, filename: str = "<input>"):
    """Parse RTL source.

    Returns a DesignModel on success, a Diagnostics on any error. Statement
    ids are assigned in source order (see analyze.assign_statement_ids).
    """
    from verikg.rtl.analyze import assign_statement_ids, detect_fsms

    diags = Diagnostics(filename=filename)
    try:
        tokens = tokenize(source)
    except LexError as le:
        diags.error(le.line, le.col, le.message, DiagCode.SYNTAX)
        return diags

    cur = Cursor(tokens)
    model = ast.DesignModel()
    while cur.peek().kind != "EOF":
        t = cur.peek()
        if t.text in UNSUPPORTED_KEYWORDS:
            diags.error(t.line, t.col, f"construct {t.text!r}", DiagCode.UNSUPPORTED)
            cur.next()
            continue
        if not cur.at("module"):
            diags.error(t.line, t.col, f"expected 'module', found {t.text!r}",
                        DiagCode.SYNTAX)
            cur.next()
            continue
        mp = _ModuleParser(cur, diags)
        try:
            m = mp.parse_module()
        except ParseError as pe:
            diags.error(pe.line, pe.col, pe.message, pe.code)
            while cur.peek().kind != "EOF" and not cur.accept("endmodule"):
                cur.next()
            continue
        if m is not None:
            if model.module(m.name) is not None:
                diags.error(m.line, 1, f"duplicate module {m.name!r}",
                            DiagCode.DUPLICATE)
            model.modules.append(m)

    if diags.has_errors():
        return diags
    if len(model.modules) == 1:
        model.top = model.modules[0].name
    model.statements = assign_statement_ids(model)
    model.fsms = detect_fsms(model)
    return model
