"""Identifier binding: property expressions against the elaborated design,
and the property-file compile step built on it.

Identifiers resolve by exact hierarchical match, then unique suffix match;
macros expand one level (no recursion). Properties that fail to bind are
reported per property and excluded from the bound list.
"""

from __future__ import annotations

from dataclasses import dataclass

from verikg.diagnostics import Diagnostics
from verikg.kg import SignalIndex, resolve_signal
from verikg.rtl import ast as rtl
from verikg.rtl.ast import DesignModel
from verikg.rtl.compile import WidthError, width_of
from verikg.rtl.lexer import LexError, tokenize
from verikg.rtl.parser import Cursor, ParseError
from verikg.sva import ast as S
from verikg.sva.emit import emit_properties
from verikg.sva.parser import SvaExprParser, parse_properties_with_recovery


class _BindFail(Exception):
    def __init__(self, item: S.BindErrorItem):
        super().__init__(str(item))
        self.item = item


def _parse_macro_expansion(name: str, text: str, prop_id: str, line: int):
    try:
        tokens = tokenize(text)
    except LexError:
        raise _BindFail(S.BindErrorItem(prop_id, name, line,
                                        S.BindErrorKind.UNDEFINED_MACRO,
                                        ["unparseable expansion"]))
    cur = Cursor(tokens)
    parser = SvaExprParser(cur)
    try:
        expr = parser.parse_expr()
    except ParseError:
        raise _BindFail(S.BindErrorItem(prop_id, name, line,
                                        S.BindErrorKind.UNDEFINED_MACRO,
                                        ["unparseable expansion"]))
    if cur.peek().kind != "EOF":
        raise _BindFail(S.BindErrorItem(prop_id, name, line,
                                        S.BindErrorKind.UNDEFINED_MACRO,
                                        ["trailing tokens in expansion"]))
    return expr


class _Binder:
    def __init__(self, pf: S.PropertyFile, idx: SignalIndex,
                 prop_id: str, line: int):
        self.macros = pf.macro_map()
        self.idx = idx
        self.prop_id = prop_id
        self.line = line

    def resolve_name(self, name: str) -> str:
        if name in self.idx.path_widths:
            return name
        matches = resolve_signal(self.idx, name)
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise _BindFail(S.BindErrorItem(self.prop_id, name, self.line,
                                            S.BindErrorKind.AMBIGUOUS_PATH, matches))
        raise _BindFail(S.BindErrorItem(self.prop_id, name, self.line,
                                        S.BindErrorKind.UNDECLARED_IDENTIFIER))

    def resolve_clock_name(self, name: str) -> str:
        """Clocks get a shallowest-path tie-break: in a flattened hierarchy
        every instance's clock port aliases the top-level clock net, so a
        bare `clk` mention would otherwise always be ambiguous."""
        if name in self.idx.path_widths:
            return name
        matches = resolve_signal(self.idx, name)
        if not matches:
            raise _BindFail(S.BindErrorItem(self.prop_id, name, self.line,
                                            S.BindErrorKind.UNDECLARED_IDENTIFIER))
        depth = min(m.count(".") for m in matches)
        shallow = [m for m in matches if m.count(".") == depth]
        if len(shallow) == 1:
            return shallow[0]
        raise _BindFail(S.BindErrorItem(self.prop_id, name, self.line,
                                        S.BindErrorKind.AMBIGUOUS_PATH, matches))

    def resolve_expr(self, e):
        return rtl.rewrite(e, self._resolve_leaf)

    def _resolve_leaf(self, e):
        if isinstance(e, S.MacroRef):
            if e.name not in self.macros:
                raise _BindFail(S.BindErrorItem(self.prop_id, e.name, self.line,
                                                S.BindErrorKind.UNDEFINED_MACRO))
            expansion = _parse_macro_expansion(e.name, self.macros[e.name],
                                               self.prop_id, self.line)
            if any(isinstance(n, S.MacroRef) for n in rtl.walk(expansion)):
                raise _BindFail(S.BindErrorItem(self.prop_id, e.name, self.line,
                                                S.BindErrorKind.UNDEFINED_MACRO,
                                                ["recursive macro expansion"]))
            return self.resolve_expr(expansion)
        if isinstance(e, rtl.Id):
            return rtl.Id(self.resolve_name(e.name))
        if isinstance(e, rtl.Select):
            return rtl.Select(self.resolve_name(e.name), e.msb, e.lsb)
        return None

    def resolve_sequence(self, seq: S.Sequence) -> S.Sequence:
        return S.Sequence(tuple(
            S.SeqStep(s.delay_lo, s.delay_hi, self.resolve_expr(s.expr))
            for s in seq.steps))


def bind(pf: S.PropertyFile, dm: DesignModel, idx: SignalIndex
         ) -> tuple[list[S.BoundProperty], S.BindErrors]:
    """Resolve every parseable property; returns the bound list alongside
    per-property errors (a property appears in exactly one of the two)."""
    bound: list[S.BoundProperty] = []
    errors = S.BindErrors()
    for decl in pf.properties:
        if decl.body is None:
            continue
        line = pf.line_map.get(decl.prop_id, (decl.line, decl.line))[0]
        binder = _Binder(pf, idx, decl.prop_id, decl.line)
        try:
            clock_spec = decl.body.clock or pf.default_clock
            if clock_spec is None:
                raise _BindFail(S.BindErrorItem(
                    decl.prop_id, "(missing clock)", decl.line,
                    S.BindErrorKind.UNDECLARED_IDENTIFIER,
                    ["property has no clock and the file sets no default"]))
            if not isinstance(clock_spec.signal, rtl.Id):
                raise _BindFail(S.BindErrorItem(
                    decl.prop_id, S.render_sva_expr(clock_spec.signal), decl.line,
                    S.BindErrorKind.UNDECLARED_IDENTIFIER,
                    ["clock must be a plain signal"]))
            clock_expr = rtl.Id(binder.resolve_clock_name(clock_spec.signal.name))
            ante = (binder.resolve_sequence(decl.body.antecedent)
                    if decl.body.antecedent is not None else None)
            cons = binder.resolve_sequence(decl.body.consequent)
            disable = (binder.resolve_expr(decl.body.disable)
                       if decl.body.disable is not None else None)
            widths = idx.path_widths
            try:
                for seq in filter(None, (ante, cons)):
                    for step in seq.steps:
                        width_of(step.expr, widths)
                if disable is not None:
                    width_of(disable, widths)
            except WidthError as we:
                raise _BindFail(S.BindErrorItem(decl.prop_id, we.message, decl.line,
                                                S.BindErrorKind.WIDTH_MISMATCH))
            bound.append(S.BoundProperty(
                prop_id=decl.prop_id,
                kind=decl.kind,
                impl=decl.body.impl,
                antecedent=ante,
                consequent=cons,
                clock_net=clock_expr.name,
                disable_net=disable,
                line=line,
            ))
        except _BindFail as bf:
            errors.items.append(bf.item)
    return bound, errors


@dataclass
class Compiled:
    parsed: S.PropertyFile
    diags: Diagnostics
    bound: list[S.BoundProperty]
    errors: S.BindErrors


def compile_properties(pf: S.PropertyFile, dm: DesignModel, idx: SignalIndex
                       ) -> Compiled:
    """Compile a property file as a tool sees it: emit the canonical text,
    parse it back, keep the file's default clock, and bind every property.

    Re-emitting first keeps line maps and diagnostics consistent with what
    a tool (or agent) reads. Emission also rewrites `pf.line_map`. To
    compile one property in isolation, pass a file holding only it.
    """
    parsed, diags = parse_properties_with_recovery(emit_properties(pf))
    parsed.default_clock = parsed.default_clock or pf.default_clock
    bound, errors = bind(parsed, dm, idx)
    return Compiled(parsed, diags, bound, errors)
