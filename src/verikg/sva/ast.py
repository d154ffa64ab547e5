"""Property-file AST: sequences with bounded delays, top-level implication,
sampled-value functions, macros, and line maps."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

from verikg.rtl import ast as rtl

MAX_DELAY_BOUND = 32  # largest accepted ##n / ##[m:n] bound


# Sampled-value expression nodes; these extend the shared RTL expression
# grammar inside property files only. `rtl.Sampled` gives their one operand,
# `expr`, to the shared traversal, the width rule and the printer.

@dataclass(frozen=True)
class Past(rtl.Sampled):
    depth: int  # cycles back, >= 1
    keeps_width = True
    func = "$past"

    def source(self) -> str:
        return f"{self.func}({rtl.render_expr(self.expr)}, {self.depth})"


@dataclass(frozen=True)
class Rose(rtl.Sampled):
    func = "$rose"


@dataclass(frozen=True)
class Fell(rtl.Sampled):
    func = "$fell"


@dataclass(frozen=True)
class Stable(rtl.Sampled):
    func = "$stable"


@dataclass(frozen=True)
class MacroRef(rtl.Node):
    name: str

    def source(self) -> str:
        return f"`{self.name}"


SvaExpr = object  # rtl.Expr | Past | Rose | Fell | Stable | MacroRef (nested)


class ImplKind(Enum):
    NONE = "none"  # plain sequence property
    OVERLAP = "|->"
    NONOVERLAP = "|=>"


@dataclass(frozen=True)
class SeqStep:
    delay_lo: int
    delay_hi: int
    expr: SvaExpr


@dataclass(frozen=True)
class Sequence:
    """Linear chain of boolean expressions. Each step carries the ##n or
    ##[m:n] delay from the previous step's match; the first step's delay is
    relative to the evaluation start (nonzero for `|-> ##1 b` consequents)."""

    steps: tuple[SeqStep, ...]


@dataclass(frozen=True)
class ClockSpec:
    edge: str  # posedge
    signal: SvaExpr


@dataclass(frozen=True)
class PropBody:
    impl: ImplKind
    antecedent: Sequence | None  # None unless impl is set
    consequent: Sequence
    disable: SvaExpr | None = None
    clock: ClockSpec | None = None  # None: inherit the file default

    @functools.cached_property
    def text(self) -> str:
        """`render_body(self)`, rendered once per body: bodies are frozen,
        and parses share them."""
        return render_body(self)


@dataclass
class PropertyDecl:
    prop_id: str
    kind: str  # assertion | assumption | cover
    body: PropBody | None  # None when the source failed to parse
    line: int
    raw_source: str = ""  # original statement text, kept for repair context


@dataclass
class PropertyFile:
    macros: list[tuple[str, str]] = field(default_factory=list)
    properties: list[PropertyDecl] = field(default_factory=list)
    default_clock: ClockSpec | None = None
    line_map: dict[str, tuple[int, int]] = field(default_factory=dict)

    def get(self, prop_id: str) -> PropertyDecl | None:
        for p in self.properties:
            if p.prop_id == prop_id:
                return p
        return None

    def macro_map(self) -> dict[str, str]:
        return dict(self.macros)


@dataclass
class BoundProperty:
    prop_id: str
    kind: str
    impl: ImplKind
    antecedent: Sequence | None  # identifiers resolved to hierarchical names
    consequent: Sequence
    clock_net: str
    disable_net: SvaExpr | None
    line: int


class BindErrorKind(Enum):
    UNDECLARED_IDENTIFIER = "undeclared_identifier"
    UNDEFINED_MACRO = "undefined_macro"
    WIDTH_MISMATCH = "width_mismatch"
    AMBIGUOUS_PATH = "ambiguous_path"
    UNREADABLE_SIGNAL = "unreadable_signal"


@dataclass
class BindErrorItem:
    prop_id: str
    identifier: str
    line: int
    kind: BindErrorKind
    candidates: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        extra = f" (candidates: {', '.join(self.candidates)})" if self.candidates else ""
        return f"{self.prop_id}: {self.kind.value}: {self.identifier!r} at line {self.line}{extra}"


@dataclass
class BindErrors:
    items: list[BindErrorItem] = field(default_factory=list)

    def for_prop(self, prop_id: str) -> list[BindErrorItem]:
        return [i for i in self.items if i.prop_id == prop_id]

    def __bool__(self) -> bool:
        return bool(self.items)


def render_sequence(seq: Sequence) -> str:
    parts = []
    for i, step in enumerate(seq.steps):
        if i > 0 or (step.delay_lo, step.delay_hi) != (0, 0):
            if step.delay_lo == step.delay_hi:
                parts.append(f"##{step.delay_lo}")
            else:
                parts.append(f"##[{step.delay_lo}:{step.delay_hi}]")
        parts.append(rtl.render_expr(step.expr))
    return " ".join(parts)


def render_body(body: PropBody) -> str:
    bits = []
    if body.clock is not None:
        bits.append(f"@({body.clock.edge} {rtl.render_expr(body.clock.signal)})")
    if body.disable is not None:
        bits.append(f"disable iff ({rtl.render_expr(body.disable)})")
    if body.impl is ImplKind.NONE:
        bits.append(render_sequence(body.consequent))
    else:
        bits.append(render_sequence(body.antecedent))
        bits.append(body.impl.value)
        bits.append(render_sequence(body.consequent))
    return " ".join(bits)
