"""Expression, statement, and design-model node types with JSON round-trip."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Node:
    """Base of every expression node. `children` lists a node's child
    expressions in source order, and a node that has any defines
    `rebuild`, which makes the same node over new ones. `walk` and
    `rewrite` below build on the two, so they are the one place that says
    how each node kind is taken apart."""

    __slots__ = ()

    def children(self) -> tuple:
        return ()


@dataclass(frozen=True)
class Lit(Node):
    value: int
    width: int | None = None  # None: unsized decimal literal, adapts to context


@dataclass(frozen=True)
class Id(Node):
    name: str


@dataclass(frozen=True)
class Unary(Node):
    op: str  # ~ ! -
    operand: "Expr"

    def children(self):
        return (self.operand,)

    def rebuild(self, kids):
        return Unary(self.op, *kids)


@dataclass(frozen=True)
class Binary(Node):
    op: str  # & | ^ + - == != < <= > >= && ||
    left: "Expr"
    right: "Expr"

    def children(self):
        return (self.left, self.right)

    def rebuild(self, kids):
        return Binary(self.op, *kids)


@dataclass(frozen=True)
class Ternary(Node):
    cond: "Expr"
    then: "Expr"
    other: "Expr"

    def children(self):
        return (self.cond, self.then, self.other)

    def rebuild(self, kids):
        return Ternary(*kids)


@dataclass(frozen=True)
class Concat(Node):
    parts: tuple["Expr", ...]

    def children(self):
        return self.parts

    def rebuild(self, kids):
        return Concat(tuple(kids))


@dataclass(frozen=True)
class Select(Node):
    """Constant bit- or part-select. msb == lsb for a single bit."""

    name: str
    msb: "Expr"
    lsb: "Expr"

    def children(self):
        return (self.msb, self.lsb)

    def rebuild(self, kids):
        return Select(self.name, *kids)


@dataclass(frozen=True)
class SliceX(Node):
    """Internal bit-slice over an arbitrary expression; produced by wire
    inlining during elaboration, never by the parsers."""

    base: "Expr"
    msb: int
    lsb: int

    def children(self):
        return (self.base,)

    def rebuild(self, kids):
        return SliceX(kids[0], self.msb, self.lsb)


@dataclass(frozen=True)
class Sampled(Node):
    """Base of the sampled-value functions ($past, $rose, $fell, $stable),
    which only property files use (`verikg.sva.ast`): one operand, `expr`.
    Its value is a 1-bit test, unless `keeps_width` says it is the
    operand's own value ($past)."""

    expr: "Expr"
    keeps_width = False  # a class attribute, not a field

    def children(self):
        return (self.expr,)

    def rebuild(self, kids):
        return replace(self, expr=kids[0])


Expr = Union[Lit, Id, Unary, Binary, Ternary, Concat, Select, SliceX]


def walk(e: Node):
    """Every node of `e`, parent before children, children in order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        kids = node.children()
        if kids:
            stack += kids[::-1]


def rewrite(e: Node, leaf) -> Node:
    """`e` with each node `n` that `leaf(n)` replaces (a non-None result)
    swapped for its replacement; other nodes are rebuilt over rewritten
    children. A node whose children all come back unchanged is kept."""
    new = leaf(e)
    if new is not None:
        return new
    kids = e.children()
    if not kids:
        return e
    out = []
    changed = False
    for k in kids:  # a loop, not a comprehension: one frame per level
        n = rewrite(k, leaf)
        changed = changed or n is not k
        out.append(n)
    return e.rebuild(out) if changed else e


def expr_ids(e: Node) -> set[str]:
    """All signal names an expression reads (every Id and Select name)."""
    return {n.name for n in walk(e) if isinstance(n, (Id, Select))}


COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}
LOGICAL_OPS = {"&&", "||"}
BITWISE_OPS = {"&", "|", "^"}
ARITH_OPS = {"+", "-"}


def expr_to_json(e: Expr) -> Any:
    if isinstance(e, Lit):
        return ["lit", e.value, e.width]
    if isinstance(e, Id):
        return ["id", e.name]
    if isinstance(e, Unary):
        return ["un", e.op, expr_to_json(e.operand)]
    if isinstance(e, Binary):
        return ["bin", e.op, expr_to_json(e.left), expr_to_json(e.right)]
    if isinstance(e, Ternary):
        return ["cond", expr_to_json(e.cond), expr_to_json(e.then), expr_to_json(e.other)]
    if isinstance(e, Concat):
        return ["cat", [expr_to_json(p) for p in e.parts]]
    if isinstance(e, Select):
        return ["sel", e.name, expr_to_json(e.msb), expr_to_json(e.lsb)]
    raise TypeError(f"not an expression node: {e!r}")


def expr_from_json(doc: Any) -> Expr:
    tag = doc[0]
    if tag == "lit":
        return Lit(doc[1], doc[2])
    if tag == "id":
        return Id(doc[1])
    if tag == "un":
        return Unary(doc[1], expr_from_json(doc[2]))
    if tag == "bin":
        return Binary(doc[1], expr_from_json(doc[2]), expr_from_json(doc[3]))
    if tag == "cond":
        return Ternary(expr_from_json(doc[1]), expr_from_json(doc[2]), expr_from_json(doc[3]))
    if tag == "cat":
        return Concat(tuple(expr_from_json(p) for p in doc[1]))
    if tag == "sel":
        return Select(doc[1], expr_from_json(doc[2]), expr_from_json(doc[3]))
    raise ValueError(f"unknown expression tag: {tag!r}")


def render_expr(e: Expr) -> str:
    """Source form; fully parenthesized so reparsing is associativity-proof."""
    if isinstance(e, Lit):
        if e.width is None:
            return str(e.value)
        return f"{e.width}'d{e.value}"
    if isinstance(e, Id):
        return e.name
    if isinstance(e, Unary):
        return f"{e.op}{render_expr(e.operand)}" if isinstance(e.operand, (Id, Lit)) \
            else f"{e.op}({render_expr(e.operand)})"
    if isinstance(e, Binary):
        return f"({render_expr(e.left)} {e.op} {render_expr(e.right)})"
    if isinstance(e, Ternary):
        return f"({render_expr(e.cond)} ? {render_expr(e.then)} : {render_expr(e.other)})"
    if isinstance(e, Concat):
        return "{" + ", ".join(render_expr(p) for p in e.parts) + "}"
    if isinstance(e, Select):
        if e.msb == e.lsb:
            return f"{e.name}[{render_expr(e.msb)}]"
        return f"{e.name}[{render_expr(e.msb)}:{render_expr(e.lsb)}]"
    if isinstance(e, SliceX):
        return f"({render_expr(e.base)})[{e.msb}:{e.lsb}]"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class SeqAssign:
    """Assignment inside an always block (blocking or non-blocking)."""

    target: str
    sel: tuple[Expr, Expr] | None  # constant part-select on the LHS
    rhs: Expr
    blocking: bool
    stmt_id: str
    line: int


@dataclass
class IfStmt:
    cond: Expr
    then_body: list["AlwaysStmt"]
    else_body: list["AlwaysStmt"] | None
    then_id: str
    else_id: str | None
    line: int
    else_line: int | None = None


@dataclass
class CaseArm:
    labels: list[Expr] | None  # None for the default arm
    body: list["AlwaysStmt"]
    arm_id: str
    line: int


@dataclass
class CaseStmt:
    subject: Expr
    arms: list[CaseArm]
    line: int


AlwaysStmt = Union[SeqAssign, IfStmt, CaseStmt]


@dataclass
class ContAssign:
    target: str
    sel: tuple[Expr, Expr] | None
    rhs: Expr
    stmt_id: str
    line: int


@dataclass
class AlwaysBlock:
    clock: str
    body: list[AlwaysStmt]
    line: int


def _stmt_to_json(s: AlwaysStmt) -> dict:
    if isinstance(s, SeqAssign):
        return {
            "kind": "seq_assign",
            "target": s.target,
            "sel": [expr_to_json(s.sel[0]), expr_to_json(s.sel[1])] if s.sel else None,
            "rhs": expr_to_json(s.rhs),
            "blocking": s.blocking,
            "stmt_id": s.stmt_id,
            "line": s.line,
        }
    if isinstance(s, IfStmt):
        return {
            "kind": "if",
            "cond": expr_to_json(s.cond),
            "then_body": [_stmt_to_json(x) for x in s.then_body],
            "else_body": [_stmt_to_json(x) for x in s.else_body] if s.else_body is not None else None,
            "then_id": s.then_id,
            "else_id": s.else_id,
            "line": s.line,
            "else_line": s.else_line,
        }
    if isinstance(s, CaseStmt):
        return {
            "kind": "case",
            "subject": expr_to_json(s.subject),
            "arms": [
                {
                    "labels": [expr_to_json(l) for l in a.labels] if a.labels is not None else None,
                    "body": [_stmt_to_json(x) for x in a.body],
                    "arm_id": a.arm_id,
                    "line": a.line,
                }
                for a in s.arms
            ],
            "line": s.line,
        }
    raise TypeError(f"not a statement node: {s!r}")


def _stmt_from_json(doc: dict) -> AlwaysStmt:
    kind = doc["kind"]
    if kind == "seq_assign":
        sel = doc["sel"]
        return SeqAssign(
            target=doc["target"],
            sel=(expr_from_json(sel[0]), expr_from_json(sel[1])) if sel else None,
            rhs=expr_from_json(doc["rhs"]),
            blocking=doc["blocking"],
            stmt_id=doc["stmt_id"],
            line=doc["line"],
        )
    if kind == "if":
        return IfStmt(
            cond=expr_from_json(doc["cond"]),
            then_body=[_stmt_from_json(x) for x in doc["then_body"]],
            else_body=[_stmt_from_json(x) for x in doc["else_body"]] if doc["else_body"] is not None else None,
            then_id=doc["then_id"],
            else_id=doc["else_id"],
            line=doc["line"],
            else_line=doc.get("else_line"),
        )
    if kind == "case":
        return CaseStmt(
            subject=expr_from_json(doc["subject"]),
            arms=[
                CaseArm(
                    labels=[expr_from_json(l) for l in a["labels"]] if a["labels"] is not None else None,
                    body=[_stmt_from_json(x) for x in a["body"]],
                    arm_id=a["arm_id"],
                    line=a["line"],
                )
                for a in doc["arms"]
            ],
            line=doc["line"],
        )
    raise ValueError(f"unknown statement kind: {kind!r}")


# ---------------------------------------------------------------------------
# Module-level declarations
# ---------------------------------------------------------------------------

@dataclass
class Port:
    name: str
    direction: str  # input | output
    width: int  # evaluated with the module's default parameters
    line: int = 0
    msb: Expr | None = None  # declared range bounds, kept for re-evaluation
    lsb: Expr | None = None


@dataclass
class Signal:
    name: str
    width: int
    kind: str  # reg | wire
    line: int = 0
    msb: Expr | None = None
    lsb: Expr | None = None


@dataclass
class Param:
    name: str
    value: int  # evaluated with the module's default parameters
    local: bool
    line: int = 0
    expr: Expr | None = None  # declared value, kept for override re-evaluation


@dataclass
class Instance:
    name: str
    module: str
    ports: dict[str, Expr]  # named connections
    params: dict[str, int]  # parameter overrides
    line: int = 0


@dataclass
class ModuleDecl:
    name: str
    ports: list[Port] = field(default_factory=list)
    signals: list[Signal] = field(default_factory=list)
    parameters: list[Param] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    assigns: list[ContAssign] = field(default_factory=list)
    always_blocks: list[AlwaysBlock] = field(default_factory=list)
    line: int = 0

    def param_map(self) -> dict[str, int]:
        return {p.name: p.value for p in self.parameters}


@dataclass
class FsmDesc:
    state_reg: str  # "<module>.<register>"
    encoding: dict[str, int]
    transition_lines: list[int]


@dataclass
class StatementRef:
    id: str  # S1, S2, ... in source order
    module: str
    line: int
    kind: str  # assign | branch_arm | seq_assign
    detail: str | None = None  # if_then | if_else | case_item | case_default


@dataclass
class DesignModel:
    modules: list[ModuleDecl] = field(default_factory=list)
    fsms: list[FsmDesc] = field(default_factory=list)
    statements: list[StatementRef] = field(default_factory=list)
    top: str | None = None

    def module(self, name: str) -> ModuleDecl | None:
        for m in self.modules:
            if m.name == name:
                return m
        return None

    # -- JSON round-trip ----------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "top": self.top,
            "modules": [
                {
                    "name": m.name,
                    "ports": [
                        {
                            "name": p.name, "direction": p.direction, "width": p.width,
                            "line": p.line,
                            "msb": expr_to_json(p.msb) if p.msb is not None else None,
                            "lsb": expr_to_json(p.lsb) if p.lsb is not None else None,
                        }
                        for p in m.ports
                    ],
                    "signals": [
                        {
                            "name": s.name, "width": s.width, "kind": s.kind, "line": s.line,
                            "msb": expr_to_json(s.msb) if s.msb is not None else None,
                            "lsb": expr_to_json(s.lsb) if s.lsb is not None else None,
                        }
                        for s in m.signals
                    ],
                    "parameters": [
                        {
                            "name": p.name, "value": p.value, "local": p.local, "line": p.line,
                            "expr": expr_to_json(p.expr) if p.expr is not None else None,
                        }
                        for p in m.parameters
                    ],
                    "instances": [
                        {
                            "name": i.name,
                            "module": i.module,
                            "ports": {k: expr_to_json(v) for k, v in sorted(i.ports.items())},
                            "params": dict(sorted(i.params.items())),
                            "line": i.line,
                        }
                        for i in m.instances
                    ],
                    "assigns": [
                        {
                            "target": a.target,
                            "sel": [expr_to_json(a.sel[0]), expr_to_json(a.sel[1])] if a.sel else None,
                            "rhs": expr_to_json(a.rhs),
                            "stmt_id": a.stmt_id,
                            "line": a.line,
                        }
                        for a in m.assigns
                    ],
                    "always_blocks": [
                        {
                            "clock": b.clock,
                            "body": [_stmt_to_json(s) for s in b.body],
                            "line": b.line,
                        }
                        for b in m.always_blocks
                    ],
                    "line": m.line,
                }
                for m in self.modules
            ],
            "fsms": [
                {
                    "state_reg": f.state_reg,
                    "encoding": dict(sorted(f.encoding.items())),
                    "transition_lines": f.transition_lines,
                }
                for f in self.fsms
            ],
            "statements": [
                {"id": s.id, "module": s.module, "line": s.line, "kind": s.kind, "detail": s.detail}
                for s in self.statements
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DesignModel":
        modules = []
        for md in doc["modules"]:
            modules.append(
                ModuleDecl(
                    name=md["name"],
                    ports=[
                        Port(
                            p["name"], p["direction"], p["width"], p["line"],
                            expr_from_json(p["msb"]) if p.get("msb") is not None else None,
                            expr_from_json(p["lsb"]) if p.get("lsb") is not None else None,
                        )
                        for p in md["ports"]
                    ],
                    signals=[
                        Signal(
                            s["name"], s["width"], s["kind"], s["line"],
                            expr_from_json(s["msb"]) if s.get("msb") is not None else None,
                            expr_from_json(s["lsb"]) if s.get("lsb") is not None else None,
                        )
                        for s in md["signals"]
                    ],
                    parameters=[
                        Param(
                            p["name"], p["value"], p["local"], p["line"],
                            expr_from_json(p["expr"]) if p.get("expr") is not None else None,
                        )
                        for p in md["parameters"]
                    ],
                    instances=[
                        Instance(
                            name=i["name"],
                            module=i["module"],
                            ports={k: expr_from_json(v) for k, v in i["ports"].items()},
                            params=dict(i["params"]),
                            line=i["line"],
                        )
                        for i in md["instances"]
                    ],
                    assigns=[
                        ContAssign(
                            target=a["target"],
                            sel=(expr_from_json(a["sel"][0]), expr_from_json(a["sel"][1])) if a["sel"] else None,
                            rhs=expr_from_json(a["rhs"]),
                            stmt_id=a["stmt_id"],
                            line=a["line"],
                        )
                        for a in md["assigns"]
                    ],
                    always_blocks=[
                        AlwaysBlock(
                            clock=b["clock"],
                            body=[_stmt_from_json(s) for s in b["body"]],
                            line=b["line"],
                        )
                        for b in md["always_blocks"]
                    ],
                    line=md["line"],
                )
            )
        return cls(
            modules=modules,
            fsms=[
                FsmDesc(f["state_reg"], dict(f["encoding"]), list(f["transition_lines"]))
                for f in doc["fsms"]
            ],
            statements=[
                StatementRef(s["id"], s["module"], s["line"], s["kind"], s.get("detail"))
                for s in doc["statements"]
            ],
            top=doc.get("top"),
        )
