"""Expression, statement, and design-model node types.

Their document form is `verikg.codec`'s: an expression node is a list
headed by its `TAG` (`["bin", op, left, right]`), an always-block
statement a dict that holds its `KIND`, and the design model a dict of
its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from verikg.codec import Record


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
    TAG = "lit"
    value: int
    width: int | None = None  # None: unsized decimal literal, adapts to context


@dataclass(frozen=True)
class Id(Node):
    TAG = "id"
    name: str


@dataclass(frozen=True)
class Unary(Node):
    TAG = "un"
    op: str  # ~ ! -
    operand: "Expr"

    def children(self):
        return (self.operand,)

    def rebuild(self, kids):
        return Unary(self.op, *kids)


@dataclass(frozen=True)
class Binary(Node):
    TAG = "bin"
    op: str  # & | ^ + - == != < <= > >= && ||
    left: "Expr"
    right: "Expr"

    def children(self):
        return (self.left, self.right)

    def rebuild(self, kids):
        return Binary(self.op, *kids)


@dataclass(frozen=True)
class Ternary(Node):
    TAG = "cond"
    cond: "Expr"
    then: "Expr"
    other: "Expr"

    def children(self):
        return (self.cond, self.then, self.other)

    def rebuild(self, kids):
        return Ternary(*kids)


@dataclass(frozen=True)
class Concat(Node):
    TAG = "cat"
    parts: tuple["Expr", ...]

    def children(self):
        return self.parts

    def rebuild(self, kids):
        return Concat(tuple(kids))


@dataclass(frozen=True)
class Select(Node):
    """Constant bit- or part-select. msb == lsb for a single bit."""

    TAG = "sel"
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
    keeps_width = False  # class attributes, not fields
    func = ""  # the name it is called by in source, such as "$rose"

    def children(self):
        return (self.expr,)

    def rebuild(self, kids):
        return replace(self, expr=kids[0])

    def source(self) -> str:
        return f"{self.func}({render_expr(self.expr)})"


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


def render_expr(e: Node) -> str:
    """Source form; fully parenthesized so reparsing is associativity-proof.
    Property-file nodes (sampled calls, macro references) print through
    their own `source`."""
    if isinstance(e, Lit):
        if e.width is None:
            return str(e.value)
        return f"{e.width}'d{e.value}"
    if isinstance(e, Id):
        return e.name
    if isinstance(e, Unary):
        inner = render_expr(e.operand)
        if isinstance(e.operand, (Id, Lit)) or hasattr(e.operand, "source"):
            return f"{e.op}{inner}"
        return f"{e.op}({inner})"
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
    if hasattr(e, "source"):
        return e.source()
    raise TypeError(f"not an expression node: {e!r}")


def render_depth(e: Node) -> int:
    """The most expression levels (`rtl.parser.MAX_EXPR_DEPTH`) the parser
    holds open while it reads `render_expr(e)`. Iterative, so a tree of any
    depth can be measured."""
    deepest = 0
    stack = [(e, 1)]  # (node, levels open where its printed form starts)
    while stack:
        n, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(n, Unary):
            # `op x`, or `op(x)` around a compound operand
            bare = isinstance(n.operand, (Id, Lit)) or hasattr(n.operand, "source")
            stack.append((n.operand, d + 1 if bare else d + 2))
        elif isinstance(n, Ternary):
            # `(c ? t : o)`: each arm opens one more
            stack += [(n.cond, d + 1), (n.then, d + 2), (n.other, d + 2)]
        else:
            # a parenthesized operator, a brace, a select or a call
            stack += [(k, d + 1) for k in n.children()]
    return deepest


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class SeqAssign:
    """Assignment inside an always block (blocking or non-blocking)."""

    KIND = "seq_assign"
    target: str
    sel: tuple[Expr, Expr] | None  # constant part-select on the LHS
    rhs: Expr
    blocking: bool
    stmt_id: str
    line: int


@dataclass
class IfStmt:
    KIND = "if"
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
    KIND = "case"
    subject: Expr
    arms: list[CaseArm]
    line: int


AlwaysStmt = Union[SeqAssign, IfStmt, CaseStmt]


def branches(stmt: Union[IfStmt, CaseStmt], conv=lambda e, line: e):
    """The arms of an `if` or a `case` in the order they are tried, as
    (arm id, match, taken, body). `match` is the arm's own condition, None
    for an `else` or a `default`; `taken` is the condition under which the
    arm runs: no earlier arm matched, and this one does. A `case` tries its
    labelled items in source order, then the default, wherever it stands
    (IEEE 1800-2017 12.5). Each condition is built from `conv(e, line)`,
    called once for the `if` condition or the `case` subject, at the
    statement's line, and once per label, at its arm's line, only when
    that arm is asked for."""
    if isinstance(stmt, IfStmt):
        cond = conv(stmt.cond, stmt.line)
        yield stmt.then_id, cond, cond, stmt.then_body
        if stmt.else_body is not None:
            yield stmt.else_id, None, Unary("!", cond), stmt.else_body
        return
    subject = conv(stmt.subject, stmt.line)
    prior = None  # some earlier arm matched
    for arm in sorted(stmt.arms, key=lambda a: a.labels is None):
        if arm.labels is None:
            taken = Lit(1, 1) if prior is None else Unary("!", prior)
            yield arm.arm_id, None, taken, arm.body
            return
        match = None
        for lab in arm.labels:
            eq = Binary("==", subject, conv(lab, arm.line))
            match = eq if match is None else Binary("||", match, eq)
        taken = match if prior is None else Binary("&&", Unary("!", prior), match)
        yield arm.arm_id, match, taken, arm.body
        prior = match if prior is None else Binary("||", prior, match)


@dataclass(frozen=True)
class BranchArm:
    """A branch arm as `walk_stmts` yields it: its statement id is the
    attribute `slot` of `node` (an IfStmt's then_id or else_id, a CaseArm's
    arm_id)."""

    node: Union[IfStmt, CaseArm]
    slot: str
    line: int
    detail: str  # if_then | if_else | case_item | case_default


def walk_stmts(body: list[AlwaysStmt]):
    """Every statement of an always-block body in source order, parent
    before children: each `if` and `case` is followed by its `BranchArm`s,
    and each arm by the statements it runs."""
    stack = body[::-1]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, IfStmt):
            kids = [BranchArm(s, "then_id", s.line, "if_then"), *s.then_body]
            if s.else_body is not None:
                else_line = s.else_line or s.line
                kids += [BranchArm(s, "else_id", else_line, "if_else"), *s.else_body]
        elif isinstance(s, CaseStmt):
            kids = []
            for a in s.arms:
                detail = "case_default" if a.labels is None else "case_item"
                kids += [BranchArm(a, "arm_id", a.line, detail), *a.body]
        else:
            continue
        stack += kids[::-1]


def stmt_exprs(s: AlwaysStmt) -> tuple:
    """The expressions a statement reads itself, not through the statements
    it runs: an assignment's right side and part-select bounds, an `if`'s
    condition, a `case`'s subject and labels."""
    if isinstance(s, SeqAssign):
        return (s.rhs, *(s.sel or ()))
    if isinstance(s, IfStmt):
        return (s.cond,)
    if isinstance(s, CaseStmt):
        return (s.subject, *(lab for a in s.arms for lab in a.labels or ()))
    return ()


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
    params: dict[str, Expr]  # parameter overrides, over the parent's parameters
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
class DesignModel(Record):
    modules: list[ModuleDecl] = field(default_factory=list)
    fsms: list[FsmDesc] = field(default_factory=list)
    statements: list[StatementRef] = field(default_factory=list)
    top: str | None = None

    def module(self, name: str) -> ModuleDecl | None:
        for m in self.modules:
            if m.name == name:
                return m
        return None
