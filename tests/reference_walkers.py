"""The always-block walkers and the property printer as they were before
`rtl.ast.walk_stmts`, `rtl.ast.stmt_exprs` and the merged
`rtl.ast.render_expr`, kept verbatim as the reference the shared code is
compared against (`tests/test_statement_walk.py`), plus a generator of
designs whose always blocks nest `if`/`else` and `case` statements.

- `_walk_always`, `_exprs_in_stmt`, `_assignments_to`, the `check_cases`
  closure in `detect_fsms` and `_seq_targets` are five hand-written
  recursions over the same statement shapes.
- `render_sva_expr` printed property expressions beside `render_expr`.

And the expression walks as they were before each node object of an
elaborated expression was walked once (`tests/test_shared_nodes.py`):

- `width_of` and `expr_ids` walked a shared node once per path to it.
- `guard_fns` compiled each statement's guard into a function of its own,
  where `NetModel.executed` compiles one function per net.

And the coverage loop's enabling-condition text as it was before one walk
per call built every statement's conditions (`source_guard_text` walked
every always block again for each statement asked for).

It lives outside `oracles.py` because the benchmark imports that module
for its generators, and its peak RSS grows with that file's size.
"""

from __future__ import annotations

import random

from verikg.rtl import ast
from verikg.rtl import ast as rtl
from verikg.rtl.compile import Compiler, WidthError, define
from verikg.rtl.parser import ParseError, eval_const
from verikg.sva.ast import Fell, MacroRef, Past, Rose, Stable


# ---------------------------------------------------------------------------
# rtl/analyze.py
# ---------------------------------------------------------------------------

def _walk_always(body: list[ast.AlwaysStmt], module: str, refs: list[ast.StatementRef],
                 counter: list[int]) -> None:
    for stmt in body:
        if isinstance(stmt, ast.SeqAssign):
            counter[0] += 1
            stmt.stmt_id = f"S{counter[0]}"
            refs.append(ast.StatementRef(stmt.stmt_id, module, stmt.line, "seq_assign"))
        elif isinstance(stmt, ast.IfStmt):
            counter[0] += 1
            stmt.then_id = f"S{counter[0]}"
            refs.append(ast.StatementRef(stmt.then_id, module, stmt.line,
                                         "branch_arm", "if_then"))
            _walk_always(stmt.then_body, module, refs, counter)
            if stmt.else_body is not None:
                counter[0] += 1
                stmt.else_id = f"S{counter[0]}"
                refs.append(ast.StatementRef(stmt.else_id, module,
                                             stmt.else_line or stmt.line,
                                             "branch_arm", "if_else"))
                _walk_always(stmt.else_body, module, refs, counter)
        elif isinstance(stmt, ast.CaseStmt):
            for arm in stmt.arms:
                counter[0] += 1
                arm.arm_id = f"S{counter[0]}"
                detail = "case_default" if arm.labels is None else "case_item"
                refs.append(ast.StatementRef(arm.arm_id, module, arm.line,
                                             "branch_arm", detail))
                _walk_always(arm.body, module, refs, counter)


def assign_statement_ids(model: ast.DesignModel, start: int = 1) -> list[ast.StatementRef]:
    """Number every assign, branch arm, and sequential assignment S<n> in
    source order, writing the ids back into the AST nodes."""
    refs: list[ast.StatementRef] = []
    counter = [start - 1]
    for m in model.modules:
        items: list[tuple[int, int, object]] = []
        for a in m.assigns:
            items.append((a.line, 0, a))
        for b in m.always_blocks:
            items.append((b.line, 1, b))
        for line, _, node in sorted(items, key=lambda x: (x[0], x[1])):
            if isinstance(node, ast.ContAssign):
                counter[0] += 1
                node.stmt_id = f"S{counter[0]}"
                refs.append(ast.StatementRef(node.stmt_id, m.name, line, "assign"))
            else:
                _walk_always(node.body, m.name, refs, counter)  # type: ignore[union-attr]
    return refs


def _exprs_in_stmt(stmt: ast.AlwaysStmt):
    if isinstance(stmt, ast.SeqAssign):
        yield stmt.rhs
        if stmt.sel:
            yield stmt.sel[0]
            yield stmt.sel[1]
    elif isinstance(stmt, ast.IfStmt):
        yield stmt.cond
        for s in stmt.then_body:
            yield from _exprs_in_stmt(s)
        for s in stmt.else_body or []:
            yield from _exprs_in_stmt(s)
    elif isinstance(stmt, ast.CaseStmt):
        yield stmt.subject
        for arm in stmt.arms:
            for lab in arm.labels or []:
                yield lab
            for s in arm.body:
                yield from _exprs_in_stmt(s)


def _module_exprs(m: ast.ModuleDecl):
    for a in m.assigns:
        yield a.rhs
    for b in m.always_blocks:
        for s in b.body:
            yield from _exprs_in_stmt(s)
    for inst in m.instances:
        yield from inst.ports.values()


def _assignments_to(m: ast.ModuleDecl, reg: str):
    def walk(body):
        for stmt in body:
            if isinstance(stmt, ast.SeqAssign) and stmt.target == reg:
                yield stmt
            elif isinstance(stmt, ast.IfStmt):
                yield from walk(stmt.then_body)
                yield from walk(stmt.else_body or [])
            elif isinstance(stmt, ast.CaseStmt):
                for arm in stmt.arms:
                    yield from walk(arm.body)

    for b in m.always_blocks:
        yield from walk(b.body)


_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


def detect_fsms(model: ast.DesignModel) -> list[ast.FsmDesc]:
    """A register is an FSM state register iff every comparison / case switch
    on it uses named parameter constants (and at least one exists), and every
    assignment to it is one of those named constants."""
    out: list[ast.FsmDesc] = []
    for m in model.modules:
        params = m.param_map()
        for sig in m.signals:
            if sig.kind != "reg":
                continue
            compared_names: set[str] = set()
            usage_count = 0
            ok = True
            for top in _module_exprs(m):
                for e in ast.walk(top):
                    if isinstance(e, ast.Binary) and e.op in _CMP_OPS:
                        sides = [(e.left, e.right), (e.right, e.left)]
                        for this, other in sides:
                            if isinstance(this, ast.Id) and this.name == sig.name:
                                usage_count += 1
                                if isinstance(other, ast.Id) and other.name in params:
                                    compared_names.add(other.name)
                                else:
                                    ok = False
            for b in m.always_blocks:
                def check_cases(body):
                    nonlocal usage_count, ok
                    for stmt in body:
                        if isinstance(stmt, ast.CaseStmt):
                            if isinstance(stmt.subject, ast.Id) and stmt.subject.name == sig.name:
                                usage_count += 1
                                for arm in stmt.arms:
                                    for lab in arm.labels or []:
                                        if isinstance(lab, ast.Id) and lab.name in params:
                                            compared_names.add(lab.name)
                                        else:
                                            ok = False
                            for arm in stmt.arms:
                                check_cases(arm.body)
                        elif isinstance(stmt, ast.IfStmt):
                            check_cases(stmt.then_body)
                            check_cases(stmt.else_body or [])

                check_cases(b.body)
            if not ok or usage_count == 0:
                continue
            assigned_names: set[str] = set()
            lines: list[int] = []
            for sa in _assignments_to(m, sig.name):
                if isinstance(sa.rhs, ast.Id) and sa.rhs.name in params:
                    assigned_names.add(sa.rhs.name)
                    lines.append(sa.line)
                else:
                    ok = False
                    break
            if not ok or not lines:
                continue
            encoding = {name: params[name] for name in sorted(compared_names | assigned_names)}
            out.append(ast.FsmDesc(f"{m.name}.{sig.name}", encoding, sorted(set(lines))))
    return out


# ---------------------------------------------------------------------------
# rtl/elaborate.py
# ---------------------------------------------------------------------------

def _seq_targets(body: list[ast.AlwaysStmt]):
    for stmt in body:
        if isinstance(stmt, ast.SeqAssign):
            yield stmt.target
        elif isinstance(stmt, ast.IfStmt):
            yield from _seq_targets(stmt.then_body)
            yield from _seq_targets(stmt.else_body or [])
        elif isinstance(stmt, ast.CaseStmt):
            for arm in stmt.arms:
                yield from _seq_targets(arm.body)


def state_registers(model: ast.DesignModel, top: str) -> list[str]:
    """The hierarchical registers that elaboration makes state bits, in its
    order: per instance, the `reg` signals `_seq_targets` finds assigned,
    in declaration order, before the instances beneath it."""
    out: list[str] = []

    def visit(module_name: str, prefix: str) -> None:
        m = model.module(module_name)
        assigned_in_always: set[str] = set()
        for b in m.always_blocks:
            for s in _seq_targets(b.body):
                assigned_in_always.add(s)
        out.extend(f"{prefix}.{s.name}" for s in m.signals
                   if s.kind == "reg" and s.name in assigned_in_always)
        for inst in m.instances:
            visit(inst.module, f"{prefix}.{inst.name}")

    visit(top, top)
    return out


# ---------------------------------------------------------------------------
# sva/ast.py
# ---------------------------------------------------------------------------

def render_sva_expr(e) -> str:
    if isinstance(e, Past):
        return f"$past({render_sva_expr(e.expr)}, {e.depth})"
    if isinstance(e, Rose):
        return f"$rose({render_sva_expr(e.expr)})"
    if isinstance(e, Fell):
        return f"$fell({render_sva_expr(e.expr)})"
    if isinstance(e, Stable):
        return f"$stable({render_sva_expr(e.expr)})"
    if isinstance(e, MacroRef):
        return f"`{e.name}"
    if isinstance(e, rtl.Unary):
        inner = render_sva_expr(e.operand)
        if isinstance(e.operand, (rtl.Id, rtl.Lit, Past, Rose, Fell, Stable, MacroRef)):
            return f"{e.op}{inner}"
        return f"{e.op}({inner})"
    if isinstance(e, rtl.Binary):
        return f"({render_sva_expr(e.left)} {e.op} {render_sva_expr(e.right)})"
    if isinstance(e, rtl.Ternary):
        return (f"({render_sva_expr(e.cond)} ? {render_sva_expr(e.then)}"
                f" : {render_sva_expr(e.other)})")
    if isinstance(e, rtl.Concat):
        return "{" + ", ".join(render_sva_expr(p) for p in e.parts) + "}"
    return rtl.render_expr(e)


# ---------------------------------------------------------------------------
# rtl/compile.py, rtl/ast.py and rtl/elaborate.py
# ---------------------------------------------------------------------------

def width_of(e: ast.Expr, widths: dict[str, int]) -> int | None:
    """Computed width; None for an unsized literal, or a `?:` choosing
    between two, that adapts to context."""
    if isinstance(e, ast.Lit):
        return e.width
    if isinstance(e, ast.Id):
        if e.name not in widths:
            raise WidthError(f"undeclared name {e.name!r}")
        return widths[e.name]
    if isinstance(e, ast.Select):
        if e.name not in widths:
            raise WidthError(f"undeclared name {e.name!r}")
        try:
            hi = eval_const(e.msb, {})
            lo = eval_const(e.lsb, {})
        except ParseError:
            raise WidthError(f"non-constant select bounds on {e.name!r}")
        base = widths[e.name]
        if not (0 <= lo <= hi < base):
            raise WidthError(
                f"select [{hi}:{lo}] out of range for {e.name!r} (width {base})")
        return hi - lo + 1
    if isinstance(e, ast.SliceX):
        return e.msb - e.lsb + 1
    if isinstance(e, ast.Unary):
        if e.op == "!":
            width_of(e.operand, widths)
            return 1
        w = width_of(e.operand, widths)
        if w is None:
            raise WidthError(f"operator {e.op!r} needs a sized operand")
        return w
    if isinstance(e, ast.Binary):
        lw = width_of(e.left, widths)
        rw = width_of(e.right, widths)
        if e.op in ast.LOGICAL_OPS:
            return 1
        if e.op in ast.COMPARISON_OPS:
            if lw is not None and rw is not None and lw != rw:
                raise WidthError(
                    f"width mismatch in {e.op!r} comparison: {lw} vs {rw}")
            return 1
        # bitwise / arithmetic
        if lw is not None and rw is not None and lw != rw:
            raise WidthError(f"width mismatch in {e.op!r}: {lw} vs {rw}")
        w = lw if lw is not None else rw
        if w is None:
            raise WidthError(f"operator {e.op!r} over two unsized literals")
        return w
    if isinstance(e, ast.Ternary):
        width_of(e.cond, widths)
        tw = width_of(e.then, widths)
        ow = width_of(e.other, widths)
        if tw is not None and ow is not None and tw != ow:
            raise WidthError(f"width mismatch in ?: arms: {tw} vs {ow}")
        # two unsized arms (`c ? A : B` over parameters) adapt to context
        return tw if tw is not None else ow
    if isinstance(e, ast.Concat):
        return sum(_part_width(width_of(p, widths)) for p in e.parts)
    if isinstance(e, ast.Sampled):
        w = width_of(e.expr, widths)
        return w if e.keeps_width else 1
    raise WidthError(f"unexpected expression node {e!r}")


def _part_width(w: int | None) -> int:
    if w is None:
        raise WidthError("unsized literal inside concatenation")
    return w


def expr_ids(e: ast.Node) -> set[str]:
    """All signal names an expression reads (every Id and Select name)."""
    return {n.name for n in ast.walk(e) if isinstance(n, (ast.Id, ast.Select))}


def guard_fns(net) -> dict:
    """Each statement's guard compiled into a function of its own over the
    slot tuple `x`, by statement id."""
    comp = Compiler(net.widths, net.slots)
    guards = [comp.function("x", comp.condition(g))
              for g in net.statement_guards.values()]
    return dict(zip(net.statement_guards, define(guards)))


# ---------------------------------------------------------------------------
# agents/coverage_loop.py
# ---------------------------------------------------------------------------

def source_guard_text(dm: ast.DesignModel, stmt_id: str) -> str:
    """The enabling condition of a statement in module-local source terms:
    the conjunction of the conditions under which its enclosing arms run."""
    for m in dm.modules:
        if any(a.stmt_id == stmt_id for a in m.assigns):
            return "1'd1"
        stack = [(b.body, ()) for b in m.always_blocks]
        while stack:
            body, conds = stack.pop()
            for stmt in body:
                if isinstance(stmt, rtl.SeqAssign):
                    if stmt.stmt_id == stmt_id:
                        return _conjunction(conds)
                    continue
                for arm_id, _match, taken, arm_body in rtl.branches(stmt):
                    if arm_id == stmt_id:
                        return _conjunction(conds + (taken,))
                    stack.append((arm_body, conds + (taken,)))
    return "1'd1"


def _conjunction(conds: tuple) -> str:
    return " && ".join(f"({rtl.render_expr(c)})" for c in conds) or "1'd1"


# ---------------------------------------------------------------------------
# Generated designs with nested if/else and case statements
# ---------------------------------------------------------------------------

_FSM_STATES = ("IDLE", "RUN", "WAIT", "DONE")


def gen_stmt_design(rng: random.Random) -> str:
    """A `leaf` module and a `top` that instantiates it once or twice.

    Each module spreads its registers over one to three always blocks and
    puts its continuous assigns between them, so assigns and always blocks
    interleave by line. The always blocks nest `if`/`else` and `case`
    statements; a `case` has items with one or more labels, and its
    `default`, if any, stands at any position. `top` may hold a state
    register whose assignments and comparisons use its localparams only
    (an FSM), or also mixes in plain literals (not an FSM). At most 8 state
    bits and 2 input bits, so the plain-BFS oracle stays cheap."""
    lines: list[str] = []

    def module(name: str, ports: list[str], regs: list[tuple[str, int]],
               inputs: list[str], fsm: bool, wires: list[str],
               items: list[str]) -> None:
        """`regs` are (name, width); `inputs` the 1-bit names it may read;
        `items` the assigns and instances the always blocks go between."""
        widths = dict(regs)
        one_bit = inputs + [r for r, w in regs if w == 1]
        two_bit = [r for r, w in regs if w == 2 and r != "st"]

        def lit(w: int) -> str:
            return f"{w}'d{rng.randrange(1 << w)}"

        def cond(depth: int) -> str:
            kind = rng.choice(["sig", "sig", "cmp", "not", "and"]
                              if depth > 0 else ["sig", "cmp"])
            if kind == "cmp" and fsm and rng.random() < 0.5:
                other = rng.choice(_FSM_STATES) if rng.random() < 0.9 else lit(2)
                return f"(st {rng.choice(['==', '!='])} {other})"
            if kind == "cmp" and two_bit:
                return f"({rng.choice(two_bit)} == {lit(2)})"
            if kind == "not":
                return f"(!{cond(depth - 1)})"
            if kind == "and":
                return f"({cond(depth - 1)} && {cond(depth - 1)})"
            return rng.choice(one_bit)

        def value(reg: str) -> str:
            w = widths[reg]
            if reg == "st":
                if rng.random() < 0.9:
                    return rng.choice(_FSM_STATES)
                return lit(2)  # spoils the FSM
            pool = [lit(w), lit(w)] + [r for r, rw in regs if rw == w and r != "st"]
            if w == 1:
                pool += inputs + [f"(!{cond(0)})"]
            else:
                pool += [f"({reg} + 2'd1)", f"(~{reg})"]
            return rng.choice(pool)

        def subject() -> tuple[str, list[str]]:
            """A case subject and the labels that can match it."""
            if fsm and rng.random() < 0.5:
                return "st", list(_FSM_STATES)
            if two_bit and rng.random() < 0.5:
                return rng.choice(two_bit), [f"2'd{v}" for v in range(4)]
            a, b = rng.choice(one_bit), rng.choice(one_bit)
            return f"{{{a}, {b}}}", [f"2'd{v}" for v in range(4)]

        def stmts(block_regs: list[str], depth: int, indent: str,
                  assigned: set[str], op: str) -> list[str]:
            out: list[str] = []
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(["assign", "if", "case"] if depth > 0 else ["assign"])
                if kind == "assign":
                    reg = rng.choice(block_regs)
                    assigned.add(reg)
                    out.append(f"{indent}{reg} {op} {value(reg)};")
                elif kind == "if":
                    out.append(f"{indent}if ({cond(1)}) begin")
                    out += stmts(block_regs, depth - 1, indent + "  ", assigned, op)
                    if rng.random() < 0.6:
                        out.append(f"{indent}end else begin")
                        out += stmts(block_regs, depth - 1, indent + "  ", assigned, op)
                    out.append(f"{indent}end")
                else:
                    subj, labels = subject()
                    rng.shuffle(labels)
                    items = []
                    while labels and len(items) < 3:
                        take = rng.randint(1, min(2, len(labels)))
                        items.append(", ".join(labels[:take]))
                        labels = labels[take:]
                    if rng.random() < 0.75:
                        items.insert(rng.randint(0, len(items)), "default")
                    out.append(f"{indent}case ({subj})")
                    for item in items:
                        out.append(f"{indent}  {item}: begin")
                        out += stmts(block_regs, depth - 1, indent + "    ", assigned, op)
                        out.append(f"{indent}  end")
                    out.append(f"{indent}endcase")
            return out

        lines.append(f"module {name} (")
        lines.append(",\n".join(f"  {p}" for p in ports))
        lines.append(");")
        if fsm:
            lines.append("  localparam " + ", ".join(
                f"{s} = 2'd{i}" for i, s in enumerate(_FSM_STATES)) + ";")
        for r, w in regs:
            lines.append(f"  reg [{w - 1}:0] {r};" if w > 1 else f"  reg {r};")
        lines.extend(f"  wire {w};" for w in wires)
        items = list(items)
        names = [r for r, _w in regs]
        rng.shuffle(names)
        cuts = sorted(rng.sample(range(1, len(names)), min(len(names) - 1, rng.randint(0, 2))))
        for group in (names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])):
            op = "=" if rng.random() < 0.2 else "<="
            assigned: set[str] = set()
            body = stmts(group, 2, "    ", assigned, op)
            body = [f"    {r} {op} {value(r)};" for r in group if r not in assigned] + body
            if rng.random() < 0.3:
                reset = [f"      {r} {op} {'IDLE' if r == 'st' else lit(widths[r])};"
                         for r in group]
                body = (["    if (rst) begin"] + reset + ["    end else begin"]
                        + ["  " + ln for ln in body] + ["    end"])
            items.insert(rng.randint(0, len(items)),
                         "\n".join(["  always @(posedge clk) begin"] + body + ["  end"]))
        lines.extend(items)
        lines.append("endmodule")

    leaf_regs = [("q", rng.choice([1, 2]))] + ([("p", 1)] if rng.random() < 0.5 else [])
    leaf_out = f"q[{leaf_regs[0][1] - 1}]" if leaf_regs[0][1] > 1 else "q"
    module("leaf", ["input clk", "input rst", "input a", "output y"], leaf_regs,
           ["a"], False, [], [f"  assign y = {leaf_out};"])

    n_inst = rng.randint(1, 2)
    fsm = rng.random() < 0.7
    top_regs = ([("st", 2)] if fsm else []) + [("t", rng.choice([1, 2]))]
    if sum(w for _r, w in top_regs + leaf_regs * n_inst) > 8:
        n_inst = 1
    wires = [f"y{k}" for k in range(n_inst)]
    a_sources = ["i", "t"] if top_regs[-1][1] == 1 else ["i"]
    items = ["  assign e = i & y0;", "  assign o = y0;"]
    items += [f"  leaf u{k} (.clk(clk), .rst(rst), .a({rng.choice(a_sources)}), .y(y{k}));"
              for k in range(n_inst)]
    module("top", ["input clk", "input rst", "input i", "output o"], top_regs,
           ["i", "e"] + wires, fsm, ["e"] + wires, items)
    return "\n".join(lines) + "\n"
