"""Hierarchy flattening into a bit-level transition system.

Every register becomes a state bit with its reset value; combinational
wires are inlined; each coverage statement gets a guard expression that is
true exactly in the cycles where the statement executes. Names are
dot-joined hierarchical paths rooted at the top module's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl import ast
from verikg.rtl.compile import Compiler, WidthError, define, mask, width_of
from verikg.rtl.parser import ParseError, eval_const

TRUE = ast.Lit(1, 1)


# ---------------------------------------------------------------------------
# NetModel
# ---------------------------------------------------------------------------

@dataclass
class NetModel:
    top: str
    clock: str | None
    state_bits: list[tuple[str, int]]
    inputs: list[tuple[str, int]]
    next_state: dict[str, ast.Expr]
    init: dict[str, int]
    comb: dict[str, ast.Expr]
    statement_guards: dict[str, ast.Expr]
    widths: dict[str, int] = field(default_factory=dict)

    def init_state(self) -> tuple[int, ...]:
        return tuple(self.init[name] for name, _ in self.state_bits)

    # Set on construction: each state bit and input's position in the slot
    # tuple `state + inputs`, the compiled functions by their source, what
    # the engine builds from this net by key (its input space, and one
    # property monitor per property shape), the next-state function, and
    # the statement guards over `x`.
    slots: dict = field(init=False, repr=False, compare=False)
    code: dict = field(init=False, repr=False, compare=False)
    engine: dict = field(init=False, repr=False, compare=False)
    _step: object = field(init=False, repr=False, compare=False)
    guard_fns: dict = field(init=False, repr=False, compare=False)
    # The names with a value every cycle: the state bits, the data inputs
    # and the wires over them. A property may read only these.
    readable: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _w in self.state_bits + self.inputs]
        self.slots = {name: i for i, name in enumerate(names)}
        slots = frozenset(self.slots)
        self.readable = slots | frozenset(
            w for w, e in self.comb.items() if ast.expr_ids(e) <= slots)
        self.code = {}
        self.engine = {}
        # step reads locals unpacked from its two tuples; a guard reads x
        local = Compiler(self.widths, self.slots, read="v{}")
        local.share([self.next_state[name] for name, _w in self.state_bits])
        nexts = "".join(f"{local.compile(self.next_state[name], w)}, "
                        for name, w in self.state_bits)
        n_state = len(self.state_bits)
        unpack = tuple("".join(f"v{i}, " for i in idx) + f"= {tup}"
                       for tup, idx in (("state", range(n_state)),
                                        ("inputs", range(n_state, len(names))))
                       if idx)
        comp = Compiler(self.widths, self.slots)
        guards = [comp.function("x", comp.condition(g))
                  for g in self.statement_guards.values()]
        self._step, *fns = self.load(
            [local.function("state, inputs", f"({nexts})", unpack), *guards])
        self.guard_fns = dict(zip(self.statement_guards, fns))

    def load(self, functions: list[str]) -> list:
        """The functions with generated sources `functions`, each compiled
        once per net; the ones not seen before are compiled together."""
        new = [fn for fn in dict.fromkeys(functions) if fn not in self.code]
        if new:
            self.code.update(zip(new, define(new)))
        return [self.code[fn] for fn in functions]

    def values(self, state: tuple[int, ...], inputs: tuple[int, ...]) -> dict[str, int]:
        """Name -> value for one cycle: the state bits in state_bits order,
        then `inputs` in `self.inputs` order (pass () for the state alone)."""
        v = {name: x for (name, _w), x in zip(self.state_bits, state)}
        v.update(zip((name for name, _w in self.inputs), inputs))
        return v

    def step(self, state: tuple[int, ...], inputs: tuple[int, ...]) -> tuple[int, ...]:
        return self._step(state, inputs)

    def inline(self, e: ast.Expr) -> ast.Expr:
        """Substitute combinational definitions so the expression mentions
        only state bits and inputs."""
        return _subst_names(e, self.comb, self.widths)


def _subst_names(e: ast.Expr, defs: dict[str, ast.Expr],
                 widths: dict[str, int]) -> ast.Expr:
    """Replace each name in `defs` by its definition, one level deep: a
    definition is already in terms of names it does not define (start-of-
    cycle values, or wires inlined in dependency order)."""
    def leaf(x):
        if isinstance(x, ast.Id) and x.name in defs:
            inner = defs[x.name]
            if _unsized_value(inner):
                # the compiler masks operators, not literals: a driver is
                # read at the width of the name it drives
                return ast.SliceX(inner, widths[x.name] - 1, 0)
            return inner
        if isinstance(x, ast.Select) and x.name in defs:
            return ast.SliceX(defs[x.name], eval_const(x.msb, {}), eval_const(x.lsb, {}))
        return None

    return ast.rewrite(e, leaf)


def _unsized_value(e: ast.Expr) -> bool:
    """True when an unsized literal can be the value of `e` unmasked."""
    if isinstance(e, ast.Lit):
        return e.width is None
    if isinstance(e, ast.Ternary):
        return _unsized_value(e.then) or _unsized_value(e.other)
    return False


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

class _ElabError(Exception):
    def __init__(self, line: int, message: str, code: DiagCode = DiagCode.UNRESOLVED):
        super().__init__(message)
        self.line = line
        self.message = message
        self.code = code


class _Elaborator:
    def __init__(self, model: ast.DesignModel, diags: Diagnostics):
        self.model = model
        self.diags = diags
        self.widths: dict[str, int] = {}
        self.wire_defs: dict[str, ast.Expr] = {}
        self.wire_lines: dict[str, int] = {}
        self.regs: list[tuple[str, int]] = []
        self.inputs: list[tuple[str, int]] = []
        self.input_names: set[str] = set()
        self.reg_names: set[str] = set()
        self.always_units: list[tuple[str, ast.ModuleDecl, ast.AlwaysBlock, dict[str, int]]] = []
        self.clock: str | None = None
        self.guards: dict[str, ast.Expr] = {}
        self.next_state: dict[str, ast.Expr] = {}
        self.next_lines: dict[str, int] = {}  # register -> its always block
        self.init: dict[str, int] = {}
        self.reads: list[tuple[int, ast.Expr]] = []  # (line, what it reads)

    # -- helpers ------------------------------------------------------------

    def _param_env(self, m: ast.ModuleDecl, overrides: dict[str, int]) -> dict[str, int]:
        env: dict[str, int] = {}
        for p in m.parameters:
            if p.name in overrides:
                if p.local:
                    raise _ElabError(p.line, f"cannot override localparam {p.name!r}")
                env[p.name] = overrides[p.name]
            else:
                try:
                    env[p.name] = eval_const(p.expr, env) if p.expr is not None else p.value
                except ParseError:
                    env[p.name] = p.value
        return env

    def _sig_width(self, s, env: dict[str, int]) -> int:
        if s.msb is None:
            return 1
        try:
            hi = eval_const(s.msb, env)
            lo = eval_const(s.lsb, env)
        except ParseError:
            raise _ElabError(s.line, f"non-constant range on {s.name!r}")
        return max(hi - lo + 1, 1)

    def _prefix_expr(self, e: ast.Expr, prefix: str, env: dict[str, int],
                     line: int) -> ast.Expr:
        """`e` over hierarchical names, with parameters folded to literals."""
        def leaf(x):
            if isinstance(x, ast.Id):
                if x.name in env:
                    return ast.Lit(env[x.name], None)
                if "." in x.name:
                    raise _ElabError(line, f"hierarchical reference {x.name!r} in RTL",
                                     DiagCode.UNSUPPORTED)
                return ast.Id(self._declared(prefix, x.name, line))
            if isinstance(x, ast.Select):
                hi, lo = self._select_bounds(x.name, x.msb, x.lsb, env, line)
                return ast.Select(self._declared(prefix, x.name, line),
                                  ast.Lit(hi, None), ast.Lit(lo, None))
            return None

        return ast.rewrite(e, leaf)

    @staticmethod
    def _select_bounds(name: str, msb: ast.Expr, lsb: ast.Expr,
                       env: dict[str, int], line: int) -> tuple[int, int]:
        try:
            return eval_const(msb, env), eval_const(lsb, env)
        except ParseError:
            raise _ElabError(line, f"non-constant select on {name!r}",
                             DiagCode.UNSUPPORTED)

    def _declared(self, prefix: str, name: str, line: int) -> str:
        full = f"{prefix}.{name}"
        if full not in self.widths:
            raise _ElabError(line, f"undeclared identifier {name!r}")
        return full

    # -- hierarchy walk -----------------------------------------------------

    def walk(self, module_name: str, prefix: str, overrides: dict[str, int],
             conn: dict[str, ast.Expr] | None, parent_prefix: str | None,
             parent_env: dict[str, int] | None, inst_line: int) -> None:
        m = self.model.module(module_name)
        if m is None:
            raise _ElabError(inst_line, f"unresolved instance of module {module_name!r}")
        env = self._param_env(m, overrides)

        assigned_in_always = {s.target for b in m.always_blocks for s in ast.walk_stmts(b.body)
                              if isinstance(s, ast.SeqAssign)}

        for s in m.signals:
            full = f"{prefix}.{s.name}"
            w = self._sig_width(s, env)
            self.widths[full] = w
            if s.kind == "reg" and s.name in assigned_in_always:
                self.regs.append((full, w))
                self.reg_names.add(full)

        port_dirs = {p.name: p.direction for p in m.ports}
        is_top = conn is None
        for p in m.ports:
            full = f"{prefix}.{p.name}"
            if is_top:
                if p.direction == "input":
                    self.inputs.append((full, self.widths[full]))
                    self.input_names.add(full)
            else:
                wired = conn.get(p.name)
                if p.direction == "input":
                    if wired is None:
                        raise _ElabError(inst_line,
                                         f"unconnected input port {p.name!r} on {prefix}")
                    outer = self._prefix_expr(wired, parent_prefix, parent_env, inst_line)
                    self._add_wire(full, outer, inst_line)
                else:
                    if wired is None:
                        continue  # dangling output is legal
                    if not isinstance(wired, ast.Id):
                        raise _ElabError(inst_line,
                                         f"output port {p.name!r} must connect to a plain signal",
                                         DiagCode.UNSUPPORTED)
                    outer_full = f"{parent_prefix}.{wired.name}"
                    if outer_full not in self.widths:
                        raise _ElabError(inst_line,
                                         f"undeclared identifier {wired.name!r}")
                    self._add_wire(outer_full, ast.Id(full), inst_line)
        for extra in (conn or {}):
            if extra not in port_dirs:
                raise _ElabError(inst_line,
                                 f"no port {extra!r} on module {module_name!r}")

        for a in m.assigns:
            if a.sel is not None:
                raise _ElabError(a.line, "part-select on continuous assign target",
                                 DiagCode.UNSUPPORTED)
            full = f"{prefix}.{a.target}"
            if full not in self.widths:
                raise _ElabError(a.line, f"undeclared identifier {a.target!r}")
            if full in self.reg_names:
                raise _ElabError(a.line,
                                 f"continuous assign to register {a.target!r}")
            rhs = self._prefix_expr(a.rhs, prefix, env, a.line)
            self._add_wire(full, rhs, a.line)
            self.guards[a.stmt_id] = TRUE  # continuous assigns run every cycle

        for b in m.always_blocks:
            self.always_units.append((prefix, m, b, env))

        for inst in m.instances:
            self.walk(inst.module, f"{prefix}.{inst.name}", dict(inst.params),
                      inst.ports, prefix, env, inst.line)

    def _add_wire(self, full: str, rhs: ast.Expr, line: int) -> None:
        if full in self.wire_defs:
            raise _ElabError(line, f"multiple drivers for {full!r}",
                             DiagCode.DUPLICATE)
        if full in self.reg_names:
            raise _ElabError(line, f"wire connection drives register {full!r}")
        self.wire_defs[full] = rhs
        self.wire_lines[full] = line

    # -- always-block symbolic execution -------------------------------------

    def exec_always(self, prefix: str, m: ast.ModuleDecl, block: ast.AlwaysBlock,
                    env: dict[str, int]) -> None:
        clk_full = self._resolve_clock(prefix, block)
        if self.clock is None:
            self.clock = clk_full
        elif self.clock != clk_full:
            raise _ElabError(block.line,
                             f"multiple clocks: {self.clock!r} and {clk_full!r}",
                             DiagCode.MULTICLOCK)

        blocking_env: dict[str, ast.Expr] = {}
        pending: dict[str, ast.Expr] = {}
        seen_blocking: set[str] = set()
        seen_nonblocking: set[str] = set()

        def subst(e: ast.Expr) -> ast.Expr:
            return _subst_names(e, blocking_env, self.widths)

        def read(e: ast.Expr, line: int) -> ast.Expr:
            """`e` in hierarchical names, noted as read on `line`."""
            e = self._prefix_expr(e, prefix, env, line)
            self.reads.append((line, e))
            return e

        def current(name: str) -> ast.Expr:
            return blocking_env.get(name, ast.Id(name))

        def run(stmts: list[ast.AlwaysStmt], guard: ast.Expr | None) -> None:
            nonlocal blocking_env, pending
            for stmt in stmts:
                if isinstance(stmt, ast.SeqAssign):
                    full = f"{prefix}.{stmt.target}"
                    if full not in self.reg_names:
                        if full not in self.widths:
                            raise _ElabError(stmt.line,
                                             f"undeclared identifier {stmt.target!r}")
                        raise _ElabError(stmt.line,
                                         f"always-block assignment to non-register {stmt.target!r}")
                    rhs = subst(read(stmt.rhs, stmt.line))
                    if stmt.sel is not None:
                        hi, lo = self._select_bounds(stmt.target, *stmt.sel, env,
                                                     stmt.line)
                        rhs = _splice(current(full) if stmt.blocking else
                                      pending.get(full, ast.Id(full)),
                                      rhs, hi, lo, self.widths[full])
                    g = guard if guard is not None else TRUE
                    self.guards[stmt.stmt_id] = _or(self.guards.get(stmt.stmt_id), g)
                    if stmt.blocking:
                        if full in seen_nonblocking:
                            raise _ElabError(stmt.line,
                                             f"mixed blocking/non-blocking assignment to {stmt.target!r}",
                                             DiagCode.DUPLICATE)
                        seen_blocking.add(full)
                        blocking_env[full] = rhs
                    else:
                        if full in seen_blocking:
                            raise _ElabError(stmt.line,
                                             f"mixed blocking/non-blocking assignment to {stmt.target!r}",
                                             DiagCode.DUPLICATE)
                        seen_nonblocking.add(full)
                        pending[full] = rhs
                elif isinstance(stmt, ast.IfStmt):
                    cond = subst(read(stmt.cond, stmt.line))
                    then_guard = _and(guard, cond)
                    self.guards[stmt.then_id] = _or(self.guards.get(stmt.then_id), then_guard)
                    saved_env, saved_pending = dict(blocking_env), dict(pending)
                    run(stmt.then_body, then_guard)
                    t_env, t_pending = blocking_env, pending
                    blocking_env, pending = dict(saved_env), dict(saved_pending)
                    if stmt.else_body is not None:
                        else_guard = _and(guard, ast.Unary("!", cond))
                        self.guards[stmt.else_id] = _or(self.guards.get(stmt.else_id), else_guard)
                        run(stmt.else_body, else_guard)
                    e_env, e_pending = blocking_env, pending
                    blocking_env = _merge(cond, t_env, e_env)
                    pending = _merge(cond, t_pending, e_pending)
                elif isinstance(stmt, ast.CaseStmt):
                    subj = subst(read(stmt.subject, stmt.line))
                    run_arms(stmt.arms_by_priority(), subj, guard, None)
                else:
                    raise _ElabError(getattr(stmt, "line", block.line),
                                     f"unsupported statement {stmt!r}",
                                     DiagCode.UNSUPPORTED)

        def run_arms(arms: list[ast.CaseArm], subj: ast.Expr,
                     guard: ast.Expr | None, prior: ast.Expr | None) -> None:
            """Chained if/else over the remaining case arms (priority order)."""
            nonlocal blocking_env, pending
            if not arms:
                return
            arm = arms[0]
            if arm.labels is None:
                eq_cond = TRUE
            else:
                eq_cond = None
                for lab in arm.labels:
                    lab_p = read(lab, arm.line)
                    eq = ast.Binary("==", subj, lab_p)
                    eq_cond = eq if eq_cond is None else ast.Binary("||", eq_cond, eq)
            # Recorded guard reflects priority: no earlier arm matched.
            pri = eq_cond if prior is None else \
                ast.Binary("&&", ast.Unary("!", prior), eq_cond)
            arm_guard = _and(guard, pri)
            self.guards[arm.arm_id] = _or(self.guards.get(arm.arm_id), arm_guard)
            saved_env, saved_pending = dict(blocking_env), dict(pending)
            run(arm.body, arm_guard)
            t_env, t_pending = blocking_env, pending
            blocking_env, pending = dict(saved_env), dict(saved_pending)
            next_prior = eq_cond if prior is None else ast.Binary("||", prior, eq_cond)
            run_arms(arms[1:], subj, guard, next_prior)
            e_env, e_pending = blocking_env, pending
            blocking_env = _merge(eq_cond, t_env, e_env)
            pending = _merge(eq_cond, t_pending, e_pending)

        run(block.body, None)

        for full, e in pending.items():
            if full in self.next_state:
                raise _ElabError(block.line,
                                 f"register {full!r} assigned in multiple always blocks",
                                 DiagCode.DUPLICATE)
            self.next_state[full] = e
            self.next_lines[full] = block.line
        for full, e in blocking_env.items():
            if full in seen_nonblocking:
                continue
            if full in self.next_state:
                raise _ElabError(block.line,
                                 f"register {full!r} assigned in multiple always blocks",
                                 DiagCode.DUPLICATE)
            self.next_state[full] = e
            self.next_lines[full] = block.line

        self._extract_init(prefix, block, env)

    def _resolve_clock(self, prefix: str, block: ast.AlwaysBlock) -> str:
        full = f"{prefix}.{block.clock}"
        seen = set()
        while full in self.wire_defs and isinstance(self.wire_defs[full], ast.Id):
            if full in seen:
                raise _ElabError(block.line, f"clock alias cycle at {full!r}",
                                 DiagCode.CYCLE)
            seen.add(full)
            full = self.wire_defs[full].name
        if full not in self.input_names:
            raise _ElabError(block.line,
                             f"clock {block.clock!r} does not resolve to a top-level input")
        return full

    def _extract_init(self, prefix: str, block: ast.AlwaysBlock,
                      env: dict[str, int]) -> None:
        # Reset idiom: a single top-level `if`. Each whole-register
        # assignment of a constant directly in its then-branch gives an init
        # value; the branch itself stays in the transition function, so
        # semantics are unaffected.
        body = block.body
        if len(body) != 1 or not isinstance(body[0], ast.IfStmt):
            return
        for stmt in body[0].then_body:
            if not isinstance(stmt, ast.SeqAssign) or stmt.sel is not None:
                continue
            try:
                value = eval_const(self._prefix_expr(stmt.rhs, prefix, env, stmt.line), {})
            except (ParseError, _ElabError):
                continue
            full = f"{prefix}.{stmt.target}"
            if full in self.reg_names:
                self.init[full] = mask(value, self.widths[full])

    # -- wire closure ---------------------------------------------------------

    def close_wires(self) -> None:
        order: list[str] = []
        perm: set[str] = set()
        temp: list[str] = []

        def visit(w: str) -> None:
            if w in perm:
                return
            if w in temp:
                cycle = temp[temp.index(w):] + [w]
                raise _ElabError(self.wire_lines.get(w, 0),
                                 "combinational cycle: " + " -> ".join(cycle),
                                 DiagCode.CYCLE)
            temp.append(w)
            for name in sorted(ast.expr_ids(self.wire_defs[w])):
                if name in self.wire_defs:
                    visit(name)
                elif name not in self.reg_names and name not in self.input_names:
                    raise _ElabError(self.wire_lines.get(w, 0),
                                     f"undriven net {name!r} referenced by {w!r}")
            temp.pop()
            perm.add(w)
            order.append(w)

        for w in sorted(self.wire_defs):
            visit(w)
        inlined: dict[str, ast.Expr] = {}
        for w in order:
            inlined[w] = _subst_names(self.wire_defs[w], inlined, self.widths)
        self.wire_defs = inlined

    def check_reads(self) -> None:
        """Every name an always block reads must have a value each cycle:
        through its wires it may reach only registers and data inputs, not
        an undriven net or the clock."""
        readable = self.reg_names | (self.input_names - {self.clock})
        wire_reads: dict[str, set[str]] = {}
        for line, e in self.reads:
            for name in sorted(ast.expr_ids(e)):
                if name in self.wire_defs:
                    if name not in wire_reads:
                        wire_reads[name] = ast.expr_ids(self.wire_defs[name])
                    reaches = wire_reads[name]
                else:
                    reaches = {name}
                for leaf in sorted(reaches - readable):
                    if leaf == self.clock:
                        raise _ElabError(line, f"clock {leaf!r} read as data",
                                         DiagCode.UNSUPPORTED)
                    raise _ElabError(line, f"undriven net {leaf!r} read")


def _and(a: ast.Expr | None, b: ast.Expr) -> ast.Expr:
    return b if a is None else ast.Binary("&&", a, b)


def _or(a: ast.Expr | None, b: ast.Expr) -> ast.Expr:
    return b if a is None else ast.Binary("||", a, b)


def _merge(cond: ast.Expr, then_map: dict[str, ast.Expr],
           else_map: dict[str, ast.Expr]) -> dict[str, ast.Expr]:
    out: dict[str, ast.Expr] = {}
    for key in sorted(then_map.keys() | else_map.keys()):
        t = then_map.get(key, ast.Id(key))
        e = else_map.get(key, ast.Id(key))
        out[key] = t if t == e else ast.Ternary(cond, t, e)
    return out


def _splice(base: ast.Expr, rhs: ast.Expr, hi: int, lo: int, width: int) -> ast.Expr:
    """Read-modify-write for a part-select assignment target."""
    if isinstance(rhs, ast.Lit) and rhs.width is None:
        # an unsized literal takes the width of the selected part
        rhs = ast.Lit(mask(rhs.value, hi - lo + 1), hi - lo + 1)
    parts: list[ast.Expr] = []
    if hi + 1 < width:
        parts.append(ast.SliceX(base, width - 1, hi + 1))
    parts.append(rhs)
    if lo > 0:
        parts.append(ast.SliceX(base, lo - 1, 0))
    if len(parts) == 1:
        return parts[0]
    return ast.Concat(tuple(parts))


def elaborate(model: ast.DesignModel, top: str,
              overrides: dict[str, int] | None = None):
    """Flatten the hierarchy under `top`.

    Returns NetModel on success, Diagnostics on any error.
    """
    diags = Diagnostics()
    if model.module(top) is None:
        diags.error(0, 0, f"top module {top!r} not found", DiagCode.UNRESOLVED)
        return diags
    el = _Elaborator(model, diags)
    try:
        el.walk(top, top, dict(overrides or {}), None, None, None, 0)
        for prefix, m, block, env in el.always_units:
            el.exec_always(prefix, m, block, env)
        el.close_wires()
        el.check_reads()
    except _ElabError as ee:
        diags.error(ee.line, 0, ee.message, ee.code)
        return diags

    # Registers never assigned a next value hold their current value.
    for full, _w in el.regs:
        el.next_state.setdefault(full, ast.Id(full))
        el.init.setdefault(full, 0)

    # Inline wires into next-state functions and guards; drop the clock from
    # enumerable inputs.
    next_state = {r: _subst_names(e, el.wire_defs, el.widths)
                  for r, e in el.next_state.items()}
    guards = {sid: _subst_names(g, el.wire_defs, el.widths)
              for sid, g in el.guards.items()}
    # Statements in modules never instantiated under `top` cannot execute.
    for s in model.statements:
        guards.setdefault(s.id, ast.Lit(0, 1))
    inputs = [(n, w) for n, w in el.inputs if n != el.clock]

    # Width discipline: every expression must carry a consistent width.
    # `line` follows the checks so an error points at its source line.
    stmt_lines = {s.id: s.line for s in model.statements}
    line = 0
    try:
        for r, w in el.regs:
            line = el.next_lines.get(r, 0)
            ew = width_of(next_state[r], el.widths)
            if ew is not None and ew != w:
                raise WidthError(
                    f"next-state width mismatch for {r!r}: {ew} vs {w}")
        for name, e in el.wire_defs.items():
            line = el.wire_lines[name]
            ew = width_of(e, el.widths)
            if ew is not None and ew != el.widths[name]:
                raise WidthError(
                    f"width mismatch for {name!r}: {ew} vs {el.widths[name]}")
        for sid, g in guards.items():
            line = stmt_lines.get(sid, 0)
            width_of(g, el.widths)
    except WidthError as werr:
        diags.error(line, 0, werr.message, DiagCode.WIDTH)
        return diags

    return NetModel(
        top=top,
        clock=el.clock,
        state_bits=list(el.regs),
        inputs=inputs,
        next_state=next_state,
        init={r: el.init[r] for r, _ in el.regs},
        comb=el.wire_defs,
        statement_guards=guards,
        widths=dict(el.widths),
    )
