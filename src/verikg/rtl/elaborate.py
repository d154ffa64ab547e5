"""Hierarchy flattening into a bit-level transition system.

Every register becomes a state bit with its reset value; combinational
wires are inlined; each coverage statement gets a guard expression that is
true exactly in the cycles where the statement executes. Names are
dot-joined hierarchical paths rooted at the top module's name.
"""

from __future__ import annotations

from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, field

from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl import ast
from verikg.rtl.compile import Compiler, WidthError, define, mask, width_of
from verikg.rtl.parser import ParseError, eval_const, param_values, range_width

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
    # `executed(x)`: for the slot tuple `x`, one truth per statement, in
    # `statement_guards` order, of whether it executes.
    slots: dict = field(init=False, repr=False, compare=False)
    code: dict = field(init=False, repr=False, compare=False)
    engine: dict = field(init=False, repr=False, compare=False)
    _step: object = field(init=False, repr=False, compare=False)
    executed: object = field(init=False, repr=False, compare=False)
    # The names with a value every cycle: the state bits, the data inputs
    # and the wires over them. A property may read only these.
    readable: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [name for name, _w in self.state_bits + self.inputs]
        self.slots = {name: i for i, name in enumerate(names)}
        slots = frozenset(self.slots)
        memo: dict = {}
        self.readable = slots | frozenset(
            w for w, e in self.comb.items() if ast.expr_ids(e, memo) <= slots)
        self.code = {}
        self.engine = {}
        # step reads locals unpacked from its two tuples; executed reads x
        local = Compiler(self.widths, self.slots, read="v{}")
        local.share([self.next_state[name] for name, _w in self.state_bits])
        comp = Compiler(self.widths, self.slots)
        comp.share(self.statement_guards.values())
        nexts = truths = ""
        try:
            for root, w in self.state_bits:
                nexts += f"{local.compile(self.next_state[root], w)}, "
            for root, g in self.statement_guards.items():
                truths += f"{comp.condition(g)}, "
        except RecursionError:
            raise DepthError(root) from None
        n_state = len(self.state_bits)
        unpack = tuple("".join(f"v{i}, " for i in idx) + f"= {tup}"
                       for tup, idx in (("state", range(n_state)),
                                        ("inputs", range(n_state, len(names))))
                       if idx)
        self._step, self.executed = self.load(
            [local.function("state, inputs", f"({nexts})", unpack),
             comp.function("x", f"({truths})")])

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


def _subst_names(e: ast.Expr, defs: Mapping[str, ast.Expr],
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

class ElabError(Exception):
    def __init__(self, line: int, message: str, code: DiagCode = DiagCode.UNRESOLVED):
        super().__init__(message)
        self.line = line
        self.message = message
        self.code = code


class DepthError(Exception):
    """An expression nests deeper than the compiler's recursion reaches;
    the one argument is the register or statement id it belongs to."""


def instances(model: ast.DesignModel, top: str):
    """The one walk of the instance tree under `top`, pre-order (children
    in declaration order) and iterative. Yields (prefix, module, env, inst):
    the hierarchical prefix, the module, its parameter values under the
    instance's overrides, each evaluated under the parent's values, and the
    instance that made it (None at the top). A child is resolved only when
    the walk reaches it, after its parent's body was elaborated, so the
    first fault in walk order is the one reported. An unknown module, or an
    override of a parameter the module does not declare, is an UNRESOLVED
    ElabError, a module among its own ancestors a CYCLE one, an override
    that is not constant a SYNTAX one; one module may sit in two branches."""
    stack: list[tuple[str, ast.Instance | None, tuple, dict]] = [(top, None, (), {})]
    while stack:
        prefix, inst, ancestors, outer = stack.pop()
        name = top if inst is None else inst.module
        line = 0 if inst is None else inst.line
        m = model.module(name)
        if m is None:
            raise ElabError(line, f"top module {name!r} not found" if inst is None
                            else f"unresolved instance of module {name!r}")
        if name in ancestors:
            cycle = ancestors[ancestors.index(name):] + (name,)
            raise ElabError(line, "cyclic instantiation: " + " -> ".join(cycle),
                            DiagCode.CYCLE)
        overrides: dict[str, int] = {}
        for pname, e in ({} if inst is None else inst.params).items():
            if not any(p.name == pname for p in m.parameters):
                raise ElabError(line, f"no parameter {pname!r} on module {name!r}")
            try:
                overrides[pname] = eval_const(e, outer)
            except ParseError:
                raise ElabError(line, f"non-constant parameter override {pname!r}",
                                DiagCode.SYNTAX) from None
        env = param_values(m, overrides)
        yield prefix, m, env, inst
        ancestors += (name,)
        stack += [(f"{prefix}.{i.name}", i, ancestors, env) for i in reversed(m.instances)]


class _Elaborator:
    def __init__(self):
        self.widths: dict[str, int] = {}
        self.wire_defs: dict[str, ast.Expr] = {}
        self.wire_lines: dict[str, int] = {}
        self.regs: list[tuple[str, int]] = []
        self.inputs: list[tuple[str, int]] = []
        self.input_names: set[str] = set()
        self.reg_names: set[str] = set()
        self.always_units: list[tuple[str, ast.ModuleDecl, ast.AlwaysBlock, dict[str, int]]] = []
        self.envs: dict[str, dict[str, int]] = {}  # instance prefix -> parameter values
        self.clock: str | None = None
        self.guards: dict[str, ast.Expr] = {}
        self.next_state: dict[str, ast.Expr] = {}
        self.next_lines: dict[str, int] = {}  # register -> its always block
        self.init: dict[str, int] = {}
        self.reads: list[tuple[int, ast.Expr]] = []  # (line, what it reads)

    # -- helpers ------------------------------------------------------------

    def _prefix_expr(self, e: ast.Expr, prefix: str, env: dict[str, int],
                     line: int) -> ast.Expr:
        """`e` over hierarchical names, with parameters folded to literals."""
        def leaf(x):
            if isinstance(x, ast.Id):
                if x.name in env:
                    return ast.Lit(env[x.name], None)
                if "." in x.name:
                    raise ElabError(line, f"hierarchical reference {x.name!r} in RTL",
                                    DiagCode.UNSUPPORTED)
                return ast.Id(self._declared(prefix, x.name, line))
            if isinstance(x, ast.Select):
                full, hi, lo = self._select_bounds(prefix, x.name, x.msb, x.lsb, env, line)
                return ast.Select(full, ast.Lit(hi, None), ast.Lit(lo, None))
            return None

        return ast.rewrite(e, leaf)

    def _select_bounds(self, prefix: str, name: str, msb: ast.Expr, lsb: ast.Expr,
                       env: dict[str, int], line: int) -> tuple[str, int, int]:
        """The hierarchical name and the bounds, within its width, of `name[msb:lsb]`."""
        try:
            hi, lo = eval_const(msb, env), eval_const(lsb, env)
        except ParseError:
            raise ElabError(line, f"non-constant select on {name!r}",
                            DiagCode.UNSUPPORTED)
        full = self._declared(prefix, name, line)
        width = self.widths[full]
        if not 0 <= lo <= hi < width:
            raise ElabError(line, f"select [{hi}:{lo}] out of range for {full!r} "
                            f"(width {width})", DiagCode.WIDTH)
        return full, hi, lo

    def _declared(self, prefix: str, name: str, line: int) -> str:
        full = f"{prefix}.{name}"
        if full not in self.widths:
            raise ElabError(line, f"undeclared identifier {name!r}")
        return full

    # -- hierarchy walk -----------------------------------------------------

    def instance(self, prefix: str, m: ast.ModuleDecl, env: dict[str, int],
                 inst: ast.Instance | None) -> None:
        """Declare one instance of the walk: its signals, its port
        connections to the parent, its assigns and its always blocks."""
        self.envs[prefix] = env
        assigned_in_always = {s.target for b in m.always_blocks for s in ast.walk_stmts(b.body)
                              if isinstance(s, ast.SeqAssign)}

        for s in m.signals:
            full = f"{prefix}.{s.name}"
            w = range_width(s, env)
            self.widths[full] = w
            if s.kind == "reg" and s.name in assigned_in_always:
                self.regs.append((full, w))
                self.reg_names.add(full)

        if inst is None:
            for p in m.ports:
                if p.direction == "input":
                    full = f"{prefix}.{p.name}"
                    self.inputs.append((full, self.widths[full]))
                    self.input_names.add(full)
        else:
            self._connect(prefix, m, inst)

        for a in m.assigns:
            if a.sel is not None:
                raise ElabError(a.line, "part-select on continuous assign target",
                                DiagCode.UNSUPPORTED)
            full = f"{prefix}.{a.target}"
            if full not in self.widths:
                raise ElabError(a.line, f"undeclared identifier {a.target!r}")
            if full in self.reg_names:
                raise ElabError(a.line,
                                f"continuous assign to register {a.target!r}")
            rhs = self._prefix_expr(a.rhs, prefix, env, a.line)
            self._add_wire(full, rhs, a.line)
            self.guards[a.stmt_id] = TRUE  # continuous assigns run every cycle

        for b in m.always_blocks:
            self.always_units.append((prefix, m, b, env))

    def _connect(self, prefix: str, m: ast.ModuleDecl, inst: ast.Instance) -> None:
        """Wire the ports of instance `prefix` to its parent's signals."""
        outer = prefix[:-len(inst.name) - 1]
        for p in m.ports:
            full = f"{prefix}.{p.name}"
            wired = inst.ports.get(p.name)
            if p.direction == "input":
                if wired is None:
                    raise ElabError(inst.line,
                                    f"unconnected input port {p.name!r} on {prefix}")
                rhs = self._prefix_expr(wired, outer, self.envs[outer], inst.line)
                self._add_wire(full, rhs, inst.line)
            else:
                if wired is None:
                    continue  # dangling output is legal
                if not isinstance(wired, ast.Id):
                    raise ElabError(inst.line,
                                    f"output port {p.name!r} must connect to a plain signal",
                                    DiagCode.UNSUPPORTED)
                outer_full = f"{outer}.{wired.name}"
                if outer_full not in self.widths:
                    raise ElabError(inst.line,
                                    f"undeclared identifier {wired.name!r}")
                self._add_wire(outer_full, ast.Id(full), inst.line)
        ports = {p.name for p in m.ports}
        for extra in inst.ports:
            if extra not in ports:
                raise ElabError(inst.line,
                                f"no port {extra!r} on module {m.name!r}")

    def _add_wire(self, full: str, rhs: ast.Expr, line: int) -> None:
        if full in self.wire_defs:
            raise ElabError(line, f"multiple drivers for {full!r}",
                            DiagCode.DUPLICATE)
        if full in self.reg_names:
            raise ElabError(line, f"wire connection drives register {full!r}")
        self.wire_defs[full] = rhs
        self.wire_lines[full] = line

    # -- always-block symbolic execution -------------------------------------

    def exec_always(self, prefix: str, m: ast.ModuleDecl, block: ast.AlwaysBlock,
                    env: dict[str, int]) -> None:
        clk_full = self._resolve_clock(prefix, block)
        if self.clock is None:
            self.clock = clk_full
        elif self.clock != clk_full:
            raise ElabError(block.line,
                            f"multiple clocks: {self.clock!r} and {clk_full!r}",
                            DiagCode.MULTICLOCK)

        blocking_env: dict[str, ast.Expr] = {}
        pending: dict[str, ast.Expr] = {}
        seen_blocking: set[str] = set()
        seen_nonblocking: set[str] = set()

        def read(e: ast.Expr, line: int) -> ast.Expr:
            """`e` in hierarchical names, noted as read on `line`, over the
            values the names have here: a register assigned with `=` before
            reads that value, a wire its closed definition."""
            e = self._prefix_expr(e, prefix, env, line)
            self.reads.append((line, e))
            return _subst_names(e, ChainMap(blocking_env, self.wire_defs), self.widths)

        def current(name: str) -> ast.Expr:
            return blocking_env.get(name, ast.Id(name))

        def run(stmts: list[ast.AlwaysStmt], guard: ast.Expr | None) -> None:
            nonlocal blocking_env, pending
            for stmt in stmts:
                if isinstance(stmt, ast.SeqAssign):
                    full = f"{prefix}.{stmt.target}"
                    if full not in self.reg_names:
                        if full not in self.widths:
                            raise ElabError(stmt.line,
                                            f"undeclared identifier {stmt.target!r}")
                        raise ElabError(stmt.line,
                                        f"always-block assignment to non-register {stmt.target!r}")
                    rhs = read(stmt.rhs, stmt.line)
                    if stmt.sel is not None:
                        _full, hi, lo = self._select_bounds(prefix, stmt.target,
                                                            *stmt.sel, env, stmt.line)
                        rhs = _splice(current(full) if stmt.blocking else
                                      pending.get(full, ast.Id(full)),
                                      rhs, hi, lo, self.widths[full])
                    g = guard if guard is not None else TRUE
                    self.guards[stmt.stmt_id] = _or(self.guards.get(stmt.stmt_id), g)
                    if stmt.blocking:
                        if full in seen_nonblocking:
                            raise ElabError(stmt.line,
                                            f"mixed blocking/non-blocking assignment to {stmt.target!r}",
                                            DiagCode.DUPLICATE)
                        seen_blocking.add(full)
                        blocking_env[full] = rhs
                    else:
                        if full in seen_blocking:
                            raise ElabError(stmt.line,
                                            f"mixed blocking/non-blocking assignment to {stmt.target!r}",
                                            DiagCode.DUPLICATE)
                        seen_nonblocking.add(full)
                        pending[full] = rhs
                elif isinstance(stmt, (ast.IfStmt, ast.CaseStmt)):
                    # Each arm runs from copies of the maps as they stand
                    # before the statement. Its conditions are read between
                    # arms, so they see those maps too.
                    saved_env, saved_pending = blocking_env, pending
                    arms = []
                    for arm_id, match, taken, body in ast.branches(stmt, read):
                        arm_guard = _and(guard, taken)
                        self.guards[arm_id] = _or(self.guards.get(arm_id), arm_guard)
                        blocking_env, pending = dict(saved_env), dict(saved_pending)
                        run(body, arm_guard)
                        arms.append((match, blocking_env, pending))
                        blocking_env, pending = saved_env, saved_pending
                    # fold from the last arm tried back to the first; when no
                    # arm is taken the maps stay as they were
                    for match, a_env, a_pending in reversed(arms):
                        if match is None:
                            blocking_env, pending = a_env, a_pending
                        else:
                            blocking_env = _merge(match, a_env, blocking_env)
                            pending = _merge(match, a_pending, pending)
                else:
                    raise ElabError(getattr(stmt, "line", block.line),
                                    f"unsupported statement {stmt!r}",
                                    DiagCode.UNSUPPORTED)

        run(block.body, None)

        for full, e in pending.items():
            if full in self.next_state:
                raise ElabError(block.line,
                                f"register {full!r} assigned in multiple always blocks",
                                DiagCode.DUPLICATE)
            self.next_state[full] = e
            self.next_lines[full] = block.line
        for full, e in blocking_env.items():
            if full in seen_nonblocking:
                continue
            if full in self.next_state:
                raise ElabError(block.line,
                                f"register {full!r} assigned in multiple always blocks",
                                DiagCode.DUPLICATE)
            self.next_state[full] = e
            self.next_lines[full] = block.line

        self._extract_init(prefix, block, env)

    def _resolve_clock(self, prefix: str, block: ast.AlwaysBlock) -> str:
        full = f"{prefix}.{block.clock}"
        alias = self.wire_defs.get(full)  # closed: an alias names no wire
        if isinstance(alias, ast.Id):
            full = alias.name
        if full not in self.input_names:
            raise ElabError(block.line,
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
            except (ParseError, ElabError):
                continue
            full = f"{prefix}.{stmt.target}"
            if full in self.reg_names:
                self.init[full] = mask(value, self.widths[full])

    # -- wire closure ---------------------------------------------------------

    def close_wires(self) -> None:
        """Inline every wire's definition in dependency order. A depth-first
        walk in sorted order, iterative: a stack of (wire, its unvisited
        reads), the wires on the stack being the path from the root."""
        def reads(w: str):
            return iter(sorted(ast.expr_ids(self.wire_defs[w])))

        order: list[str] = []
        done: set[str] = set()
        for root in sorted(self.wire_defs):
            if root in done:
                continue
            stack = [(root, reads(root))]
            on_path = {root}
            while stack:
                w, names = stack[-1]
                for name in names:
                    if name in self.wire_defs:
                        if name in done:
                            continue
                        if name in on_path:
                            path = [v for v, _ in stack]
                            cycle = path[path.index(name):] + [name]
                            raise ElabError(self.wire_lines.get(name, 0),
                                            "combinational cycle: " + " -> ".join(cycle),
                                            DiagCode.CYCLE)
                        stack.append((name, reads(name)))
                        on_path.add(name)
                        break
                    if name not in self.reg_names and name not in self.input_names:
                        raise ElabError(self.wire_lines.get(w, 0),
                                        f"undriven net {name!r} referenced by {w!r}")
                else:
                    stack.pop()
                    on_path.discard(w)
                    done.add(w)
                    order.append(w)
        inlined: dict[str, ast.Expr] = {}
        for w in order:
            inlined[w] = _subst_names(self.wire_defs[w], inlined, self.widths)
        self.wire_defs = inlined

    def check_reads(self) -> None:
        """Every name an always block reads must have a value each cycle:
        through its wires it may reach only registers and data inputs, not
        an undriven net or the clock."""
        readable = self.reg_names | (self.input_names - {self.clock})
        memo: dict = {}  # the wires come in dependency order
        reaches = {w: ast.expr_ids(e, memo) for w, e in self.wire_defs.items()}
        for line, e in self.reads:
            for name in sorted(ast.expr_ids(e)):
                for leaf in sorted(reaches.get(name, {name}) - readable):
                    if leaf == self.clock:
                        raise ElabError(line, f"clock {leaf!r} read as data",
                                        DiagCode.UNSUPPORTED)
                    raise ElabError(line, f"undriven net {leaf!r} read")


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


def elaborate(model: ast.DesignModel, top: str):
    """Flatten the hierarchy under `top`.

    Returns NetModel on success, Diagnostics on any error.
    """
    diags = Diagnostics()
    el = _Elaborator()
    try:
        for prefix, m, env, inst in instances(model, top):
            el.instance(prefix, m, env, inst)
        el.close_wires()
        for prefix, m, block, env in el.always_units:
            el.exec_always(prefix, m, block, env)
        el.check_reads()
    except (ElabError, ParseError) as ee:
        diags.error(ee.line, 0, ee.message, ee.code)
        return diags

    # Registers never assigned a next value hold their current value.
    for full, _w in el.regs:
        el.next_state.setdefault(full, ast.Id(full))
        el.init.setdefault(full, 0)

    # Statements in modules never instantiated under `top` cannot execute.
    for s in model.statements:
        el.guards.setdefault(s.id, ast.Lit(0, 1))

    # Width discipline: every expression must carry a consistent width.
    # `line` follows the checks so an error points at its source line.
    lines = {s.id: s.line for s in model.statements} | el.next_lines
    line = 0
    checked: dict = {}
    try:
        for r, w in el.regs:
            line = el.next_lines.get(r, 0)
            ew = width_of(el.next_state[r], el.widths, checked)
            if ew is not None and ew != w:
                raise WidthError(
                    f"next-state width mismatch for {r!r}: {ew} vs {w}")
        for name, e in el.wire_defs.items():
            line = el.wire_lines[name]
            ew = width_of(e, el.widths, checked)
            if ew is not None and ew != el.widths[name]:
                raise WidthError(
                    f"width mismatch for {name!r}: {ew} vs {el.widths[name]}")
        for sid, g in el.guards.items():
            line = lines.get(sid, 0)
            width_of(g, el.widths, checked)
        return NetModel(
            top=top,
            clock=el.clock,
            state_bits=list(el.regs),
            inputs=[(n, w) for n, w in el.inputs if n != el.clock],
            next_state=el.next_state,
            init={r: el.init[r] for r, _ in el.regs},
            comb=el.wire_defs,
            statement_guards=el.guards,
            widths=dict(el.widths),
        )
    except WidthError as werr:
        diags.error(line, 0, werr.message, DiagCode.WIDTH)
    except (DepthError, RecursionError) as err:
        if isinstance(err, DepthError):
            line = lines.get(err.args[0], 0)
        diags.error(line, 0, "expression nests too deep to elaborate",
                    DiagCode.BOUND_EXCEEDED)
    return diags
