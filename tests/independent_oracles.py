"""Independent oracles for the test suite.

Everything here deliberately avoids the implementation paths it checks:
the reference interpreter executes DesignModel statements directly (no
NetModel), the trace matcher decides property violations by dynamic
programming over concrete traces (no monitor automata), and the graph
oracles are plain recursive searches.

The random source generators are in `oracles.py`, which the benchmark
imports; its set-up compiles that module, so nothing else goes there.
"""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import verikg.rtl.parser as rtl_parser
import verikg.sva.bind as sva_bind
import verikg.sva.parser as sva_parser
from verikg.rtl import ast as rtl
from verikg.sva import ast as S

# ---------------------------------------------------------------------------
# Reference interpreter: direct execution of DesignModel statements
# ---------------------------------------------------------------------------


def _mask(v: int, w: int) -> int:
    return v & ((1 << w) - 1)


class RefDesign:
    """Executes the parsed design cycle by cycle.

    Wires are evaluated on demand from their continuous assigns; blocking
    assignments take effect immediately, non-blocking at the cycle edge.
    Wire reads inside always blocks see start-of-cycle values, matching the
    elaboration semantics.
    """

    def __init__(self, dm: rtl.DesignModel, top: str,
                 overrides: dict[str, int] | None = None):
        self.dm = dm
        self.top = top
        self.regs: dict[str, int] = {}
        self.widths: dict[str, int] = {}
        self.inputs: list[tuple[str, int]] = []
        self.units: list[tuple[str, rtl.AlwaysBlock, dict[str, int]]] = []
        # wire name -> ("expr", prefix, params, expr) | ("alias", other name)
        self.drivers: dict[str, tuple] = {}
        self.clock: str | None = None
        self._walk(top, top, dict(overrides or {}), None, None, None)

    def _params(self, m: rtl.ModuleDecl, overrides: dict[str, int]) -> dict[str, int]:
        env: dict[str, int] = {}
        for p in m.parameters:
            if p.name in overrides:
                env[p.name] = overrides[p.name]
            elif p.expr is not None:
                env[p.name] = self._const(p.expr, env)
            else:
                env[p.name] = p.value
        return env

    def _const(self, e: rtl.Expr, env: dict[str, int]) -> int:
        if isinstance(e, rtl.Lit):
            return e.value
        if isinstance(e, rtl.Id):
            return env[e.name]
        if isinstance(e, rtl.Unary):
            v = self._const(e.operand, env)
            return {"~": ~v, "!": int(not v), "-": -v}[e.op]
        if isinstance(e, rtl.Binary):
            a, b = self._const(e.left, env), self._const(e.right, env)
            return {
                "&": a & b, "|": a | b, "^": a ^ b, "+": a + b, "-": a - b,
                "==": int(a == b), "!=": int(a != b), "<": int(a < b),
                "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
                "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
            }[e.op]
        if isinstance(e, rtl.Ternary):
            return self._const(e.then, env) if self._const(e.cond, env) \
                else self._const(e.other, env)
        raise ValueError(f"not constant: {e!r}")

    def _width(self, s, env) -> int:
        if s.msb is None:
            return 1
        return self._const(s.msb, env) - self._const(s.lsb, env) + 1

    def _walk(self, module_name, prefix, overrides, conn, pprefix, penv) -> None:
        m = self.dm.module(module_name)
        assert m is not None, module_name
        env = self._params(m, overrides)
        assigned = set()
        for b in m.always_blocks:
            assigned |= set(_targets(b.body))
        for s in m.signals:
            full = f"{prefix}.{s.name}"
            w = self._width(s, env)
            self.widths[full] = w
            if s.kind == "reg" and s.name in assigned:
                self.regs[full] = w
        for p in m.ports:
            full = f"{prefix}.{p.name}"
            if conn is None:
                if p.direction == "input":
                    self.inputs.append((full, self.widths[full]))
            else:
                wired = conn.get(p.name)
                if p.direction == "input" and wired is not None:
                    self.drivers[full] = ("expr", pprefix, penv, wired)
                elif p.direction == "output" and wired is not None:
                    assert isinstance(wired, rtl.Id)
                    self.drivers[f"{pprefix}.{wired.name}"] = ("alias", full)
        for a in m.assigns:
            self.drivers[f"{prefix}.{a.target}"] = ("expr", prefix, env, a.rhs)
        for b in m.always_blocks:
            self.units.append((prefix, b, env))
            clk = f"{prefix}.{b.clock}"
            seen = set()
            while clk in self.drivers and self.drivers[clk][0] == "alias":
                clk = self.drivers[clk][1]
                if clk in seen:
                    break
                seen.add(clk)
            resolved = self._resolve_clock(clk)
            if resolved is not None:
                self.clock = resolved
        for inst in m.instances:
            self._walk(inst.module, f"{prefix}.{inst.name}",
                       {k: self._const(e, env) for k, e in inst.params.items()},
                       inst.ports, prefix, env)

    def _resolve_clock(self, name: str) -> str | None:
        seen = set()
        while name in self.drivers:
            kind = self.drivers[name][0]
            if kind == "alias":
                name = self.drivers[name][1]
            elif kind == "expr":
                _k, pfx, env, e = self.drivers[name]
                if isinstance(e, rtl.Id):
                    name = f"{pfx}.{e.name}"
                else:
                    return None
            if name in seen:
                return None
            seen.add(name)
        return name

    def _active_modules(self) -> set[str]:
        """Module names instantiated under the top."""
        out: set[str] = set()

        def visit(name: str) -> None:
            if name in out:
                return
            out.add(name)
            m = self.dm.module(name)
            for inst in m.instances if m else []:
                visit(inst.module)

        visit(self.top)
        return out

    def init_state(self) -> dict[str, int]:
        """Post-reset values per the reset idiom; zero otherwise."""
        state = {r: 0 for r in self.regs}
        for prefix, block, env in self.units:
            body = block.body
            if len(body) == 1 and isinstance(body[0], rtl.IfStmt):
                for stmt in body[0].then_body:
                    if isinstance(stmt, rtl.SeqAssign) and stmt.sel is None:
                        try:
                            v = self._const(stmt.rhs, env)
                        except (ValueError, KeyError):
                            continue
                        full = f"{prefix}.{stmt.target}"
                        if full in state:
                            state[full] = _mask(v, self.widths[full])
        return state

    # -- evaluation ----------------------------------------------------------

    def _eval(self, e: rtl.Expr, prefix: str, env: dict[str, int],
              values: dict[str, int], locals_: dict[str, int]) -> tuple[int, int | None]:
        """(value, width) with the language's width rules."""
        if isinstance(e, rtl.Lit):
            return e.value, e.width
        if isinstance(e, rtl.Id):
            if e.name in env:
                return env[e.name], None
            full = f"{prefix}.{e.name}"
            if full in locals_:
                return locals_[full], self.widths[full]
            return self._value_of(full, values), self.widths[full]
        if isinstance(e, rtl.Select):
            hi = self._const(e.msb, env)
            lo = self._const(e.lsb, env)
            full = f"{prefix}.{e.name}"
            base = locals_.get(full)
            if base is None:
                base = self._value_of(full, values)
            return (base >> lo) & ((1 << (hi - lo + 1)) - 1), hi - lo + 1
        if isinstance(e, rtl.Unary):
            v, w = self._eval(e.operand, prefix, env, values, locals_)
            if e.op == "!":
                return int(v == 0), 1
            ww = w or 32
            if e.op == "~":
                return _mask(~v, ww), w
            return _mask(-v, ww), w
        if isinstance(e, rtl.Binary):
            a, aw = self._eval(e.left, prefix, env, values, locals_)
            b, bw = self._eval(e.right, prefix, env, values, locals_)
            if e.op == "&&":
                return int(bool(a) and bool(b)), 1
            if e.op == "||":
                return int(bool(a) or bool(b)), 1
            if e.op in rtl.COMPARISON_OPS:
                return {
                    "==": int(a == b), "!=": int(a != b), "<": int(a < b),
                    "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
                }[e.op], 1
            w = aw if aw is not None else bw
            ww = w or 32
            out = {"&": a & b, "|": a | b, "^": a ^ b,
                   "+": a + b, "-": a - b}[e.op]
            return _mask(out, ww), w
        if isinstance(e, rtl.Ternary):
            c, _ = self._eval(e.cond, prefix, env, values, locals_)
            return self._eval(e.then if c else e.other, prefix, env, values, locals_)
        if isinstance(e, rtl.Concat):
            out = 0
            total = 0
            for p in e.parts:
                v, w = self._eval(p, prefix, env, values, locals_)
                out = (out << w) | _mask(v, w)
                total += w
            return out, total
        raise ValueError(f"cannot evaluate {e!r}")

    def _value_of(self, full: str, values: dict[str, int]) -> int:
        if full in values:
            return values[full]
        driver = self.drivers.get(full)
        if driver is None:
            raise KeyError(f"no driver for {full}")
        if driver[0] == "alias":
            v = self._value_of(driver[1], values)
        else:
            _k, pfx, env, e = driver
            v, _w = self._eval(e, pfx, env, values, {})
        values[full] = _mask(v, self.widths.get(full, 32))
        return values[full]

    def signal_value(self, name: str, state: dict[str, int],
                     inputs: dict[str, int]) -> int:
        values = dict(state)
        values.update(inputs)
        return self._value_of(name, values) if name not in values else values[name]

    def step(self, state: dict[str, int], inputs: dict[str, int]
             ) -> tuple[dict[str, int], set[str]]:
        """One clock edge. Returns (next state, executed statement ids)."""
        values = dict(state)
        values.update(inputs)
        executed: set[str] = set()
        next_state = dict(state)
        # continuous assigns of instantiated modules run every cycle
        for mod_name in self._active_modules():
            for a in self.dm.module(mod_name).assigns:
                executed.add(a.stmt_id)
        for prefix, block, env in self.units:
            locals_: dict[str, int] = {}
            pending: dict[str, int] = {}
            self._exec(block.body, prefix, env, values, locals_, pending, executed)
            for full, v in pending.items():
                next_state[full] = _mask(v, self.widths[full])
            for full, v in locals_.items():
                if full not in pending and full in self.regs:
                    next_state[full] = _mask(v, self.widths[full])
        return next_state, executed

    def _exec(self, body, prefix, env, values, locals_, pending, executed) -> None:
        for stmt in body:
            if isinstance(stmt, rtl.SeqAssign):
                executed.add(stmt.stmt_id)
                v, _w = self._eval(stmt.rhs, prefix, env, values, locals_)
                full = f"{prefix}.{stmt.target}"
                if stmt.sel is not None:
                    hi = self._const(stmt.sel[0], env)
                    lo = self._const(stmt.sel[1], env)
                    store = pending if not stmt.blocking else locals_
                    base = store.get(full)
                    if base is None:
                        base = locals_.get(full) if stmt.blocking else None
                    if base is None:
                        base = values.get(full, 0)
                    keep = base & ~(((1 << (hi - lo + 1)) - 1) << lo)
                    v = keep | (_mask(v, hi - lo + 1) << lo)
                if stmt.blocking:
                    locals_[full] = _mask(v, self.widths[full])
                else:
                    pending[full] = v
            elif isinstance(stmt, rtl.IfStmt):
                c, _w = self._eval(stmt.cond, prefix, env, values, locals_)
                if c:
                    executed.add(stmt.then_id)
                    self._exec(stmt.then_body, prefix, env, values, locals_,
                               pending, executed)
                elif stmt.else_body is not None:
                    executed.add(stmt.else_id)
                    self._exec(stmt.else_body, prefix, env, values, locals_,
                               pending, executed)
            elif isinstance(stmt, rtl.CaseStmt):
                subj, _w = self._eval(stmt.subject, prefix, env, values, locals_)
                taken = False
                default_arm = None
                for arm in stmt.arms:
                    if arm.labels is None:
                        default_arm = arm
                        continue
                    hit = False
                    for lab in arm.labels:
                        lv, _lw = self._eval(lab, prefix, env, values, locals_)
                        if lv == subj:
                            hit = True
                            break
                    if hit:
                        executed.add(arm.arm_id)
                        self._exec(arm.body, prefix, env, values, locals_,
                                   pending, executed)
                        taken = True
                        break
                if not taken and default_arm is not None:
                    executed.add(default_arm.arm_id)
                    self._exec(default_arm.body, prefix, env, values, locals_,
                               pending, executed)


def _targets(body):
    for stmt in body:
        if isinstance(stmt, rtl.SeqAssign):
            yield stmt.target
        elif isinstance(stmt, rtl.IfStmt):
            yield from _targets(stmt.then_body)
            yield from _targets(stmt.else_body or [])
        elif isinstance(stmt, rtl.CaseStmt):
            for arm in stmt.arms:
                yield from _targets(arm.body)


# ---------------------------------------------------------------------------
# Trace-level property evaluation (dynamic programming matcher)
# ---------------------------------------------------------------------------


def eval_sva_on_trace(expr, trace: list[dict[str, int]], t: int,
                      value_fn) -> int:
    """Evaluate a bound property expression at trace cycle t; sampled values
    before cycle 0 are 0."""
    if isinstance(expr, S.Past):
        back = t - expr.depth
        return eval_sva_on_trace(expr.expr, trace, back, value_fn) if back >= 0 else 0
    if isinstance(expr, S.Rose):
        cur = eval_sva_on_trace(expr.expr, trace, t, value_fn)
        prev = eval_sva_on_trace(expr.expr, trace, t - 1, value_fn) if t > 0 else 0
        return int(bool(cur) and not bool(prev))
    if isinstance(expr, S.Fell):
        cur = eval_sva_on_trace(expr.expr, trace, t, value_fn)
        prev = eval_sva_on_trace(expr.expr, trace, t - 1, value_fn) if t > 0 else 0
        return int(not bool(cur) and bool(prev))
    if isinstance(expr, S.Stable):
        cur = eval_sva_on_trace(expr.expr, trace, t, value_fn)
        prev = eval_sva_on_trace(expr.expr, trace, t - 1, value_fn) if t > 0 else 0
        return int(cur == prev)
    if isinstance(expr, rtl.Lit):
        return expr.value
    if isinstance(expr, rtl.Id):
        return value_fn(expr.name, t)
    if isinstance(expr, rtl.Select):
        from verikg.rtl.parser import eval_const

        hi = eval_const(expr.msb, {})
        lo = eval_const(expr.lsb, {})
        return (value_fn(expr.name, t) >> lo) & ((1 << (hi - lo + 1)) - 1)
    if isinstance(expr, rtl.Unary):
        v = eval_sva_on_trace(expr.operand, trace, t, value_fn)
        if expr.op == "!":
            return int(v == 0)
        if expr.op == "~":
            return ~v & 0xFFFFFFFF  # boolean use only cares about truthiness
        return -v
    if isinstance(expr, rtl.Binary):
        a = eval_sva_on_trace(expr.left, trace, t, value_fn)
        b = eval_sva_on_trace(expr.right, trace, t, value_fn)
        return {
            "&": a & b, "|": a | b, "^": a ^ b, "+": a + b, "-": a - b,
            "==": int(a == b), "!=": int(a != b), "<": int(a < b),
            "<=": int(a <= b), ">": int(a > b), ">=": int(a >= b),
            "&&": int(bool(a) and bool(b)), "||": int(bool(a) or bool(b)),
        }[expr.op]
    if isinstance(expr, rtl.Ternary):
        c = eval_sva_on_trace(expr.cond, trace, t, value_fn)
        branch = expr.then if c else expr.other
        return eval_sva_on_trace(branch, trace, t, value_fn)
    raise ValueError(f"unsupported oracle expression {expr!r}")


def _seq_match_cycles(seq: S.Sequence, trace_len: int, start: int,
                      truth) -> tuple[set[int], int, bool]:
    """DP over the trace.

    Returns (cycles where the whole sequence completes, the last cycle any
    partial-match state is still alive, whether some state's window extends
    past the trace end so the outcome is undetermined).
    """
    prev: set[int] = {start}  # cycles where the previous step matched
    death = start - 1
    beyond = False
    for k, step in enumerate(seq.steps):
        cur: set[int] = set()
        for base in prev:
            lo = base + step.delay_lo
            hi = base + step.delay_hi
            if hi >= trace_len:
                beyond = True
            death = max(death, min(hi, trace_len - 1))
            for t in range(max(lo, 0), min(hi, trace_len - 1) + 1):
                if truth(k, t):
                    cur.add(t)
        if not cur:
            return set(), death, beyond
        prev = cur
    return prev, death, beyond


def violation_cycle(bp: S.BoundProperty, trace: list[dict[str, int]],
                    value_fn) -> int | None:
    """First cycle at which the property is definitely violated on this
    finite trace; None when it is satisfied or still undetermined."""
    n = len(trace)
    truth_cache: dict[tuple[int, int, int], bool] = {}

    def seq_truth(seq):
        def fn(k, t):
            key = (id(seq), k, t)
            if key not in truth_cache:
                truth_cache[key] = bool(
                    eval_sva_on_trace(seq.steps[k].expr, trace, t, value_fn))
            return truth_cache[key]
        return fn

    disable = [bool(eval_sva_on_trace(bp.disable_net, trace, t, value_fn))
               if bp.disable_net is not None else False
               for t in range(n)]

    def disabled_between(a: int, b: int) -> bool:
        return any(disable[t] for t in range(max(a, 0), min(b, n - 1) + 1))

    best: int | None = None
    for start in range(n):
        if disable[start]:
            continue
        if bp.impl is S.ImplKind.NONE:
            match_ends = [(start, start)]
        else:
            ends, _death, ante_beyond = _seq_match_cycles(
                bp.antecedent, n, start, seq_truth(bp.antecedent))
            match_ends = [(start, j) for j in sorted(ends)]
        for attempt, j in match_ends:
            if disabled_between(attempt, j):
                continue
            cons_start = j if bp.impl is not S.ImplKind.NONOVERLAP else j + 1
            if cons_start >= n:
                continue  # obligation starts past the trace end
            completions, death, beyond = _seq_match_cycles(
                bp.consequent, n, cons_start, seq_truth(bp.consequent))
            live = [c for c in sorted(completions)
                    if not disabled_between(attempt, c)]
            if live:
                continue  # satisfied through some completion
            if beyond:
                continue  # could still complete after the trace ends
            decision = death
            if disabled_between(attempt, decision):
                continue
            if best is None or decision < best:
                best = decision
    return best


def ante_satisfied_somewhere(bp: S.BoundProperty, trace, value_fn) -> bool:
    if bp.impl is S.ImplKind.NONE:
        return False
    n = len(trace)
    disable = [bool(eval_sva_on_trace(bp.disable_net, trace, t, value_fn))
               if bp.disable_net is not None else False for t in range(n)]
    for start in range(n):
        if disable[start]:
            continue

        def fn(k, t, _seq=bp.antecedent):
            return bool(eval_sva_on_trace(_seq.steps[k].expr, trace, t, value_fn))

        ends, _death, _beyond = _seq_match_cycles(bp.antecedent, n, start, fn)
        for j in ends:
            if not any(disable[t] for t in range(start, j + 1)):
                return True
    return False


# ---------------------------------------------------------------------------
# Brute-force input enumeration
# ---------------------------------------------------------------------------


def enumerate_traces(ref: RefDesign, depth: int):
    """All input sequences up to `depth` cycles, yielding (inputs, states)
    lists with shared prefixes via DFS."""
    names = sorted(n for n, _ in ref.inputs if n != ref.clock)
    widths = dict(ref.inputs)
    combos = [dict(zip(names, vec))
              for vec in itertools.product(*[range(1 << widths[n]) for n in names])]

    def rec(state, inputs_so_far, states_so_far):
        t = len(inputs_so_far)
        if t == depth:
            yield inputs_so_far, states_so_far
            return
        for combo in combos:
            nxt, _executed = ref.step(state, combo)
            yield from rec(nxt, inputs_so_far + [combo], states_so_far + [nxt])

    init = ref.init_state()
    yield from rec(init, [], [init])


def oracle_min_violation(ref: RefDesign, bp: S.BoundProperty, depth: int
                         ) -> tuple[int | None, bool]:
    """(minimal definite violation cycle across all input sequences, did any
    antecedent ever match)."""
    best: int | None = None
    ante_seen = False
    for inputs, states in enumerate_traces(ref, depth):
        trace = []
        for t, combo in enumerate(inputs):
            vals = dict(states[t])
            vals.update(combo)
            trace.append(vals)

        def value_fn(name, t, _trace=trace, _ref=ref):
            vals = _trace[t]
            if name in vals:
                return vals[name]
            return _ref._value_of(name, vals)

        v = violation_cycle(bp, trace, value_fn)
        if v is not None and (best is None or v < best):
            best = v
        if not ante_seen and ante_satisfied_somewhere(bp, trace, value_fn):
            ante_seen = True
    return best, ante_seen


def oracle_reachable_statements(ref: RefDesign) -> set[str]:
    """Statement ids executed in some reachable (state, input) evaluation,
    by plain BFS over interpreter states."""
    names = sorted(n for n, _ in ref.inputs if n != ref.clock)
    widths = dict(ref.inputs)
    combos = [dict(zip(names, vec))
              for vec in itertools.product(*[range(1 << widths[n]) for n in names])]
    init = ref.init_state()
    seen = {tuple(sorted(init.items()))}
    frontier = [init]
    executed: set[str] = set()
    while frontier:
        nxt_frontier = []
        for state in frontier:
            for combo in combos:
                nxt, ran = ref.step(state, combo)
                executed |= ran
                key = tuple(sorted(nxt.items()))
                if key not in seen:
                    seen.add(key)
                    nxt_frontier.append(nxt)
        frontier = nxt_frontier
    return executed


# ---------------------------------------------------------------------------
# Graph oracles
# ---------------------------------------------------------------------------


def bfs_ball(neighbors_fn, anchor: str, radius: int) -> dict[str, int]:
    """Plain BFS hop distances within radius; neighbors_fn(node) yields ids."""
    dist = {anchor: 0}
    frontier = [anchor]
    hop = 0
    while frontier and hop < radius:
        hop += 1
        nxt = []
        for node in frontier:
            for nbr in neighbors_fn(node):
                if nbr not in dist:
                    dist[nbr] = hop
                    nxt.append(nbr)
        frontier = nxt
    return dist


def evidence_reachable(g, prop_id: str) -> set[str]:
    """Recursive evidence-edge reachability restricted to evidence nodes."""
    from verikg.kg import EVIDENCE_EDGES, EVIDENCE_NODE_TYPES

    out: set[str] = set()

    def visit(node_id: str) -> None:
        for nbr, etype in g.neighbors(node_id):
            if etype not in EVIDENCE_EDGES or nbr in out:
                continue
            if g.nodes[nbr].type in EVIDENCE_NODE_TYPES:
                out.add(nbr)
                visit(nbr)

    visit(prop_id)
    return out


# ---------------------------------------------------------------------------
# Reference front end: a character-at-a-time tokenizer and a parser with one
# recursion per precedence level (the unoptimised lexer and binary-operator
# parser the shared front end is checked against)
# ---------------------------------------------------------------------------

_REF_PUNCT = [
    "|->", "|=>", "##", "&&", "||", "==", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "@", "#", "?",
    ".", "=", "<", ">", "&", "|", "^", "~", "!", "+", "-", "*", "/",
]
_REF_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REF_ID_CHARS = _REF_ID_START | set("0123456789$")


def ref_tokenize(source: str) -> list:
    """Scan one character at a time, trying each punctuator in turn.

    Known to crash (ValueError, OverflowError) or take seconds on oversized
    literal widths and values, and to read non-ASCII digits as digits."""
    from verikg.rtl.lexer import LexError, Token

    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j - i) if j != -1 else (n - i))
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError(line, col, "unterminated block comment")
            advance(j + 2 - i)
            continue
        if c == "`":
            start_line, start_col = line, col
            j = i + 1
            if j >= n or source[j] not in _REF_ID_START:
                raise LexError(line, col, "expected macro name after '`'")
            k = j
            while k < n and source[k] in _REF_ID_CHARS:
                k += 1
            text = source[j:k]
            advance(k - i)
            tokens.append(Token("MACRO", text, start_line, start_col))
            continue
        if c == "$":
            start_line, start_col = line, col
            k = i + 1
            while k < n and source[k] in _REF_ID_CHARS:
                k += 1
            if k == i + 1:
                raise LexError(line, col, "expected name after '$'")
            text = source[i:k]
            advance(k - i)
            tokens.append(Token("SYSID", text, start_line, start_col))
            continue
        if c.isdigit():
            start_line, start_col = line, col
            k = i
            while k < n and (source[k].isdigit() or source[k] == "_"):
                k += 1
            if k < n and source[k] == "'":
                base_ch = source[k + 1] if k + 1 < n else ""
                if base_ch not in "bdhBDH":
                    raise LexError(line, col, f"bad literal base {base_ch!r}")
                width = int(source[i:k].replace("_", ""))
                j = k + 2
                digits_start = j
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                digits = source[digits_start:j].replace("_", "")
                if not digits:
                    raise LexError(line, col, "literal has no digits")
                base = {"b": 2, "d": 10, "h": 16}[base_ch.lower()]
                try:
                    value = int(digits, base)
                except ValueError:
                    raise LexError(line, col, f"bad digits {digits!r} for base {base}")
                if width <= 0:
                    raise LexError(line, col, "literal width must be positive")
                if value >= (1 << width):
                    raise LexError(line, col,
                                   f"literal value {value} does not fit in {width} bits")
                text = source[i:j]
                advance(j - i)
                tokens.append(Token("NUMBER", text, start_line, start_col, value, width))
            else:
                text = source[i:k]
                advance(k - i)
                tokens.append(Token("NUMBER", text, start_line, start_col,
                                    int(text.replace("_", "")), None))
            continue
        if c in _REF_ID_START:
            start_line, start_col = line, col
            k = i
            while k < n and source[k] in _REF_ID_CHARS:
                k += 1
            text = source[i:k]
            advance(k - i)
            tokens.append(Token("ID", text, start_line, start_col))
            continue
        matched = False
        for p in _REF_PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("PUNCT", p, line, col))
                advance(len(p))
                matched = True
                break
        if not matched:
            raise LexError(line, col, f"unexpected character {c!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens


_REF_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["+", "-"],
]


def ref_parse_binary(self, level: int):
    """`ExprParser._parse_binary` with one recursion per precedence level."""
    if level >= len(_REF_BINARY_LEVELS):
        return self._parse_unary()
    left = ref_parse_binary(self, level + 1)
    ops = _REF_BINARY_LEVELS[level]
    while self.cur.peek().kind == "PUNCT" and self.cur.peek().text in ops:
        op = self.cur.next().text
        right = ref_parse_binary(self, level + 1)
        left = rtl.Binary(op, left, right)
    return left


@contextlib.contextmanager
def reference_front_end():
    """Run `parse_rtl`, `parse_properties_with_recovery` and macro expansion
    on `ref_tokenize` and `ref_parse_binary` while the block runs."""
    with contextlib.ExitStack() as stack:
        for module in (rtl_parser, sva_parser, sva_bind):
            stack.enter_context(mock.patch.object(module, "tokenize", ref_tokenize))
        stack.enter_context(mock.patch.object(
            rtl_parser.ExprParser, "_parse_binary", ref_parse_binary))
        yield
