"""The RTL expression compiler as it was before it tracked value ranges.

`Compiler` and `define` are `verikg.rtl.compile`'s, and `SampledCompiler`
is `engine.monitor._SampledCompiler`'s, kept verbatim as the reference the
range-tracking compiler is compared against (`tests/test_compile.py`):
every operator result is masked to its width, and each read of a wire
inlines its driver again. `step_source` builds a net's next-state function
the way `NetModel` did, masking every register.

It lives outside `oracles.py` because the benchmark imports that module
for its generators: with no bytecode cache, every import compiles it, and
code added there raises the benchmark's peak RSS.
"""

from __future__ import annotations

from verikg.rtl import ast
from verikg.rtl.compile import WidthError
from verikg.rtl.elaborate import NetModel
from verikg.rtl.parser import eval_const
from verikg.sva import ast as S

# Parenthesis depth at which a sub-expression is hoisted into a local.
# Python's tokenizer allows at most 200 nested parentheses, and its parser
# and compiler have recursion limits of their own; a long `case` elaborates
# to a `?:` chain one level deep per arm.
# Expressions are pure and total (no division, no shifts by a variable),
# so evaluating a hoisted sub-expression eagerly gives the same value.
MAX_NESTING = 32

_LOGIC = {"&&": "and", "||": "or"}


def _part_width(w: int | None) -> int:
    if w is None:
        raise WidthError("unsized literal inside concatenation")
    return w


def _int(value) -> str:
    """An integer's source text; anything else raises."""
    value = int(value)
    return f"({value})" if value < 0 else str(value)


class Compiler:
    """Compiles expressions over the names in `widths` to source text.

    `slots` gives each readable name its position in the slot tuple, and
    `read` formats a position as the text that reads it. Subclasses extend
    `emit` and `test` with further node types; the recursion goes through
    them, so such nodes may sit under any RTL operator.
    """

    def __init__(self, widths: dict[str, int], slots: dict[str, int],
                 read: str = "x[{}]"):
        self.widths = widths
        self.slots = slots
        self.read = read
        self._lines: list[str] = []  # hoisted locals of the next function
        self._hoisted: dict[str, str] = {}  # their text -> local name

    def compile(self, e) -> str:
        """Source text of the value of `e`. Sub-expressions it hoists go
        into the next `function`."""
        return self.emit(e)[0]

    def condition(self, e) -> str:
        """Source text whose truth value is whether `e` is non-zero."""
        return self.test(e)[0]

    def function(self, params: str, result: str, prologue: tuple[str, ...] = ()) -> str:
        """Source of a function, from its parameter list on, that runs
        `prologue`, computes the locals hoisted since the last call, and
        returns `result`. `define` compiles it."""
        body = [*prologue, *self._lines, f"return {result}"]
        self._lines, self._hoisted = [], {}
        return f"({params}):\n" + "".join(f"    {line}\n" for line in body)

    def node(self, text: str, width: int | None, depth: int):
        """A compound node's (text, width, depth), hoisted when too deep."""
        if depth < MAX_NESTING:
            return text, width, depth
        local = self._hoisted.get(text)
        if local is None:
            local = self._hoisted[text] = f"t{len(self._hoisted)}"
            self._lines.append(f"{local} = {text}")
        return local, width, 0

    def test(self, e):
        """Like `emit`, where only whether `e` is non-zero is read: the
        text's truth value is that, and its value may be a bool."""
        if isinstance(e, ast.Unary) and e.op == "!":
            inner, _w, d = self.test(e.operand)
            return self.node(f"(not {inner})", 1, d + 1)
        if isinstance(e, ast.Binary) and e.op in _LOGIC:
            lt, _lw, ld = self.test(e.left)
            rt, _rw, rd = self.test(e.right)
            return self.node(f"({lt} {_LOGIC[e.op]} {rt})", 1, max(ld, rd) + 1)
        if isinstance(e, ast.Binary) and e.op in ast.COMPARISON_OPS:
            lt, _lw, ld = self.emit(e.left)
            rt, _rw, rd = self.emit(e.right)
            return self.node(f"({lt} {e.op} {rt})", 1, max(ld, rd) + 1)
        return self.emit(e)

    def bit(self, e):
        """`emit` for a 1-bit node that `test` compiles: 1 or 0."""
        text, _w, d = self.test(e)
        return self.node(f"(1 if {text} else 0)", 1, d + 1)

    def emit(self, e):
        """Returns (text, width or None if unsized, nesting depth)."""
        if isinstance(e, ast.Lit):
            return _int(e.value), e.width, 0
        if isinstance(e, ast.Id):
            return self.read.format(self.slots[e.name]), self.widths[e.name], 0
        if isinstance(e, ast.Select):
            hi = eval_const(e.msb, {})
            lo = eval_const(e.lsb, {})
            base = self.read.format(self.slots[e.name])
            return self._slice(base, hi, lo, 0)
        if isinstance(e, ast.SliceX):
            inner, _w, d = self.emit(e.base)
            return self._slice(inner, e.msb, e.lsb, d)
        if (isinstance(e, ast.Unary) and e.op == "!" or isinstance(e, ast.Binary)
                and (e.op in ast.LOGICAL_OPS or e.op in ast.COMPARISON_OPS)):
            return self.bit(e)
        if isinstance(e, ast.Unary):
            inner, w, d = self.emit(e.operand)
            mk = _int((1 << (w or 32)) - 1)
            if e.op == "~":
                return self.node(f"(~{inner} & {mk})", w, d + 1)
            if e.op == "-":
                return self.node(f"(-{inner} & {mk})", w, d + 1)
        if isinstance(e, ast.Binary):
            lt, lw, ld = self.emit(e.left)
            rt, rw, rd = self.emit(e.right)
            if e.op in ast.BITWISE_OPS or e.op in ast.ARITH_OPS:
                w = lw if lw is not None else rw
                mk = _int((1 << (w or 32)) - 1)
                return self.node(f"(({lt} {e.op} {rt}) & {mk})", w, max(ld, rd) + 1)
        if isinstance(e, ast.Ternary):
            ct, _cw, cd = self.test(e.cond)
            tt, tw, td = self.emit(e.then)
            ot, ow, od = self.emit(e.other)
            return self.node(f"({tt} if {ct} else {ot})",
                             tw if tw is not None else ow, max(cd, td, od) + 1)
        if isinstance(e, ast.Concat):
            # a left fold, so that hoisting bounds a long concatenation too
            out = None
            for p in e.parts:
                pt, pw, pd = self.emit(p)
                pw = _part_width(pw)
                part = f"{pt} & {_int((1 << pw) - 1)}"
                if out is None:
                    out = self.node(f"({part})", pw, pd + 1)
                else:
                    text, total, d = out
                    out = self.node(f"({text} << {_int(pw)} | ({part}))",
                                    total + pw, max(d, pd) + 1)
            return out
        raise TypeError(f"cannot compile expression {e!r}")

    def _slice(self, base: str, hi: int, lo: int, depth: int):
        shifted = f"{base} >> {_int(lo)}" if lo else base
        return self.node(f"({shifted} & {_int((1 << (hi - lo + 1)) - 1)})",
                         hi - lo + 1, depth + 1)


def define(functions: list[str]) -> list:
    """The functions with sources `functions` (from `Compiler.function`),
    compiled together as one code object that sees no builtins."""
    src = "".join(f"def f{k}{fn}" for k, fn in enumerate(functions))
    scope = {"__builtins__": {}}
    exec(compile(src, "<verikg>", "exec"), scope)
    return [scope[f"f{k}"] for k in range(len(functions))]


def step_source(net: NetModel) -> str:
    """The source of `net`'s next-state function, as `NetModel` built it."""
    local = Compiler(net.widths, net.slots, read="v{}")
    nexts = "".join(f"{local.compile(net.next_state[name])} & {(1 << w) - 1}, "
                    for name, w in net.state_bits)
    names = [name for name, _w in net.state_bits + net.inputs]
    n_state = len(net.state_bits)
    unpack = tuple("".join(f"v{i}, " for i in idx) + f"= {tup}"
                   for tup, idx in (("state", range(n_state)),
                                    ("inputs", range(n_state, len(names))))
                   if idx)
    return local.function("state, inputs", f"({nexts})", unpack)


class SampledCompiler(Compiler):
    """The shared RTL compiler plus the sampled-value functions, which read
    shift-register taps from the monitor history `h`."""

    def __init__(self, widths: dict[str, int], slots: dict[str, int]):
        super().__init__(widths, slots)
        self.taps: list[tuple[object, int]] = []  # (expr, max depth)

    def tap(self, expr, depth: int) -> int:
        for i, (e, d) in enumerate(self.taps):
            if e == expr:
                if depth > d:
                    self.taps[i] = (e, depth)
                return i
        self.taps.append((expr, depth))
        return len(self.taps) - 1

    def emit(self, e):
        if isinstance(e, S.Past):
            # the operand is emitted for its width and its own taps only
            _text, w, _d = self.emit(e.expr)
            ti = self.tap(e.expr, e.depth)
            return f"h[{ti}][{int(e.depth) - 1}]", w, 0
        if isinstance(e, (S.Rose, S.Fell, S.Stable)):
            return self.bit(e)
        return super().emit(e)

    def test(self, e):
        if isinstance(e, S.Stable):
            inner, _w, d = self.emit(e.expr)
            return self.node(f"({inner} == h[{self.tap(e.expr, 1)}][0])", 1, d + 1)
        if isinstance(e, (S.Rose, S.Fell)):
            inner, _w, d = self.test(e.expr)
            past = f"h[{self.tap(e.expr, 1)}][0]"
            if isinstance(e, S.Rose):
                return self.node(f"({inner} and not {past})", 1, d + 1)
            return self.node(f"(not {inner} and {past})", 1, d + 1)
        return super().test(e)

    def finish_taps(self) -> tuple[str, list[int]]:
        """The next history as source text, and each tap's depth."""
        # Compiling a tap may register further taps (nested $past), and a
        # later compile may deepen an existing tap, so resolve depths last.
        texts = []
        while len(texts) < len(self.taps):
            texts.append(self.compile(self.taps[len(texts)][0]))
        depths = [depth for _e, depth in self.taps]
        hist = "".join(f"({text},) + h[{i}][:{depth - 1}], " if depth > 1
                       else f"({text},), "
                       for i, (text, depth) in enumerate(zip(texts, depths)))
        return f"({hist})", depths
