"""Expression widths and the one compiler for RTL expressions.

`width_of` is the strict width rule the elaborator and the binder check
expressions against, sampled-value functions included. `Compiler` turns
an expression into Python source text, with every width resolved at
compile time. A name reads its position in a slot tuple: `x[i]`, where
`x` is a state tuple followed by an input tuple, or a local the caller
unpacked it into. A property monitor also reads `h`, the sampled-value
history it carries (plain RTL never reads it). Results are masked to the
expression width; an unsized literal adapts to the sized operand beside
it.

The generated text holds only integers, slot indices, fixed operators and
names the compiler itself makes. No identifier or other text from the
design or the properties reaches it, so it is safe to compile and run.
"""

from __future__ import annotations

from verikg.rtl import ast
from verikg.rtl.parser import ParseError, eval_const


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# Width inference (strict: sized widths must agree; unsized literals adapt)
# ---------------------------------------------------------------------------

class WidthError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


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


# ---------------------------------------------------------------------------
# Compilation to Python source
# ---------------------------------------------------------------------------

# Parenthesis depth at which a sub-expression is hoisted into a local.
# Python's tokenizer allows at most 200 nested parentheses, and its parser
# and compiler have recursion limits of their own; a long `case` elaborates
# to a `?:` chain one level deep per arm.
# Expressions are pure and total (no division, no shifts by a variable),
# so evaluating a hoisted sub-expression eagerly gives the same value.
MAX_NESTING = 32

_LOGIC = {"&&": "and", "||": "or"}


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
