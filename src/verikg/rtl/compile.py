"""Expression widths and the one compiler for RTL expressions.

`width_of` is the strict width rule the elaborator and the binder check
expressions against. `Compiler` turns an expression into a closure over
(values, history), with every width resolved at compile time: `values`
maps names to this cycle's values, and `history` is the sampled-value
state a property monitor carries (plain RTL never reads it). Results are
masked to the expression width; an unsized literal adapts to the sized
operand beside it.
"""

from __future__ import annotations

import operator

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
    """Computed width; None for an unsized literal that adapts to context."""
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
        w = tw if tw is not None else ow
        if w is None:
            raise WidthError("?: over two unsized literals")
        return w
    if isinstance(e, ast.Concat):
        return sum(_part_width(width_of(p, widths)) for p in e.parts)
    raise WidthError(f"unexpected expression node {e!r}")


def _part_width(w: int | None) -> int:
    if w is None:
        raise WidthError("unsized literal inside concatenation")
    return w


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"&": operator.and_, "|": operator.or_, "^": operator.xor,
          "+": operator.add, "-": operator.sub}


class Compiler:
    """Compiles expressions over the names in `widths` to closures.

    Subclasses extend `compile` with further node types; the recursion goes
    through `self.compile`, so such nodes may sit under any RTL operator.
    """

    def __init__(self, widths: dict[str, int]):
        self.widths = widths

    def compile(self, e):
        """Returns (fn(values, history) -> int, width or None if unsized)."""
        if isinstance(e, ast.Lit):
            val = e.value
            return (lambda v, h: val), e.width
        if isinstance(e, ast.Id):
            name = e.name
            return (lambda v, h: v[name]), self.widths[name]
        if isinstance(e, ast.Select):
            hi = eval_const(e.msb, {})
            lo = eval_const(e.lsb, {})
            name = e.name
            m = (1 << (hi - lo + 1)) - 1
            return (lambda v, h: (v[name] >> lo) & m), hi - lo + 1
        if isinstance(e, ast.SliceX):
            inner, _w = self.compile(e.base)
            lo = e.lsb
            m = (1 << (e.msb - e.lsb + 1)) - 1
            return (lambda v, h: (inner(v, h) >> lo) & m), e.msb - e.lsb + 1
        if isinstance(e, ast.Unary):
            inner, w = self.compile(e.operand)
            if e.op == "!":
                return (lambda v, h: 0 if inner(v, h) else 1), 1
            mk = (1 << (w or 32)) - 1
            if e.op == "~":
                return (lambda v, h: ~inner(v, h) & mk), w
            if e.op == "-":
                return (lambda v, h: -inner(v, h) & mk), w
        if isinstance(e, ast.Binary):
            lf, lw = self.compile(e.left)
            rf, rw = self.compile(e.right)
            op = e.op
            if op == "&&":
                return (lambda v, h: 1 if lf(v, h) and rf(v, h) else 0), 1
            if op == "||":
                return (lambda v, h: 1 if lf(v, h) or rf(v, h) else 0), 1
            if op in _COMPARE:
                cmp = _COMPARE[op]
                return (lambda v, h: 1 if cmp(lf(v, h), rf(v, h)) else 0), 1
            w = lw if lw is not None else rw
            mk = (1 << (w or 32)) - 1
            fn = _ARITH[op]
            return (lambda v, h: fn(lf(v, h), rf(v, h)) & mk), w
        if isinstance(e, ast.Ternary):
            cf, _cw = self.compile(e.cond)
            tf, tw = self.compile(e.then)
            of, ow = self.compile(e.other)
            return (lambda v, h: tf(v, h) if cf(v, h) else of(v, h)), \
                (tw if tw is not None else ow)
        if isinstance(e, ast.Concat):
            parts = []
            for p in e.parts:
                fn, pw = self.compile(p)
                parts.append((fn, pw, (1 << _part_width(pw)) - 1))

            def cat(v, h):
                out = 0
                for fn, pw, mk in parts:
                    out = (out << pw) | (fn(v, h) & mk)
                return out

            return cat, sum(pw for _fn, pw, _mk in parts)
        raise TypeError(f"cannot compile expression {e!r}")
