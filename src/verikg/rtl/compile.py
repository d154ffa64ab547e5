"""Expression widths and the one compiler for RTL expressions.

`width_of` is the strict width rule the elaborator and the binder check
expressions against, sampled-value functions included. `Compiler` turns
an expression into Python source text, with every width resolved at
compile time. A name reads its position in a slot tuple: `x[i]`, where
`x` is a state tuple followed by an input tuple, or a local the caller
unpacked it into. A property monitor also reads `h`, the sampled-value
history it carries (plain RTL never reads it). An unsized literal adapts
to the sized operand beside it.

The compiler keeps, with each value it emits, a bound on its range. A
value lies in [0, 2**width) of its expression unless an unsized operand
is wider than its context, and a mask appears only where an operator can
leave that range: `+`, `-`, unary `-`, a select that stops below its
operand's top bit, and an operand not known to fit. A compound
sub-expression reached more than once within one generated function is
computed once, into a local. Where only the truth of a 1-bit expression is
read, it compiles to `and`, `or` and `not`.

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


def width_of(e: ast.Expr, widths: dict[str, int], memo: dict | None = None) -> int | None:
    """Computed width; None for an unsized literal, or a `?:` choosing
    between two, that adapts to context. Each node object is checked once:
    `memo` (id -> (node, width)) keeps the widths, and calls over one
    `widths` may pass one memo to share them across roots."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, ast.Lit):
        w = e.width
    elif isinstance(e, ast.Id):
        if e.name not in widths:
            raise WidthError(f"undeclared name {e.name!r}")
        w = widths[e.name]
    elif isinstance(e, ast.Select):
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
        w = hi - lo + 1
    elif isinstance(e, ast.SliceX):
        w = e.msb - e.lsb + 1
    elif isinstance(e, ast.Unary):
        w = width_of(e.operand, widths, memo)
        if e.op == "!":
            w = 1
        elif w is None:
            raise WidthError(f"operator {e.op!r} needs a sized operand")
    elif isinstance(e, ast.Binary):
        lw = width_of(e.left, widths, memo)
        rw = width_of(e.right, widths, memo)
        if e.op in ast.LOGICAL_OPS:
            w = 1
        elif e.op in ast.COMPARISON_OPS:
            if lw is not None and rw is not None and lw != rw:
                raise WidthError(
                    f"width mismatch in {e.op!r} comparison: {lw} vs {rw}")
            w = 1
        else:  # bitwise / arithmetic
            if lw is not None and rw is not None and lw != rw:
                raise WidthError(f"width mismatch in {e.op!r}: {lw} vs {rw}")
            w = lw if lw is not None else rw
            if w is None:
                raise WidthError(f"operator {e.op!r} over two unsized literals")
    elif isinstance(e, ast.Ternary):
        width_of(e.cond, widths, memo)
        tw = width_of(e.then, widths, memo)
        ow = width_of(e.other, widths, memo)
        if tw is not None and ow is not None and tw != ow:
            raise WidthError(f"width mismatch in ?: arms: {tw} vs {ow}")
        # two unsized arms (`c ? A : B` over parameters) adapt to context
        w = tw if tw is not None else ow
    elif isinstance(e, ast.Concat):
        w = sum(_part_width(width_of(p, widths, memo)) for p in e.parts)
    elif isinstance(e, ast.Sampled):
        w = width_of(e.expr, widths, memo)
        if not e.keeps_width:
            w = 1
    else:
        raise WidthError(f"unexpected expression node {e!r}")
    memo[id(e)] = e, w
    return w


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

_LOGIC = {"&&": "and", "||": "or", "&": "and", "|": "or"}


def _int(value) -> str:
    """An integer's source text; anything else raises."""
    value = int(value)
    return f"({value})" if value < 0 else str(value)


def _fits(bound: int | None, width: int) -> bool:
    """Whether a value below 2**bound (None: no known bound, maybe
    negative) lies in [0, 2**width)."""
    return bound is not None and bound <= width


class Compiler:
    """Compiles expressions over the names in `widths` to source text.

    `slots` gives each readable name its position in the slot tuple, and
    `read` formats a position as the text that reads it. Subclasses extend
    `emit` and `test` with further node types; the recursion goes through
    them, so such nodes may sit under any RTL operator.

    Each compiled node is a tuple (text, width, depth, bound, truth):
    `width` is None for an unsized value, `depth` is the text's nesting,
    and the value lies in [0, 2**bound), or bound is None when nothing is
    known (an unsized negative literal). `truth` says the text is a truth
    form (`and`, `or`, `not`, comparisons) of a 1-bit value, not the value
    itself; only `test` returns one. Wire inlining puts a driver's node at
    every read, so nodes are shared by identity.
    """

    def __init__(self, widths: dict[str, int], slots: dict[str, int],
                 read: str = "x[{}]"):
        self.widths = widths
        self.slots = slots
        self.read = read
        self._lines: list[str] = []  # hoisted locals of the next function
        self._hoisted: dict[str, str] = {}  # their text -> local name
        # The compound nodes reached from the next function's expressions,
        # by identity (held, so no id is reused), and those reached more
        # than once, with their compiled local once made (None before).
        self._seen: dict[int, ast.Node] = {}
        self._shared: dict[int, tuple | None] = {}

    def share(self, roots) -> None:
        """Count the compound nodes reached from `roots`, expressions the
        next function compiles; `compile` and `condition` count an
        expression not counted before themselves. Iterative, and by
        identity: hashing a frozen node would recurse once per level."""
        seen, shared = self._seen, self._shared
        stack = list(roots)
        while stack:
            n = stack.pop()
            kids = n.children()
            if kids:
                key = id(n)
                if key in seen:
                    shared.setdefault(key, None)
                else:
                    seen[key] = n
                    stack += kids

    def compile(self, e, width: int | None = None) -> str:
        """Source text of the value of `e`, an int; with `width`, cut to
        that width where it can leave it. Sub-expressions it hoists go
        into the next `function`."""
        if id(e) not in self._seen:
            self.share((e,))
        text, _w, _d, bound, _t = self.emit(e)
        if width is not None and not _fits(bound, width):
            return f"({text} & {_int((1 << width) - 1)})"
        return text

    def condition(self, e) -> str:
        """Source text whose truth value is whether `e` is non-zero."""
        if id(e) not in self._seen:
            self.share((e,))
        return self.test(e)[0]

    def function(self, params: str, result: str, prologue: tuple[str, ...] = ()) -> str:
        """Source of a function, from its parameter list on, that runs
        `prologue`, computes the locals hoisted since the last call, and
        returns `result`. `define` compiles it."""
        body = [*prologue, *self._lines, f"return {result}"]
        self._lines, self._hoisted, self._seen, self._shared = [], {}, {}, {}
        return f"({params}):\n" + "".join(f"    {line}\n" for line in body)

    def node(self, text: str, width: int | None, depth: int,
             bound: int | None, truth: bool = False):
        """A compound node, hoisted into a local when too deep."""
        if depth < MAX_NESTING:
            return text, width, depth, bound, truth
        return self._local(text), width, 0, bound, truth

    def _local(self, text: str) -> str:
        local = self._hoisted.get(text)
        if local is None:
            local = self._hoisted[text] = f"t{len(self._hoisted)}"
            self._lines.append(f"{local} = {text}")
        return local

    def _share(self, e):
        """The local of a node reached more than once, compiled by `test`
        the first time: a truth form where it has one, else its value."""
        key = id(e)
        done = self._shared[key]
        if done is None:
            del self._shared[key]  # so that `test` compiles the node itself
            text, width, depth, bound, truth = self.test(e)
            done = self._shared[key] = (
                self._local(text) if depth else text, width, 0, bound, truth)
        return done

    def _value(self, c):
        """A compiled node in value form: a truth form becomes 1 or 0."""
        if c[4]:
            return self.node(f"(1 if {c[0]} else 0)", 1, c[2] + 1, 1)
        return c

    def test(self, e):
        """Like `emit`, where only whether `e` is non-zero is read: the
        text's truth value is that. A 1-bit `!`, `&&`, `||`, comparison,
        and `&`, `|` or `~` over values that fit one bit, compile to a
        truth form."""
        if self._shared and id(e) in self._shared:
            return self._share(e)
        if isinstance(e, ast.Unary):
            if e.op == "!":
                inner, _w, d, _b, _t = self.test(e.operand)
                return self.node(f"(not {inner})", 1, d + 1, 1, True)
            if e.op == "~":
                c = self.test(e.operand)
                if c[1] == 1 and _fits(c[3], 1):
                    return self.node(f"(not {c[0]})", 1, c[2] + 1, 1, True)
                return self._invert(self._value(c))
        elif isinstance(e, ast.Binary):
            op = e.op
            if op in ast.COMPARISON_OPS:
                lt, _lw, ld, _lb, _lt = self.emit(e.left)
                rt, _rw, rd, _rb, _rt = self.emit(e.right)
                return self.node(f"({lt} {op} {rt})", 1, max(ld, rd) + 1, 1, True)
            if op in ast.LOGICAL_OPS:
                left = e.left
                if (isinstance(left, ast.Binary) and left.op == op
                        and id(left) not in self._shared):
                    return self._chain(e)
                lt, _lw, ld, _lb, _lt = self.test(left)
                rt, _rw, rd, _rb, _rt = self.test(e.right)
                return self.node(f"({lt} {_LOGIC[op]} {rt})", 1, max(ld, rd) + 1, 1, True)
            if op == "&" or op == "|":
                left = self.test(e.left)
                right = self.test(e.right)
                if ((left[1] or right[1]) == 1
                        and _fits(left[3], 1) and _fits(right[3], 1)):
                    return self.node(f"({left[0]} {_LOGIC[op]} {right[0]})", 1,
                                     max(left[2], right[2]) + 1, 1, True)
                return self._binary(e, self._value(left), self._value(right))
        return self.emit(e)

    def _chain(self, e):
        """A left-nested chain of one of `&&` and `||` as one flat `and` or
        `or`, its terms compiled in a loop."""
        op = e.op
        terms = [e.right]
        left = e.left
        while (isinstance(left, ast.Binary) and left.op == op
               and id(left) not in self._shared):
            terms.append(left.right)
            left = left.left
        terms.append(left)
        parts = [self.test(t) for t in reversed(terms)]
        return self.node("(" + f" {_LOGIC[op]} ".join([p[0] for p in parts]) + ")",
                         1, max([p[2] for p in parts]) + 1, 1, True)

    def bit(self, e):
        """`emit` for a 1-bit node that `test` compiles: 1 or 0."""
        return self._value(self.test(e))

    def emit(self, e):
        """The compiled node of `e` in value form: an int."""
        if self._shared and id(e) in self._shared:
            return self._value(self._share(e))
        if isinstance(e, ast.Lit):
            value = int(e.value)
            return (_int(value), e.width, 0,
                    value.bit_length() if value >= 0 else None, False)
        if isinstance(e, ast.Id):
            w = self.widths[e.name]
            return self.read.format(self.slots[e.name]), w, 0, w, False
        if isinstance(e, ast.Select):
            w = self.widths[e.name]
            base = (self.read.format(self.slots[e.name]), w, 0, w, False)
            return self._slice(base, eval_const(e.msb, {}), eval_const(e.lsb, {}))
        if isinstance(e, ast.SliceX):
            return self._slice(self.emit(e.base), e.msb, e.lsb)
        if (isinstance(e, ast.Unary) and e.op == "!" or isinstance(e, ast.Binary)
                and (e.op in ast.LOGICAL_OPS or e.op in ast.COMPARISON_OPS)):
            return self._value(self.test(e))
        if isinstance(e, ast.Unary):
            inner = self.emit(e.operand)
            if e.op == "~":
                return self._invert(inner)
            if e.op == "-":
                text, w, d, _b, _t = inner
                mw = w or 32
                return self.node(f"(-{text} & {_int((1 << mw) - 1)})", w, d + 1, mw)
        if isinstance(e, ast.Binary):
            return self._binary(e, self.emit(e.left), self.emit(e.right))
        if isinstance(e, ast.Ternary):
            ct, _cw, cd, _cb, _c = self.test(e.cond)
            tt, tw, td, tb, _t = self.emit(e.then)
            ot, ow, od, ob, _o = self.emit(e.other)
            return self.node(f"({tt} if {ct} else {ot})",
                             tw if tw is not None else ow, max(cd, td, od) + 1,
                             None if tb is None or ob is None else max(tb, ob))
        if isinstance(e, ast.Concat):
            # a left fold, so that hoisting bounds a long concatenation too
            out = None
            for p in e.parts:
                part, pw, pd, pb, _p = self.emit(p)
                pw = _part_width(pw)
                if not _fits(pb, pw):
                    part, pd = f"({part} & {_int((1 << pw) - 1)})", pd + 1
                if out is None:
                    out = self.node(part, pw, pd, pw)
                else:
                    text, total, d, _b, _t = out
                    out = self.node(f"({text} << {_int(pw)} | {part})",
                                    total + pw, max(d, pd) + 1, total + pw)
            return out
        raise TypeError(f"cannot compile expression {e!r}")

    def _binary(self, e, left, right):
        """A bitwise or arithmetic node over compiled operands. A literal
        operand wider than the result is cut at compile time (the mask
        commutes with `&`, `|` and `^`); the result is masked only where
        it can leave its width."""
        lt, lw, ld, lb, _l = left
        rt, rw, rd, rb, _r = right
        w = lw if lw is not None else rw
        mw = w or 32  # two unsized operands (`width_of` rejects them)
        mk = (1 << mw) - 1
        op = e.op
        depth = max(ld, rd) + 1
        if op in ast.BITWISE_OPS:
            if isinstance(e.left, ast.Lit) and not _fits(lb, mw):
                lt, lb = _int(int(e.left.value) & mk), mw
            if isinstance(e.right, ast.Lit) and not _fits(rb, mw):
                rt, rb = _int(int(e.right.value) & mk), mw
            if (_fits(lb, mw) or _fits(rb, mw)) if op == "&" else (
                    _fits(lb, mw) and _fits(rb, mw)):
                return self.node(f"({lt} {op} {rt})", w, depth, mw)
        elif op not in ast.ARITH_OPS:
            raise TypeError(f"cannot compile operator {op!r}")
        return self.node(f"(({lt} {op} {rt}) & {_int(mk)})", w, depth, mw)

    def _invert(self, c):
        """`~` of a compiled value: `x ^ mask` where it fits its width."""
        text, w, d, bound, _t = c
        mw = w or 32
        mk = _int((1 << mw) - 1)
        if _fits(bound, mw):
            return self.node(f"({text} ^ {mk})", w, d + 1, mw)
        return self.node(f"(~{text} & {mk})", w, d + 1, mw)

    def _slice(self, c, hi: int, lo: int):
        """Bits [hi:lo] of a compiled value, masked unless they run to its
        top."""
        text, _w, d, bound, _t = c
        width = hi - lo + 1
        shifted = f"{text} >> {_int(lo)}" if lo else text
        if _fits(bound, hi + 1):
            if not lo:
                return text, width, d, bound, False
            return self.node(f"({shifted})", width, d + 1, width)
        return self.node(f"({shifted} & {_int((1 << width) - 1)})", width, d + 1, width)


def define(functions: list[str]) -> list:
    """The functions with sources `functions` (from `Compiler.function`),
    compiled together as one code object that sees no builtins."""
    src = "".join(f"def f{k}{fn}" for k, fn in enumerate(functions))
    scope = {"__builtins__": {}}
    exec(compile(src, "<verikg>", "exec"), scope)
    return [scope[f"f{k}"] for k in range(len(functions))]
