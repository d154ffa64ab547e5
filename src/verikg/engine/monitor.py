"""Bounded-sequence property monitors.

A property compiles, through the shared RTL expression compiler, to
step-expression closures plus NFA-style progress tracking: antecedent match
attempts start every cycle, each completed match spawns a consequent
obligation, and an obligation whose possibility set empties is a violation.
$past and the edge functions become shift-register taps carried in the
monitor state, so the whole monitor state is a hashable value suitable for
product-state exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

from verikg.rtl import ast as rtl
from verikg.rtl.compile import Compiler
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S

Values = dict  # name -> int for the current cycle
History = tuple  # per-tap tuple of past values, most recent first


def _truthy(v: int) -> bool:
    return v != 0


class _SampledCompiler(Compiler):
    """The shared RTL compiler plus the sampled-value functions, which read
    shift-register taps from the monitor history."""

    def __init__(self, widths: dict[str, int]):
        super().__init__(widths)
        self.taps: list[tuple[object, int]] = []  # (expr, max depth)

    def tap(self, expr, depth: int) -> int:
        for i, (e, d) in enumerate(self.taps):
            if e == expr:
                if depth > d:
                    self.taps[i] = (e, depth)
                return i
        self.taps.append((expr, depth))
        return len(self.taps) - 1

    def compile(self, e):
        if isinstance(e, S.Past):
            _inner, w = self.compile(e.expr)
            ti = self.tap(e.expr, e.depth)
            n = e.depth
            return (lambda v, h: h[ti][n - 1]), w
        if isinstance(e, S.Rose):
            inner, _w = self.compile(e.expr)
            ti = self.tap(e.expr, 1)
            return (lambda v, h: int(_truthy(inner(v, h)) and not _truthy(h[ti][0]))), 1
        if isinstance(e, S.Fell):
            inner, _w = self.compile(e.expr)
            ti = self.tap(e.expr, 1)
            return (lambda v, h: int(not _truthy(inner(v, h)) and _truthy(h[ti][0]))), 1
        if isinstance(e, S.Stable):
            inner, _w = self.compile(e.expr)
            ti = self.tap(e.expr, 1)
            return (lambda v, h: int(inner(v, h) == h[ti][0])), 1
        return super().compile(e)

    def finish_taps(self):
        # Compiling a tap may register further taps (nested $past), and a
        # later compile may deepen an existing tap, so resolve depths last.
        fns = []
        i = 0
        while i < len(self.taps):
            fn, _w = self.compile(self.taps[i][0])
            fns.append(fn)
            i += 1
        return [(fn, self.taps[j][1]) for j, fn in enumerate(fns)]


@dataclass
class StepEvents:
    violated: bool = False
    ante_matched: bool = False
    completed: bool = False  # any consequent/cover sequence completion


# NFA state: (step index, cycles elapsed since previous step matched).
# elapsed == -1 marks an obligation entering on the next cycle (|=>).
_INCOMING = -1


def _inline_sva(e, net: NetModel):
    """Substitute combinational definitions, recursing through the
    sampled-value wrappers the plain RTL inliner does not know."""
    if isinstance(e, S.Past):
        return S.Past(_inline_sva(e.expr, net), e.depth)
    if isinstance(e, S.Rose):
        return S.Rose(_inline_sva(e.expr, net))
    if isinstance(e, S.Fell):
        return S.Fell(_inline_sva(e.expr, net))
    if isinstance(e, S.Stable):
        return S.Stable(_inline_sva(e.expr, net))
    if isinstance(e, rtl.Unary):
        return rtl.Unary(e.op, _inline_sva(e.operand, net))
    if isinstance(e, rtl.Binary):
        return rtl.Binary(e.op, _inline_sva(e.left, net), _inline_sva(e.right, net))
    if isinstance(e, rtl.Ternary):
        return rtl.Ternary(_inline_sva(e.cond, net), _inline_sva(e.then, net),
                           _inline_sva(e.other, net))
    if isinstance(e, rtl.Concat):
        return rtl.Concat(tuple(_inline_sva(p, net) for p in e.parts))
    return net.inline(e)


class UnboundIdentifierError(Exception):
    pass


def _require_bound(e, net: NetModel, prop_id: str) -> None:
    for name in S.sva_expr_ids(e):
        if name not in net.widths:
            raise UnboundIdentifierError(
                f"{prop_id}: unbound identifier {name!r} (bind contract violation)")


class Monitor:
    def __init__(self, bp: S.BoundProperty, net: NetModel):
        comp = _SampledCompiler(net.widths)

        def inline(e):
            _require_bound(e, net, bp.prop_id)
            return _inline_sva(e, net)

        self.kind = bp.kind
        self.impl = bp.impl
        self.prop_id = bp.prop_id
        self.line = bp.line
        self.ante_steps = []
        if bp.antecedent is not None:
            for st in bp.antecedent.steps:
                fn, _w = comp.compile(inline(st.expr))
                self.ante_steps.append((st.delay_lo, st.delay_hi, fn))
        self.cons_steps = []
        for st in bp.consequent.steps:
            fn, _w = comp.compile(inline(st.expr))
            self.cons_steps.append((st.delay_lo, st.delay_hi, fn))
        self.disable_fn = None
        if bp.disable_net is not None:
            self.disable_fn, _w = comp.compile(inline(bp.disable_net))
        self.tap_fns = comp.finish_taps()

    def initial(self):
        hist = tuple(tuple(0 for _ in range(depth)) for _fn, depth in self.tap_fns)
        return (hist, frozenset(), frozenset())

    # -- one clock cycle ------------------------------------------------------

    def step(self, mstate, values: Values) -> tuple[object, StepEvents]:
        hist, ante, obls = mstate
        ev = StepEvents()

        disabled = self.disable_fn is not None and _truthy(self.disable_fn(values, hist))
        if disabled:
            new_ante: frozenset = frozenset()
            new_obls: frozenset = frozenset()
        else:
            steps_cons = self.cons_steps
            cons_truth = [None] * len(steps_cons)

            def cons_true(i: int) -> bool:
                if cons_truth[i] is None:
                    cons_truth[i] = _truthy(steps_cons[i][2](values, hist))
                return cons_truth[i]

            spawned: set[frozenset] = set()
            if self.impl is S.ImplKind.NONE:
                # sequence property / cover: an attempt starts every cycle
                spawned.add(frozenset({(0, 0)}))
                new_ante = frozenset()
            else:
                steps_ante = self.ante_steps
                ante_truth = [None] * len(steps_ante)

                def ante_true(i: int) -> bool:
                    if ante_truth[i] is None:
                        ante_truth[i] = _truthy(steps_ante[i][2](values, hist))
                    return ante_truth[i]

                closed, matched = _closure(set(ante) | {(0, 0)}, steps_ante, ante_true)
                if matched:
                    ev.ante_matched = True
                    if self.impl is S.ImplKind.OVERLAP:
                        spawned.add(frozenset({(0, 0)}))
                    else:
                        spawned.add(frozenset({(0, _INCOMING)}))
                new_ante = frozenset(_advance(closed, steps_ante))

            surviving: set[frozenset] = set()
            for obl in set(obls) | spawned:
                incycle = {st for st in obl if st[1] != _INCOMING}
                incoming = {st for st in obl if st[1] == _INCOMING}
                closed, completed = _closure(incycle, steps_cons, cons_true)
                if completed:
                    ev.completed = True
                    continue  # obligation satisfied
                nxt = _advance(closed, steps_cons) | {(i, 0) for i, _c in incoming}
                if not nxt:
                    if self.kind != "cover":
                        ev.violated = True
                    continue  # a failed cover attempt just lapses
                surviving.add(frozenset(nxt))
            new_obls = frozenset(surviving)

        new_hist = tuple(
            (fn(values, hist),) + hist[i][:depth - 1] if depth > 1
            else (fn(values, hist),)
            for i, (fn, depth) in enumerate(self.tap_fns)
        )
        return (new_hist, new_ante, new_obls), ev


def _closure(states: set, steps, truth) -> tuple[set, bool]:
    """In-cycle advancement (##0 chaining). Returns (closure, completed)."""
    completed = False
    work = sorted(states)
    closed = set(states)
    while work:
        i, c = work.pop()
        if c == _INCOMING:
            continue
        dlo, dhi, _fn = steps[i]
        if dlo <= c <= dhi and truth(i):
            if i + 1 == len(steps):
                completed = True
            else:
                ns = (i + 1, 0)
                if ns not in closed:
                    closed.add(ns)
                    work.append(ns)
    return closed, completed


def _advance(states: set, steps) -> set:
    """End-of-cycle delay advance; states past their window are pruned."""
    out = set()
    for i, c in states:
        if c == _INCOMING:
            out.add((i, 0))
        elif c + 1 <= steps[i][1]:
            out.add((i, c + 1))
    return out
