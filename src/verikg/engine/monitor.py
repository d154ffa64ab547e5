"""Bounded-sequence property monitors.

A property compiles, through the shared RTL expression compiler, to
step-expression functions plus NFA-style progress tracking: antecedent
match attempts start every cycle, each completed match spawns a consequent
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

Slots = tuple  # this cycle's state bits then inputs, in NetModel.slots order
History = tuple  # per-tap tuple of past values, most recent first


def _truthy(v: int) -> bool:
    return v != 0


class _SampledCompiler(Compiler):
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


@dataclass
class StepEvents:
    violated: bool = False
    ante_matched: bool = False
    completed: bool = False  # any consequent/cover sequence completion


# NFA state: (step index, cycles elapsed since previous step matched).
# elapsed == -1 marks an obligation entering on the next cycle (|=>).
_INCOMING = -1


class UnboundIdentifierError(Exception):
    pass


def _require_bound(e, net: NetModel, prop_id: str) -> None:
    for name in rtl.expr_ids(e):
        if name not in net.widths:
            raise UnboundIdentifierError(
                f"{prop_id}: unbound identifier {name!r} (bind contract violation)")


class Monitor:
    def __init__(self, bp: S.BoundProperty, net: NetModel):
        comp = _SampledCompiler(net.widths, net.slots)

        def source(e) -> str:
            """The source of a function of (x, h) that tests `e`."""
            _require_bound(e, net, bp.prop_id)
            return comp.function("x, h", comp.condition(net.inline(e)))

        self.kind = bp.kind
        self.impl = bp.impl
        self.prop_id = bp.prop_id
        self.line = bp.line
        ante = [] if bp.antecedent is None else bp.antecedent.steps
        cons = bp.consequent.steps
        src = [source(st.expr) for st in [*ante, *cons]]
        if bp.disable_net is not None:
            src.append(source(bp.disable_net))
        hist, self.tap_depths = comp.finish_taps()
        src.append(comp.function("x, h", hist))
        # one compile for every function not already on the net
        fns = net.load(src)
        self.ante_steps = [(st.delay_lo, st.delay_hi, fn) for st, fn in zip(ante, fns)]
        self.cons_steps = [(st.delay_lo, st.delay_hi, fn)
                           for st, fn in zip(cons, fns[len(ante):])]
        self.disable_fn = fns[-2] if bp.disable_net is not None else None
        self.advance = fns[-1]

    def initial(self):
        hist = tuple(tuple(0 for _ in range(depth)) for depth in self.tap_depths)
        return (hist, frozenset(), frozenset())

    # -- one clock cycle ------------------------------------------------------

    def step(self, mstate, x: Slots) -> tuple[object, StepEvents]:
        hist, ante, obls = mstate
        ev = StepEvents()

        disabled = self.disable_fn is not None and _truthy(self.disable_fn(x, hist))
        if disabled:
            new_ante: frozenset = frozenset()
            new_obls: frozenset = frozenset()
        else:
            steps_cons = self.cons_steps
            cons_truth = [None] * len(steps_cons)

            def cons_true(i: int) -> bool:
                if cons_truth[i] is None:
                    cons_truth[i] = _truthy(steps_cons[i][2](x, hist))
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
                        ante_truth[i] = _truthy(steps_ante[i][2](x, hist))
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

        return (self.advance(x, hist), new_ante, new_obls), ev


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
