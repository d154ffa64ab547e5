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
            # the operand is emitted for its width, range and own taps only;
            # the history holds its values
            _text, w, _d, bound, _t = self.emit(e.expr)
            ti = self.tap(e.expr, e.depth)
            return f"h[{ti}][{int(e.depth) - 1}]", w, 0, bound, False
        if isinstance(e, (S.Rose, S.Fell, S.Stable)):
            return self.bit(e)
        return super().emit(e)

    def test(self, e):
        if isinstance(e, S.Stable):
            inner, _w, d, _b, _t = self.emit(e.expr)
            return self.node(f"({inner} == h[{self.tap(e.expr, 1)}][0])",
                             1, d + 1, 1, True)
        if isinstance(e, (S.Rose, S.Fell)):
            inner, _w, d, _b, _t = self.test(e.expr)
            past = f"h[{self.tap(e.expr, 1)}][0]"
            if isinstance(e, S.Rose):
                return self.node(f"({inner} and not {past})", 1, d + 1, 1, True)
            return self.node(f"(not {inner} and {past})", 1, d + 1, 1, True)
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


@dataclass(frozen=True)
class StepEvents:
    """What one cycle's step saw; frozen, because transition table entries
    share it."""
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


def shape(bp: S.BoundProperty) -> tuple:
    """What a property's monitor is built from: all of it but its id, line
    and clock."""
    return (bp.kind, bp.impl, bp.antecedent, bp.consequent, bp.disable_net)


def monitor_for(net: NetModel, bp: S.BoundProperty) -> Monitor:
    """The monitor of `bp` on `net`, built once per net and property shape:
    properties that differ only in id and line share one, with its
    transition table. A property that does not bind leaves nothing cached."""
    key = shape(bp)
    mon = net.engine.get(key)
    if mon is None:
        mon = net.engine[key] = Monitor(bp, net)
    return mon


class Monitor:
    """One property shape's monitor on one net.

    A step evaluates every step condition and the disable condition once
    and packs their truth into an int: bit i is antecedent step i, then
    come the consequent steps, then the disable condition. The NFA move
    for (truths, antecedent states, obligations) is computed once, by
    `_transition`, and kept in `table`. Compiled expressions are pure and
    total, so evaluating every condition gives the values a lazy
    evaluation would.
    """

    def __init__(self, bp: S.BoundProperty, net: NetModel):
        comp = _SampledCompiler(net.widths, net.slots)

        def source(e) -> str:
            """The source of a function of (x, h) that tests `e`."""
            _require_bound(e, net, bp.prop_id)
            return comp.function("x, h", comp.condition(net.inline(e)))

        self.kind = bp.kind
        self.impl = bp.impl
        ante = [] if bp.antecedent is None else bp.antecedent.steps
        cons = bp.consequent.steps
        exprs = [st.expr for st in [*ante, *cons]]
        if bp.disable_net is not None:
            exprs.append(bp.disable_net)
        src = [source(e) for e in exprs]
        hist, self.tap_depths = comp.finish_taps()
        src.append(comp.function("x, h", hist))
        # one compile for every function not already on the net
        *conditions, self.advance = net.load(src)
        self.conditions = [(1 << i, fn) for i, fn in enumerate(conditions)]
        self.ante_steps = [(st.delay_lo, st.delay_hi) for st in ante]
        self.cons_steps = [(st.delay_lo, st.delay_hi) for st in cons]
        self.disable_bit = 1 << (len(exprs) - 1) if bp.disable_net is not None else 0
        self.table: dict = {}  # (truths, ante, obls) -> (ante, obls, events)

    def initial(self):
        hist = tuple(tuple(0 for _ in range(depth)) for depth in self.tap_depths)
        return (hist, frozenset(), frozenset())

    # -- one clock cycle ------------------------------------------------------

    def step(self, mstate, x: Slots) -> tuple[object, StepEvents]:
        hist, ante, obls = mstate
        truths = 0
        for bit, fn in self.conditions:
            if fn(x, hist):
                truths |= bit
        key = (truths, ante, obls)
        move = self.table.get(key)
        if move is None:
            move = self.table[key] = self._transition(truths, ante, obls)
        new_ante, new_obls, ev = move
        return (self.advance(x, hist), new_ante, new_obls), ev

    def _transition(self, truths: int, ante: frozenset, obls: frozenset
                    ) -> tuple[frozenset, frozenset, StepEvents]:
        """The NFA move of one cycle whose conditions have the truth bits
        `truths`: the next antecedent states and obligations, and events."""
        if truths & self.disable_bit:
            return frozenset(), frozenset(), StepEvents()
        n_ante = len(self.ante_steps)
        violated = ante_matched = completed = False
        steps_cons = self.cons_steps

        def cons_true(i: int) -> bool:
            return truths >> (n_ante + i) & 1 == 1

        spawned: set[frozenset] = set()
        if self.impl is S.ImplKind.NONE:
            # sequence property / cover: an attempt starts every cycle
            spawned.add(frozenset({(0, 0)}))
            new_ante = frozenset()
        else:
            steps_ante = self.ante_steps

            def ante_true(i: int) -> bool:
                return truths >> i & 1 == 1

            closed, matched = _closure(set(ante) | {(0, 0)}, steps_ante, ante_true)
            if matched:
                ante_matched = True
                if self.impl is S.ImplKind.OVERLAP:
                    spawned.add(frozenset({(0, 0)}))
                else:
                    spawned.add(frozenset({(0, _INCOMING)}))
            new_ante = frozenset(_advance(closed, steps_ante))

        surviving: set[frozenset] = set()
        for obl in set(obls) | spawned:
            incycle = {st for st in obl if st[1] != _INCOMING}
            incoming = {st for st in obl if st[1] == _INCOMING}
            closed, done = _closure(incycle, steps_cons, cons_true)
            if done:
                completed = True
                continue  # obligation satisfied
            nxt = _advance(closed, steps_cons) | {(i, 0) for i, _c in incoming}
            if not nxt:
                if self.kind != "cover":
                    violated = True
                continue  # a failed cover attempt just lapses
            surviving.add(frozenset(nxt))
        return new_ante, frozenset(surviving), StepEvents(violated, ante_matched, completed)


def _closure(states: set, steps, truth) -> tuple[set, bool]:
    """In-cycle advancement (##0 chaining). Returns (closure, completed)."""
    completed = False
    work = sorted(states)
    closed = set(states)
    while work:
        i, c = work.pop()
        if c == _INCOMING:
            continue
        dlo, dhi = steps[i]
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
