"""The property monitor as it was before its transition table.

`ReferenceMonitor` is `engine.monitor.Monitor` kept as the reference the
table-driven monitor is compared against (`tests/test_monitor.py`): one
monitor per property, conditions evaluated lazily on each step, and the
NFA closure run on every call.

It lives outside `oracles.py` because the benchmark imports that module
for its generators: with no bytecode cache, every import compiles it, and
code added there raises the benchmark's peak RSS.
"""

from __future__ import annotations

from dataclasses import dataclass

from verikg.engine.monitor import _INCOMING, _SampledCompiler, _require_bound
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S


def _truthy(v: int) -> bool:
    return v != 0


@dataclass
class StepEvents:
    violated: bool = False
    ante_matched: bool = False
    completed: bool = False  # any consequent/cover sequence completion


class ReferenceMonitor:
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

    def step(self, mstate, x) -> tuple[object, StepEvents]:
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
