"""The exploration kernel as it was before its rewrite as one lean loop.

`reference_explore` is `engine.check._explore` kept verbatim as the
reference the rewrite is compared against (`tests/test_exploration.py`):
a `visited` set beside `parents`, a guard hook called for every admitted
valuation, `max_states` checked only between BFS layers, and its own
input enumeration: vectors in name order, each paired with a copy in the
net's input order for `step`.

It lives outside `oracles.py` because the benchmark imports that module
for its generators: with no bytecode cache, every import compiles it, and
this copy there raised the benchmark's peak RSS by about 0.8 MB.
"""

from __future__ import annotations

import itertools

from verikg.engine.check import CexTrace, CheckConfig, _Exploration
from verikg.engine.monitor import Monitor
from verikg.ir.types import ResultStatus
from verikg.rtl.elaborate import NetModel


def reference_explore(net: NetModel, target: Monitor | None,
                      assumptions: list[Monitor], cfg: CheckConfig, prop_id: str,
                      line: int, stop_on: str, guard_hook=None) -> _Exploration:
    """Shared BFS. stop_on: 'violation' (assert/assume) or 'completion'
    (cover). guard_hook(x) is called for every admitted valuation, with the
    slot tuple `state + inputs` the monitors read."""
    # Input vectors in name order, values ascending, each paired with the
    # same values in the net's input order, which `step` reads: built here
    # rather than taken from the engine, so a change to the net's input
    # order shows as a difference from this kernel.
    names = sorted(n for n, _ in net.inputs)
    widths = dict(net.inputs)
    order = [names.index(n) for n, _ in net.inputs]
    vectors = [(vec, tuple(vec[i] for i in order))
               for vec in itertools.product(*[range(1 << widths[n]) for n in names])]

    def as_dict(vec: tuple) -> dict[str, int]:
        return dict(zip(names, vec))

    init_design = net.init_state()
    init_monitors = tuple(m.initial() for m in ([target] if target else []) + assumptions)
    init_node = (init_design, init_monitors)

    visited = {init_node}
    parents: dict = {init_node: None}
    frontier = [init_node]
    depth = 0
    ante_matched = False
    deepest = 0

    def reconstruct(node, vec, cycle) -> CexTrace:
        chain = []
        cur = node
        while parents[cur] is not None:
            parent, pvec = parents[cur]
            chain.append((parent, pvec))
            cur = parent
        chain.reverse()
        cycles = [(as_dict(pv), net.values(pn[0], ())) for pn, pv in chain]
        cycles.append((as_dict(vec), net.values(node[0], ())))
        return CexTrace(prop_id, cycles, cycle, line)

    while frontier:
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return _Exploration(ResultStatus.BOUNDED, depth - 1, len(visited),
                                ante_matched, None)
        next_frontier = []
        for node in frontier:
            design_state, monitor_states = node
            n_target = 1 if target else 0
            for vec, net_vec in vectors:
                x = design_state + net_vec
                # assumptions prune the branch before the target sees it
                new_assume = []
                pruned = False
                for mi, mon in enumerate(assumptions):
                    mstate = monitor_states[n_target + mi]
                    ns, ev = mon.step(mstate, x)
                    if ev.violated:
                        pruned = True
                        break
                    new_assume.append(ns)
                if pruned:
                    continue
                if guard_hook is not None:
                    guard_hook(x)
                new_target = ()
                if target is not None:
                    tstate, ev = target.step(monitor_states[0], x)
                    if ev.ante_matched:
                        ante_matched = True
                    if stop_on == "violation" and ev.violated:
                        return _Exploration(
                            ResultStatus.CEX, depth, len(visited), ante_matched,
                            reconstruct(node, vec, depth))
                    if stop_on == "completion" and ev.completed:
                        return _Exploration(
                            ResultStatus.PROVEN, depth, len(visited), True,
                            reconstruct(node, vec, depth))
                    new_target = (tstate,)
                succ = (net.step(design_state, net_vec),
                        new_target + tuple(new_assume))
                if succ not in visited:
                    visited.add(succ)
                    parents[succ] = (node, vec)
                    next_frontier.append(succ)
        deepest = depth
        depth += 1
        frontier = next_frontier
        # a closed product is a full proof even if the last layer nudged the
        # visited count past the budget
        if frontier and len(visited) > cfg.max_states:
            return _Exploration(ResultStatus.BOUNDED, deepest, len(visited),
                                ante_matched, None)
    return _Exploration(ResultStatus.PROVEN, deepest, len(visited),
                        ante_matched, None)
