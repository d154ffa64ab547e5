"""Explicit-state property checking over the (state x monitor) product.

Breadth-first from the reset state with inputs enumerated name-sorted,
values ascending, so the first counterexample found is the shortest and,
among equals, the lexicographically least input sequence. "Proven" means
the reachable product closed within budget; otherwise the verdict is
"bounded" with the deepest completed cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from verikg.ir.types import FormalResult, ResultStatus
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S
from verikg.engine.monitor import Monitor, monitor_for


class EngineError(Exception):
    pass


@dataclass
class CheckConfig:
    max_states: int = 1 << 20
    max_depth: int = 64
    input_assumptions: list[S.BoundProperty] = field(default_factory=list)

    def validate(self) -> None:
        if self.max_states <= 0 or self.max_depth <= 0:
            raise EngineError("budgets must be positive")


@dataclass
class CexTrace:
    prop_id: str
    cycles: list[tuple[dict[str, int], dict[str, int]]]  # (inputs, state) per cycle
    failure_cycle: int
    violated_at_line: int

    def replay_states(self, net: NetModel) -> list[tuple[int, ...]]:
        """Re-simulate the recorded inputs; used by the replay invariant."""
        state = net.init_state()
        out = [state]
        order = [n for n, _ in net.inputs]
        for inputs, _recorded in self.cycles[:-1]:
            state = net.step(state, tuple(inputs[n] for n in order))
            out.append(state)
        return out


# The most input bits a net may have: its 2**bits input vectors are built
# before the search starts. A net with more gets a `bounded` result (note
# "max_input_bits") instead of running out of memory. A constant, not a
# budget in `CheckConfig`, so no run's recorded configuration changes.
MAX_INPUT_BITS = 16


class _InputSpace:
    """Input vectors in exploration order (names sorted, values ascending),
    each paired with the same values in the net's input order."""

    def __init__(self, net: NetModel):
        self.sorted_names = sorted(n for n, _ in net.inputs)
        widths = dict(net.inputs)
        order = [self.sorted_names.index(n) for n, _ in net.inputs]
        self.vectors = [
            (vec, tuple(vec[i] for i in order))
            for vec in itertools.product(
                *[range(1 << widths[n]) for n in self.sorted_names])
        ]

    def as_dict(self, vec: tuple) -> dict[str, int]:
        return dict(zip(self.sorted_names, vec))


def _input_space(net: NetModel) -> _InputSpace | None:
    """The net's input space, built once per net; None when the net has
    more than MAX_INPUT_BITS input bits."""
    try:
        return net.engine["inputs"]
    except KeyError:
        space = net.engine["inputs"] = (
            None if sum(w for _n, w in net.inputs) > MAX_INPUT_BITS else _InputSpace(net))
        return space


@dataclass
class _Exploration:
    status: ResultStatus
    proof_depth: int | None
    explored: int
    ante_matched: bool
    trace: CexTrace | None  # where the search stopped (violation or completion)
    budget: str | None = None  # on bounded: "max_depth", "max_states" or "max_input_bits"


def _explore(net: NetModel, target: Monitor | None, assumptions: list[Monitor],
             cfg: CheckConfig, prop_id: str, line: int,
             stop_on: str, guard_hook=None) -> _Exploration:
    """Shared BFS. stop_on: 'violation' (assert/assume) or 'completion'
    (cover). guard_hook(x) is called for every admitted valuation, with the
    slot tuple `state + inputs` the monitors read, until it returns True:
    nothing is left for it to see. A successor that takes the product past
    `cfg.max_states` stops the search bounded at the last completed cycle."""
    space = _input_space(net)
    if space is None:
        return _Exploration(ResultStatus.BOUNDED, None, 0, False, None,
                            "max_input_bits")
    vectors = space.vectors
    step = net.step
    max_states = cfg.max_states
    stop_on_violation = stop_on == "violation"
    found = ResultStatus.CEX if stop_on_violation else ResultStatus.PROVEN
    n_target = 1 if target is not None else 0
    n_assumptions = len(assumptions)
    init_monitors = tuple(m.initial() for m in ([target] if target else []) + assumptions)
    init_node = (net.init_state(), init_monitors)

    parents: dict = {init_node: None}  # also the visited set
    frontier = [init_node]
    depth = 0
    ante_matched = False
    deepest = 0
    kept = ()  # the successor's assumption states

    def reconstruct(node, vec, cycle) -> CexTrace:
        chain = []
        cur = node
        while parents[cur] is not None:
            parent, pvec = parents[cur]
            chain.append((parent, pvec))
            cur = parent
        chain.reverse()
        cycles = [(space.as_dict(pv), net.values(pn[0], ())) for pn, pv in chain]
        cycles.append((space.as_dict(vec), net.values(node[0], ())))
        return CexTrace(prop_id, cycles, cycle, line)

    while frontier:
        if depth >= cfg.max_depth:
            return _Exploration(ResultStatus.BOUNDED, depth - 1, len(parents),
                                ante_matched, None, "max_depth")
        next_frontier = []
        for node in frontier:
            design_state, monitor_states = node
            assume_states = monitor_states[n_target:]
            for vec, net_vec in vectors:
                x = design_state + net_vec
                if assumptions:
                    kept = []
                    for mon, mstate in zip(assumptions, assume_states):
                        mstate, ev = mon.step(mstate, x)
                        if ev.violated:
                            break
                        kept.append(mstate)
                    if len(kept) < n_assumptions:
                        continue  # pruned before the target sees it
                    kept = tuple(kept)
                if guard_hook is not None and guard_hook(x):
                    guard_hook = None
                monitors = kept
                if target is not None:
                    tstate, ev = target.step(monitor_states[0], x)
                    if ev.ante_matched:
                        ante_matched = True
                    if (ev.violated if stop_on_violation else ev.completed):
                        return _Exploration(
                            found, depth, len(parents),
                            ante_matched or not stop_on_violation,
                            reconstruct(node, vec, depth))
                    monitors = (tstate, *kept)
                succ = (step(design_state, net_vec), monitors)
                if succ not in parents:
                    parents[succ] = (node, vec)
                    if len(parents) > max_states:
                        return _Exploration(ResultStatus.BOUNDED, deepest,
                                            len(parents), ante_matched, None,
                                            "max_states")
                    next_frontier.append(succ)
        deepest = depth
        depth += 1
        frontier = next_frontier
    return _Exploration(ResultStatus.PROVEN, deepest, len(parents),
                        ante_matched, None)


def _bound_assumption_monitors(net: NetModel, cfg: CheckConfig) -> list[Monitor]:
    for a in cfg.input_assumptions:
        if a.kind != "assumption":
            raise EngineError(f"{a.prop_id}: input_assumptions must be kind=assumption")
    return [monitor_for(net, a) for a in cfg.input_assumptions]


def check(net: NetModel, bp: S.BoundProperty, cfg: CheckConfig | None = None
          ) -> tuple[FormalResult, CexTrace | None]:
    """Check one property of any kind; the kind picks the stop condition.

    An assertion (or an assumption treated as an obligation) stops at its
    first violation: cex with the minimal, lexicographically least trace;
    proven when the reachable product closed; vacuous when proven and the
    top-level implication's antecedent never matched.

    A cover stops at its first completion: proven with that witness trace;
    vacuous when the fully explored reachable product contains no witness
    (an unsatisfiable cover).

    Either kind is bounded when a budget ran out first; the result's note
    names it ("max_depth" or "max_states"), or "max_input_bits" when the
    net has more than `MAX_INPUT_BITS` input bits and nothing was explored.
    runtime_ms is the deterministic explored-state count.
    """
    cfg = cfg or CheckConfig()
    cfg.validate()
    monitors = _bound_assumption_monitors(net, cfg)
    target = monitor_for(net, bp)
    cover = bp.kind == "cover"
    ex = _explore(net, target, monitors, cfg, bp.prop_id, bp.line,
                  "completion" if cover else "violation")
    status = ex.status
    if status is ResultStatus.PROVEN and ex.trace is None and (
            cover or (bp.impl is not S.ImplKind.NONE and not ex.ante_matched)):
        status = ResultStatus.VACUOUS
    result = FormalResult(
        result_id="",
        prop_id=bp.prop_id,
        status=status,
        proof_depth=ex.proof_depth if ex.trace is None else ex.trace.failure_cycle,
        runtime_ms=ex.explored,
        note=ex.budget,
    )
    return result, ex.trace


# Alias of `check`, for callers that look cover checks up by this name.
check_cover = check


def check_many(net: NetModel, props: list[S.BoundProperty],
               cfg: CheckConfig | None = None
               ) -> list[tuple[FormalResult, CexTrace | None]]:
    """Check a batch; results merged in prop_id order regardless of any
    execution interleaving, so output is schedule-independent."""
    return [check(net, bp, cfg) for bp in sorted(props, key=lambda p: p.prop_id)
            if bp.kind != "assumption"]
