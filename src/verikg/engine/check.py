"""Explicit-state property checking over the (state x monitor) product.

Breadth-first from the reset state with the input vectors enumerated in
the net's input order, which elaboration makes name order, values
ascending. So the first counterexample found is the shortest and, among
equals, the lexicographically least input sequence; each vector is one
tuple, stepped and recorded as it is. "Proven" means
the reachable product closed within budget; otherwise the verdict is
"bounded" with the deepest completed cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from verikg.ir.types import FormalResult, ResultStatus
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S
from verikg.engine.monitor import Monitor, monitor_for, shape


class EngineError(Exception):
    pass


@dataclass
class CheckConfig:
    max_states: int = 1 << 20
    max_depth: int | None = None  # a horizon in cycles; None searches to closure
    input_assumptions: list[S.BoundProperty] = field(default_factory=list)

    def validate(self) -> None:
        if self.max_states <= 0 or (
                self.max_depth is not None and self.max_depth <= 0):
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

# The most (node, input vector) pairs one search may try, which bounds its
# time as `max_states` bounds its memory: a search that would pass it is
# `bounded` (note "max_steps"). At about 1 us a pair, a 16-input-bit latch
# stops after 32 nodes, within seconds. A constant for the same reason as
# MAX_INPUT_BITS.
MAX_STEPS = 1 << 21


def _input_space(net: NetModel) -> list[tuple[int, ...]] | None:
    """The net's input vectors in exploration order (`net.inputs` order,
    which is name order, values ascending), built once per net; None when
    the net has more than MAX_INPUT_BITS input bits."""
    try:
        return net.engine["inputs"]
    except KeyError:
        space = net.engine["inputs"] = (
            None if sum(w for _n, w in net.inputs) > MAX_INPUT_BITS
            else list(itertools.product(*[range(1 << w) for _n, w in net.inputs])))
        return space


@dataclass
class _Exploration:
    status: ResultStatus
    proof_depth: int | None
    explored: int
    ante_matched: bool
    trace: CexTrace | None  # where the search stopped (violation or completion)
    # on bounded: "max_states", "max_steps", "max_input_bits", or "max_depth"
    # when the caller set a horizon
    budget: str | None = None


def _explore(net: NetModel, target: Monitor | None, assumptions: list[Monitor],
             cfg: CheckConfig, prop_id: str, line: int, guard_hook=None) -> _Exploration:
    """Breadth-first search of the (design state, monitor states) product,
    for checks and coverage alike. A cover target stops the search at its
    first completion, any other target at its first violation; with no
    target and no assumption (coverage without input assumptions) each node
    is `(state, ())`, one per design state. guard_hook(x) is called for
    every admitted valuation, with the slot tuple `state + inputs` the
    monitors read. Its first True ends the search there, proven at that
    cycle: nothing is left for it to see.

    A successor that takes the product past `cfg.max_states`, or a node
    whose input vectors would take the pairs tried past `MAX_STEPS`, stops
    the search bounded at the last completed cycle, as does reaching
    `cfg.max_depth` cycles when it is set."""
    vectors = _input_space(net)
    if vectors is None:
        return _Exploration(ResultStatus.BOUNDED, None, 0, False, None,
                            "max_input_bits")
    step = net.step
    max_states = cfg.max_states
    cover = target is not None and target.kind == "cover"
    found = ResultStatus.PROVEN if cover else ResultStatus.CEX
    n_target = 1 if target is not None else 0
    n_assumptions = len(assumptions)
    init_monitors = tuple(m.initial() for m in ([target] if target else []) + assumptions)
    init_node = (net.init_state(), init_monitors)

    parents: dict = {init_node: None}  # also the visited set
    frontier = [init_node]
    depth = 0
    ante_matched = False
    deepest = 0
    tried = 0  # (node, input) pairs, counted a node at a time
    kept = ()  # the successor's assumption states

    def reconstruct(node, vec, cycle) -> CexTrace:
        chain = []
        cur = node
        while parents[cur] is not None:
            parent, pvec = parents[cur]
            chain.append((parent, pvec))
            cur = parent
        chain.reverse()
        cycles = [(net.values((), pv), net.values(pn[0], ())) for pn, pv in chain]
        cycles.append((net.values((), vec), net.values(node[0], ())))
        return CexTrace(prop_id, cycles, cycle, line)

    def bounded(budget: str) -> _Exploration:
        return _Exploration(ResultStatus.BOUNDED, deepest, len(parents),
                            ante_matched, None, budget)

    while frontier:
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return bounded("max_depth")
        next_frontier = []
        for node in frontier:
            tried += len(vectors)
            if tried > MAX_STEPS:
                return bounded("max_steps")
            design_state, monitor_states = node
            assume_states = monitor_states[n_target:]
            for vec in vectors:
                x = design_state + vec
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
                    return _Exploration(ResultStatus.PROVEN, depth, len(parents),
                                        ante_matched, None)
                monitors = kept
                if target is not None:
                    tstate, ev = target.step(monitor_states[0], x)
                    if ev.ante_matched:
                        ante_matched = True
                    if ev.completed if cover else ev.violated:
                        return _Exploration(found, depth, len(parents),
                                            ante_matched or cover,
                                            reconstruct(node, vec, depth))
                    monitors = (tstate, *kept)
                succ = (step(design_state, vec), monitors)
                if succ not in parents:
                    parents[succ] = (node, vec)
                    if len(parents) > max_states:
                        return bounded("max_states")
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

    With the default `CheckConfig`, a search ends only when the reachable
    product closes or a budget runs out: `max_states` bounds its memory and
    `MAX_STEPS` its time. Either kind is bounded when a budget ran out
    first; the result's note names it ("max_states" or "max_steps"), or
    "max_input_bits" when the net has more than `MAX_INPUT_BITS` input bits
    and nothing was explored. A caller that sets `cfg.max_depth` also gets
    "max_depth" when the search reaches that many cycles.
    runtime_ms is the deterministic explored-state count.

    The outcome is kept on the net, keyed by the property's shape, the
    shapes of the input assumptions and the budgets, so a repeated check
    of a property (or of another with the same shape) explores nothing.
    Every call returns new objects carrying `bp`'s own id and line.
    """
    cfg = cfg or CheckConfig()
    cfg.validate()
    key = ("check", shape(bp), tuple(shape(a) for a in cfg.input_assumptions),
           cfg.max_states, cfg.max_depth)
    memo = net.engine.get(key)
    if memo is None:
        monitors = _bound_assumption_monitors(net, cfg)
        target = monitor_for(net, bp)
        cover = bp.kind == "cover"
        ex = _explore(net, target, monitors, cfg, bp.prop_id, bp.line)
        status = ex.status
        if status is ResultStatus.PROVEN and ex.trace is None and (
                cover or (bp.impl is not S.ImplKind.NONE and not ex.ante_matched)):
            status = ResultStatus.VACUOUS
        proof_depth = ex.proof_depth if ex.trace is None else ex.trace.failure_cycle
        memo = net.engine[key] = (status, proof_depth, ex.explored, ex.budget, ex.trace)
    status, proof_depth, explored, budget, trace = memo
    result = FormalResult(
        result_id="",
        prop_id=bp.prop_id,
        status=status,
        proof_depth=proof_depth,
        runtime_ms=explored,
        note=budget,
    )
    if trace is not None:
        trace = CexTrace(bp.prop_id, [(dict(i), dict(v)) for i, v in trace.cycles],
                         trace.failure_cycle, bp.line)
    return result, trace


# Alias of `check`, for callers that look cover checks up by this name.
check_cover = check
