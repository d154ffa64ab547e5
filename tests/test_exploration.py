"""The exploration kernel (`engine.check._explore`) against its reference
copy in `tests/reference_kernel.py`, plus the counts and budgets it
promises."""

import dataclasses
import importlib.util
import random
import sys
from collections import Counter
from itertools import compress
from pathlib import Path

import pytest

from oracles import gen_design_source, gen_property_source
from reference_kernel import reference_explore
from verikg.agents.backend import RecordingBackend
from verikg.engine import CheckConfig, check, coverage
from verikg.engine.check import _bound_assumption_monitors, _explore
from verikg.engine.monitor import monitor_for
from verikg.ir.types import ResultStatus
from verikg.kg import SignalIndex
from verikg.pipeline import RunConfig, run_all
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties

_ROOT = Path(__file__).resolve().parent.parent
CLOCKED = "default clocking @(posedge clk); endclocking\n"

# Generous budgets, then each budget small enough to run out on some inputs.
BUDGETS = [
    CheckConfig(max_states=1 << 17, max_depth=8),
    CheckConfig(max_states=1 << 17, max_depth=2),
    CheckConfig(max_states=2, max_depth=8),
    CheckConfig(max_states=4, max_depth=8),
    CheckConfig(max_states=8, max_depth=8),
]


def _bound(source: str, dm, net) -> list[S.BoundProperty]:
    """The bound properties of `source`, or [] when it does not parse or bind."""
    pf = parse_properties(CLOCKED + source)
    if not isinstance(pf, S.PropertyFile):
        return []
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    bound, errs = bind(pf, dm, idx)
    return [] if errs.items else bound


def _generated_cases(seed: int, count: int):
    """(net, target, assumptions) triples over generated designs: an
    assertion and a cover per design, each alone and under one and two
    input assumptions when the design gives two that bind."""
    rng = random.Random(seed)
    designs = 0
    while designs < count:
        dm = parse_rtl(gen_design_source(rng))
        if not isinstance(dm, DesignModel):
            continue
        net = elaborate(dm, "duv")
        if not isinstance(net, NetModel):
            continue
        designs += 1
        one_bit = [n.split(".")[-1] for n, w in net.widths.items()
                   if w == 1 and not n.endswith(".clk")]
        two_bit = [n.split(".")[-1] for n, w in net.widths.items() if w == 2]

        def body(implication: bool = True) -> str:
            while True:
                text = gen_property_source(rng, one_bit, two_bit)[len("assert property ("):-3]
                if implication or not ("|->" in text or "|=>" in text):
                    return text

        targets = _bound(f"assert property ({body()});", dm, net) + _bound(
            f"cover property ({body(False)});", dm, net)
        assume = _bound(f"assume property ({body(False)});\n"
                        f"assume property ({body(False)});", dm, net)
        for target in targets:
            for n_assume in range(len(assume) + 1):
                yield net, target, assume[:n_assume]


def _agree(new, ref, max_states: int) -> bool:
    """Assert that the rewritten kernel agrees with the reference; True when
    the reference stayed within `max_states`."""
    # the reference does not name budgets; the kernel names the one that ran out
    within = ref.explored <= max_states
    assert new.budget == (None if new.status is not ResultStatus.BOUNDED
                          else "max_depth" if within else "max_states")
    new = dataclasses.replace(new, budget=None)
    if within:
        assert new == ref  # status, depths, counts, ante_matched, every trace cycle
        return True
    # The reference went past the budget while expanding cycle d, finished
    # that layer and then stopped; the kernel stops at the successor that
    # went past it, bounded at the last completed cycle.
    assert new.status is ResultStatus.BOUNDED and new.trace is None
    assert new.explored == max_states + 1
    assert new.proof_depth == max(ref.proof_depth - 1, 0)
    assert new.ante_matched <= ref.ante_matched
    return False


def test_kernel_agrees_with_reference_on_generated_checks():
    outcomes = Counter()
    for net, bp, assume in _generated_cases(seed=9101, count=40):
        for cfg in BUDGETS:
            cfg = CheckConfig(cfg.max_states, cfg.max_depth, assume)
            args = (net, monitor_for(net, bp), _bound_assumption_monitors(net, cfg), cfg,
                    bp.prop_id, bp.line,
                    "completion" if bp.kind == "cover" else "violation")
            new, ref = _explore(*args), reference_explore(*args)
            within = _agree(new, ref, cfg.max_states)
            outcomes[bp.kind, len(assume), within, ref.status] += 1
    kinds = {(kind, n_assume) for kind, n_assume, _w, _s in outcomes}
    assert kinds == {(k, n) for k in ("assertion", "cover") for n in (0, 1, 2)}
    # every way the search ends, within the budget and past it
    ends = {ResultStatus.CEX, ResultStatus.PROVEN, ResultStatus.BOUNDED}
    for within in (True, False):
        assert {s for _k, _a, w, s in outcomes if w == within} == ends


def _recorder(net: NetModel, answer_at: int | None):
    """A guard hook that records each `x` it is shown with its answer. It
    answers True once every statement guard has held at some `x` (as
    coverage's hook does), or at its `answer_at`-th call."""
    seen: list[tuple[tuple, bool]] = []
    uncovered = set(net.statement_guards)

    def hook(x: tuple) -> bool:
        uncovered.difference_update(compress(net.statement_guards, net.executed(x)))
        seen.append((x, not uncovered or len(seen) + 1 == answer_at))
        return seen[-1][1]

    return hook, seen


def test_monitor_free_search_agrees_with_reference():
    """With no target and no assumption, the kernel walks design states. It
    explores the same nodes to the same depth and budget as the reference
    product search, and its guard hook sees the same `x` values in the same
    order up to and including its first True, and none after."""
    outcomes = Counter()
    nets = {id(net): net for net, _bp, _assume in _generated_cases(seed=9303, count=30)}
    for net in nets.values():
        for cfg in BUDGETS:
            for answer_at in (1, 5, None):
                hook, seen = _recorder(net, answer_at)
                new = _explore(net, None, [], cfg, "", 0, "violation", guard_hook=hook)
                ref_hook, ref_seen = _recorder(net, answer_at)
                ref = reference_explore(net, None, [], cfg, "", 0, "violation",
                                        guard_hook=ref_hook)
                within = _agree(new, ref, cfg.max_states)
                answers = [answer for _x, answer in ref_seen]
                retired = True in answers
                expected = ref_seen[:answers.index(True) + 1] if retired else ref_seen
                if within:
                    assert seen == expected
                else:
                    # stopped inside the layer the reference finished
                    assert seen == expected[:len(seen)]
                outcomes[within, retired, new.status] += 1
    assert {(w, r) for w, r, _s in outcomes} == {
        (w, r) for w in (True, False) for r in (True, False)}
    assert {s for _w, _r, s in outcomes} == {ResultStatus.PROVEN, ResultStatus.BOUNDED}


def _reference_coverage(net: NetModel, cfg: CheckConfig):
    """Covered and unreachable statements from the reference kernel, with a
    hook that asks about every admitted valuation to the end."""
    uncovered = set(net.statement_guards)

    def hook(x: tuple) -> None:
        uncovered.difference_update(compress(net.statement_guards, net.executed(x)))

    ex = reference_explore(net, None, _bound_assumption_monitors(net, cfg), cfg,
                           "", 0, "violation", guard_hook=hook)
    return set(net.statement_guards) - uncovered, uncovered, ex


def test_coverage_agrees_with_a_hook_that_never_retires():
    seen = Counter()
    for net, _bp, assume in _generated_cases(seed=9202, count=30):
        for cfg in BUDGETS:
            cfg = CheckConfig(cfg.max_states, cfg.max_depth, assume)
            cm = coverage(net, [], cfg)
            covered, unreachable, ref = _reference_coverage(net, cfg)
            assert cm.partial == (ref.status is ResultStatus.BOUNDED)
            if ref.explored <= cfg.max_states:
                assert set(cm.covered_statements) == covered
                assert set(cm.unreachable_statements) == unreachable
            else:
                # stopped earlier inside the same layer: a subset, still partial
                assert cm.partial and set(cm.covered_statements) <= covered
            seen[cm.partial, ref.explored <= cfg.max_states] += 1
    assert set(seen) == {(False, True), (True, True), (True, False)}


REGISTER8 = """
module wide (input clk, input [7:0] d);
  reg [7:0] r;
  always @(posedge clk) r <= d;
endmodule
"""


def test_max_states_bounds_the_product_inside_a_layer():
    """An 8-bit input register takes all 256 values in one cycle; a budget
    of 16 stops the search at the 17th state, not at the end of the layer."""
    dm = parse_rtl(REGISTER8)
    net = elaborate(dm, "wide")
    (bp,) = _bound("assert property (r <= 8'd255);", dm, net)
    cfg = CheckConfig(max_states=16)
    result, trace = check(net, bp, cfg)
    assert result.status is ResultStatus.BOUNDED and trace is None
    assert result.runtime_ms <= 17 and result.proof_depth == 0
    ref = reference_explore(net, monitor_for(net, bp), [], cfg, bp.prop_id, bp.line,
                            "violation")
    assert ref.explored == 256
    cm = coverage(net, [], cfg)
    assert cm.partial


# ---------------------------------------------------------------------------
# Counter contract of the fixture FIFO run
# ---------------------------------------------------------------------------

def _replace_everywhere(monkeypatch, fn, replacement) -> None:
    """Put `replacement` under every name a loaded verikg module binds `fn` to."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "verikg" or name.startswith("verikg.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def test_fixture_fifo_run_keeps_its_counts(fixtures_dir, tmp_path, monkeypatch):
    """One fixture FIFO run: 9 explorations, 8 checks and 21,888 steps over
    3,072 distinct (state, input) pairs and 96 states. Once every statement
    is covered, coverage's hook is not asked again and no statement guard
    is called."""
    check_module = sys.modules["verikg.engine.check"]
    explore, check_one, step = check_module._explore, check_module.check, NetModel.step
    counts: Counter = Counter()
    hook_answers: list[bool] = []

    def counted_explore(*args, guard_hook=None, **kwargs):
        counts["explorations"] += 1
        if guard_hook is not None:
            def hook(x, _hook=guard_hook):
                hook_answers.append(_hook(x))
                return hook_answers[-1]
            kwargs["guard_hook"] = hook
        return explore(*args, **kwargs)

    def counted_check(*args, **kwargs):
        counts["checks"] += 1
        return check_one(*args, **kwargs)

    nets: dict[int, NetModel] = {}  # keeps each id unique for the whole run
    pairs: set = set()

    def counted_step(net, state, inputs):
        counts["steps"] += 1
        nets[id(net)] = net
        pairs.add((id(net), state, inputs))
        return step(net, state, inputs)

    guard_calls: list[tuple[int, set[str]]] = []  # (net, statements executed)
    post_init = NetModel.__post_init__

    def logged_post_init(net):
        post_init(net)
        nets[id(net)] = net
        executed = net.executed

        def logged(x):
            hits = executed(x)
            guard_calls.append((id(net), set(compress(net.statement_guards, hits))))
            return hits
        net.executed = logged

    _replace_everywhere(monkeypatch, explore, counted_explore)
    _replace_everywhere(monkeypatch, check_one, counted_check)
    monkeypatch.setattr(NetModel, "step", counted_step)
    monkeypatch.setattr(NetModel, "__post_init__", logged_post_init)
    run_all(RunConfig(spec_path=str(fixtures_dir / "fifo_spec.md"),
                      rtl_paths=[str(fixtures_dir / "fifo.v")],
                      rulebook_path=str(fixtures_dir / "rulebook.txt"),
                      out_root=str(tmp_path), created_at="2026-01-01T00:00:00Z"))

    assert counts["steps"] == 21888
    assert len(pairs) == 3072
    assert len({(net, state) for net, state, _inputs in pairs}) == 96
    assert counts["explorations"] == 9
    assert counts["checks"] == 8

    # one coverage exploration; its hook answered True once, last
    assert hook_answers.count(True) == 1 and hook_answers[-1]
    (net_id,) = {net for net, _hits in guard_calls}
    covered = set()
    for i, (_net, hits) in enumerate(guard_calls):
        covered |= hits
        if covered == set(nets[net_id].statement_guards):
            assert i == len(guard_calls) - 1, "a guard was called after full coverage"
            break
    else:
        pytest.fail("the fixture FIFO is fully covered")


def test_benchmark_wrappers_still_find_their_functions():
    """Every function the benchmark's tracer times resolves by name."""
    spec = importlib.util.spec_from_file_location("layers", _ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for _span, module, attr in layers.TIMED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # patched by attribute, besides the functions above
    assert callable(NetModel.step) and callable(RecordingBackend.send)
    assert callable(sys.modules["verikg.engine.check"]._explore)
