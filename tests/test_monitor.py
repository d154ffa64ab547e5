"""The table-driven property monitor (`engine.monitor.Monitor`) against its
reference copy in `tests/reference_monitor.py`, and the sharing of one
monitor per net and property shape."""

import random
from collections import Counter

import pytest

from oracles import gen_design_source, gen_property_source
from reference_monitor import ReferenceMonitor
from verikg.engine.check import CheckConfig, check
from verikg.engine.coverage import coverage
from verikg.engine.monitor import Monitor, UnboundIdentifierError, monitor_for, shape
from verikg.ir.types import ResultStatus
from verikg.kg import SignalIndex
from verikg.rtl.ast import DesignModel, Id
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties

CLOCKED = "default clocking @(posedge clk); endclocking\n"
EVENTS = ("violated", "ante_matched", "completed")


def _bound(source: str, dm, net) -> list[S.BoundProperty]:
    """The bound properties of `source`, or [] when it does not parse or bind."""
    pf = parse_properties(CLOCKED + source)
    if not isinstance(pf, S.PropertyFile):
        return []
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    bound, errs = bind(pf, idx)
    return [] if errs.items else bound


def _lockstep(net: NetModel, bp: S.BoundProperty, rng: random.Random,
              runs: int = 4, cycles: int = 12) -> Counter:
    """Step the per-net monitor of `bp` and a reference monitor side by side
    over seeded input sequences; assert equal states and events on every
    cycle. Returns how often each event was seen."""
    new, ref = monitor_for(net, bp), ReferenceMonitor(bp, net)
    widths = [w for _n, w in net.inputs]
    seen: Counter = Counter()
    for _ in range(runs):
        state = net.init_state()
        m_new, m_ref = new.initial(), ref.initial()
        assert m_new == m_ref
        for _ in range(cycles):
            inputs = tuple(rng.randrange(1 << w) for w in widths)
            x = state + inputs
            m_new, ev_new = new.step(m_new, x)
            m_ref, ev_ref = ref.step(m_ref, x)
            assert m_new == m_ref, (bp, x)
            flags = tuple(getattr(ev_ref, name) for name in EVENTS)
            assert tuple(getattr(ev_new, name) for name in EVENTS) == flags, (bp, x)
            seen.update(name for name, flag in zip(EVENTS, flags) if flag)
            state = net.step(state, inputs)
    return seen


def test_monitor_agrees_with_reference_on_generated_properties():
    rng = random.Random(1212)
    seen: Counter = Counter()
    kinds: Counter = Counter()
    designs = 0
    while designs < 40:
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
        for kind in ("assert", "assert", "assume", "cover"):
            body = gen_property_source(rng, one_bit, two_bit)[len("assert property ("):-3]
            for bp in _bound(f"{kind} property ({body});", dm, net):
                kinds[bp.kind, bp.impl, bp.disable_net is not None] += 1
                seen += _lockstep(net, bp, rng)
    assert set(seen) == set(EVENTS)
    assert {kind for kind, _impl, _dis in kinds} == {"assertion", "assumption", "cover"}
    assert {impl for _kind, impl, _dis in kinds} == set(S.ImplKind)
    assert {dis for _kind, _impl, dis in kinds} == {True, False}


SAMPLED = """
module t (input clk, input a, input b, input [1:0] d);
  reg q;
  reg [1:0] r;
  always @(posedge clk) begin
    q <= a ^ q;
    r <= d;
  end
endmodule
"""

HAND_WRITTEN = [
    "assert property ($past(a, 2) |-> q);",
    "assert property (a |-> $past(r, 2) == 2'd1);",
    "assert property ($rose(a) |=> $fell(b));",
    "assert property ($stable(r) |-> ##1 $stable(d));",
    "assert property (disable iff (b) a |-> ##[0:1] q && r == 2'd3);",
    "assert property (a |=> b ##1 q);",
    "assert property (a ##[0:2] b ##[1:3] q |-> ##[0:1] r == 2'd1);",
    "assert property (##[0:3] q);",
    "cover property (a ##[1:2] b ##[0:2] q);",
    "cover property (disable iff (q) $rose(b) ##1 d == 2'd3);",
    "assume property (a |-> !b);",
]


@pytest.mark.parametrize("source", HAND_WRITTEN)
def test_monitor_agrees_with_reference_on_hand_written_properties(source):
    dm = parse_rtl(SAMPLED)
    net = elaborate(dm, "t")
    (bp,) = _bound(source, dm, net)
    seen = _lockstep(net, bp, random.Random(source), runs=8, cycles=16)
    if bp.kind == "cover":
        assert seen["completed"]
    else:
        assert seen["violated"]


# ---------------------------------------------------------------------------
# One monitor per net and property shape
# ---------------------------------------------------------------------------

FIFO_PROPS = """
assert property (rst |=> empty);
assert property (wr_en |=> !empty);
cover property (full);
assert property (rst |=> empty);
assume property (!(wr_en && rd_en));
assert property (wr_en |=> !empty);
"""


def _count_constructions(monkeypatch) -> Counter:
    built: Counter = Counter()
    init = Monitor.__init__

    def counted(self, bp, net):
        init(self, bp, net)
        built[id(net)] += 1

    monkeypatch.setattr(Monitor, "__init__", counted)
    return built


def test_one_monitor_per_shape_across_checks_and_coverage(
        fifo_model, fifo_net, monkeypatch):
    built = _count_constructions(monkeypatch)
    props = _bound(FIFO_PROPS, fifo_model, fifo_net)
    assume = [bp for bp in props if bp.kind == "assumption"]
    cfg = CheckConfig(input_assumptions=assume)
    checked = [bp for bp in props if bp.kind != "assumption"]
    first = [check(fifo_net, bp, cfg) for bp in checked]
    second = [check(fifo_net, bp, cfg) for bp in checked]
    cm = coverage(fifo_net, props, cfg)
    assert first == second and cm.vacuity_count == 0
    shapes = {shape(bp) for bp in props}
    assert len(shapes) == 4  # two pairs of properties share a shape
    assert built[id(fifo_net)] == len(shapes)
    monitors = [v for v in fifo_net.engine.values() if isinstance(v, Monitor)]
    assert len(monitors) == len(shapes)
    # beside the monitors and the input space, one remembered check outcome
    # per checked shape: two assertion shapes and the cover
    assert len(fifo_net.engine) == len(shapes) + 1 + 3


def test_shared_monitor_keeps_each_property_identity(fifo_model, fifo_net):
    props = [bp for bp in _bound(FIFO_PROPS, fifo_model, fifo_net)
             if bp.kind == "assertion"]
    first, twin = props[1], props[3]  # both `wr_en |=> !empty`
    assert (first.prop_id, first.line) != (twin.prop_id, twin.line)
    assert monitor_for(fifo_net, first) is monitor_for(fifo_net, twin)
    for bp in (first, twin):
        result, trace = check(fifo_net, bp)
        assert result.status is ResultStatus.CEX
        assert result.prop_id == trace.prop_id == bp.prop_id
        assert trace.violated_at_line == bp.line


def test_unbound_property_names_itself_and_caches_nothing(fifo_net):
    bp = S.BoundProperty(
        prop_id="PROP-GHOST", kind="assertion", impl=S.ImplKind.NONE,
        antecedent=None,
        consequent=S.Sequence((S.SeqStep(0, 0, Id("fifo.ghost")),)),
        clock_net="fifo.clk", disable_net=None, line=3)
    before = dict(fifo_net.engine)
    with pytest.raises(UnboundIdentifierError, match="PROP-GHOST"):
        check(fifo_net, bp)
    with pytest.raises(UnboundIdentifierError, match="PROP-GHOST"):
        monitor_for(fifo_net, bp)
    assert fifo_net.engine == before
