"""Metamorphic test: the order of a design's declarations is not part of
its meaning.

Each generated design is checked twice: as generated, and with its port
list and its `reg`/`wire` declarations shuffled. Statements keep their
order, so statement ids stay the same. Every verdict, counterexample or
witness trace and coverage record must be equal. The run ids of the two
would differ, because `design_model.json` records the declarations in
source order, so the records are compared, not the runs.

The order of the input ports is not part of a trace's waveform either: a
net lists its inputs by name, so with only the input ports reordered the
VCD of every trace is byte-equal too. The registers keep declaration
order in a VCD, so register shuffles are not compared there.
"""

import random
from pathlib import Path

from oracles import gen_design_source, gen_property_source
from verikg.engine.check import check
from verikg.engine.coverage import coverage
from verikg.kg import SignalIndex
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties
from verikg.vcd import write_vcd

CLOCKED = "default clocking @(posedge clk); endclocking\n"


def reorder_declarations(src: str, rng: random.Random) -> str:
    """`src` with its ports and its leading `reg`/`wire` declarations in
    another order; everything else, statements included, in place."""
    lines = src.split("\n")
    close = lines.index(");")
    ports = [line.rstrip(",") for line in lines[1:close]]
    rng.shuffle(ports)
    end = close + 1
    while lines[end].startswith(("  reg", "  wire")):
        end += 1
    decls = lines[close + 1:end]
    rng.shuffle(decls)
    return "\n".join([lines[0], ",\n".join(ports), lines[close], *decls, *lines[end:]])


def reorder_inputs(src: str, rng: random.Random | None) -> str:
    """`src` with its input port declarations in another order (reversed
    when `rng` is None), each in a place an input port held; every other
    line in place."""
    lines = src.split("\n")
    close = lines.index(");")
    ports = [line.rstrip(",") for line in lines[1:close]]
    at = [i for i, port in enumerate(ports) if port.lstrip().startswith("input")]
    moved = [ports[i] for i in reversed(at)]
    if rng is not None:
        rng.shuffle(moved)
    for i, port in zip(at, moved):
        ports[i] = port
    return "\n".join([lines[0], ",\n".join(ports), *lines[close:]])


def _bound(src: str, properties: str, top: str = "duv"):
    dm = parse_rtl(src)
    net = elaborate(dm, top)
    assert isinstance(net, NetModel), net.render()
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    pf = parse_properties(CLOCKED + properties)
    assert isinstance(pf, S.PropertyFile), pf.render()
    bound, errs = bind(pf, idx)
    assert not errs.items, [str(i) for i in errs.items]
    return net, bound


def _records(src: str, properties: str):
    net, bound = _bound(src, properties)
    return [check(net, bp) for bp in bound], coverage(net, bound)


def _waveforms(src: str, properties: str, top: str = "duv"):
    """The net's inputs, each property's check, and the VCD of each trace
    as a run writes it."""
    net, bound = _bound(src, properties, top)
    checks = [check(net, bp) for bp in bound]
    decls = list(net.inputs) + list(net.state_bits)
    vcds = [write_vcd(trace, decls) for _result, trace in checks if trace is not None]
    return net.inputs, checks, vcds


def _cases(n: int, seed: int, reorder, inputs: int | None = None):
    """`n` generated designs, with `inputs` data inputs when given, each
    with its properties and `reorder(src, rng)`."""
    rng = random.Random(seed)
    while n:
        src = gen_design_source(rng)
        dm = parse_rtl(src)
        net = elaborate(dm, "duv") if isinstance(dm, DesignModel) else None
        if not isinstance(net, NetModel) or inputs not in (None, len(net.inputs)):
            continue
        one_bit = [name.split(".")[-1] for name, w in net.widths.items()
                   if w == 1 and not name.endswith(".clk")]
        two_bit = [name.split(".")[-1] for name, w in net.widths.items() if w == 2]
        asserts = [gen_property_source(rng, one_bit, two_bit) for _ in range(3)]
        covers = [a.replace("assert property", "cover property", 1) for a in asserts]
        props = "".join(asserts + covers)
        if not isinstance(parse_properties(CLOCKED + props), S.PropertyFile):
            continue
        n -= 1
        yield src, reorder(src, rng), props


def test_reordered_declarations_keep_every_record():
    reordered = 0
    for src, other, props in _cases(30, 20261020, reorder_declarations):
        assert parse_rtl(other).statements == parse_rtl(src).statements
        reordered += other != src
        (results, cm), (o_results, o_cm) = _records(src, props), _records(other, props)
        ctx = (src, other, props)
        assert o_results == results, ctx
        assert o_cm == cm, ctx
    assert reordered >= 24


FIFO_BUG_PROPERTIES = (
    "assert property (count <= 2'd2);\n"
    "assert property (full |-> ##1 !empty);\n"
    "assert property (rd_en |-> !empty);\n"
    "cover property (full ##1 (wr_en && !rd_en));\n"
)


def test_reordered_input_ports_keep_every_waveform(fixtures_dir: Path):
    src = (fixtures_dir / "fifo_bug.v").read_text()
    swapped = src.replace("  input wr_en,\n  input rd_en,", "  input rd_en,\n  input wr_en,")
    assert swapped != src
    rng = random.Random(29)
    expected = _waveforms(src, FIFO_BUG_PROPERTIES, "fifo")
    assert expected[2]  # a counterexample to compare
    for other in (swapped, reorder_inputs(src, None), reorder_inputs(src, rng),
                  reorder_inputs(src, rng)):
        assert parse_rtl(other).statements == parse_rtl(src).statements
        assert _waveforms(other, FIFO_BUG_PROPERTIES, "fifo") == expected, other


def test_generated_designs_keep_every_waveform_under_input_reorders():
    def reorders(src, rng):
        return reorder_inputs(src, None), reorder_inputs(src, rng)

    traces = 0
    for src, others, props in _cases(30, 20261021, reorders, inputs=2):
        expected = _waveforms(src, props)
        traces += len(expected[2])
        for other in others:
            assert _waveforms(other, props) == expected, (src, other, props)
    assert traces >= 30
