"""Metamorphic test: the order of a design's declarations is not part of
its meaning.

Each generated design is checked twice: as generated, and with its port
list and its `reg`/`wire` declarations shuffled. Statements keep their
order, so statement ids stay the same. Every verdict, counterexample or
witness trace and coverage record must be equal. The run ids of the two
would differ, because `design_model.json` records the declarations in
source order, so the records are compared, not the runs.
"""

import random

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


def _records(src: str, properties: str):
    dm = parse_rtl(src)
    net = elaborate(dm, "duv")
    assert isinstance(net, NetModel), net.render()
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    pf = parse_properties(CLOCKED + properties)
    assert isinstance(pf, S.PropertyFile), pf.render()
    bound, errs = bind(pf, idx)
    assert not errs.items, [str(i) for i in errs.items]
    return [check(net, bp) for bp in bound], coverage(net, bound)


def _cases(n: int):
    rng = random.Random(20261020)
    while n:
        src = gen_design_source(rng)
        dm = parse_rtl(src)
        net = elaborate(dm, "duv") if isinstance(dm, DesignModel) else None
        if not isinstance(net, NetModel):
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
        yield src, reorder_declarations(src, rng), props


def test_reordered_declarations_keep_every_record():
    reordered = 0
    for src, other, props in _cases(30):
        assert parse_rtl(other).statements == parse_rtl(src).statements
        reordered += other != src
        (results, cm), (o_results, o_cm) = _records(src, props), _records(other, props)
        ctx = (src, other, props)
        assert o_results == results, ctx
        assert o_cm == cm, ctx
    assert reordered >= 24
