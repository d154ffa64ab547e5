"""The range-tracking expression compiler (`verikg.rtl.compile`) against
its reference copy in `tests/reference_compile.py`: next states, statement
guards and property functions agree in value on every input they are
given, and the compiler's recursion leaves headroom for long expressions."""

import itertools
import random

import pytest

from oracles import gen_design_source, gen_property_source
from reference_compile import Compiler as RefCompiler
from reference_compile import SampledCompiler as RefSampledCompiler
from reference_compile import define, step_source
from reference_walkers import gen_stmt_design
from verikg.engine.monitor import _SampledCompiler
from verikg.kg import SignalIndex
from verikg.rtl import ast
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties

CLOCKED = "default clocking @(posedge clk); endclocking\n"


def _net(source: str, top: str):
    dm = parse_rtl(source)
    if not isinstance(dm, DesignModel):
        return dm, None
    net = elaborate(dm, top)
    return dm, net if isinstance(net, NetModel) else None


def _agree_on_net(net: NetModel) -> int:
    """Assert that the net's step and `executed` functions agree with the
    reference compiler's on every (state, input) pair; returns the pairs."""
    (ref_step,) = define([step_source(net)])
    ref = RefCompiler(net.widths, net.slots)
    ref_guards = define([ref.function("x", ref.condition(g))
                         for g in net.statement_guards.values()])
    states = itertools.product(*[range(1 << w) for _n, w in net.state_bits])
    inputs = list(itertools.product(*[range(1 << w) for _n, w in net.inputs]))
    pairs = 0
    for state in states:
        for vec in inputs:
            nxt = net.step(state, vec)
            assert nxt == ref_step(state, vec), (state, vec)
            assert all(type(v) is int for v in nxt), nxt
            x = state + vec
            for sid, ref_fn, hit in zip(net.statement_guards, ref_guards,
                                        net.executed(x), strict=True):
                assert bool(hit) == bool(ref_fn(x)), (sid, x)
            pairs += 1
    return pairs


def test_step_and_guards_match_reference_on_generated_designs():
    rng = random.Random(1414)
    nets = 0
    while nets < 60:
        _dm, net = _net(gen_design_source(rng), "duv")
        if net is not None:
            nets += 1
            assert _agree_on_net(net)
    stmt_nets = 0
    while stmt_nets < 30:
        _dm, net = _net(gen_stmt_design(rng), "top")
        if net is not None:
            stmt_nets += 1
            assert _agree_on_net(net)


# Each design reads its operators where an unsized literal or a carry can
# leave the width, where a select stops below the top bit, and where a
# wire's driver is an unsized value.
HAND_WRITTEN_NETS = {
    "unsized-bitwise": """
module t (input clk, input c, input [1:0] d);
  reg [1:0] a; reg [1:0] b; reg [1:0] e; reg f;
  always @(posedge clk) begin
    a <= d | 5;
    b <= 6 ^ d;
    e <= (d & 7) | (a ^ 9);
    f <= (c | 2) == 1;
  end
endmodule
""",
    "unsized-ternary": """
module t (input clk, input c, input [1:0] d);
  reg [1:0] a; reg [1:0] b; reg f; reg g;
  wire [1:0] u;
  assign u = c ? 5 : 6;
  always @(posedge clk) begin
    a <= c ? 7 : d;
    b <= u;
    f <= (c ? 5 : d) == 2'd1;
    g <= u[0] ^ (d[1] ? 3 : 0) == 3;
  end
endmodule
""",
    "unsized-operands": """
module t (input clk, input c, input [1:0] d);
  reg [1:0] a; reg f; reg [2:0] k; reg g;
  always @(posedge clk) begin
    a <= c ? d : 5;
    f <= ((c ? 5 : d) | d) == 2'd1;
    k <= {~c, (c ? 5 : d)};
    g <= ((c ? d : 6) ^ 2'd1) == 2'd3;
  end
endmodule
""",
    "one-bit-tests": """
module t (input clk, input c, input e);
  reg q; reg p; reg s; reg u;
  always @(posedge clk) begin
    if ((c ? 2 : e) & c) q <= ~q;
    if (~(c ? 2 : e)) p <= e;
    if ((c ? 2 : e) | e) s <= c;
    if (~(c & ~e) | (e ^ c)) u <= ~u;
  end
endmodule
""",
    "carry-and-borrow": """
module t (input clk, input [1:0] d);
  reg [1:0] a; reg [1:0] b; reg [2:0] e; reg f;
  always @(posedge clk) begin
    a <= a + d + 2'd3;
    b <= b - d - 1;
    e <= e - 3'd7 + {1'b0, d};
    f <= (a + 2'd1) == 2'd0;
  end
endmodule
""",
    "invert-and-negate": """
module t (input clk, input c, input [1:0] d);
  reg [1:0] a; reg [1:0] b; reg f; reg [1:0] g;
  always @(posedge clk) begin
    a <= ~d;
    b <= -d;
    f <= ~c & ~(d == 2'd2);
    g <= ~(d + 2'd1) ^ -(~a);
  end
endmodule
""",
    "part-selects": """
module t (input clk, input [1:0] d);
  reg [3:0] w; reg [1:0] hi; reg [1:0] mid; reg lo; reg top;
  wire [2:0] s;
  assign s = w[3:1] + {1'b0, d};
  always @(posedge clk) begin
    w <= {w[2:0], d[0]};
    hi <= w[3:2];
    mid <= w[2:1];
    lo <= s[0];
    top <= s[2];
  end
endmodule
""",
    "concatenation": """
module t (input clk, input c, input [1:0] d);
  reg [2:0] a; reg [3:0] b; reg [1:0] e;
  always @(posedge clk) begin
    a <= {c, d};
    b <= {d[0], ~c, d + 2'd1};
    e <= {a[0], c} ^ {1'b1, b[3]};
  end
endmodule
""",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN_NETS))
def test_step_matches_reference_on_hand_written_designs(name):
    _dm, net = _net(HAND_WRITTEN_NETS[name], "t")
    assert net is not None, name
    assert _agree_on_net(net) == (1 << sum(w for _n, w in net.state_bits + net.inputs))


def _bound(source: str, dm, net) -> list[S.BoundProperty]:
    pf = parse_properties(CLOCKED + source)
    if not isinstance(pf, S.PropertyFile):
        return []
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    bound, errs = bind(pf, dm, idx)
    return [] if errs.items else bound


def _property_functions(comp, net: NetModel, bp: S.BoundProperty):
    """The condition functions and the history function of `bp`, built as
    `Monitor` builds them, with `comp` a sampled-value compiler."""
    ante = [] if bp.antecedent is None else bp.antecedent.steps
    exprs = [st.expr for st in [*ante, *bp.consequent.steps]]
    if bp.disable_net is not None:
        exprs.append(bp.disable_net)
    src = [comp.function("x, h", comp.condition(net.inline(e))) for e in exprs]
    hist, depths = comp.finish_taps()
    *conditions, advance = define([*src, comp.function("x, h", hist)])
    return conditions, advance, depths


def _agree_on_property(net: NetModel, bp: S.BoundProperty, rng: random.Random,
                       runs: int = 6, cycles: int = 10) -> None:
    """Assert that every condition and the history function agree with the
    reference's over seeded runs, on the histories the reference builds."""
    new_conds, new_adv, new_depths = _property_functions(
        _SampledCompiler(net.widths, net.slots), net, bp)
    ref_conds, ref_adv, ref_depths = _property_functions(
        RefSampledCompiler(net.widths, net.slots), net, bp)
    assert new_depths == ref_depths
    widths = [w for _n, w in net.inputs]
    for _ in range(runs):
        state = net.init_state()
        hist = tuple(tuple(0 for _ in range(d)) for d in ref_depths)
        for _ in range(cycles):
            vec = tuple(rng.randrange(1 << w) for w in widths)
            x = state + vec
            for new, ref in zip(new_conds, ref_conds):
                assert bool(new(x, hist)) == bool(ref(x, hist)), (bp, x, hist)
            nxt = new_adv(x, hist)
            assert nxt == ref_adv(x, hist), (bp, x, hist)
            assert all(type(v) is int for tap in nxt for v in tap), nxt
            hist = nxt
            state = net.step(state, vec)


def test_property_functions_match_reference_on_generated_properties():
    rng = random.Random(1515)
    checked = 0
    while checked < 120:
        dm, net = _net(gen_design_source(rng), "duv")
        if net is None:
            continue
        one_bit = [n.split(".")[-1] for n, w in net.widths.items()
                   if w == 1 and not n.endswith(".clk")]
        two_bit = [n.split(".")[-1] for n, w in net.widths.items() if w == 2]
        for bp in _bound(gen_property_source(rng, one_bit, two_bit), dm, net):
            _agree_on_property(net, bp, rng)
            checked += 1


SAMPLED = """
module t (input clk, input a, input b, input [1:0] d);
  reg q;
  reg [1:0] r;
  wire [1:0] u;
  assign u = a ? 5 : d;
  always @(posedge clk) begin
    q <= a ^ q;
    r <= d + r;
  end
endmodule
"""

HAND_WRITTEN_PROPERTIES = [
    "assert property ($past(a, 2) |-> q);",
    "assert property (a |-> $past(r, 2) == 2'd1);",
    "assert property ($past(d | 5) == 2'd3 |-> ##1 $past(u, 2) != 2'd1);",
    "assert property ($past(r + 2'd3) == $past(-r) || $past(~d, 2) == r);",
    "assert property ($rose(a) |=> $fell(b) && $past(u == 1));",
    "assert property ($rose(r[1]) |-> $fell(d[0] & ~q) || $stable({d, q}));",
    "assert property ($stable(r) |-> ##1 $stable(u ^ 7));",
    "assert property (disable iff (b) a |-> ##[0:1] q && r == 2'd3);",
    "cover property (a ##[1:2] b ##[0:2] $past(r[1:0] - d) == 2'd2);",
]


@pytest.mark.parametrize("source", HAND_WRITTEN_PROPERTIES)
def test_property_functions_match_reference_on_hand_written_properties(source):
    dm, net = _net(SAMPLED, "t")
    (bp,) = _bound(source, dm, net)
    _agree_on_property(net, bp, random.Random(source), runs=16, cycles=12)


def test_shared_wire_driver_is_computed_once(fifo_net):
    """The FIFO's `do_write` is read at four registers and in the count's
    two arms; its driver (`wr_en & ~full`) is one local, a truth form."""
    (step_src,) = [s for s, fn in fifo_net.code.items() if fn is fifo_net._step]
    assert step_src.count("== 2)") == 1, step_src
    assert "& 1)" not in step_src and "~" not in step_src, step_src


def test_deep_expressions_compile_within_the_recursion_limit():
    """An 800-deep `?:` next-state chain and an 800-term `||` guard: the
    compiler takes one frame per expression level."""
    depth = 800
    sel = ast.Id("t.s")
    chain: ast.Expr = ast.Lit(0, 4)
    for k in range(depth):
        chain = ast.Ternary(ast.Binary("==", sel, ast.Lit(k % 16, 4)),
                            ast.Lit((k * 7) % 16, 4), chain)
    guard: ast.Expr = ast.Binary("==", sel, ast.Lit(0, 4))
    for k in range(1, depth):
        guard = ast.Binary("||", guard, ast.Binary("==", sel, ast.Lit(k % 16, 4)))
    net = NetModel(top="t", clock="t.clk", state_bits=[("t.r", 4)],
                   inputs=[("t.s", 4)], next_state={"t.r": chain},
                   init={"t.r": 0}, comb={}, statement_guards={"s1": guard},
                   widths={"t.r": 4, "t.s": 4})
    for s in range(16):
        # the innermost arm whose label matches wins: the last k with k % 16 == s
        k = max(k for k in range(depth) if k % 16 == s)
        assert net.step((0,), (s,)) == ((k * 7) % 16,)
        assert net.executed((0, s))[0]
