"""The one walk of the instance tree (`rtl.elaborate.instances`): the graph,
the run's signal index and the elaborated net agree on every width under a
parameter override, and a hostile hierarchy is a diagnostic, never a
traceback."""

import pytest

from verikg.diagnostics import DiagCode
from verikg.ir import types as T
from verikg.ir.store import load_run
from verikg.kg import build_signal_index
from verikg.pipeline import PipelineError, RunConfig, rebuild_graph, run_all
from verikg.rtl.elaborate import NetModel, elaborate, instances
from verikg.rtl.parser import parse_rtl

OVERRIDE = """module leaf #(parameter W = 2) (input clk, input [W-1:0] d);
  reg [W-1:0] r;
  always @(posedge clk) r <= d;
endmodule
module top (input clk, input [3:0] d);
  leaf #(.W(4)) u0 (.clk(clk), .d(d));
endmodule
"""

SELF_LOOP = "module a (input clk);\n  a u (.clk(clk));\nendmodule\n"
TWO_LOOP = ("module a (input clk);\n  b u (.clk(clk));\nendmodule\n"
            "module b (input clk);\n  a v (.clk(clk));\nendmodule\n")


def parsed(source: str, top: str):
    model = parse_rtl(source)
    assert hasattr(model, "modules"), model.render()
    model.top = top
    return model


def design_graph(model):
    return rebuild_graph(T.RunBundle(context=T.RunContext(run_id="r"),
                                     design_model=model))


def test_widths_agree_under_an_instance_override():
    model = parsed(OVERRIDE, "top")
    net = elaborate(model, "top")
    assert isinstance(net, NetModel), net.render()
    g = design_graph(model)
    graph_widths = {n.id: n.attrs["width"] for n in g.nodes.values()
                    if n.type == "rtl_signal"}
    assert graph_widths == build_signal_index(g).path_widths == net.widths
    assert graph_widths["top.u0.r"] == 4


def test_override_assertion_is_proven(tmp_path):
    (tmp_path / "t.v").write_text(OVERRIDE)
    (tmp_path / "s.md").write_text(
        "# Range\nREQ[functional,medium]: r stays in range. ASSERT: u0.r <= 4'd15\n")
    report = run_all(RunConfig(str(tmp_path / "s.md"), [str(tmp_path / "t.v")],
                               str(tmp_path / "out"), top="top"))
    bundle = load_run(tmp_path / "out", report.run_id)
    [prop] = bundle.properties
    assert (prop.prop_id, prop.status) == ("PROP-001", T.PropStatus.ACTIVE)
    assert [r.status for r in bundle.formal_results
            if r.prop_id == "PROP-001"] == [T.ResultStatus.PROVEN]


def test_walk_order_and_parameter_values():
    model = parsed(
        "module leaf #(parameter W = 2, parameter V = W + 1) (input clk);\n"
        "endmodule\n"
        "module mid (input clk);\n"
        "  leaf #(.W(5)) x (.clk(clk));\n  leaf y (.clk(clk));\nendmodule\n"
        "module top (input clk);\n"
        "  mid a (.clk(clk));\n  leaf #(.W(7)) b (.clk(clk));\nendmodule\n", "top")
    walked = [(prefix, m.name, env, inst and inst.name)
              for prefix, m, env, inst in instances(model, "top")]
    assert walked == [
        ("top", "top", {}, None),
        ("top.a", "mid", {}, "a"),
        ("top.a.x", "leaf", {"W": 5, "V": 6}, "x"),
        ("top.a.y", "leaf", {"W": 2, "V": 3}, "y"),
        ("top.b", "leaf", {"W": 7, "V": 8}, "b"),
    ]


@pytest.mark.parametrize("source, reached", [
    (SELF_LOOP, ["a.clk"]),
    (TWO_LOOP, ["a.clk", "a.u.clk"]),
], ids=["self", "two"])
def test_cyclic_instantiation_is_one_cycle_diagnostic(source, reached):
    result = elaborate(parsed(source, "a"), "a")
    assert [d.code for d in result.items] == [DiagCode.CYCLE], result.render()
    # the graph lists the instances reached before the walk stopped
    g = design_graph(parsed(source, "a"))
    assert sorted(n.id for n in g.nodes.values() if n.type == "rtl_signal") == reached


def test_a_module_may_appear_in_two_branches():
    model = parsed("module leaf (input clk);\nendmodule\n"
                   "module top (input clk);\n  leaf p (.clk(clk));\n"
                   "  leaf q (.clk(clk));\nendmodule\n", "top")
    assert isinstance(elaborate(model, "top"), NetModel)


def test_first_fault_in_walk_order_is_reported():
    """A child is resolved only after its parent's body: the parent's own
    fault comes first, though an unknown module sits below it."""
    model = parsed("module top (input clk);\n  assign nope = clk;\n"
                   "  ghost g (.clk(clk));\nendmodule\n", "top")
    result = elaborate(model, "top")
    assert [(d.line, d.code) for d in result.items] == [(2, DiagCode.UNRESOLVED)]
    assert "undeclared identifier 'nope'" in result.render()


def test_deep_instance_chain_elaborates_and_builds_its_graph():
    depth = 1200
    source = "".join(f"module m{i};\n  reg r;\n  m{i + 1} u ();\nendmodule\n"
                     for i in range(depth))
    model = parsed(source + f"module m{depth};\n  reg r;\nendmodule\n", "m0")
    net = elaborate(model, "m0")
    assert isinstance(net, NetModel), net.render()
    assert len(net.widths) == depth + 1
    g = design_graph(model)
    assert sum(n.type == "rtl_signal" for n in g.nodes.values()) == depth + 1


def test_run_on_a_cyclic_design_fails_elaboration(fixtures_dir, tmp_path):
    (tmp_path / "a.v").write_text(SELF_LOOP)
    with pytest.raises(PipelineError, match=r"elaboration failed(.|\n)*CYCLE"):
        run_all(RunConfig(str(fixtures_dir / "gappy_spec.md"),
                          [str(tmp_path / "a.v")], str(tmp_path / "out")))
