"""The one walk of the instance tree (`rtl.elaborate.instances`): the graph,
the run's signal index and the elaborated net agree on every width under a
parameter override, and a hostile hierarchy is a diagnostic, never a
traceback."""

import random

import pytest

from independent_oracles import RefDesign
from verikg.diagnostics import DiagCode
from verikg.ir import types as T
from verikg.ir.store import load_run
from verikg.ir.validate import validate_artifact
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

# `leaf`'s override reads `mid`'s own parameter, itself overridden by `top`
NESTED = """module leaf #(parameter W = 2) (input clk, input [W-1:0] d);
  reg [W-1:0] r;
  always @(posedge clk) r <= d;
endmodule
module mid #(parameter P = 2) (input clk, input [P-1:0] d);
  leaf #(.W(P)) u (.clk(clk), .d(d));
endmodule
module top (input clk, input [2:0] d);
  mid #(.P(3)) m (.clk(clk), .d(d));
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


@pytest.mark.parametrize("source, path, width", [
    (OVERRIDE, "top.u0.r", 4),
    (NESTED, "top.m.u.r", 3),
], ids=["override", "nested"])
def test_widths_agree_under_an_instance_override(source, path, width):
    model = parsed(source, "top")
    net = elaborate(model, "top")
    assert isinstance(net, NetModel), net.render()
    g = design_graph(model)
    graph_widths = {n.id: n.attrs["width"] for n in g.nodes.values()
                    if n.type == "rtl_signal"}
    assert graph_widths == build_signal_index(g).path_widths == net.widths
    assert graph_widths[path] == width


@pytest.mark.parametrize("source, assertion", [
    (OVERRIDE, "u0.r <= 4'd15"),
    (NESTED, "m.u.r <= 3'd7"),
], ids=["override", "nested"])
def test_override_assertion_is_proven(tmp_path, source, assertion):
    (tmp_path / "t.v").write_text(source)
    (tmp_path / "s.md").write_text(
        f"# Range\nREQ[functional,medium]: r stays in range. ASSERT: {assertion}\n")
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


LEAF = ("module leaf #(parameter W = 2) (input clk);\n"
        "  localparam V = W;\n  reg [W-1:0] r;\n"
        "  always @(posedge clk) r <= r;\nendmodule\n")


@pytest.mark.parametrize("instance, code, line, message, reached", [
    ("leaf #(.W(0)) u (.clk(clk));", DiagCode.UNSUPPORTED, 3, "ascending range on 'r'",
     ["top.u.clk"]),
    ("leaf #(.V(3)) u (.clk(clk));", DiagCode.SYNTAX, 2, "cannot override localparam 'V'", []),
    ("leaf #(.W(d)) u (.clk(clk));", DiagCode.SYNTAX, 7,
     "non-constant parameter override 'W'", []),
    ("leaf #(.X(5)) u (.clk(clk));", DiagCode.UNRESOLVED, 7,
     "no parameter 'X' on module 'leaf'", []),
], ids=["ascending", "localparam", "signal", "unknown"])
def test_a_bad_override_is_a_diagnostic(instance, code, line, message, reached):
    """An override is evaluated per instance, under the same rule as the
    defaults: a fault is a diagnostic from elaboration, and the graph lists
    the instances reached before it."""
    model = parsed(LEAF + f"module top (input clk, input d);\n  {instance}\nendmodule\n",
                   "top")
    result = elaborate(model, "top")
    assert [(d.code, d.line, d.message) for d in result.items] == [(code, line, message)]
    g = design_graph(model)
    assert sorted(n.id for n in g.nodes.values() if n.type == "rtl_signal") == \
        ["top.clk", "top.d", *reached]


def test_an_int_override_in_a_saved_design_is_a_parse_violation():
    """An override is stored as the expression written, never as its value."""
    model = parsed(OVERRIDE, "top")
    doc = model.to_doc()
    [inst] = doc["modules"][1]["instances"]
    assert inst["params"] == {"W": ["lit", 4, None]}
    inst["params"] = {"W": 4}
    report = validate_artifact(doc, "design_model")
    assert [v.message for v in report.violations] == \
        ["parse: 'int' object is not subscriptable"], str(report)


def _const_expr(rng: random.Random, env: dict[str, int], depth: int) -> tuple[str, int]:
    """A constant expression over `env` built from `+`, `-` and `?:`, as
    (source text, value)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            name = rng.choice(sorted(env))
            return name, env[name]
        c = rng.randint(1, 4)
        return str(c), c
    (lt, lv), (rt, rv) = (_const_expr(rng, env, depth - 1) for _ in range(2))
    if rng.random() < 0.3:
        (at, av), (bt, bv) = (_const_expr(rng, env, 0) for _ in range(2))
        return f"({at} > {bt} ? {lt} : {rt})", lv if av > bv else rv
    if rng.random() < 0.5:
        return f"({lt} + {rt})", lv + rv
    return f"({lt} - {rt})", lv - rv


def _override(rng: random.Random, env: dict[str, int]) -> tuple[str, int]:
    """An override over the parent's values `env` whose value lies in
    [1, 8], so every `[P-1:0]` range it reaches stays descending."""
    while True:
        text, value = _const_expr(rng, env, 2)
        if 1 <= value <= 8:
            return text, value


def _decls(rng: random.Random) -> list[tuple[str, str, bool, object]]:
    """A module's parameters as (name, default text, is a localparam, its
    value given the ones before it): `A` a literal, each later one reading
    one declared before it, and a localparam `L` last. Each value is at
    least 1 when `A` is."""
    a = rng.randint(1, 4)
    decls = [("A", str(a), False, lambda env: a)]
    for name in "BC"[:rng.randint(0, 2)]:
        p, c = rng.choice(decls)[0], rng.randint(0, 3)
        decls.append(rng.choice([
            (name, f"{p} + {c}", False, lambda env, p=p, c=c: env[p] + c),
            (name, f"{p} > {c} ? {p} - {c} : A", False,
             lambda env, p=p, c=c: env[p] - c if env[p] > c else env["A"])]))
    p = rng.choice(decls)[0]
    return decls + [("L", f"{p} + 1", True, lambda env: env[p] + 1)]


def _values(decls, overrides: dict[str, int]) -> dict[str, int]:
    """The generator's own account of `decls`' values under `overrides`."""
    env: dict[str, int] = {}
    for name, _text, _local, value in decls:
        env[name] = overrides[name] if name in overrides else value(env)
    return env


def _module(name: str, decls, instances: list[str]) -> str:
    header = ", ".join(f"parameter {n} = {t}" for n, t, local, _v in decls if not local)
    names = [n for n, _t, _local, _v in decls]
    return "\n".join([
        f"module {name} #({header}) (input clk);",
        *(f"  localparam {n} = {t};" for n, t, local, _v in decls if local),
        *(f"  reg [{n}-1:0] r{n};" for n in names),
        "  always @(posedge clk) begin " + " ".join(f"r{n} <= r{n};" for n in names) + " end",
        *instances, "endmodule\n"])


def gen_hierarchy(rng: random.Random) -> str:
    """A 2- or 3-level hierarchy under `top`, one register `[P-1:0]` per
    parameter. A module above the leaves is instantiated once; the two
    leaf modules are shared, each instance with its own overrides over its
    parent's values."""
    leaves = [(f"leaf{i}", _decls(rng)) for i in range(2)]
    modules = [_module(name, decls, []) for name, decls in leaves]
    levels = rng.randint(2, 3)

    def instances(depth: int, env: dict[str, int]) -> list[str]:
        """The instance lines of a module at `depth` whose values are `env`."""
        lines = []
        for k in range(rng.randint(1, 2)):
            leaf = depth + 1 == levels - 1
            name, decls = rng.choice(leaves) if leaf else (f"mid{depth}_{k}", _decls(rng))
            over = {n: _override(rng, env) for n, _t, local, _v in decls
                    if not local and rng.random() < 0.6}
            if not leaf:
                inner = _values(decls, {n: v for n, (_t, v) in over.items()})
                modules.append(_module(name, decls, instances(depth + 1, inner)))
            params = ", ".join(f".{n}({t})" for n, (t, _v) in over.items())
            lines.append(f"  {name} {f'#({params}) ' if over else ''}u{k} (.clk(clk));")
        return lines

    decls = _decls(rng)
    modules.append(_module("top", decls, instances(0, _values(decls, {}))))
    return "".join(modules)


def test_parameterized_hierarchies_agree_with_the_reference():
    """Defaults that read earlier parameters, overrides over the parent's
    parameters, `[P-1:0]` ranges: every width is the reference's."""
    rng = random.Random(20261020)
    for _ in range(40):
        source = gen_hierarchy(rng)
        model = parsed(source, "top")
        net = elaborate(model, "top")
        assert isinstance(net, NetModel), net.render() + "\n" + source
        assert net.widths == RefDesign(model, "top").widths, source
