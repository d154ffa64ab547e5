from hypothesis import given, settings
from hypothesis import strategies as st

from verikg.diagnostics import DiagCode, Diagnostics
from verikg.kg import SignalIndex
from verikg.rtl.ast import DesignModel, Id
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind, compile_properties
from verikg.sva.emit import emit_properties
from verikg.sva.parser import parse_properties, parse_properties_with_recovery

CLOCKED = "default clocking @(posedge clk); endclocking\n"


def parse_ok(src: str) -> S.PropertyFile:
    pf = parse_properties(src)
    assert isinstance(pf, S.PropertyFile), pf.render()
    return pf


def canon(pf: S.PropertyFile):
    return (sorted(pf.macros),
            {p.prop_id: (p.kind, p.body) for p in pf.properties})


class TestParse:
    def test_overlap_delay_one(self):
        pf = parse_ok("assert property (@(posedge clk) a |-> ##1 b);")
        decl = pf.properties[0]
        assert decl.kind == "assertion"
        assert decl.body.impl is S.ImplKind.OVERLAP
        assert decl.body.consequent.steps[0].delay_lo == 1

    def test_macro_used_without_definition_binds_to_error(self):
        pf = parse_ok(CLOCKED + "// property: PROP-001\n"
                                "assert property (`GHOST |-> a);")
        idx = SignalIndex()
        idx.add("t.clk", 1)
        idx.add("t.a", 1)
        _bound, errs = bind(pf, DesignModel(), idx)
        items = errs.for_prop("PROP-001")
        assert items and items[0].kind is S.BindErrorKind.UNDEFINED_MACRO

    def test_nested_implication_diagnostic(self):
        result = parse_properties(CLOCKED + "assert property (a |-> b |-> c);")
        assert isinstance(result, Diagnostics)
        assert any(d.code is DiagCode.NESTED_IMPLICATION for d in result.errors)

    def test_delay_bound_rejected_not_truncated(self):
        result = parse_properties(CLOCKED + "assert property (a ##40 b);")
        assert isinstance(result, Diagnostics)
        assert any(d.code is DiagCode.BOUND_EXCEEDED for d in result.errors)

    def test_attribution_inside_span(self):
        src = (CLOCKED
               + "// property: PROP-007\n"
               + "assert property (a |-> |-> b);\n")
        _pf, diags = parse_properties_with_recovery(src)
        assert diags.errors[0].prop_id == "PROP-007"

    def test_cover_with_implication_rejected(self):
        result = parse_properties(CLOCKED + "cover property (a |-> b);")
        assert isinstance(result, Diagnostics)

    def test_label_becomes_id(self):
        pf = parse_ok(CLOCKED + "safe_q: assert property (a);")
        assert pf.properties[0].prop_id == "safe_q"


class TestEmit:
    def test_empty_file_header_only(self):
        text = emit_properties(S.PropertyFile())
        assert text.startswith("// generated property file")
        assert "assert" not in text

    def test_line_map_spans_disjoint_and_ordered(self):
        pf = parse_ok(CLOCKED
                      + "// property: PROP-001\nassert property (a);\n"
                      + "// property: PROP-002\nassert property (b);\n")
        emit_properties(pf)
        spans = [pf.line_map["PROP-001"], pf.line_map["PROP-002"]]
        assert spans[0][1] < spans[1][0]
        assert all(a <= b for a, b in spans)

    def test_fixpoint(self):
        src = (CLOCKED
               + "`define F (full)\n"
               + "// property: PROP-001\n"
               + "assert property (@(posedge clk) disable iff (rst) `F |-> ##[1:3] !b);\n"
               + "// property: PROP-002\n"
               + "cover property (a ##2 b);\n")
        pf = parse_ok(src)
        once = emit_properties(pf)
        again = parse_ok(once)
        assert canon(pf) == canon(again)
        assert emit_properties(again) == once


# Random AST generator for the round-trip property test.
_names = st.sampled_from(["a", "b", "c", "fifo.count", "wr_en"])


def _exprs():
    leaf = st.one_of(
        _names.map(Id),
        st.integers(0, 3).map(lambda v: S.Past(Id("a"), v + 1)),
        _names.map(lambda n: S.Rose(Id(n))),
    )

    def extend(children):
        from verikg.rtl.ast import Binary, Unary

        return st.one_of(
            st.tuples(st.sampled_from(["&&", "||", "==", "&"]), children,
                      children).map(lambda t: Binary(t[0], t[1], t[2])),
            children.map(lambda e: Unary("!", e)),
        )

    return st.recursive(leaf, extend, max_leaves=5)


def _sequences():
    step = st.tuples(st.integers(0, 3), st.integers(0, 2), _exprs()).map(
        lambda t: S.SeqStep(t[0], t[0] + t[1], t[2]))
    first = _exprs().map(lambda e: S.SeqStep(0, 0, e))
    return st.tuples(first, st.lists(step, max_size=2)).map(
        lambda t: S.Sequence((t[0],) + tuple(t[1])))


def _bodies():
    return st.one_of(
        _sequences().map(lambda s: S.PropBody(S.ImplKind.NONE, None, s)),
        st.tuples(_sequences(), _sequences(),
                  st.sampled_from([S.ImplKind.OVERLAP, S.ImplKind.NONOVERLAP]),
                  st.booleans()).map(
            lambda t: S.PropBody(t[2], t[0], t[1],
                                 Id("rst") if t[3] else None)),
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(_bodies(), min_size=1, max_size=4),
       st.lists(st.sampled_from(["assertion", "assumption"]), min_size=4,
                max_size=4))
def test_roundtrip_random_asts(bodies, kinds):
    pf = S.PropertyFile(default_clock=S.ClockSpec("posedge", Id("clk")))
    for i, body in enumerate(bodies):
        kind = kinds[i % len(kinds)]
        pf.properties.append(S.PropertyDecl(f"PROP-{i + 1:03d}", kind, body, 1))
    text = emit_properties(pf)
    back = parse_properties(text)
    assert isinstance(back, S.PropertyFile), getattr(back, "render", lambda: back)()
    assert canon(back) == canon(pf)


TWIN = """
module leaf (input clk, input d, output q);
  reg r;
  assign q = r;
  always @(posedge clk) r <= d;
endmodule
module top (input clk, input d, output q);
  wire mid;
  leaf a (.clk(clk), .d(d), .q(mid));
  leaf b (.clk(clk), .d(mid), .q(q));
endmodule
"""


class TestBind:
    def _index(self, net):
        idx = SignalIndex()
        for name, width in net.widths.items():
            idx.add(name, width)
        return idx

    def test_declared_ports_bind_clean(self, fifo_model, fifo_net, fifo_index):
        pf = parse_ok(CLOCKED + "assert property (full |-> ##1 count != 2'd0);")
        bound, errs = bind(pf, fifo_model, fifo_index)
        assert not errs.items
        assert bound[0].clock_net == "fifo.clk"

    def test_typo_reports_undeclared(self, fifo_model, fifo_index):
        pf = parse_ok(CLOCKED + "// property: PROP-001\n"
                                "assert property (wr_enn |-> full);")
        bound, errs = bind(pf, fifo_model, fifo_index)
        assert not bound
        item = errs.for_prop("PROP-001")[0]
        assert item.kind is S.BindErrorKind.UNDECLARED_IDENTIFIER
        assert item.identifier == "wr_enn"

    def test_twin_instances_are_ambiguous(self):
        from verikg.rtl.elaborate import elaborate

        dm = parse_rtl(TWIN)
        net = elaborate(dm, "top")
        idx = self._index(net)
        pf = parse_ok(CLOCKED + "// property: PROP-001\n"
                                "assert property (r |-> mid);")
        _bound, errs = bind(pf, dm, idx)
        item = errs.for_prop("PROP-001")[0]
        assert item.kind is S.BindErrorKind.AMBIGUOUS_PATH
        assert item.candidates == ["top.a.r", "top.b.r"]

    def test_unique_suffix_resolves(self):
        from verikg.rtl.elaborate import elaborate

        dm = parse_rtl(TWIN)
        net = elaborate(dm, "top")
        idx = self._index(net)
        pf = parse_ok(CLOCKED + "assert property (a.r |-> mid);")
        bound, errs = bind(pf, dm, idx)
        assert not errs.items, [str(i) for i in errs.items]
        step = bound[0].antecedent.steps[0]
        assert step.expr == Id("top.a.r")

    def test_shallowest_clock_preferred_in_hierarchy(self):
        from verikg.rtl.elaborate import elaborate

        dm = parse_rtl(TWIN)
        net = elaborate(dm, "top")
        idx = self._index(net)
        pf = parse_ok(CLOCKED + "assert property (a.r |-> a.r);")
        bound, errs = bind(pf, dm, idx)
        assert not errs.items
        assert bound[0].clock_net == "top.clk"

    def test_recursive_macro_diagnostic(self, fifo_model, fifo_index):
        pf = parse_ok("`define A (`B)\n`define B (`A)\n" + CLOCKED
                      + "// property: PROP-001\nassert property (`A);")
        _bound, errs = bind(pf, fifo_model, fifo_index)
        item = errs.for_prop("PROP-001")[0]
        assert item.kind is S.BindErrorKind.UNDEFINED_MACRO

    def test_width_mismatch(self, fifo_model, fifo_index):
        pf = parse_ok(CLOCKED + "// property: PROP-001\n"
                                "assert property (count == 3'd1);")
        _bound, errs = bind(pf, fifo_model, fifo_index)
        item = errs.for_prop("PROP-001")[0]
        assert item.kind is S.BindErrorKind.WIDTH_MISMATCH

    def test_missing_clock(self, fifo_model, fifo_index):
        pf = parse_ok("// property: PROP-001\nassert property (full);")
        _bound, errs = bind(pf, fifo_model, fifo_index)
        assert errs.for_prop("PROP-001")


class TestCompile:
    def test_errors_attributed_per_property(self, fifo_model, fifo_index):
        pf, _diags = parse_properties_with_recovery(
            CLOCKED
            + "// property: PROP-001\nassert property (count <= |-> 2'd2);\n"
            + "// property: PROP-002\nassert property (wr_enn |-> full);\n"
            + "// property: PROP-003\nassert property (count <= 2'd2);\n")
        c = compile_properties(pf, fifo_model, fifo_index)
        assert {d.prop_id for d in c.diags.errors} == {"PROP-001"}
        assert [i.prop_id for i in c.errors.items] == ["PROP-002"]
        assert [b.prop_id for b in c.bound] == ["PROP-003"]
        assert c.bound[0].line == c.parsed.line_map["PROP-003"][0] \
            == pf.line_map["PROP-003"][0]

    def test_default_clock_carries_over(self, fifo_model, fifo_index):
        pf = S.PropertyFile(default_clock=S.ClockSpec("posedge", Id("clk")))
        pf.properties = parse_ok(
            "// property: PROP-001\nassert property (full |-> !empty);").properties
        c = compile_properties(pf, fifo_model, fifo_index)
        assert c.parsed.default_clock == pf.default_clock
        assert not c.errors and c.bound[0].clock_net == "fifo.clk"

    def test_single_property_in_isolation(self, fifo_model, fifo_index):
        pf = parse_ok("`define FULL fifo.full\n" + CLOCKED
                      + "// property: PROP-001\nassert property (wr_enn);\n"
                      + "// property: PROP-002\nassert property (`FULL |-> !empty);")
        alone = S.PropertyFile(macros=list(pf.macros),
                               properties=[pf.get("PROP-002")],
                               default_clock=pf.default_clock)
        c = compile_properties(alone, fifo_model, fifo_index)
        assert not c.diags.has_errors() and not c.errors
        assert [b.prop_id for b in c.bound] == ["PROP-002"]
        assert c.bound[0].antecedent.steps[0].expr == Id("fifo.full")


def test_macro_used_before_definition_is_diagnosed():
    src = (CLOCKED
           + "// property: PROP-001\n"
           + "assert property (`LATE |-> a);\n"
           + "`define LATE (full)\n")
    result = parse_properties(src)
    assert isinstance(result, Diagnostics)
    bad = [d for d in result.errors if d.code is DiagCode.UNDEFINED_MACRO]
    assert bad and bad[0].prop_id == "PROP-001"


def test_macro_in_select_bound_used_before_definition_is_diagnosed():
    """The use-before-definition check sees every node, select bounds too."""
    src = (CLOCKED
           + "// property: PROP-001\n"
           + "assert property (count[`HI:0] == 2'd0);\n"
           + "`define HI 1\n")
    result = parse_properties(src)
    assert isinstance(result, Diagnostics)
    bad = [d for d in result.errors if d.code is DiagCode.UNDEFINED_MACRO]
    assert [d.prop_id for d in bad] == ["PROP-001"]
