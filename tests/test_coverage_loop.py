from test_agents import generation_setup
from verikg.agents.backend import ScriptedBackend
from verikg.agents.common import Workspace
from verikg.agents.coverage_loop import (
    blocking_assumption_candidates,
    enabling_conditions,
    guard_text,
    order_gaps,
    run_coverage_loop,
)
from verikg.agents.scripted import default_rules
from verikg.engine.check import CheckConfig
from verikg.engine.coverage import coverage
from verikg.ir import types as T
from verikg.kg import build_signal_index
from verikg.pipeline import link_assumptions_to_statements, rebuild_graph
from verikg.rtl.elaborate import elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva.parser import parse_properties_with_recovery

CLOCKED = "default clocking @(posedge clk); endclocking\n"

GAPPY = """
module gappy (input clk, input d);
  reg q;
  reg mode;
  always @(posedge clk) begin
    if (1'd0)
      q <= 1'b1;
    else
      q <= d;
    case (mode)
      1'd0: mode <= d;
      1'd1: mode <= 1'd0;
      default: mode <= 1'd0;
    endcase
  end
endmodule
"""


class TestGapOrdering:
    def test_functional_before_default_arms(self):
        dm = parse_rtl(GAPPY)
        by_detail = {s.detail: s.id for s in dm.statements if s.detail}
        gaps = [by_detail["case_default"], by_detail["if_then"],
                by_detail["if_else"]]
        ordered = order_gaps(dm, gaps)
        assert ordered == [by_detail["if_then"], by_detail["if_else"],
                           by_detail["case_default"]]

    def test_source_guard_text(self):
        dm = parse_rtl(GAPPY)
        then_arm = next(s for s in dm.statements if s.detail == "if_then")
        assert guard_text(enabling_conditions(dm)[then_arm.id]) == "(1'd0)"


class TestCoverageLoop:
    def test_zero_gaps_noop(self, fifo_model):
        _b, kg, _idx, _r = generation_setup(fifo_model, [])
        cov = T.CoverageMetrics("self", 100.0, ["S1"], [], [], 0)
        backend = ScriptedBackend([])
        out = run_coverage_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                          backend),
                                cov)
        assert backend.calls == 0
        assert out.new_decls == []

    def test_defensive_verdict_reclassifies_without_property(self):
        dm = parse_rtl(GAPPY)
        net = elaborate(dm, "gappy")
        _b, kg, _idx, _r = generation_setup(dm, [])
        cov = coverage(net, [], run_ref="self")
        default_arm = next(s.id for s in dm.statements
                           if s.detail == "case_default")
        assert default_arm in cov.unreachable_statements
        backend = ScriptedBackend(default_rules())
        out = run_coverage_loop(Workspace(kg, build_signal_index(kg), dm, backend), cov)
        classes = dict(out.dead_code)
        assert classes[default_arm] is T.DeadCodeClass.DEFENSIVE
        covered_by_props = {l.dst_id for l in out.new_links
                            if l.link_kind is T.LinkKind.COVERS}
        assert default_arm not in covered_by_props

    def test_gap_verdict_emits_cover_with_guard(self):
        dm = parse_rtl(GAPPY)
        net = elaborate(dm, "gappy")
        _b, kg, _idx, _r = generation_setup(dm, [])
        cov = coverage(net, [], run_ref="self")
        then_arm = next(s.id for s in dm.statements if s.detail == "if_then")
        backend = ScriptedBackend(default_rules())
        out = run_coverage_loop(Workspace(kg, build_signal_index(kg), dm, backend), cov)
        cover_targets = {l.dst_id for l in out.new_links
                         if l.link_kind is T.LinkKind.COVERS}
        assert then_arm in cover_targets
        emitted = {d.prop_id: d for d in out.new_decls}
        assert any(d.kind == "cover" for d in out.new_decls)

    def test_blocked_gap_names_assumption_node(self, fifo_model, fifo_net,
                                               fifo_index):
        from verikg.sva.bind import bind

        bundle, kg, idx, _r = generation_setup(
            fifo_model, ["Quiet bus. ASSUME: !wr_en"])
        line = "assume property (!wr_en);"
        src = CLOCKED + f"// property: PROP-001\n{line}\n"
        pf, _d = parse_properties_with_recovery(src)
        bundle.properties = [T.PropertyRecord(
            "PROP-001", ["REQ-001"], T.PropKind.ASSUMPTION, line, (1, 1))]
        link_assumptions_to_statements(bundle, pf, idx, fifo_net)
        assert any(l.link_kind is T.LinkKind.COVERS
                   for l in bundle.tracelinks)
        kg = rebuild_graph(bundle)

        bound, errs = bind(pf, idx)
        cov = coverage(fifo_net, [],
                       CheckConfig(input_assumptions=bound), run_ref="self")
        assert cov.unreachable_statements
        gap = cov.unreachable_statements[0]
        candidates = blocking_assumption_candidates(kg, gap)
        assert candidates == ["PROP-001"]

        backend = ScriptedBackend(default_rules())
        out = run_coverage_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                          backend),
                                cov)
        blocked = {sid: blocker for sid, blocker in out.blockers.items()}
        assert any(b == "PROP-001" for b in blocked.values())
