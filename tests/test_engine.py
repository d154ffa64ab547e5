import io
import json
import random
import re
import time
import tokenize

import pytest

from independent_oracles import RefDesign, oracle_min_violation, oracle_reachable_statements
from oracles import gen_design_source, gen_property_source
import verikg.engine.coverage as coverage_module
from verikg.engine.check import (
    MAX_INPUT_BITS,
    CheckConfig,
    EngineError,
    check,
    check_cover,
)
from verikg.engine.coverage import coverage
from verikg.engine.external import ExternalReportError, import_external_results
from verikg.ir.types import DeadCodeClass, ResultStatus
from verikg.kg import SignalIndex
from verikg.pipeline import RunConfig, run_all
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties

CLOCKED = "default clocking @(posedge clk); endclocking\n"

TOGGLE = """
module toggle (input clk, output x);
  reg s;
  assign x = s;
  always @(posedge clk) s <= ~s;
endmodule
"""


def compile_props(source: str, dm, net):
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    pf = parse_properties(CLOCKED + source)
    assert isinstance(pf, S.PropertyFile), pf.render()
    bound, errs = bind(pf, idx)
    assert not errs.items, [str(i) for i in errs.items]
    return bound


@pytest.fixture()
def toggle():
    dm = parse_rtl(TOGGLE)
    net = elaborate(dm, "toggle")
    assert isinstance(net, NetModel)
    return dm, net


class TestCheckToggle:
    def test_holds_after_toggle(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property (x |-> ##1 !x);", dm, net)
        result, trace = check(net, bp)
        assert result.status is ResultStatus.PROVEN
        assert trace is None

    def test_cex_one_cycle_after_antecedent(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property (x |-> ##1 x);", dm, net)
        result, trace = check(net, bp)
        assert result.status is ResultStatus.CEX
        # x first holds at cycle 1; the violation lands one cycle later
        assert trace.failure_cycle == 2
        states = [s for _i, s in trace.cycles]
        assert [s["toggle.s"] for s in states] == [0, 1, 0]

    def test_unsatisfiable_antecedent_is_vacuous(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property ((x && !x) |-> x);", dm, net)
        result, _ = check(net, bp)
        assert result.status is ResultStatus.VACUOUS

    def test_zero_budget_rejected(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property (x);", dm, net)
        with pytest.raises(EngineError):
            check(net, bp, CheckConfig(max_states=0))

    def test_bounded_when_depth_exhausted(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property ($past(x, 4) |-> x);", dm, net)
        result, _ = check(net, bp, CheckConfig(max_depth=2))
        assert result.status is ResultStatus.BOUNDED
        assert result.proof_depth == 1

    def test_unsized_literal_in_bitwise_op_takes_operand_width(self):
        # `a | 4` is two bits wide, as the wire it drives: o always equals a
        dm = parse_rtl(
            "module t (input clk, input [1:0] a, output [1:0] o);\n"
            "  reg [1:0] r;\n  assign o = a | 4;\n"
            "  always @(posedge clk) r <= o;\nendmodule\n")
        net = elaborate(dm, "t")
        (bp,) = compile_props("assert property (o == a);", dm, net)
        result, trace = check(net, bp)
        assert result.status is ResultStatus.PROVEN, trace

    def test_signal_names_never_reach_generated_code(self):
        """Names that are Python keywords, builtins or the generated code's
        own parameter names work as signals, and no text from the design
        or the property appears in the generated code."""
        dm = parse_rtl(
            "module t (input clk, input x, input h, input lambda);\n"
            "  reg [1:0] None;\n  reg __import__;\n"
            "  always @(posedge clk)\n"
            "    if (lambda) begin None <= 2'd0; __import__ <= 1'b0; end\n"
            "    else begin None <= None + 2'd1; __import__ <= x ^ h; end\n"
            "endmodule\n")
        assert isinstance(dm, DesignModel), dm.render()
        net = elaborate(dm, "t")
        assert isinstance(net, NetModel), net.render()
        ref = RefDesign(dm, "t")
        names = [n for n, _ in net.state_bits]
        s_net, s_ref = net.init_state(), ref.init_state()
        for combo in [(1, 0, 0), (1, 1, 0), (0, 1, 0), (1, 1, 1), (0, 0, 0)]:
            inputs = dict(zip((n for n, _ in net.inputs), combo))
            s_ref, _executed = ref.step(s_ref, inputs)
            s_net = net.step(s_net, combo)
            assert s_net == tuple(s_ref[n] for n in names)
        (bp,) = compile_props(
            "assert property (x |=> __import__ != $past(h) || None == 2'd1);",
            dm, net)
        result, trace = check(net, bp, CheckConfig(max_depth=4))
        o_min, _o_ante = oracle_min_violation(ref, bp, 4)
        assert result.status is ResultStatus.CEX
        assert trace.failure_cycle == o_min
        own = re.compile(r"(def|return|if|else|and|or|not|state|inputs|x|h|"
                         r"[vtf][0-9]*)$")
        for src in net.code:
            src = "def f" + src
            for tok in tokenize.generate_tokens(io.StringIO(src).readline):
                if tok.type == tokenize.NAME:
                    assert own.match(tok.string), tok
                elif tok.type == tokenize.NUMBER:
                    assert tok.string.isdigit(), tok
                else:
                    assert tok.type in (tokenize.OP, tokenize.NEWLINE,
                                        tokenize.INDENT, tokenize.DEDENT,
                                        tokenize.ENDMARKER), tok


class TestCheckFifo:
    def test_cover_full_witness_length_three(self, fifo_model, fifo_net):
        assert check_cover is check  # the old entry point's name still works
        (bp,) = compile_props("cover property (full);", fifo_model, fifo_net)
        result, witness = check(fifo_net, bp)
        assert result.status is ResultStatus.PROVEN
        assert len(witness.cycles) == 3  # two writes, then the witness cycle
        writes = [c[0]["fifo.wr_en"] for c in witness.cycles[:2]]
        assert writes == [1, 1]

    def test_unsatisfiable_cover_is_vacuous(self, fifo_model, fifo_net):
        (bp,) = compile_props("cover property (full && empty);",
                              fifo_model, fifo_net)
        result, witness = check(fifo_net, bp)
        assert result.status is ResultStatus.VACUOUS
        assert witness is None

    def test_cover_bounded_under_depth_budget(self, fifo_model, fifo_net):
        (bp,) = compile_props("cover property (full);", fifo_model, fifo_net)
        result, witness = check(fifo_net, bp, CheckConfig(max_depth=2))
        assert result.status is ResultStatus.BOUNDED
        assert witness is None

    @pytest.mark.parametrize("budget", ["max_depth", "max_states"])
    def test_bounded_result_names_its_budget(self, fifo_model, fifo_net, budget):
        props = compile_props("// property: PROP-001\nassert property (count <= 2'd2);\n"
                              "// property: PROP-002\ncover property (full);\n",
                              fifo_model, fifo_net)
        assert [bp.kind for bp in props] == ["assertion", "cover"]
        for bp in props:
            unbounded, _ = check(fifo_net, bp)
            assert unbounded.status is not ResultStatus.BOUNDED
            assert unbounded.note is None
            result, trace = check(fifo_net, bp, CheckConfig(**{budget: 2}))
            assert (result.status, result.note, trace) == (ResultStatus.BOUNDED, budget, None)

    def test_trace_replays_exactly(self, fifo_model, fifo_net):
        (bp,) = compile_props(
            "assert property (full |-> ##1 !empty);", fifo_model, fifo_net)
        result, trace = check(fifo_net, bp)
        assert result.status is ResultStatus.CEX
        order = [n for n, _ in fifo_net.state_bits]
        replayed = trace.replay_states(fifo_net)
        for t, (inputs, state) in enumerate(trace.cycles):
            assert dict(zip(order, replayed[t])) == state

    def test_determinism(self, fifo_model, fifo_net):
        (bp,) = compile_props(
            "assert property (full |-> ##1 !empty);", fifo_model, fifo_net)
        r1, t1 = check(fifo_net, bp)
        r2, t2 = check(fifo_net, bp)
        assert r1 == r2
        assert t1.cycles == t2.cycles


class TestCoverage:
    def test_const_false_arm_unreachable(self):
        dm = parse_rtl(
            "module t (input clk, input d);\n  reg q;\n"
            "  always @(posedge clk) begin\n"
            "    if (1'd0)\n      q <= 1'b1;\n    else\n      q <= d;\n"
            "  end\nendmodule\n")
        net = elaborate(dm, "t")
        cm = coverage(net, [])
        dead_arms = [s.id for s in dm.statements if s.detail == "if_then"]
        assert cm.unreachable_statements == [dead_arms[0], "S2"]
        # S2 is the assignment inside the dead arm

    def test_fifo_fully_covered(self, fifo_model, fifo_net):
        cm = coverage(fifo_net, [], run_ref="self")
        assert cm.reachable_pct == 100.0
        assert cm.unreachable_statements == []
        assert not cm.partial

    def test_assumption_blocks_write_path(self, fifo_model, fifo_net):
        (assume,) = compile_props("assume property (!wr_en);",
                                  fifo_model, fifo_net)
        cfg = CheckConfig(input_assumptions=[assume])
        cm = coverage(fifo_net, [], cfg, run_ref="self")
        assert cm.reachable_pct < 100.0
        slot_writes = {s.id for s in fifo_model.statements
                       if s.kind == "seq_assign" and 30 < s.line < 36}
        assert cm.unreachable_statements  # write path gone
        assert all(cls is DeadCodeClass.GAP for _s, cls in cm.dead_code)

    def test_assumption_monotonicity_random(self, fifo_model, fifo_net):
        baseline = set(coverage(fifo_net, []).covered_statements)
        for src in ("assume property (!wr_en);",
                    "assume property (!rd_en);",
                    "assume property (din == 2'd0);",
                    "assume property (!rst);"):
            (assume,) = compile_props(src, fifo_model, fifo_net)
            cfg = CheckConfig(input_assumptions=[assume])
            covered = set(coverage(fifo_net, [], cfg).covered_statements)
            assert covered <= baseline, src

    def test_vacuity_count(self, fifo_model, fifo_net):
        props = compile_props(
            "// property: PROP-001\n"
            "assert property ((full && empty) |-> wr_en);\n"
            "// property: PROP-002\n"
            "assert property (count <= 2'd2);\n",
            fifo_model, fifo_net)
        cm = coverage(fifo_net, props)
        assert cm.vacuity_count == 1

    def test_partial_flag_on_budget(self, fifo_model, fifo_net):
        cm = coverage(fifo_net, [], CheckConfig(max_depth=1))
        assert cm.partial

    def test_matches_interpreter_reachability(self):
        rng = random.Random(5150)
        done = 0
        attempts = 0
        while done < 10 and attempts < 60:
            attempts += 1
            src = gen_design_source(rng, max_regs=2)
            dm = parse_rtl(src)
            if not isinstance(dm, DesignModel):
                continue
            net = elaborate(dm, "duv")
            if not isinstance(net, NetModel):
                continue
            done += 1
            cm = coverage(net, [])
            assert set(cm.covered_statements) == \
                oracle_reachable_statements(RefDesign(dm, "duv")), src
        assert done == 10


WIDE_INPUT = """
module wide (input clk, input rst, input [31:0] data, output hit);
  reg [31:0] r;
  reg seen;
  assign hit = r == 32'd7;
  always @(posedge clk)
    if (rst) begin r <= 32'd0; seen <= 1'b0; end
    else begin r <= data; if (hit) seen <= 1'b1; end
endmodule
"""


class TestInputBits:
    def test_oversized_input_space_is_bounded_not_enumerated(self):
        dm = parse_rtl(WIDE_INPUT)
        net = elaborate(dm, "wide")
        assert isinstance(net, NetModel), net.render()
        assert sum(w for _n, w in net.inputs) == 33 > MAX_INPUT_BITS
        props = compile_props("assert property (!seen);\ncover property (hit);\n",
                              dm, net)
        start = time.perf_counter()
        for bp in props:
            result, trace = check(net, bp)
            assert (result.status, result.note, trace) == (
                ResultStatus.BOUNDED, "max_input_bits", None)
            assert result.runtime_ms == 0
        cm = coverage(net, props)
        assert time.perf_counter() - start < 1.0
        assert cm.partial and cm.covered_statements == []
        assert cm.unreachable_statements and cm.vacuity_count == 0
        assert net.engine["inputs"] is None  # no vector was built

    def test_input_space_at_the_limit_is_explored(self):
        bits = MAX_INPUT_BITS - 1  # and rst
        dm = parse_rtl(WIDE_INPUT.replace("[31:0]", f"[{bits - 1}:0]")
                       .replace("32'd", f"{bits}'d"))
        net = elaborate(dm, "wide")
        assert isinstance(net, NetModel), net.render()
        assert sum(w for _n, w in net.inputs) == MAX_INPUT_BITS
        (bp,) = compile_props("cover property (!hit);\n", dm, net)
        result, _trace = check(net, bp)
        assert result.status is ResultStatus.PROVEN and result.note is None
        assert len(net.engine["inputs"]) == 1 << MAX_INPUT_BITS


LATCH = """
module latch (input clk, input [15:0] d);
  reg [15:0] q;
  always @(posedge clk) q <= d;
endmodule
"""

# The dead arm leaves two statements uncovered, so coverage's search cannot
# end before a budget runs out.
DEAD_ARM_LATCH = LATCH.replace("q <= d;", "if (1'd0) q <= 16'd0; else q <= d;")


def _latch(source: str):
    dm = parse_rtl(source)
    net = elaborate(dm, "latch")
    assert isinstance(net, NetModel), net.render()
    return dm, net


class TestWorkBudget:
    """A 16-input-bit latch reaches its 65,536 states in one cycle, and each
    state takes 65,536 input vectors: `max_states` does not stop its search
    before 2**32 (node, input) pairs. `MAX_STEPS` stops it
    within seconds, bounded at the last completed cycle. Each search runs
    twice, on a fresh net, and gives the same result."""

    def test_check_stops_at_the_work_budget(self):
        results = []
        for _run in range(2):
            dm, net = _latch(LATCH)
            assert sum(w for _n, w in net.inputs) == MAX_INPUT_BITS
            (bp,) = compile_props("assert property (q == q);\n", dm, net)
            start = time.perf_counter()
            result, trace = check(net, bp)
            assert time.perf_counter() - start < 10.0
            assert (result.status, result.note, trace) == (
                ResultStatus.BOUNDED, "max_steps", None)
            assert result.proof_depth == 0
            results.append(result)
        assert results[0] == results[1]

    def test_coverage_stops_at_the_work_budget(self, monkeypatch):
        explorations = []

        def recorded(*args, **kwargs):
            explorations.append(explore(*args, **kwargs))
            return explorations[-1]

        explore = coverage_module._explore
        monkeypatch.setattr(coverage_module, "_explore", recorded)
        metrics = []
        for _run in range(2):
            dm, net = _latch(DEAD_ARM_LATCH)
            start = time.perf_counter()
            cm = coverage(net, [])
            assert time.perf_counter() - start < 10.0
            assert cm.partial
            dead_arm = next(s.id for s in dm.statements if s.detail == "if_then")
            assert cm.unreachable_statements == [dead_arm, "S2"]
            metrics.append(cm)
        assert [(ex.status, ex.budget) for ex in explorations] == [
            (ResultStatus.BOUNDED, "max_steps")] * 2
        assert explorations[0] == explorations[1] and metrics[0] == metrics[1]

    def test_run_stops_at_the_work_budget(self, tmp_path):
        (tmp_path / "latch.v").write_text(LATCH)
        (tmp_path / "latch_spec.md").write_text(
            "REQ[functional,medium]: q holds its value. ASSERT: q == q\n")
        results = []
        for out in ("first", "second"):
            start = time.perf_counter()
            report = run_all(RunConfig(spec_path=str(tmp_path / "latch_spec.md"),
                                       rtl_paths=[str(tmp_path / "latch.v")],
                                       out_root=str(tmp_path / out),
                                       created_at="2026-01-01T00:00:00Z"))
            assert time.perf_counter() - start < 10.0
            results.append((tmp_path / out / report.run_id / "formal_results.json").read_bytes())
        assert results[0] == results[1]
        assert [(r["status"], r["note"]) for r in json.loads(results[0])] == [
            ("bounded", "max_steps")]


class TestOracleAgreement:
    """Engine verdicts versus the brute-force input-enumeration simulator."""

    def test_random_agreement(self):
        rng = random.Random(424242)
        trials = 0
        attempts = 0
        while trials < 60 and attempts < 400:
            attempts += 1
            src = gen_design_source(rng)
            dm = parse_rtl(src)
            if not isinstance(dm, DesignModel):
                continue
            net = elaborate(dm, "duv")
            if not isinstance(net, NetModel):
                continue
            one_bit = [n.split(".")[-1] for n, w in net.widths.items()
                       if w == 1 and not n.endswith(".clk")]
            two_bit = [n.split(".")[-1] for n, w in net.widths.items() if w == 2]
            psrc = gen_property_source(rng, one_bit, two_bit)
            pf = parse_properties(CLOCKED + psrc)
            if not isinstance(pf, S.PropertyFile):
                continue
            idx = SignalIndex()
            for name, w in net.widths.items():
                idx.add(name, w)
            bound, errs = bind(pf, idx)
            if errs.items or not bound:
                continue
            bp = bound[0]
            trials += 1
            depth = 8 if sum(w for _n, w in net.inputs) <= 1 else 5
            result, trace = check(net, bp, CheckConfig(max_states=1 << 17,
                                                       max_depth=depth))
            o_min, o_ante = oracle_min_violation(RefDesign(dm, "duv"), bp, depth)
            ctx = (psrc, src, result.status, o_min, o_ante)
            if result.status is ResultStatus.CEX:
                assert o_min == trace.failure_cycle, ctx
                assert len(trace.cycles) == trace.failure_cycle + 1, ctx
            elif result.status is ResultStatus.VACUOUS:
                assert o_min is None and not o_ante, ctx
            elif result.status is ResultStatus.PROVEN:
                assert o_min is None, ctx
                if bp.impl is not S.ImplKind.NONE:
                    assert o_ante, ctx
            else:
                assert o_min is None, ctx
        assert trials == 60


class TestExternalImport:
    def test_proven_entry(self):
        out = import_external_results(
            {"results": [{"property": "PROP-001", "status": "proven",
                          "depth": 3, "runtime_ms": 12}]})
        assert len(out) == 1
        assert out[0].status is ResultStatus.PROVEN
        assert out[0].external is True
        assert out[0].proof_depth == 3

    def test_undetermined_maps_to_bounded(self, fixtures_dir):
        import json

        report = json.loads((fixtures_dir / "external_report.json").read_text())
        out = import_external_results(report)
        by_prop = {r.prop_id: r for r in out}
        assert by_prop["PROP-001"].status is ResultStatus.PROVEN
        assert by_prop["PROP-002"].status is ResultStatus.CEX
        assert by_prop["PROP-002"].artifact_path == "cex/PROP-002.vcd"
        assert by_prop["PROP-003"].status is ResultStatus.BOUNDED
        assert by_prop["PROP-004"].status is ResultStatus.VACUOUS
        assert by_prop["PROP-005"].status is ResultStatus.ERROR
        assert "mystery_state" in by_prop["PROP-005"].note

    def test_empty_report(self):
        assert import_external_results({"results": []}) == []

    def test_schema_violation(self):
        with pytest.raises(ExternalReportError) as err:
            import_external_results({"results": [{"status": "proven"}]})
        assert "property" in str(err.value)

    def test_cex_requires_artifact(self):
        with pytest.raises(ExternalReportError):
            import_external_results(
                {"results": [{"property": "P", "status": "cex"}]})


class TestContractViolations:
    def test_unbound_identifier_is_an_error(self, toggle):
        from verikg.engine.monitor import UnboundIdentifierError
        from verikg.rtl.ast import Id

        dm, net = toggle
        bp = S.BoundProperty(
            prop_id="PROP-X", kind="assertion", impl=S.ImplKind.NONE,
            antecedent=None,
            consequent=S.Sequence((S.SeqStep(0, 0, Id("ghost.signal")),)),
            clock_net="toggle.clk", disable_net=None, line=1)
        with pytest.raises(UnboundIdentifierError):
            check(net, bp)

    def test_non_assumption_in_input_assumptions_rejected(self, toggle):
        dm, net = toggle
        (bp,) = compile_props("assert property (x);", dm, net)
        with pytest.raises(EngineError):
            check(net, bp, CheckConfig(input_assumptions=[bp]))
