import verikg.agents.cex_loop as cex_loop_module
from test_agents import generation_setup
from verikg.agents.backend import ScriptedBackend, ScriptedRule
from verikg.agents.cex_loop import run_cex_loop
from verikg.agents.common import Workspace
from verikg.agents.scripted import default_rules
from verikg.engine.check import CheckConfig, check
from verikg.ir import types as T
from verikg.kg import build_signal_index
from verikg.pipeline import RunConfig, rebuild_graph, run_all
from verikg.rtl.elaborate import elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties_with_recovery
from verikg.vcd import failure_window, parse_vcd, write_vcd

CLOCKED = "default clocking @(posedge clk); endclocking\n"


def cex_setup(fifo_model, net, prop_line, prop_id="PROP-001"):
    bundle, kg, idx, _reqs = generation_setup(
        fifo_model, ["Drain behavior. " + prop_line])
    src = CLOCKED + f"// property: {prop_id}\n{prop_line}\n"
    pf, _diags = parse_properties_with_recovery(src)
    records = [T.PropertyRecord(prop_id, ["REQ-001"], T.PropKind.ASSERTION,
                                prop_line, (1, 1))]
    bundle.properties = records
    bound, errs = bind(pf, idx)
    assert not errs.items, [str(i) for i in errs.items]
    result, trace = check(net, bound[0])
    artifacts = {}
    if trace is not None:
        rel = f"artifacts/{prop_id}.vcd"
        decls = list(net.inputs) + list(net.state_bits)
        artifacts[rel] = write_vcd(trace, decls)
        result.artifact_path = rel
    result.result_id = "RES-001"
    bundle.formal_results = [result]
    if result.status is T.ResultStatus.CEX:
        bundle.tracelinks.append(
            T.TraceLink("RES-001", prop_id, T.LinkKind.FAILS))
    kg = rebuild_graph(bundle)
    return bundle, kg, pf, records, [result], artifacts


class TestCexLoop:
    def test_zero_failing_is_noop(self, fifo_model, fifo_net):
        bundle, kg, pf, records, results, artifacts = cex_setup(
            fifo_model, fifo_net, "assert property (count <= 2'd2);")
        assert results[0].status is T.ResultStatus.PROVEN
        backend = ScriptedBackend([])
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                        fifo_model, backend),
                              results, fifo_net, "", pf, records, artifacts,
                              CheckConfig())
        assert backend.calls == 0
        assert not report.cases and not report.corrected

    def test_overconstrained_fixed_in_one_attempt(self, fifo_model, fifo_net):
        bundle, kg, pf, records, results, artifacts = cex_setup(
            fifo_model, fifo_net, "assert property (full |-> ##1 !empty);")
        assert results[0].status is T.ResultStatus.CEX
        backend = ScriptedBackend(default_rules())
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                        fifo_model, backend),
                              results, fifo_net, "", pf, records, artifacts,
                              CheckConfig())
        assert report.corrected == ["PROP-001"]
        assert report.patched == ["PROP-001"]
        case = report.cases[0]
        assert case.root_cause is T.RootCause.OVER_SPECIFICATION
        assert len(case.attempts) == 1
        assert case.attempts[0].outcome is T.AttemptOutcome.FIXED
        assert "disable iff" in records[0].sva_text

    def test_rtl_bug_documented_property_unchanged(self, fixtures_dir):
        src = (fixtures_dir / "fifo_bug.v").read_text()
        dm = parse_rtl(src)
        net = elaborate(dm, "fifo")
        line = "assert property (count <= 2'd2);"
        bundle, kg, pf, records, results, artifacts = cex_setup(dm, net, line)
        assert results[0].status is T.ResultStatus.CEX
        backend = ScriptedBackend(default_rules())
        before = records[0].sva_text
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, net.readable), dm,
                                        backend),
                              results, net, src, pf, records, artifacts, CheckConfig())
        case = report.cases[0]
        assert case.root_cause is T.RootCause.RTL_BUG
        assert case.note  # rtl_analyzer documentation retained
        assert case.attempts == []
        assert records[0].sva_text == before
        assert report.not_corrected == ["PROP-001"]
        assert not report.patched

    def test_missing_vcd_consumes_no_attempt(self, fifo_model, fifo_net):
        bundle, kg, pf, records, results, artifacts = cex_setup(
            fifo_model, fifo_net, "assert property (full |-> ##1 !empty);")
        artifacts.clear()
        backend = ScriptedBackend([])
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                        fifo_model, backend),
                              results, fifo_net, "", pf, records, artifacts,
                              CheckConfig())
        assert backend.calls == 0
        case = report.cases[0]
        assert case.note == "missing_artifact"
        assert case.attempts == []
        assert records[0].attempt_history == []

    def test_refusing_fixer_flags_manual_after_three(self, fifo_model, fifo_net):
        bundle, kg, pf, records, results, artifacts = cex_setup(
            fifo_model, fifo_net, "assert property (full |-> ##1 !empty);")
        rules = [
            ScriptedRule("spec_assertion_analyzer", "cex/*",
                         lambda e: "root_cause: missing_assumption"),
            ScriptedRule("cex_fixer", "cex/*",
                         lambda e: "assert property (full |-> ##1 !empty);"),
        ]
        backend = ScriptedBackend(rules)
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                        fifo_model, backend),
                              results, fifo_net, "", pf, records, artifacts,
                              CheckConfig())
        assert report.manual_review == ["PROP-001"]
        assert len(report.cases[0].attempts) == 3
        assert all(n.outcome is T.AttemptOutcome.RETRY
                   for n in report.cases[0].attempts)

    def test_budget_spans_invocations(self, fifo_model, fifo_net):
        bundle, kg, pf, records, results, artifacts = cex_setup(
            fifo_model, fifo_net, "assert property (full |-> ##1 !empty);")
        records[0].attempt_history = [
            T.AttemptNote(T.LoopKind.CEX, i, "d", "p", T.AttemptOutcome.RETRY)
            for i in (1, 2, 3)
        ]
        backend = ScriptedBackend(default_rules())
        report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                        fifo_model, backend),
                              results, fifo_net, "", pf, records, artifacts,
                              CheckConfig())
        assert report.manual_review == ["PROP-001"]
        assert report.cases[0].attempts == []


def test_repeated_traces_are_parsed_once(fixtures_dir, tmp_path, monkeypatch):
    """Three requirements state the same failing assertion, so their
    counterexamples are one trace and their VCDs one byte string. The loop
    parses it once, and each case's failure window equals one computed from
    a fresh parse."""
    parsed, windows = [], []

    def counting_parse(blob):
        parsed.append(blob)
        return parse_vcd(blob)

    def recording_window(db, t, signals, pre_cycles):
        window = failure_window(db, t, signals, pre_cycles)
        windows.append((t, list(signals), pre_cycles, window))
        return window

    monkeypatch.setattr(cex_loop_module, "parse_vcd", counting_parse)
    monkeypatch.setattr(cex_loop_module, "failure_window", recording_window)
    spec = tmp_path / "spec.md"
    spec.write_text("".join(
        f"REQ[safety,high]: Occupancy bound {i}. ASSERT: count <= 2'd2\n"
        for i in range(3)))
    report = run_all(RunConfig(spec_path=str(spec),
                               rtl_paths=[str(fixtures_dir / "fifo_bug.v")],
                               out_root=str(tmp_path / "runs"),
                               created_at="2026-01-01T00:00:00Z"))
    run_dir = tmp_path / "runs" / report.run_id
    vcds = [p.read_bytes() for p in sorted((run_dir / "artifacts").glob("*.vcd"))]
    assert len(vcds) == 3 and len(set(vcds)) == 1
    assert parsed == vcds[:1]
    assert len(windows) == 3
    for t, signals, pre_cycles, window in windows:
        assert window == failure_window(parse_vcd(vcds[0]), t, signals, pre_cycles)
