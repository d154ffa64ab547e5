"""The one fixer-attempt path of the syntax and CEX loops: the same payload
gives the same outcome in both, a refusal spends the attempt, only the
payload's first statement is taken, and a fix's own macro is adopted with
it (the records' line spans follow the file)."""

import pytest

from test_cex_loop import cex_setup
from test_syntax_loop import loop_setup
from verikg.agents.backend import ScriptedBackend, ScriptedRule
from verikg.agents.cex_loop import run_cex_loop
from verikg.agents.common import FIXER_UNAVAILABLE, Workspace
from verikg.agents.scripted import default_rules
from verikg.agents.syntax_loop import run_syntax_loop
from verikg.engine.check import CheckConfig
from verikg.ir import types as T
from verikg.kg import build_signal_index

CEX_PROP = "assert property (full |-> ##1 !empty);"
FIX = "assert property (disable iff (rst) full |-> ##1 !empty);"

PAYLOADS = {
    "clean fix": (FIX, True),
    "fix with its own macro": (
        "`define RST_N rst\n"
        "assert property (disable iff (`RST_N) full |-> ##1 !empty);", True),
    "unparseable": ("assert garbage ((;", False),
    "first statement broken, second a fix": ("assert property (full |-> ;\n" + FIX, False),
    "refusal": ("", False),
}


def over_specified(payload: str) -> ScriptedBackend:
    return ScriptedBackend([
        ScriptedRule("spec_assertion_analyzer", "cex/*",
                     lambda e: "root_cause: over_specification"),
        ScriptedRule("cex_fixer", "cex/*", lambda e: payload),
    ] + default_rules())


def run_syntax(fifo_model, payload, prop="assert property (wr_enn |-> !full);"):
    backend = ScriptedBackend([ScriptedRule("syntax_fixer", "*", lambda e: payload)]
                              + default_rules())
    _b, kg, pf, records = loop_setup(fifo_model, [prop])
    run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model, backend),
                    pf, records)
    return pf, records[0]


def run_cex(fifo_model, fifo_net, backend):
    _b, kg, pf, records, results, artifacts = cex_setup(fifo_model, fifo_net, CEX_PROP)
    assert results[0].status is T.ResultStatus.CEX
    report = run_cex_loop(Workspace(kg, build_signal_index(kg, fifo_net.readable),
                                    fifo_model, backend),
                          results, fifo_net, "", pf, records, artifacts, CheckConfig())
    return pf, records[0], report


@pytest.mark.parametrize("payload, adopted", list(PAYLOADS.values()), ids=list(PAYLOADS))
def test_same_payload_same_outcome_in_both_loops(fifo_model, fifo_net, payload, adopted):
    syntax_pf, syntax_record = run_syntax(fifo_model, payload)
    cex_pf, cex_record, _report = run_cex(fifo_model, fifo_net, over_specified(payload))
    for pf, record, kind in ((syntax_pf, syntax_record, T.LoopKind.SYNTAX),
                             (cex_pf, cex_record, T.LoopKind.CEX)):
        first = next(n for n in record.attempt_history if n.loop_kind is kind)
        expected = T.AttemptOutcome.FIXED if adopted else T.AttemptOutcome.RETRY
        assert first.outcome is expected, kind
        if adopted:
            assert "disable iff" in record.sva_text, kind
        if payload.startswith("`define"):
            assert ("RST_N", "rst") in pf.macros, kind
            assert "`RST_N" in record.sva_text, kind
        if not payload:
            assert first.patch_summary == FIXER_UNAVAILABLE, kind


def test_refusing_cex_fixer_spends_three_attempts(fifo_model, fifo_net):
    pf, record, report = run_cex(fifo_model, fifo_net, over_specified(""))
    for notes in (record.attempt_history, report.cases[0].attempts):
        assert [(n.attempt_no, n.outcome, n.patch_summary) for n in notes] == [
            (i, T.AttemptOutcome.RETRY, FIXER_UNAVAILABLE) for i in (1, 2, 3)]
    assert report.manual_review == ["PROP-001"]
    assert report.not_corrected == ["PROP-001"]
    assert not report.patched
    assert pf.get("PROP-001").raw_source == CEX_PROP


# A fix may change a property's kind; its record follows the file.
ASSUME_FIX = "assume property (count <= 2'd2);"


def test_cex_fix_to_an_assumption_updates_the_record_kind(fifo_model, fifo_net):
    backend = ScriptedBackend([
        ScriptedRule("spec_assertion_analyzer", "cex/*",
                     lambda e: "root_cause: missing_assumption"),
        ScriptedRule("cex_fixer", "cex/*", lambda e: ASSUME_FIX),
    ] + default_rules())
    pf, record, report = run_cex(fifo_model, fifo_net, backend)
    assert report.patched == ["PROP-001"]
    assert pf.get("PROP-001").kind == "assumption"
    assert record.kind is T.PropKind.ASSUMPTION
    assert record.sva_text.startswith("assume property")


def test_syntax_fix_to_an_assumption_updates_the_record_kind(fifo_model):
    pf, record = run_syntax(fifo_model, ASSUME_FIX, "assert property (nosuch_sig);")
    assert record.attempt_history[0].outcome is T.AttemptOutcome.FIXED
    assert pf.get("PROP-001").kind == "assumption"
    assert record.kind is T.PropKind.ASSUMPTION
    assert record.sva_text.startswith("assume property")



def test_cex_fix_macro_moves_record_spans(fixtures_dir, tmp_path, monkeypatch):
    """A macro a CEX fix brings moves every property's lines in the file;
    the records' spans follow."""
    import verikg.pipeline as pipeline
    from verikg.agents.scripted import _fix_cex
    from verikg.ir.store import load_run
    from verikg.sva.emit import emit_properties
    from verikg.sva.parser import parse_properties_with_recovery

    def macro_fix(env):
        return "`define RST_N rst\n" + _fix_cex(env).replace(
            "disable iff (rst)", "disable iff (`RST_N)")

    rules = [ScriptedRule("cex_fixer", "cex/*", macro_fix)] + default_rules()
    monkeypatch.setattr(pipeline, "default_rules", lambda: rules)
    report = pipeline.run_all(pipeline.RunConfig(
        str(fixtures_dir / "fifo_overconstrained_spec.md"), [str(fixtures_dir / "fifo.v")],
        str(tmp_path), rulebook_path=str(fixtures_dir / "rulebook.txt")))
    assert report.cex_corrected == 1
    records = load_run(tmp_path, report.run_id).properties
    # the file the records describe, laid out as the pipeline emits it
    pf = parse_properties_with_recovery(
        "default clocking @(posedge clk); endclocking\n`define RST_N rst\n"
        + "".join(f"// property: {r.prop_id}\n{r.sva_text}\n" for r in records))[0]
    emit_properties(pf)
    assert any("`RST_N" in r.sva_text for r in records)
    assert {r.prop_id: r.line_span for r in records} == pf.line_map
