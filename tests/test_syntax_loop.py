from test_agents import generation_setup
from verikg.agents.backend import ScriptedBackend, ScriptedRule
from verikg.agents.common import Workspace
from verikg.agents.syntax_loop import run_syntax_loop
from verikg.ir import types as T
from verikg.kg import build_signal_index
from verikg.sva import ast as S
from verikg.sva.emit import emit_properties
from verikg.sva.parser import parse_properties_with_recovery

CLOCKED = "default clocking @(posedge clk); endclocking\n"


def loop_setup(fifo_model, property_lines):
    bundle, kg, idx, _reqs = generation_setup(
        fifo_model, ["Base requirement. ASSERT: count <= 2'd2"])
    src = CLOCKED
    records = []
    for i, line in enumerate(property_lines):
        pid = T.make_id("PROP", i + 1)
        src += f"// property: {pid}\n{line}\n"
        records.append(T.PropertyRecord(pid, ["REQ-001"], T.PropKind.ASSERTION,
                                        line, (1, 1)))
    pf, diags = parse_properties_with_recovery(src)
    bundle.properties = records
    return bundle, kg, pf, records


def refusing_backend() -> ScriptedBackend:
    return ScriptedBackend([])  # any call is a protocol error


class TestSyntaxLoop:
    def test_clean_file_untouched(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (count <= 2'd2);"])
        before = emit_properties(pf)
        backend = refusing_backend()
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert backend.calls == 0
        assert report.attempts == {}
        assert report.emitted_text == before

    def test_r1_wrong_scope_fixed_without_backend(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (bogus.count <= 2'd2);"])
        backend = refusing_backend()
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert backend.calls == 0
        assert report.attempts == {"PROP-001": 1}
        assert records[0].status is T.PropStatus.ACTIVE
        assert "fifo.count" in report.emitted_text
        note = records[0].attempt_history[0]
        assert note.outcome is T.AttemptOutcome.FIXED
        assert note.patch_summary.startswith("R1:")

    def test_r2_macro_style_identifier_defines_macro(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (FULL |-> count != 2'd0);"])
        backend = refusing_backend()
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert backend.calls == 0
        assert ("FULL", "fifo.full") in pf.macros
        assert "`define FULL fifo.full" in report.emitted_text
        assert "`FULL" in report.emitted_text
        assert records[0].attempt_history[0].patch_summary.startswith("R2:")

    def test_r3_undefined_macro_gets_definition(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (`WR_EN |-> !full);"])
        backend = refusing_backend()
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert backend.calls == 0
        assert ("WR_EN", "fifo.wr_en") in pf.macros
        assert records[0].attempt_history[0].patch_summary.startswith("R3:")

    def test_leaf_typo_goes_to_backend_and_disables_on_refusal(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (wr_enn |-> !full);"])
        backend = refusing_backend()
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert records[0].status is T.PropStatus.DISABLED
        assert report.disabled == ["PROP-001"]
        notes = records[0].attempt_history
        assert len(notes) == 3
        assert notes[-1].outcome is T.AttemptOutcome.DISABLED
        assert [n.attempt_no for n in notes] == [1, 2, 3]
        assert pf.get("PROP-001") is None  # removed from the working file
        assert records[0].sva_text  # last text retained

    def test_backend_fix_applied_after_isolated_validation(self, fifo_model):
        fixes = []

        def fixer(env):
            fixes.append(env.step_id)
            return "assert property (wr_en |-> !full);"

        backend = ScriptedBackend([ScriptedRule("syntax_fixer", "syntax/*", fixer)])
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (wr_enn |-> !full);"])
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert fixes == ["syntax/PROP-001/attempt/1"]
        assert records[0].status is T.PropStatus.ACTIVE
        assert records[0].attempt_history[0].outcome is T.AttemptOutcome.FIXED
        assert "wr_en" in records[0].sva_text

    def test_unparseable_patch_counts_as_attempt(self, fifo_model):
        backend = ScriptedBackend([
            ScriptedRule("syntax_fixer", "*", lambda e: "assert garbage ((;")])
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (wr_enn |-> !full);"])
        run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model, backend),
                        pf, records)
        assert records[0].status is T.PropStatus.DISABLED
        assert len(records[0].attempt_history) == 3

    def test_parse_error_property_repaired_by_backend(self, fifo_model):
        backend = ScriptedBackend([
            ScriptedRule("syntax_fixer", "*",
                         lambda e: "assert property (count <= 2'd2);")])
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (count <= |-> 2'd2);"])
        report = run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model,
                                           backend),
                                 pf, records)
        assert records[0].status is T.PropStatus.ACTIVE
        assert report.backend_fixes == 1

    def test_budget_spans_invocations(self, fifo_model):
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (wr_enn |-> !full);"])
        records[0].attempt_history = [
            T.AttemptNote(T.LoopKind.SYNTAX, i, "d", "p", T.AttemptOutcome.RETRY)
            for i in (1, 2)
        ]
        backend = refusing_backend()
        run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model, backend),
                        pf, records)
        notes = [n for n in records[0].attempt_history
                 if n.loop_kind is T.LoopKind.SYNTAX]
        assert len(notes) == 3  # only one more attempt was available
        assert records[0].status is T.PropStatus.DISABLED


class TestInvariants:
    def test_failed_isolated_validation_never_mutates_file(self, fifo_model):
        # patch parses but references a nonexistent signal -> isolation fails
        backend = ScriptedBackend([
            ScriptedRule("syntax_fixer", "*",
                         lambda e: "assert property (still_bogus);")])
        _b, kg, pf, records = loop_setup(
            fifo_model, ["assert property (wr_enn |-> !full);"])
        original = records[0].sva_text
        run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model, backend),
                        pf, records)
        # disabled in the end, and the bad patch never replaced the source
        assert records[0].status is T.PropStatus.DISABLED
        assert "still_bogus" not in records[0].sva_text
        assert "wr_enn" in records[0].sva_text or records[0].sva_text == original

    def test_randomized_failure_injection_respects_budget(self, fifo_model):
        import random as _random

        rng = _random.Random(99)
        lines = [
            "assert property (wr_enn |-> full);",
            "assert property (bogus.count == bogus.count);",
            "assert property (`GHOSTX);",
            "assert property (count <= |-> ;",
        ]
        for trial in range(12):
            chosen = [rng.choice(lines) for _ in range(rng.randint(1, 4))]
            _b, kg, pf, records = loop_setup(fifo_model, chosen)

            def flaky(env, _rng=rng):
                if _rng.random() < 0.5:
                    return ""  # refuses: protocol error, attempt consumed
                return rng.choice([
                    "assert property (wr_en |-> !full);",
                    "assert property (nope_still_bad);",
                    "garbage ((",
                ])

            backend = ScriptedBackend(
                [ScriptedRule("syntax_fixer", "*", flaky)])
            run_syntax_loop(Workspace(kg, build_signal_index(kg), fifo_model, backend),
                            pf, records)
            for record in records:
                for kind in T.LoopKind:
                    notes = [n for n in record.attempt_history
                             if n.loop_kind is kind]
                    assert len(notes) <= 3, (trial, record.prop_id)
                    assert [n.attempt_no for n in notes] == \
                        sorted({n.attempt_no for n in notes})
