import argparse
import json
import re
import time
from dataclasses import asdict

import pytest

import verikg.pipeline as pipeline
from test_front_end import STMT_BOUND, nested_statements
from verikg.agents.backend import ScriptedBackend
from verikg.agents.common import PipelineAbort
from verikg.agents.scripted import default_rules
from verikg.cli import _add_run_parser, _config_from_args
from verikg.cli import main as cli_main
from verikg.ir import types as T
from verikg.ir.export import ExportError
from verikg.ir.store import load_run
from verikg.ir.validate import validate_bundle
from verikg.kg import GraphError, build_graph, trace_path
from verikg.pipeline import (
    PipelineError,
    RunConfig,
    chunk_spec,
    ingest_spec,
    rebuild_graph,
    report_from_bundle,
    run_all,
)
from verikg.rtl.parser import MAX_EXPR_DEPTH, parse_rtl


def scripted() -> ScriptedBackend:
    return ScriptedBackend(default_rules())


class TestIngest:
    def test_two_headings_two_chunks(self, tmp_path):
        doc = tmp_path / "s.md"
        doc.write_text("# One\nalpha\n## Two\nbeta\n")
        chunks, reqs, links = ingest_spec(doc, scripted())
        assert len(chunks) == 2
        assert chunks[0].heading_path == ["One"]
        assert chunks[1].heading_path == ["One", "Two"]
        assert chunks[0].order_index == 0 and chunks[1].order_index == 1

    def test_heading_less_document_gets_root(self, tmp_path):
        doc = tmp_path / "s.md"
        doc.write_text("no headings here\nREQ: works anyway. ASSERT: x\n")
        chunks, reqs, _links = ingest_spec(doc, scripted())
        assert len(chunks) == 1
        assert chunks[0].heading_path == ["(root)"]
        assert len(reqs) == 1

    def test_empty_document_is_error(self, tmp_path):
        doc = tmp_path / "s.md"
        doc.write_text("  \n\n")
        with pytest.raises(PipelineError):
            ingest_spec(doc, scripted())

    def test_four_req_lines_become_four_requirements(self, fixtures_dir):
        chunks, reqs, links = ingest_spec(fixtures_dir / "fifo_spec.md",
                                          scripted())
        assert len(reqs) == 4
        assert [r.req_id for r in reqs] == [f"REQ-{i:03d}" for i in (1, 2, 3, 4)]
        assert len(links) == 4
        assert all(l.link_kind is T.LinkKind.DERIVES_FROM for l in links)
        cats = [r.category for r in reqs]
        assert cats[0] is T.Category.INTERFACE
        assert cats[1] is T.Category.SAFETY

    def test_chunk_order_strictly_increasing(self):
        chunks = chunk_spec("pre\n# A\n\n# B\nbody\n### C\n")
        assert [c.order_index for c in chunks] == list(range(len(chunks)))
        assert chunks[0].heading_path == ["(root)"]


def fifo_config(fixtures_dir, out, **kw) -> RunConfig:
    base = dict(
        spec_path=str(fixtures_dir / "fifo_spec.md"),
        rtl_paths=[str(fixtures_dir / "fifo.v")],
        out_root=str(out),
        rulebook_path=str(fixtures_dir / "rulebook.txt"),
        backend="scripted",
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunAll:
    def test_fifo_happy_path(self, fixtures_dir, tmp_path):
        report = run_all(fifo_config(fixtures_dir, tmp_path))
        assert report.props_total == 4
        assert report.props_passed == 4
        assert report.props_failed == 0
        assert report.reachable_pct == 100.0
        bundle = load_run(tmp_path, report.run_id)
        assert bundle.design_model is not None
        assert len(bundle.formal_results) == 4
        assert bundle.testplan and bundle.coverage_metrics

    def test_wide_data_input_gives_bounded_results(self, fixtures_dir, tmp_path):
        """The fixture FIFO with a 32-bit data path: 2**35 input vectors are
        never built; every check is bounded by the input-bit limit and
        coverage is partial, with nothing covered."""
        source = (fixtures_dir / "fifo.v").read_text()
        source = re.sub(r"\[1:0\] (din|dout|slot0|slot1)\b", r"[31:0] \1", source)
        source = re.sub(r"(slot[01]) <= 2'd0", r"\1 <= 32'd0", source)
        rtl = tmp_path / "fifo32.v"
        rtl.write_text(source)
        start = time.perf_counter()
        report = run_all(fifo_config(fixtures_dir, tmp_path / "out", rtl_paths=[str(rtl)]))
        assert time.perf_counter() - start < 1.0
        bundle = load_run(tmp_path / "out", report.run_id)
        assert bundle.formal_results
        assert {(r.status, r.note) for r in bundle.formal_results} == {
            (T.ResultStatus.BOUNDED, "max_input_bits")}
        assert bundle.coverage_metrics
        for cm in bundle.coverage_metrics:
            assert cm.partial and cm.covered_statements == []

    def test_property_nested_to_the_bound_runs_end_to_end(self, fixtures_dir, tmp_path):
        """A requirement whose property nests exactly MAX_EXPR_DEPTH levels
        as printed (`!(!(... !full))`) is parsed, emitted and parsed again,
        bound, compiled into a monitor, checked and saved."""
        deep = "!" * (MAX_EXPR_DEPTH // 2) + "full"
        spec = tmp_path / "spec.md"
        spec.write_text((fixtures_dir / "fifo_spec.md").read_text()
                        + f"\nREQ[safety,high]: A deep one. ASSERT: {deep} |-> ##1 !empty\n")
        report = run_all(fifo_config(fixtures_dir, tmp_path / "out", spec_path=str(spec)))
        assert report.props_total == 5
        bundle = load_run(tmp_path / "out", report.run_id)
        (prop,) = [p for p in bundle.properties if "!(" * 24 in p.sva_text]
        (result,) = [r for r in bundle.formal_results if r.prop_id == prop.prop_id]
        assert result.status in (T.ResultStatus.PROVEN, T.ResultStatus.CEX)

    @pytest.mark.parametrize("kind", sorted(STMT_BOUND))
    def test_statements_nested_to_the_bound_run_end_to_end(self, fixtures_dir, tmp_path,
                                                           kind):
        """A design whose `if` or `case` statements nest exactly to the bound
        is parsed, elaborated, checked, covered, saved and loaded back."""
        rtl = tmp_path / "deep.v"
        rtl.write_text(nested_statements(kind, STMT_BOUND[kind]))
        report = run_all(RunConfig(str(fixtures_dir / "gappy_spec.md"), [str(rtl)],
                                   str(tmp_path / "out")))
        assert (report.props_total, report.reachable_pct) == (1, 100.0)
        bundle = load_run(tmp_path / "out", report.run_id)
        # one arm per nested statement, the innermost assignment and `assign q`
        assert len(bundle.design_model.statements) == STMT_BOUND[kind] + 2

    def test_every_result_traces_to_a_chunk(self, fixtures_dir, tmp_path):
        from verikg.ir.export import export_graph

        report = run_all(fifo_config(fixtures_dir, tmp_path))
        bundle = load_run(tmp_path, report.run_id)
        g = build_graph(*export_graph(bundle))
        chunk_ids = [c.chunk_id for c in bundle.spec_chunks]
        for result in bundle.formal_results:
            assert any(trace_path(g, result.result_id, cid) for cid in chunk_ids), \
                result.result_id

    def test_report_recomputed_from_bundle(self, fixtures_dir, tmp_path):
        report = run_all(fifo_config(fixtures_dir, tmp_path))
        bundle = load_run(tmp_path, report.run_id)
        again = report_from_bundle(bundle)
        assert (again.props_total, again.props_passed, again.props_failed) == \
            (report.props_total, report.props_passed, report.props_failed)
        assert again.kg_nodes == report.kg_nodes
        assert again.kg_edges == report.kg_edges

    def test_seeded_cex_corrected_count(self, fixtures_dir, tmp_path):
        cfg = fifo_config(
            fixtures_dir, tmp_path,
            spec_path=str(fixtures_dir / "fifo_overconstrained_spec.md"))
        report = run_all(cfg)
        assert report.cex_corrected == 1
        assert report.cex_not_corrected == 0
        assert report.props_failed == 0

    @pytest.mark.parametrize("spec, sizes", [
        ("fifo_spec.md", [4]),
        # whole file, the CEX fix checked alone, whole file after the patch
        ("fifo_overconstrained_spec.md", [3, 1, 3]),
    ])
    def test_property_file_compiled_once_per_change(self, fixtures_dir, tmp_path,
                                                     monkeypatch, spec, sizes):
        import verikg.agents.common as common
        import verikg.agents.syntax_loop as syntax_loop
        import verikg.pipeline as pipeline
        from verikg.sva.bind import compile_properties

        compiled = []

        def counting(pf, idx, memo=None):
            compiled.append(len(pf.properties))
            return compile_properties(pf, idx, memo)

        for module in (pipeline, syntax_loop, common):
            monkeypatch.setattr(module, "compile_properties", counting)
        run_all(fifo_config(fixtures_dir, tmp_path,
                            spec_path=str(fixtures_dir / spec)))
        assert compiled == sizes

    def test_stage_abort_preserves_artifacts(self, fixtures_dir, tmp_path):
        bad_rtl = tmp_path / "broken.v"
        bad_rtl.write_text("module broken (input a;\nendmodule\n")
        cfg = fifo_config(fixtures_dir, tmp_path / "out",
                          rtl_paths=[str(bad_rtl)])
        with pytest.raises(PipelineError):
            run_all(cfg)
        runs = [p for p in (tmp_path / "out").iterdir() if p.is_dir()]
        assert len(runs) == 1
        saved = runs[0]
        assert (saved / "spec_chunks.json").exists()  # ingest survived
        assert (saved / "transcript.json").exists()

    def test_loop_abort_preserves_the_partial_run(self, fixtures_dir, tmp_path,
                                                  monkeypatch):
        """A step that fails its retry inside the coverage loop stops the run;
        the saved run holds what the stages made up to the abort."""
        rules = [r for r in default_rules() if r.role != "cov_analyzer"]
        monkeypatch.setattr(pipeline, "default_rules", lambda: rules)
        with pytest.raises(PipelineAbort, match="cov/S2/analyze"):
            run_all(RunConfig(str(fixtures_dir / "gappy_spec.md"),
                              [str(fixtures_dir / "gappy.v")], str(tmp_path)))
        [saved] = [p for p in tmp_path.iterdir() if p.is_dir()]

        def doc(name):
            return json.loads((saved / name).read_text(encoding="utf-8"))

        assert doc("run_context.json")["iteration_counts"] == {
            "syntax": 1, "cex": 0, "coverage": 1}
        assert len(doc("formal_results.json")) == 1
        assert (saved / "coverage_metrics.json").exists()
        assert len(doc("transcript.json")["entries"]) == 6

    def test_missing_spec_rejected(self, fixtures_dir, tmp_path):
        cfg = fifo_config(fixtures_dir, tmp_path, spec_path="nope.md")
        with pytest.raises(PipelineError):
            run_all(cfg)


class TestCli:
    def test_run_report_graph_diff(self, fixtures_dir, tmp_path, capsys):
        out_root = str(tmp_path / "runs")
        rc = cli_main([
            "run", "--spec", str(fixtures_dir / "fifo_spec.md"),
            "--rtl", str(fixtures_dir / "fifo.v"),
            "--rulebook", str(fixtures_dir / "rulebook.txt"),
            "--out", out_root, "--backend", "scripted",
        ])
        assert rc == 0
        run_id = capsys.readouterr().out.split()[1]

        assert cli_main(["report", "--root", out_root, "--run", run_id]) == 0
        assert "properties (T | P | F)" in capsys.readouterr().out

        html_path = tmp_path / "g.html"
        assert cli_main(["graph", "--root", out_root, "--run", run_id,
                         "--html", str(html_path)]) == 0
        capsys.readouterr()
        assert html_path.read_text().startswith("<!DOCTYPE html>")

        assert cli_main(["diff", "--root", out_root, "--a", run_id,
                         "--b", run_id]) == 0
        assert "(no differences)" in capsys.readouterr().out

        assert cli_main(["list", "--root", out_root]) == 0
        assert run_id in capsys.readouterr().out

    def test_config_file_supplies_flags(self, fixtures_dir, tmp_path, capsys):
        out_root = str(tmp_path / "runs")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_states": 4096, "cov_iters": 1}))
        rc = cli_main([
            "run", "--spec", str(fixtures_dir / "fifo_spec.md"),
            "--rtl", str(fixtures_dir / "fifo.v"),
            "--out", out_root, "--config", str(config),
        ])
        assert rc == 0
        run_id = capsys.readouterr().out.split()[1]
        bundle = load_run(out_root, run_id)
        assert bundle.context.config_snapshot["max_states"] == 4096

    def test_unknown_config_key_rejected(self, fixtures_dir, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"wat": 1}))
        rc = cli_main([
            "run", "--spec", str(fixtures_dir / "fifo_spec.md"),
            "--rtl", str(fixtures_dir / "fifo.v"),
            "--out", str(tmp_path / "runs"), "--config", str(config),
        ])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_run_flag_defaults_are_the_config_defaults(self, monkeypatch):
        """`verikg run` with only the required flags gives the config that
        RunConfig's own defaults give, in every field."""
        monkeypatch.delenv("VERIKG_API_KEY", raising=False)
        parser = argparse.ArgumentParser()
        _add_run_parser(parser.add_subparsers(dest="command"))
        cfg = _config_from_args(parser.parse_args(["run", "--spec", "S", "--rtl", "R"]))
        assert asdict(cfg) == asdict(RunConfig("S", ["R"], "runs"))

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        assert cli_main(["report", "--root", str(tmp_path), "--run", "x"]) == 1


class TestReportExamples:
    def test_empty_bundle_all_zeros(self):
        bundle = T.RunBundle(context=T.RunContext(
            run_id="20260808T000000Z-00000000", tool_version="t",
            created_at="2026-08-08T00:00:00Z"))
        report = report_from_bundle(bundle)
        assert (report.props_total, report.props_passed,
                report.props_failed) == (0, 0, 0)
        assert report.vacuous == 0
        assert report.syntax_fix_attempts == 0
        assert (report.cex_corrected, report.cex_not_corrected) == (0, 0)
        assert (report.kg_nodes, report.kg_edges) == (0, 0)

    def test_three_properties_two_proven(self):
        from test_ir_store import make_bundle

        bundle = make_bundle(n_reqs=1, n_props=3)
        bundle.formal_results = [
            T.FormalResult("RES-001", "PROP-001", T.ResultStatus.PROVEN),
            T.FormalResult("RES-002", "PROP-002", T.ResultStatus.PROVEN),
            T.FormalResult("RES-003", "PROP-003", T.ResultStatus.CEX,
                           artifact_path="a.vcd"),
        ]
        report = report_from_bundle(bundle)
        assert (report.props_total, report.props_passed,
                report.props_failed) == (3, 2, 1)
        rendered = report.render()
        assert "3 | 2 | 1" in rendered


class TestCoverageLoopEndToEnd:
    def test_gappy_design_exercises_coverage_loop(self, fixtures_dir, tmp_path):
        cfg = RunConfig(
            spec_path=str(fixtures_dir / "gappy_spec.md"),
            rtl_paths=[str(fixtures_dir / "gappy.v")],
            out_root=str(tmp_path),
            backend="scripted",
        )
        report = run_all(cfg)
        bundle = load_run(tmp_path, report.run_id)
        cov = bundle.coverage_metrics[-1]
        assert cov.reachable_pct < 100.0
        classes = dict(cov.dead_code)
        dm = bundle.design_model
        default_arm = next(s.id for s in dm.statements
                           if s.detail == "case_default")
        assert classes[default_arm] is T.DeadCodeClass.DEFENSIVE
        covers = [p for p in bundle.properties if p.kind is T.PropKind.COVER]
        assert covers  # the improver targeted the non-defensive gaps
        cover_links = [l for l in bundle.tracelinks
                       if l.link_kind is T.LinkKind.COVERS]
        assert cover_links
        # the second loop iteration must not duplicate covers per gap
        targets = [l.dst_id for l in cover_links]
        assert len(targets) == len(set(targets))
        # emitted covers were checked: unsatisfiable arm -> vacuous verdict
        results = {r.prop_id: r.status for r in bundle.formal_results}
        assert any(results[p.prop_id] is T.ResultStatus.VACUOUS
                   for p in covers)


class TestGraphFailures:
    """The one graph derivation refuses links and node ids that do not make
    one typed graph, at the stage that made them."""

    def test_ill_typed_link_fails_at_its_stage_sync(self, fixtures_dir, tmp_path,
                                                    monkeypatch):
        """A coverage loop that links a new cover property to a requirement
        with `covers` stops the run at the sync after the loop, before the
        properties are compiled again."""
        real_loop = pipeline.run_coverage_loop
        real_syntax_loop = pipeline.run_syntax_loop
        syntax_loops = []

        def loop_with_bad_link(*args, **kw):
            loop = real_loop(*args, **kw)
            loop.new_links.append(T.TraceLink(loop.new_records[0].prop_id, "REQ-001",
                                              T.LinkKind.COVERS))
            return loop

        def counted_syntax_loop(*args, **kw):
            syntax_loops.append(1)
            return real_syntax_loop(*args, **kw)

        monkeypatch.setattr(pipeline, "run_coverage_loop", loop_with_bad_link)
        monkeypatch.setattr(pipeline, "run_syntax_loop", counted_syntax_loop)
        cfg = RunConfig(str(fixtures_dir / "gappy_spec.md"),
                        [str(fixtures_dir / "gappy.v")], str(tmp_path))
        with pytest.raises(ExportError) as err:
            run_all(cfg)
        assert str(err.value) == (
            "dangling or ill-typed link PROP-002 -covers-> REQ-001: endpoint kind "
            "mismatch: dst of covers must be coverage_metrics or rtl_statement, "
            "got requirement")
        assert "sync_graph" in [entry.name for entry in err.traceback]
        assert len(syntax_loops) == 1

    def test_module_and_statement_sharing_an_id_are_refused(self):
        """A module named `S1` whose continuous assignment is statement `S1`:
        one id, two nodes. The validator reports it and the graph refuses
        it."""
        dm = parse_rtl("module S1(input d, output q);\n  assign q = d;\nendmodule\n")
        assert [s.id for s in dm.statements] == ["S1"]
        bundle = T.RunBundle(context=T.RunContext(
            run_id="20260808T000000Z-00000000", tool_version="t",
            created_at="2026-08-08T00:00:00Z", config_snapshot={}),
            design_model=dm)
        conflict = "duplicate node id 'S1' with conflicting attributes"
        assert [str(v) for v in validate_bundle(bundle).violations] == [
            f"graph: {conflict}"]
        with pytest.raises(GraphError, match=conflict):
            rebuild_graph(bundle)

    def test_link_to_a_signal_is_an_endpoint_kind_mismatch(self, fixtures_dir, tmp_path):
        """A signal is a graph node, so a link that names one resolves, and
        is rejected for its endpoint kind."""
        report = run_all(RunConfig(str(fixtures_dir / "gappy_spec.md"),
                                   [str(fixtures_dir / "gappy.v")], str(tmp_path)))
        bundle = load_run(tmp_path, report.run_id)
        bundle.tracelinks.append(T.TraceLink("PROP-001", "gappy.r", T.LinkKind.COVERS))
        assert [v.message for v in validate_bundle(bundle).violations] == [
            "endpoint kind mismatch: dst of covers must be coverage_metrics or "
            "rtl_statement, got rtl_signal"]


def test_bad_requirement_annotation_is_pipeline_error(tmp_path):
    doc = tmp_path / "s.md"
    doc.write_text("# H\nREQ[wat,high]: text. ASSERT: x\n")
    with pytest.raises(PipelineError) as err:
        ingest_spec(doc, scripted())
    assert "wat" in str(err.value)
