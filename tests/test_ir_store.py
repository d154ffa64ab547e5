import json
import os
import random

import pytest

from verikg.ir import types as T
from verikg.ir.diff import diff_runs
from verikg.ir.export import export_graph, parse_csv, render_csv
from verikg.ir.store import StoreError, content_hash, load_run, save_run
from verikg.ir.validate import validate_artifact, validate_bundle


def make_context(created="2026-08-08T00:00:00Z") -> T.RunContext:
    return T.RunContext(run_id="20260808T000000Z-00000000",
                        tool_version="0.1.0", created_at=created)


def make_bundle(n_reqs=2, n_props=1) -> T.RunBundle:
    chunks = [T.SpecChunk(T.make_id("CHUNK", i + 1), ["Spec", f"S{i}"],
                          f"chunk text {i}", ["spec"], i)
              for i in range(max(n_reqs, 1))]
    reqs = [T.Requirement(T.make_id("REQ", i + 1), f"requirement {i}",
                          T.Category.FUNCTIONAL, T.Priority.MEDIUM,
                          [chunks[i % len(chunks)].chunk_id])
            for i in range(n_reqs)]
    props = [T.PropertyRecord(T.make_id("PROP", i + 1),
                              [reqs[i % n_reqs].req_id] if reqs else [],
                              T.PropKind.ASSERTION,
                              f"assert property (p{i});", (3 + 2 * i, 4 + 2 * i))
             for i in range(n_props)]
    links = [T.TraceLink(r.req_id, r.source_chunks[0], T.LinkKind.DERIVES_FROM)
             for r in reqs]
    links += [T.TraceLink(p.prop_id, p.req_ids[0], T.LinkKind.VALIDATES)
              for p in props if p.req_ids]
    return T.RunBundle(context=make_context(), spec_chunks=chunks,
                       requirements=reqs, properties=props, tracelinks=links)


def random_bundle(rng: random.Random) -> T.RunBundle:
    b = make_bundle(n_reqs=rng.randint(1, 4), n_props=rng.randint(0, 4))
    if rng.random() < 0.5 and b.properties:
        b.formal_results = []
        for i, p in enumerate(b.properties):
            status = rng.choice([T.ResultStatus.PROVEN, T.ResultStatus.CEX,
                                 T.ResultStatus.BOUNDED])
            b.formal_results.append(T.FormalResult(
                T.make_id("RES", i + 1), p.prop_id, status,
                proof_depth=rng.randint(0, 30),
                runtime_ms=rng.randint(0, 500),
                artifact_path=f"artifacts/{p.prop_id}.vcd"
                if status is T.ResultStatus.CEX else None))
            if status in (T.ResultStatus.PROVEN, T.ResultStatus.VACUOUS):
                b.tracelinks.append(T.TraceLink(
                    T.make_id("RES", i + 1), p.prop_id, T.LinkKind.PROVES))
            elif status is T.ResultStatus.CEX:
                b.tracelinks.append(T.TraceLink(
                    T.make_id("RES", i + 1), p.prop_id, T.LinkKind.FAILS))
        b.cex_cases = [
            T.CexCase(T.make_id("CEX", i + 1), r.prop_id, r.artifact_path, 5, 9,
                      attempts=[T.AttemptNote(T.LoopKind.CEX, 1, "d", "p",
                                              T.AttemptOutcome.RETRY)])
            for i, r in enumerate(b.formal_results)
            if r.status is T.ResultStatus.CEX
        ]
    if rng.random() < 0.4:
        b.testplan = [T.TestPlanEntry(r.req_id, ["clk"], r.text, "ok")
                      for r in b.requirements]
    if rng.random() < 0.4:
        b.coverage_metrics = [T.CoverageMetrics(
            "self", 50.0, ["S1"], ["S2"],
            [("S2", T.DeadCodeClass.GAP)], vacuity_count=0)]
    return b


class TestValidate:
    def test_well_formed_requirement_empty_report(self):
        req = T.Requirement("REQ-001", "text", T.Category.FUNCTIONAL,
                            T.Priority.HIGH, ["CHUNK-001"])
        assert validate_artifact([req.to_doc()], "requirements").ok

    def test_empty_source_chunks_is_violation(self):
        req = T.Requirement("REQ-001", "text", T.Category.FUNCTIONAL,
                            T.Priority.HIGH, [])
        report = validate_artifact([req.to_doc()], "requirements")
        assert not report.ok
        assert "source_chunks non-empty" in str(report)

    def test_validates_link_with_requirement_src_is_mismatch(self):
        b = make_bundle()
        bad = T.TraceLink("REQ-001", "REQ-002", T.LinkKind.VALIDATES)
        report = validate_artifact([bad.to_doc()], "tracelinks", bundle=b)
        assert not report.ok
        assert "endpoint kind mismatch" in str(report)

    def test_malformed_document_never_crashes(self):
        report = validate_artifact({"nonsense": True}, "requirements")
        assert not report.ok
        assert "parse" in str(report)

    def test_unknown_kind(self):
        assert not validate_artifact([], "wat").ok

    def test_cex_result_requires_artifact(self):
        r = T.FormalResult("RES-001", "PROP-001", T.ResultStatus.CEX)
        report = validate_artifact([r.to_doc()], "formal_results")
        assert any("artifact_path" in str(v) for v in report.violations)

    def test_proven_with_cex_case_rejected(self):
        b = make_bundle()
        b.formal_results = [T.FormalResult("RES-001", "PROP-001",
                                           T.ResultStatus.PROVEN)]
        b.cex_cases = [T.CexCase("CEX-001", "PROP-001", "a.vcd", 1, 2)]
        assert not validate_bundle(b).ok

    def test_coverage_formula_checked(self):
        m = T.CoverageMetrics("self", 10.0, ["S1"], ["S2"], [], 0)
        report = validate_artifact([m.to_doc()], "coverage_metrics")
        assert any("reachable_pct" in v.path for v in report.violations)

    def test_attempt_budget(self):
        p = T.PropertyRecord("PROP-001", ["REQ-001"], T.PropKind.ASSERTION,
                             "x", (1, 1))
        p.attempt_history = [
            T.AttemptNote(T.LoopKind.SYNTAX, i, "d", "p", T.AttemptOutcome.RETRY)
            for i in (1, 2, 3)
        ] + [T.AttemptNote(T.LoopKind.SYNTAX, 3, "d", "p", T.AttemptOutcome.RETRY)]
        report = validate_artifact([p.to_doc()], "properties")
        assert not report.ok


class TestSaveLoad:
    def test_empty_bundle_saves_context_only(self, tmp_path):
        b = T.RunBundle(context=make_context())
        ctx = save_run(b, tmp_path)
        run_dir = tmp_path / ctx.run_id
        assert (run_dir / "run_context.json").exists()
        assert not (run_dir / "requirements.json").exists()
        assert (run_dir / "nodes.csv").exists()

    def test_round_trip(self, tmp_path):
        b = make_bundle(2, 1)
        ctx = save_run(b, tmp_path)
        loaded = load_run(tmp_path, ctx.run_id)
        for kind in T.RunBundle.COLLECTION_KINDS:
            assert getattr(loaded, kind) == getattr(b, kind), kind

    def test_same_content_same_hash_suffix(self, tmp_path):
        b = make_bundle()
        ctx1 = save_run(b, tmp_path / "a")
        ctx2 = save_run(make_bundle(), tmp_path / "b")
        assert ctx1.run_id.split("-")[1] == ctx2.run_id.split("-")[1]
        assert content_hash(b) == ctx1.run_id.split("-")[1]

    def test_missing_collection_absent_no_error(self, tmp_path):
        b = make_bundle()
        ctx = save_run(b, tmp_path)
        (tmp_path / ctx.run_id / "coverage_metrics.json").unlink(missing_ok=True)
        loaded = load_run(tmp_path, ctx.run_id)
        assert loaded.coverage_metrics is None
        assert loaded.requirements == b.requirements

    def test_truncated_document_names_file_and_offset(self, tmp_path):
        b = make_bundle()
        ctx = save_run(b, tmp_path)
        path = tmp_path / ctx.run_id / "requirements.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError) as err:
            load_run(tmp_path, ctx.run_id)
        assert "requirements.json" in str(err.value)
        assert "byte offset" in str(err.value)

    def test_validation_failure_aborts_without_partial_write(self, tmp_path):
        b = make_bundle()
        b.requirements[0].source_chunks = ["CHUNK-404"]
        with pytest.raises(StoreError):
            save_run(b, tmp_path)
        assert not any(p for p in tmp_path.iterdir()
                       if not p.name.startswith("."))

    def test_file_names_match_table(self, tmp_path):
        b = random_bundle(random.Random(3))
        ctx = save_run(b, tmp_path)
        files = {p.name for p in (tmp_path / ctx.run_id).iterdir()}
        for kind in b.present_kinds():
            assert T.ARTIFACT_FILE_NAMES[kind] in files
        assert {"run_context.json", "nodes.csv", "edges.csv"} <= files


class TestSharedAttachments:
    """Equal attachment bytes are one file (hard links); without links every
    attachment is its own file, with the same paths and bytes."""

    ATTACHMENTS = {"artifacts/a.vcd": b"X" * 64, "artifacts/b.vcd": b"X" * 64,
                   "c.txt": b"Y", "artifacts/d.vcd": b"X" * 64}

    @staticmethod
    def files(run_dir):
        return {p.relative_to(run_dir).as_posix(): p.read_bytes()
                for p in sorted(run_dir.rglob("*")) if p.is_file()}

    def save(self, root, **kw):
        b = make_bundle(2, 1)
        ctx = save_run(b, root, self.ATTACHMENTS, **kw)
        run_dir = root / ctx.run_id
        stats = {rel: os.stat(run_dir / rel) for rel in self.ATTACHMENTS}
        return b, ctx, run_dir, stats

    def test_equal_bytes_share_one_inode(self, tmp_path):
        b, ctx, run_dir, st = self.save(tmp_path)
        shared = {st[r].st_ino for r in ("artifacts/a.vcd", "artifacts/b.vcd",
                                         "artifacts/d.vcd")}
        assert len(shared) == 1
        assert st["artifacts/a.vcd"].st_nlink == 3
        assert st["c.txt"].st_ino not in shared and st["c.txt"].st_nlink == 1
        loaded = load_run(tmp_path, ctx.run_id)
        for kind in T.RunBundle.COLLECTION_KINDS:
            assert getattr(loaded, kind) == getattr(b, kind), kind

    @pytest.mark.parametrize("validate", [True, False])
    def test_without_links_the_directory_is_the_same(self, tmp_path, monkeypatch,
                                                     validate):
        _b, linked_ctx, linked, linked_st = self.save(tmp_path / "linked",
                                                      validate=validate)
        assert len({st.st_ino for st in linked_st.values()}) == 2

        def no_link(src, dst):
            raise OSError(f"no link from {src} to {dst}")

        monkeypatch.setattr(os, "link", no_link)
        _b, ctx, copied, st = self.save(tmp_path / "copied", validate=validate)
        assert len({s.st_ino for s in st.values()}) == 4
        assert all(s.st_nlink == 1 for s in st.values())
        assert ctx.run_id == linked_ctx.run_id
        assert self.files(copied) == self.files(linked)


class TestExport:
    def test_one_req_one_chunk(self):
        b = make_bundle(n_reqs=1, n_props=0)
        b.spec_chunks = b.spec_chunks[:1]
        nodes, edges = export_graph(b)
        assert len(nodes) - 1 == 2
        derives = [e for e in edges[1:] if e[2] == "derives_from"]
        assert len(derives) == 1

    def test_counts_match_collections(self, fifo_model):
        b = make_bundle(3, 2)
        b.design_model = fifo_model
        nodes, edges = export_graph(b)
        expected_nodes = (len(b.spec_chunks) + len(b.requirements)
                          + len(b.properties) + len(fifo_model.modules)
                          + sum(len(m.signals) for m in fifo_model.modules)
                          + len(fifo_model.statements))
        assert len(nodes) - 1 == expected_nodes
        expected_edges = (len(b.tracelinks)
                          + (len(b.spec_chunks) - 1)  # chunk ordering
                          + sum(len(m.signals) for m in fifo_model.modules)
                          + len(fifo_model.statements))
        assert len(edges) - 1 == expected_edges

    def test_deterministic_bytes(self):
        b = make_bundle(3, 2)
        n1, e1 = export_graph(b)
        n2, e2 = export_graph(b)
        assert render_csv(n1) == render_csv(n2)
        assert render_csv(e1) == render_csv(e2)

    def test_dangling_link_raises(self):
        b = make_bundle()
        b.tracelinks.append(T.TraceLink("PROP-404", "REQ-001",
                                        T.LinkKind.VALIDATES))
        with pytest.raises(Exception) as err:
            export_graph(b)
        assert "PROP-404" in str(err.value)

    def test_csv_escaping_round_trips(self):
        b = make_bundle(1, 1)
        b.requirements[0].text = 'he said "quote", twice'
        nodes, _ = export_graph(b)
        text = render_csv(nodes)
        parsed = parse_csv(text)
        row = [r for r in parsed if r[0] == "REQ-001"][0]
        assert json.loads(row[3])["text"] == 'he said "quote", twice'


class TestDiff:
    def test_identity_diff_empty(self):
        b = make_bundle()
        assert diff_runs(b, b).empty

    def test_status_transition(self):
        a = make_bundle(1, 1)
        a.formal_results = [T.FormalResult("RES-001", "PROP-001",
                                           T.ResultStatus.CEX,
                                           artifact_path="x.vcd")]
        a.cex_cases = [T.CexCase("CEX-001", "PROP-001", "x.vcd", 3, 7)]
        b = make_bundle(1, 1)
        b.formal_results = [T.FormalResult("RES-001", "PROP-001",
                                           T.ResultStatus.PROVEN)]
        d = diff_runs(a, b)
        assert d.status_transitions == [("PROP-001", "cex", "proven")]

    def test_disjoint_full_add_remove(self):
        a = make_bundle(1, 0)
        b = make_bundle(2, 1)
        b.requirements = [T.Requirement("REQ-009", "other",
                                        T.Category.SAFETY, T.Priority.LOW,
                                        [b.spec_chunks[0].chunk_id])]
        d = diff_runs(a, b)
        assert d.kinds["requirements"].removed == {"REQ-001"}
        assert d.kinds["requirements"].added == {"REQ-009"}


class TestEdgeSchemaSoundness:
    """Random link/endpoint combinations: the validator and export_graph
    must agree on what is legal."""

    def test_validator_agrees_with_export(self):
        rng = random.Random(11)
        ids = {
            "spec_chunk": "CHUNK-001",
            "requirement": "REQ-001",
            "property": "PROP-001",
            "formal_result": "RES-001",
        }
        for _ in range(200):
            base = make_bundle(1, 1)
            base.spec_chunks = base.spec_chunks[:1]
            base.formal_results = [T.FormalResult(
                "RES-001", "PROP-001", T.ResultStatus.PROVEN)]
            base.tracelinks.append(T.TraceLink(
                "RES-001", "PROP-001", T.LinkKind.PROVES))
            src_kind = rng.choice(list(ids))
            dst_kind = rng.choice(list(ids))
            link_kind = rng.choice(list(T.LinkKind))
            link = T.TraceLink(ids[src_kind], ids[dst_kind], link_kind)
            base.tracelinks.append(link)
            from verikg.ir.export import check_link_endpoints, graph_nodes

            verdict = check_link_endpoints(link, {i: t for i, t, _ in graph_nodes(base)})
            exported_ok = True
            try:
                export_graph(base)
            except Exception:
                exported_ok = False
            assert (verdict is None) == exported_ok, (src_kind, dst_kind,
                                                      link_kind, verdict)

    def test_csv_kind_validation(self):
        assert validate_artifact([["a", "t", "r", "{}"]], "nodes").ok
        assert not validate_artifact([["a", "t", "r"]], "nodes").ok
        assert validate_artifact([["a", "b", "t", "r", "{}"]], "edges").ok
        assert not validate_artifact("not rows", "edges").ok
