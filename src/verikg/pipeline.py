"""End-to-end driver: ingest -> parse/elaborate -> graph -> generation ->
syntax loop -> formal -> CEX loop -> coverage loop -> persisted run."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from verikg import __version__
from verikg.agents.backend import (
    Backend,
    LiveBackend,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
)
from verikg.agents.cex_loop import run_cex_loop
from verikg.agents.coverage_loop import run_coverage_loop
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.agents.generation import run_generation
from verikg.agents.scripted import default_rules
from verikg.agents.syntax_loop import run_syntax_loop
from verikg.engine.check import CheckConfig, check
from verikg.engine.coverage import coverage
from verikg.htmlview import render_html
from verikg.ir import types as T
from verikg.ir.export import export_graph
from verikg.ir.store import StoreError, make_run_id, save_run, timestamp_now
from verikg.kg import (
    Graph,
    RetrievalBounds,
    build_graph,
    build_signal_index,
    invalidate_downstream,
    resolve_signal,
)
from verikg.rtl.analyze import assign_statement_ids, detect_fsms
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import compile_properties
from verikg.vcd import write_vcd


class PipelineError(Exception):
    pass


@dataclass
class RunConfig:
    spec_path: str
    rtl_paths: list[str]
    out_root: str
    top: str | None = None
    rulebook_path: str | None = None
    backend: str = "scripted"  # scripted | replay | live
    transcript_path: str | None = None
    live_url: str = ""
    live_model: str = ""
    api_key: str | None = None
    radius: int = 2
    type_cap: int = 20
    max_states: int = 1 << 20
    max_depth: int = 64
    cex_iters: int = 2
    cov_iters: int = 2
    created_at: str | None = None

    def validate(self) -> None:
        if not Path(self.spec_path).is_file():
            raise PipelineError(f"spec file not found: {self.spec_path}")
        for p in self.rtl_paths:
            if not Path(p).is_file():
                raise PipelineError(f"rtl file not found: {p}")
        if self.rulebook_path and not Path(self.rulebook_path).is_file():
            raise PipelineError(f"rulebook not found: {self.rulebook_path}")
        if self.backend == "replay":
            if not self.transcript_path or not Path(self.transcript_path).is_file():
                raise PipelineError("replay backend needs --transcript")
        if min(self.radius, self.type_cap, self.max_states, self.max_depth,
               self.cex_iters, self.cov_iters) <= 0:
            raise PipelineError("bounds and iteration caps must be positive")

    def bounds(self) -> RetrievalBounds:
        return RetrievalBounds(self.radius, self.type_cap)

    def check_config(self, assumptions=None) -> CheckConfig:
        return CheckConfig(self.max_states, self.max_depth, assumptions or [])

    def snapshot(self) -> dict:
        return {
            "spec": self.spec_path,
            "rtl": list(self.rtl_paths),
            "top": self.top,
            "rulebook": self.rulebook_path,
            "backend": self.backend,
            "radius": self.radius,
            "type_cap": self.type_cap,
            "max_states": self.max_states,
            "max_depth": self.max_depth,
            "cex_iters": self.cex_iters,
            "cov_iters": self.cov_iters,
        }


@dataclass
class RunReport:
    props_total: int = 0
    props_passed: int = 0
    props_failed: int = 0
    vacuous: int = 0
    reachable_pct: float = 100.0
    syntax_fix_attempts: int = 0
    cex_corrected: int = 0
    cex_not_corrected: int = 0
    kg_nodes: int = 0
    kg_edges: int = 0
    assumptions: int = 0
    run_id: str = ""

    def render(self) -> str:
        rows = [
            ("property generation", "properties (T | P | F)",
             f"{self.props_total} | {self.props_passed} | {self.props_failed}"),
            ("property generation", "vacuous properties", str(self.vacuous)),
            ("property generation", "assumptions", str(self.assumptions)),
            ("syntax correction", "fix attempts", str(self.syntax_fix_attempts)),
            ("cex correction", "properties (C | NC)",
             f"{self.cex_corrected} | {self.cex_not_corrected}"),
            ("coverage", "reachable-statement coverage % (engine metric)",
             f"{self.reachable_pct:.1f}"),
            ("knowledge graph", "nodes | edges",
             f"{self.kg_nodes} | {self.kg_edges}"),
        ]
        width_a = max(len(r[0]) for r in rows)
        width_b = max(len(r[1]) for r in rows)
        lines = [f"run: {self.run_id}"] if self.run_id else []
        for a, b, c in rows:
            lines.append(f"{a:<{width_a}}  {b:<{width_b}}  {c}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spec ingestion
# ---------------------------------------------------------------------------

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_REQ_LINE_RE = re.compile(r"^REQ(?:\[(\w+),(\w+)\])?:\s*(.+)$")


def chunk_spec(text: str) -> list[T.SpecChunk]:
    """Deterministic heading-structure chunking; heading lines start chunks,
    a heading-less preamble (or document) gets the synthetic "(root)"."""
    if not text.strip():
        raise PipelineError("empty specification document")

    # split into a preamble plus one segment per heading line
    segments: list[tuple[tuple[int, str] | None, list[str]]] = [(None, [])]
    for line in text.split("\n"):
        m = _HEADING_RE.match(line)
        if m:
            segments.append(((len(m.group(1)), m.group(2).strip()), []))
        else:
            segments[-1][1].append(line)

    chunks: list[T.SpecChunk] = []

    def add(path: list[str], body: str) -> None:
        chunks.append(T.SpecChunk(
            chunk_id=T.make_id("CHUNK", len(chunks) + 1),
            heading_path=list(path),
            text=body,
            semantic_tags=_tags(path[-1]),
            order_index=len(chunks),
        ))

    preamble = "\n".join(segments[0][1]).strip()
    if preamble or len(segments) == 1:
        add(["(root)"], preamble)
    stack: list[tuple[int, str]] = []
    for heading, lines in segments[1:]:
        level, title = heading
        while stack and stack[-1][0] >= level:
            stack.pop()
        stack.append((level, title))
        add([t for _lvl, t in stack], "\n".join(lines).strip())
    return chunks


def _tags(heading: str) -> list[str]:
    return sorted({w.lower() for w in re.findall(r"[A-Za-z]+", heading)})


def ingest_spec(path: str | Path, backend: Backend
                ) -> tuple[list[T.SpecChunk], list[T.Requirement], list[T.TraceLink]]:
    """Chunk the document, then delegate requirement extraction to the
    backend (one envelope per chunk)."""
    text = Path(path).read_text(encoding="utf-8")
    chunks = chunk_spec(text)
    reqs: list[T.Requirement] = []
    links: list[T.TraceLink] = []
    for chunk in chunks:
        if not chunk.text:
            continue
        env = PromptEnvelope.build(
            "spec_analyst", f"ingest/{chunk.chunk_id}", ResponseShape.ANALYSIS,
            spec_fragment=chunk.text)
        response = backend.send(env)
        for line in str(response.payload).split("\n"):
            m = _REQ_LINE_RE.match(line.strip())
            if not m:
                continue
            category = m.group(1) or "functional"
            priority = m.group(2) or "medium"
            try:
                cat = T.Category(category.lower())
                prio = T.Priority(priority.lower())
            except ValueError as exc:
                raise PipelineError(
                    f"{chunk.chunk_id}: bad requirement annotation "
                    f"[{category},{priority}]: {exc}") from exc
            req = T.Requirement(
                req_id=T.make_id("REQ", len(reqs) + 1),
                text=m.group(3).strip(),
                category=cat,
                priority=prio,
                source_chunks=[chunk.chunk_id],
            )
            reqs.append(req)
            links.append(T.TraceLink(req.req_id, chunk.chunk_id,
                                     T.LinkKind.DERIVES_FROM))
    return chunks, reqs, links


# ---------------------------------------------------------------------------
# Assembly helpers
# ---------------------------------------------------------------------------

def make_backend(cfg: RunConfig) -> Backend:
    if cfg.backend == "scripted":
        return ScriptedBackend(default_rules())
    if cfg.backend == "replay":
        return ReplayBackend(Transcript.load(cfg.transcript_path))
    if cfg.backend == "live":
        if not cfg.live_url or not cfg.live_model:
            raise PipelineError("live backend needs an endpoint url and model")
        return LiveBackend(cfg.live_url, cfg.live_model, cfg.api_key)
    raise PipelineError(f"unknown backend {cfg.backend!r}")


def parse_rtl_files(paths: list[str]) -> DesignModel:
    merged = DesignModel()
    for p in paths:
        result = parse_rtl(Path(p).read_text(encoding="utf-8"), filename=str(p))
        if not isinstance(result, DesignModel):
            raise PipelineError("RTL parse failed:\n" + result.render())
        for m in result.modules:
            if merged.module(m.name) is not None:
                raise PipelineError(f"duplicate module {m.name!r} across files")
            merged.modules.append(m)
    merged.statements = assign_statement_ids(merged)
    merged.fsms = detect_fsms(merged)
    if len(merged.modules) == 1:
        merged.top = merged.modules[0].name
    return merged


def rebuild_graph(bundle: T.RunBundle) -> Graph:
    nodes, edges = export_graph(bundle)
    return build_graph(nodes, edges)


_MENTION_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def make_testplan(reqs: list[T.Requirement], idx) -> list[T.TestPlanEntry]:
    out = []
    for req in reqs:
        mentions = []
        for token in _MENTION_RE.findall(req.text):
            if resolve_signal(idx, token):
                if token not in mentions:
                    mentions.append(token)
        out.append(T.TestPlanEntry(
            req_id=req.req_id,
            observable_signals=mentions,
            stimulus=req.text,
            expected_response="",
        ))
    return out


def link_assumptions_to_statements(bundle: T.RunBundle, pf: S.PropertyFile,
                                   idx, net: NetModel) -> None:
    """An assumption constrains the statements whose guards read the signals
    it mentions; the covers links make blocked gaps graph-reachable."""
    from verikg.rtl.ast import expr_ids

    existing = {(l.src_id, l.dst_id, l.link_kind) for l in bundle.tracelinks or []}
    for record in bundle.properties or []:
        if record.kind is not T.PropKind.ASSUMPTION \
                or record.status is not T.PropStatus.ACTIVE:
            continue
        decl = pf.get(record.prop_id)
        if decl is None or decl.body is None:
            continue
        mentioned: set[str] = set()
        seqs = [decl.body.consequent] + (
            [decl.body.antecedent] if decl.body.antecedent else [])
        for seq in seqs:
            for step in seq.steps:
                for name in expr_ids(step.expr):
                    paths = resolve_signal(idx, name)
                    if len(paths) == 1:
                        mentioned.add(paths[0])
                    elif name in idx.path_widths:
                        mentioned.add(name)
        if not mentioned:
            continue
        for sid in sorted(net.statement_guards):
            guard_names = expr_ids(net.statement_guards[sid])
            if guard_names & mentioned:
                key = (record.prop_id, sid, T.LinkKind.COVERS)
                if key not in existing:
                    existing.add(key)
                    bundle.tracelinks.append(
                        T.TraceLink(record.prop_id, sid, T.LinkKind.COVERS))


def active_bound(bound: list[S.BoundProperty], bundle: T.RunBundle
                 ) -> list[S.BoundProperty]:
    """The bound properties whose records are ACTIVE."""
    active = {r.prop_id for r in bundle.properties or []
              if r.status is T.PropStatus.ACTIVE}
    return [b for b in bound if b.prop_id in active]


# ---------------------------------------------------------------------------
# run_all
# ---------------------------------------------------------------------------

def run_all(cfg: RunConfig) -> RunReport:
    """Execute the full workflow and persist the run directory.

    A stage failure still saves everything produced so far (bundle plus
    transcript) before the error propagates.
    """
    cfg.validate()
    inner = make_backend(cfg)
    backend = RecordingBackend(inner)
    rulebook = (Path(cfg.rulebook_path).read_text(encoding="utf-8")
                if cfg.rulebook_path else "")

    created_at = cfg.created_at
    if created_at is None and cfg.backend == "replay":
        created_at = Transcript.load(cfg.transcript_path).created_at or None
    if created_at is None:
        created_at = timestamp_now()

    ctx = T.RunContext(
        run_id="00000000T000000Z-00000000",
        tool_version=__version__,
        created_at=created_at,
        config_snapshot=cfg.snapshot(),
    )
    bundle = T.RunBundle(context=ctx)
    artifacts: dict[str, bytes] = {}
    iteration_counts = {"syntax": 0, "cex": 0, "coverage": 0}

    try:
        report = _run_stages(cfg, backend, rulebook, bundle, artifacts,
                             iteration_counts)
    except Exception:
        # crash safety: preserve whatever the stages produced, plus transcript
        ctx.iteration_counts = iteration_counts
        backend.transcript.created_at = created_at
        artifacts["transcript.json"] = backend.transcript.render_bytes()
        try:
            save_run(bundle, cfg.out_root, artifacts, validate=False)
        except StoreError:
            pass
        raise

    ctx.iteration_counts = iteration_counts
    run_id = make_run_id(bundle, created_at)
    ctx.run_id = run_id
    backend.transcript.run_id = run_id
    backend.transcript.created_at = created_at
    artifacts["transcript.json"] = backend.transcript.render_bytes()
    kg = rebuild_graph(bundle)
    artifacts["graph.html"] = render_html(kg).encode("utf-8")
    report.run_id = run_id
    report.kg_nodes = kg.node_count()
    report.kg_edges = kg.edge_count()
    artifacts["report.txt"] = report.render().encode("utf-8")
    save_run(bundle, cfg.out_root, artifacts)
    return report


def _run_stages(cfg: RunConfig, backend: Backend, rulebook: str,
                bundle: T.RunBundle, artifacts: dict[str, bytes],
                iteration_counts: dict[str, int]) -> RunReport:
    # 1. ingest
    chunks, reqs, links = ingest_spec(cfg.spec_path, backend)
    bundle.spec_chunks = chunks
    bundle.requirements = reqs
    bundle.tracelinks = list(links)

    # 2. RTL front end
    dm = parse_rtl_files(cfg.rtl_paths)
    top = cfg.top or dm.top
    if top is None:
        raise PipelineError("multiple modules and no --top given")
    dm.top = top
    bundle.design_model = dm
    net = elaborate(dm, top)
    if not isinstance(net, NetModel):
        raise PipelineError("elaboration failed:\n" + net.render())
    rtl_source = "\n".join(Path(p).read_text(encoding="utf-8")
                           for p in cfg.rtl_paths)

    # 3. initial graph + signal index + testplan
    kg = rebuild_graph(bundle)
    idx = build_signal_index(kg)
    bundle.testplan = make_testplan(reqs, idx)
    clock_leaf = (net.clock or f"{top}.clk").split(".")[-1]

    # 4. property generation
    gen = run_generation(reqs, kg, dm, rulebook, backend, idx, clock_leaf,
                         cfg.bounds())
    pf = gen.property_file
    bundle.properties = gen.records
    bundle.tracelinks.extend(gen.links)

    # 5. syntax loop until fixpoint; its last compile binds the whole file,
    # and the file is compiled again only after it changes
    kg = rebuild_graph(bundle)
    bound = active_bound(
        run_syntax_loop(pf, dm, kg, backend, bundle.properties, rulebook).bound,
        bundle)
    iteration_counts["syntax"] += 1

    # 6. formal checking
    bundle.formal_results = []
    bundle.cex_cases = []
    recheck_properties([b.prop_id for b in bound], net, bound, bundle, cfg,
                       artifacts)
    link_assumptions_to_statements(bundle, pf, idx, net)

    # 7. cex loop, re-checking only invalidated results
    for _it in range(cfg.cex_iters):
        failing = [r for r in bundle.formal_results
                   if r.status is T.ResultStatus.CEX]
        if not failing:
            break
        iteration_counts["cex"] += 1
        kg = rebuild_graph(bundle)
        loop = run_cex_loop(failing, kg, net, rtl_source, backend, pf,
                            bundle.properties, artifacts,
                            cfg.check_config(_assumptions(bound)), dm,
                            cex_id_start=_next_id(
                                (c.cex_id for c in bundle.cex_cases), "CEX"))
        bundle.cex_cases = _merge_cases(bundle.cex_cases, loop.cases)
        if not loop.patched:
            break
        for pid in loop.patched:
            invalidate_downstream(kg, pid)
        bound = active_bound(compile_properties(pf, dm, idx).bound, bundle)
        recheck_properties(loop.patched, net, bound, bundle, cfg, artifacts)

    # 8. coverage + coverage loop
    cov = _coverage(net, bound, cfg)
    bundle.coverage_metrics = [cov]
    for _it in range(cfg.cov_iters):
        if not cov.unreachable_statements:
            break
        iteration_counts["coverage"] += 1
        kg = rebuild_graph(bundle)
        loop = run_coverage_loop(cov, kg, dm, backend, rulebook, cfg.bounds(),
                                 id_start=_next_id(
                                     (p.prop_id for p in bundle.properties), "PROP"))
        cov.dead_code = loop.dead_code
        if not loop.new_decls:
            break
        pf.properties.extend(loop.new_decls)
        bundle.properties.extend(loop.new_records)
        bundle.tracelinks.extend(loop.new_links)
        kg = rebuild_graph(bundle)
        bound = active_bound(
            run_syntax_loop(pf, dm, kg, backend, bundle.properties, rulebook).bound,
            bundle)
        iteration_counts["syntax"] += 1
        recheck_properties([r.prop_id for r in loop.new_records], net, bound,
                           bundle, cfg, artifacts)
        cov_new = _coverage(net, bound, cfg)
        cov_new.dead_code = _merge_dead_code(loop.dead_code, cov_new)
        cov = cov_new
        bundle.coverage_metrics = [cov]

    return report_from_bundle(bundle)


def _next_id(ids, prefix: str) -> int:
    """One past the highest number among the `<prefix>-<n>` ids."""
    best = 0
    for ident in ids:
        if ident.startswith(prefix + "-"):
            try:
                best = max(best, int(ident.split("-")[1]))
            except ValueError:
                continue
    return best + 1


def _assumptions(bound: list[S.BoundProperty]) -> list[S.BoundProperty]:
    return [b for b in bound if b.kind == "assumption"]


def _coverage(net: NetModel, bound: list[S.BoundProperty], cfg: RunConfig
              ) -> T.CoverageMetrics:
    return coverage(net, [b for b in bound if b.kind != "assumption"],
                    cfg.check_config(_assumptions(bound)), run_ref="self")


def _sync_result_links(bundle: T.RunBundle) -> None:
    """proves/fails links mirror the current results."""
    keep = [l for l in bundle.tracelinks or []
            if l.link_kind not in (T.LinkKind.PROVES, T.LinkKind.FAILS)]
    for r in bundle.formal_results or []:
        if r.status in (T.ResultStatus.PROVEN, T.ResultStatus.VACUOUS):
            keep.append(T.TraceLink(r.result_id, r.prop_id, T.LinkKind.PROVES))
        elif r.status is T.ResultStatus.CEX:
            keep.append(T.TraceLink(r.result_id, r.prop_id, T.LinkKind.FAILS))
    bundle.tracelinks = keep


def _merge_cases(existing: list[T.CexCase], new: list[T.CexCase]) -> list[T.CexCase]:
    """One current case per property; repeat visits accumulate attempts."""
    by_prop = {c.prop_id: c for c in existing or []}
    for c in new:
        prior = by_prop.get(c.prop_id)
        if prior is not None:
            c.attempts = prior.attempts + c.attempts
        by_prop[c.prop_id] = c
    return [by_prop[k] for k in sorted(by_prop)]


def recheck_properties(prop_ids, net, bound: list[S.BoundProperty], bundle,
                       cfg: RunConfig, artifacts) -> None:
    """Re-check exactly the named properties against the current bound
    file; everything else keeps its result (focused re-verification). On
    an empty result set this is the full check: new results are numbered
    RES-1.. in prop_id order."""
    by_id = {b.prop_id: b for b in bound}
    check_cfg = cfg.check_config(_assumptions(bound))
    results = {r.prop_id: r for r in bundle.formal_results or []}
    next_res = _next_id((r.result_id for r in results.values()), "RES")

    for pid in sorted(set(prop_ids)):
        bp = by_id.get(pid)
        if bp is None or bp.kind == "assumption":
            results.pop(pid, None)
            continue
        result, trace = check(net, bp, check_cfg)
        prior = results.get(pid)
        result.result_id = prior.result_id if prior else T.make_id("RES", next_res)
        if not prior:
            next_res += 1
        if trace is not None and result.status is T.ResultStatus.CEX:
            rel = f"artifacts/{pid}.vcd"
            decls = list(net.inputs) + list(net.state_bits)
            artifacts[rel] = write_vcd(trace, decls)
            result.artifact_path = rel
        results[pid] = result
        if result.status is not T.ResultStatus.CEX:
            # downstream evidence was invalidated; drop the superseded case
            bundle.cex_cases = [c for c in bundle.cex_cases or []
                                if c.prop_id != pid]
    bundle.formal_results = [results[k] for k in sorted(results)]
    _sync_result_links(bundle)


def _merge_dead_code(prior: list[tuple[str, T.DeadCodeClass]],
                     cov: T.CoverageMetrics) -> list[tuple[str, T.DeadCodeClass]]:
    """Keep analyst classifications for statements still unreachable."""
    verdicts = dict(prior)
    return [(sid, verdicts.get(sid, T.DeadCodeClass.GAP))
            for sid in cov.unreachable_statements]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report_from_bundle(bundle: T.RunBundle) -> RunReport:
    """Tallies recomputed from the bundle; nothing is cached."""
    report = RunReport(run_id=bundle.context.run_id)
    checked = {r.prop_id: r for r in bundle.formal_results or []}
    assumption_ids = {p.prop_id for p in bundle.properties or []
                      if p.kind is T.PropKind.ASSUMPTION}
    scored = [r for pid, r in checked.items() if pid not in assumption_ids]
    report.props_total = len(scored)
    report.props_passed = sum(
        1 for r in scored
        if r.status in (T.ResultStatus.PROVEN, T.ResultStatus.VACUOUS))
    report.props_failed = report.props_total - report.props_passed
    report.vacuous = sum(1 for r in scored if r.status is T.ResultStatus.VACUOUS)
    report.assumptions = len(assumption_ids)
    report.syntax_fix_attempts = sum(
        1 for p in bundle.properties or []
        for n in p.attempt_history if n.loop_kind is T.LoopKind.SYNTAX)
    corrected = set()
    attempted = set()
    for p in bundle.properties or []:
        cex_notes = [n for n in p.attempt_history if n.loop_kind is T.LoopKind.CEX]
        if not cex_notes:
            continue
        attempted.add(p.prop_id)
        result = checked.get(p.prop_id)
        if any(n.outcome is T.AttemptOutcome.FIXED for n in cex_notes) \
                and result is not None \
                and result.status in (T.ResultStatus.PROVEN, T.ResultStatus.VACUOUS):
            corrected.add(p.prop_id)
    rtl_bug_props = {c.prop_id for c in bundle.cex_cases or []
                     if c.root_cause is T.RootCause.RTL_BUG}
    report.cex_corrected = len(corrected)
    report.cex_not_corrected = len((attempted - corrected) | rtl_bug_props)
    if bundle.coverage_metrics:
        report.reachable_pct = bundle.coverage_metrics[-1].reachable_pct
    nodes, edges = export_graph(bundle)
    report.kg_nodes = len(nodes) - 1
    report.kg_edges = len(edges) - 1
    return report
