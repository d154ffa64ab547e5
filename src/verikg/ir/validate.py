"""Schema and invariant validation for IR documents and whole bundles.

Cross-references (a requirement's chunks, a testplan entry's requirement,
trace-link endpoints) are checked against the node types of the graph
derivation in `ir.export`, the same map `graph_items` checks links with."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from verikg.ir import types as T
from verikg.ir.export import NodeItem, check_link_endpoints, graph_nodes
from verikg.kg import GraphError, unique_nodes
from verikg.rtl.ast import DesignModel


@dataclass
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def add(self, path: str, message: str) -> None:
        self.violations.append(Violation(path, message))

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        for v in other.violations:
            self.violations.append(Violation(prefix + v.path, v.message))

    def __str__(self) -> str:
        return "\n".join(str(v) for v in self.violations) or "ok"


class _Refs(NamedTuple):
    """What the cross-reference checks read: the graph's node id -> node
    type map (`ir.export.graph_nodes`) and the properties with a CexCase."""
    kind_of: dict[str, str]
    cex_props: frozenset[str]


def _refs(bundle: T.RunBundle, nodes: list[NodeItem]) -> _Refs:
    return _Refs({node_id: node_type for node_id, node_type, _ in nodes},
                 frozenset(c.prop_id for c in bundle.cex_cases or []))


# -- per-kind validators -----------------------------------------------------

def _validate_spec_chunks(items: list[T.SpecChunk], rep: ValidationReport,
                          refs: _Refs | None) -> None:
    seen: set[str] = set()
    last_index = -1
    for i, c in enumerate(items):
        path = f"spec_chunks[{i}]"
        if not c.chunk_id:
            rep.add(path + ".chunk_id", "empty identifier")
        if c.chunk_id in seen:
            rep.add(path + ".chunk_id", f"duplicate chunk_id {c.chunk_id!r}")
        seen.add(c.chunk_id)
        if not c.heading_path:
            rep.add(path + ".heading_path", "heading_path non-empty")
        if c.order_index < 0:
            rep.add(path + ".order_index", "order_index must be nonnegative")
        if c.order_index <= last_index:
            rep.add(path + ".order_index",
                    "order_index strictly increasing in document order")
        last_index = c.order_index


def _validate_requirements(items: list[T.Requirement], rep: ValidationReport,
                           refs: _Refs | None) -> None:
    seen: set[str] = set()
    for i, r in enumerate(items):
        path = f"requirements[{i}]"
        if r.req_id in seen:
            rep.add(path + ".req_id", f"duplicate req_id {r.req_id!r}")
        seen.add(r.req_id)
        if not r.source_chunks:
            rep.add(path + ".source_chunks", "source_chunks non-empty")
        if refs is not None:
            for c in r.source_chunks:
                if refs.kind_of.get(c) != "spec_chunk":
                    rep.add(path + ".source_chunks",
                            f"referenced chunk {c!r} does not exist in this run")


def _validate_testplan(items: list[T.TestPlanEntry], rep: ValidationReport,
                       refs: _Refs | None) -> None:
    for i, t in enumerate(items):
        if refs is not None and refs.kind_of.get(t.req_id) != "requirement":
            rep.add(f"testplan[{i}].req_id",
                    f"req_id {t.req_id!r} refers to no Requirement")


def _validate_attempts(attempts: list[T.AttemptNote], path: str,
                       rep: ValidationReport) -> None:
    per_kind: dict[T.LoopKind, list[int]] = {}
    for a in attempts:
        per_kind.setdefault(a.loop_kind, []).append(a.attempt_no)
        if not (1 <= a.attempt_no <= T.MAX_ATTEMPTS):
            rep.add(path, f"attempt_no {a.attempt_no} outside 1..{T.MAX_ATTEMPTS}")
    for kind, nos in per_kind.items():
        if len(nos) > T.MAX_ATTEMPTS:
            rep.add(path, f"more than {T.MAX_ATTEMPTS} attempts "
                          f"for loop kind {kind.value}")
        if any(b <= a for a, b in zip(nos, nos[1:])):
            rep.add(path, f"attempt_no not strictly increasing for {kind.value}")


def _validate_properties(items: list[T.PropertyRecord], rep: ValidationReport,
                         refs: _Refs | None) -> None:
    seen: set[str] = set()
    for i, p in enumerate(items):
        path = f"properties[{i}]"
        if p.prop_id in seen:
            rep.add(path + ".prop_id", f"duplicate prop_id {p.prop_id!r}")
        seen.add(p.prop_id)
        start, end = p.line_span
        if start < 1 or end < start:
            rep.add(path + ".line_span", f"invalid span {p.line_span}")
        if p.status is T.PropStatus.DISABLED and not p.sva_text:
            rep.add(path + ".sva_text", "disabled property must retain its last sva_text")
        _validate_attempts(p.attempt_history, path + ".attempt_history", rep)


def _validate_tracelinks(items: list[T.TraceLink], rep: ValidationReport,
                         refs: _Refs | None) -> None:
    if refs is None:
        return
    for i, link in enumerate(items):
        reason = check_link_endpoints(link, refs.kind_of)
        if reason is not None:
            rep.add(f"tracelinks[{i}]", reason)


def _validate_formal_results(items: list[T.FormalResult], rep: ValidationReport,
                             refs: _Refs | None) -> None:
    seen: set[str] = set()
    for i, r in enumerate(items):
        path = f"formal_results[{i}]"
        if r.result_id in seen:
            rep.add(path + ".result_id", f"duplicate result_id {r.result_id!r}")
        seen.add(r.result_id)
        if r.status is T.ResultStatus.CEX and not r.artifact_path:
            rep.add(path + ".artifact_path", "status=cex implies artifact_path set")
        if r.proof_depth is not None and r.proof_depth < 0:
            rep.add(path + ".proof_depth", "proof_depth must be nonnegative")
        if refs is not None and r.status is T.ResultStatus.PROVEN \
                and r.prop_id in refs.cex_props:
            rep.add(path, f"proven result for {r.prop_id!r} coexists with a CexCase")


def _validate_cex_cases(items: list[T.CexCase], rep: ValidationReport,
                        refs: _Refs | None) -> None:
    seen: set[str] = set()
    for i, c in enumerate(items):
        path = f"cex_cases[{i}]"
        if c.cex_id in seen:
            rep.add(path + ".cex_id", f"duplicate cex_id {c.cex_id!r}")
        seen.add(c.cex_id)
        if len(c.attempts) > T.MAX_ATTEMPTS:
            rep.add(path + ".attempts", f"attempts length exceeds {T.MAX_ATTEMPTS}")
        _validate_attempts(c.attempts, path + ".attempts", rep)


def _validate_coverage(items: list[T.CoverageMetrics], rep: ValidationReport,
                       refs: _Refs | None) -> None:
    for i, m in enumerate(items):
        path = f"coverage_metrics[{i}]"
        covered = set(m.covered_statements)
        unreachable = set(m.unreachable_statements)
        overlap = covered & unreachable
        if overlap:
            rep.add(path, f"covered and unreachable overlap: {sorted(overlap)}")
        total = len(covered) + len(unreachable)
        if total:
            expect = 100.0 * len(covered) / total
            if abs(m.reachable_pct - expect) > 0.05:
                rep.add(path + ".reachable_pct",
                        f"{m.reachable_pct} differs from {expect:.4f} by more than 0.05")
        if m.vacuity_count < 0:
            rep.add(path + ".vacuity_count", "must be nonnegative")


def _validate_run_context(ctx: T.RunContext, rep: ValidationReport,
                          refs: _Refs | None) -> None:
    if not ctx.run_id:
        rep.add("run_context.run_id", "empty run_id")
        return
    parts = ctx.run_id.split("-")
    if len(parts) != 2 or len(parts[1]) != 8 or len(parts[0]) != 16 \
            or not parts[0].endswith("Z"):
        rep.add("run_context.run_id",
                f"run_id {ctx.run_id!r} not of form YYYYMMDDTHHMMSSZ-<8 hex>")
    else:
        try:
            int(parts[1], 16)
        except ValueError:
            rep.add("run_context.run_id", "hash suffix is not hex")


def _validate_design_model(dm: DesignModel, rep: ValidationReport,
                           refs: _Refs | None) -> None:
    module_names = {m.name for m in dm.modules}
    for m in dm.modules:
        names: set[str] = set()
        for s in m.signals:
            if s.name in names:
                rep.add(f"design_model.{m.name}", f"duplicate signal {s.name!r}")
            names.add(s.name)
        port_names: set[str] = set()
        for p in m.ports:
            if p.name in port_names:
                rep.add(f"design_model.{m.name}", f"duplicate port {p.name!r}")
            port_names.add(p.name)
        for inst in m.instances:
            if inst.module not in module_names:
                rep.add(f"design_model.{m.name}.{inst.name}",
                        f"instance of unknown module {inst.module!r}")
    sids: set[str] = set()
    for s in dm.statements:
        if s.id in sids:
            rep.add("design_model.statements", f"duplicate statement id {s.id!r}")
        sids.add(s.id)
    reg_names = {f"{m.name}.{s.name}" for m in dm.modules for s in m.signals}
    for f in dm.fsms:
        if f.state_reg not in reg_names:
            rep.add("design_model.fsms", f"state register {f.state_reg!r} not declared")


_CSV_COLUMNS = {"nodes": 4, "edges": 5}


def _validate_csv_rows(kind: str, rows, rep: ValidationReport) -> None:
    want = _CSV_COLUMNS[kind]
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != want:
            rep.add(f"{kind}[{i}]", f"expected {want} columns")
            continue
        if any(not isinstance(x, str) for x in row):
            rep.add(f"{kind}[{i}]", "all columns must be strings")


# Kind -> validator of its parsed collection; a validator given no `_Refs`
# skips the cross-reference checks.
_VALIDATORS = {
    "spec_chunks": _validate_spec_chunks,
    "requirements": _validate_requirements,
    "testplan": _validate_testplan,
    "design_model": _validate_design_model,
    "properties": _validate_properties,
    "tracelinks": _validate_tracelinks,
    "formal_results": _validate_formal_results,
    "cex_cases": _validate_cex_cases,
    "coverage_metrics": _validate_coverage,
    "run_context": _validate_run_context,
}


# -- public entry points -------------------------------------------------------

def validate_artifact(doc, kind: str, bundle: T.RunBundle | None = None) -> ValidationReport:
    """Validate one parsed document against its kind's schema and invariants.

    Cross-reference invariants (chunk existence, link endpoints, ...) are
    checked only when the surrounding bundle is supplied. Malformed documents
    produce a parse-level violation, never an exception.
    """
    rep = ValidationReport()
    if kind not in T.ARTIFACT_KINDS:
        rep.add("$", f"unknown artifact kind {kind!r}")
        return rep
    if kind in ("nodes", "edges"):
        if not isinstance(doc, (list, tuple)):
            rep.add("$", "expected a list of rows")
            return rep
        _validate_csv_rows(kind, doc, rep)
        return rep
    try:
        if kind == "run_context":
            parsed = T.RunContext.from_doc(doc)
        else:
            parsed = T.RunBundle.collection_from_doc(kind, doc)
    except Exception as exc:  # malformed document, report instead of crash
        rep.add("$", f"parse: {exc}")
        return rep
    refs = _refs(bundle, graph_nodes(bundle)) if bundle is not None else None
    _VALIDATORS[kind](parsed, rep, refs)
    return rep


def validate_bundle(bundle: T.RunBundle) -> ValidationReport:
    """Validate every present collection plus all cross-references,
    including the graph's own rule that one node id is one node."""
    rep = ValidationReport()
    nodes = graph_nodes(bundle)
    try:
        unique_nodes(nodes)
    except GraphError as exc:
        rep.add("graph", str(exc))
    refs = _refs(bundle, nodes)
    _validate_run_context(bundle.context, rep, refs)
    for kind in bundle.present_kinds():
        _VALIDATORS[kind](getattr(bundle, kind), rep, refs)
    return rep
