"""Graph row export: one node per IR entity / RTL object, one edge per
trace link plus structural containment, sorted and byte-deterministic."""

from __future__ import annotations

import csv
import io
import json

from verikg.ir import types as T
from verikg.ir.validate import BundleIndex, check_link_endpoints, coverage_node_id
from verikg.rtl.ast import DesignModel

NODE_HEADER = ("id", "type", "run_id", "attributes")
EDGE_HEADER = ("src", "dst", "type", "run_id", "attributes")


class ExportError(Exception):
    pass


def _attrs(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _walk_signals(dm: DesignModel):
    """Yield (module_name, hierarchical_signal_path, width, kind).

    Paths are rooted at the top module's name when a top is set; otherwise
    each module is listed under its own name.
    """
    def visit(module_name: str, prefix: str, seen: tuple[str, ...]):
        m = dm.module(module_name)
        if m is None:
            return
        for s in m.signals:
            yield module_name, f"{prefix}.{s.name}", s.width, s.kind
        for inst in m.instances:
            if inst.module in seen:  # defensive: cyclic instantiation
                continue
            yield from visit(inst.module, f"{prefix}.{inst.name}",
                             seen + (inst.module,))

    if dm.top and dm.module(dm.top) is not None:
        yield from visit(dm.top, dm.top, (dm.top,))
    else:
        for m in dm.modules:
            yield from visit(m.name, m.name, (m.name,))


def export_graph(bundle: T.RunBundle) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """Node and edge rows (header row first), sorted by (type, id) and
    (type, src, dst). Pure function of the bundle."""
    run_id = bundle.context.run_id
    nodes: list[tuple[str, str, str, str]] = []
    edges: list[tuple[str, str, str, str, str]] = []

    for c in bundle.spec_chunks or []:
        nodes.append((c.chunk_id, "spec_chunk", run_id, _attrs({
            "heading_path": c.heading_path,
            "order_index": c.order_index,
            "semantic_tags": c.semantic_tags,
            "text": c.text,
        })))
    ordered_chunks = sorted(bundle.spec_chunks or [], key=lambda c: c.order_index)
    for a, b in zip(ordered_chunks, ordered_chunks[1:]):
        edges.append((a.chunk_id, b.chunk_id, "next_chunk", run_id, _attrs({})))

    for r in bundle.requirements or []:
        nodes.append((r.req_id, "requirement", run_id, _attrs({
            "category": r.category.value,
            "priority": r.priority.value,
            "text": r.text,
        })))

    for p in bundle.properties or []:
        nodes.append((p.prop_id, "property", run_id, _attrs({
            "kind": p.kind.value,
            "status": p.status.value,
            "req_ids": p.req_ids,
            "line_span": list(p.line_span),
            "sva_text": p.sva_text,
        })))

    for r in bundle.formal_results or []:
        nodes.append((r.result_id, "formal_result", run_id, _attrs({
            "prop_id": r.prop_id,
            "status": r.status.value,
            "proof_depth": r.proof_depth,
            "runtime_ms": r.runtime_ms,
            "external": r.external,
        })))

    for c in bundle.cex_cases or []:
        nodes.append((c.cex_id, "cex_case", run_id, _attrs({
            "prop_id": c.prop_id,
            "failure_time": c.failure_time,
            "failure_line": c.failure_line,
            "root_cause": c.root_cause.value if c.root_cause else None,
        })))

    for i, m in enumerate(bundle.coverage_metrics or []):
        nodes.append((coverage_node_id(i), "coverage_metrics", run_id, _attrs({
            "reachable_pct": m.reachable_pct,
            "vacuity_count": m.vacuity_count,
            "unreachable": len(m.unreachable_statements),
            "partial": m.partial,
        })))

    dm = bundle.design_model
    if dm is not None:
        for m in dm.modules:
            nodes.append((m.name, "rtl_module", run_id, _attrs({
                "ports": [p.name for p in m.ports],
                "parameters": {p.name: p.value for p in m.parameters},
                "instances": [[i.name, i.module] for i in m.instances],
            })))
        for module_name, path, width, kind in _walk_signals(dm):
            nodes.append((path, "rtl_signal", run_id, _attrs({
                "width": width,
                "kind": kind,
                "module": module_name,
            })))
            edges.append((module_name, path, "has_signal", run_id, _attrs({})))
        for s in dm.statements:
            nodes.append((s.id, "rtl_statement", run_id, _attrs({
                "module": s.module,
                "line": s.line,
                "kind": s.kind,
                "detail": s.detail,
            })))
            edges.append((s.module, s.id, "has_statement", run_id, _attrs({})))

    # result -> cex containment, needed by downstream invalidation
    results_by_prop: dict[str, list[T.FormalResult]] = {}
    for r in bundle.formal_results or []:
        results_by_prop.setdefault(r.prop_id, []).append(r)
    for c in bundle.cex_cases or []:
        for r in results_by_prop.get(c.prop_id, []):
            if r.status is T.ResultStatus.CEX:
                edges.append((r.result_id, c.cex_id, "has_cex", run_id, _attrs({})))

    ix = BundleIndex.from_bundle(bundle)
    node_ids = {n[0] for n in nodes}
    for link in bundle.tracelinks or []:
        reason = check_link_endpoints(link, ix)
        if reason is not None or link.src_id not in node_ids or link.dst_id not in node_ids:
            raise ExportError(
                f"dangling or ill-typed link {link.src_id} -{link.link_kind.value}-> "
                f"{link.dst_id}: {reason or 'endpoint not exported'}")
        edges.append((link.src_id, link.dst_id, link.link_kind.value, run_id, _attrs({})))

    node_rows = [NODE_HEADER] + sorted(set(nodes), key=lambda r: (r[1], r[0]))
    edge_rows = [EDGE_HEADER] + sorted(set(edges), key=lambda r: (r[2], r[0], r[1]))
    return node_rows, edge_rows


def render_csv(rows: list[tuple[str, ...]]) -> str:
    """Comma-separated with doubled-quote escaping, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL,
                        doublequote=True)
    for row in rows:
        writer.writerow(["" if x is None else str(x) for x in row])
    return buf.getvalue()


def parse_csv(text: str) -> list[tuple[str, ...]]:
    reader = csv.reader(io.StringIO(text))
    return [tuple(row) for row in reader if row]
