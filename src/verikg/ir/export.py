"""Graph content and its row export: one node per IR entity / RTL object,
one edge per trace link plus structural containment.

`graph_items` is the one definition of what the graph holds, as items
taken straight from the bundle's records; the pipeline builds its live
graph from the same items. `export_graph` turns them into sorted,
byte-deterministic rows with JSON attributes, for `save_run` only."""

from __future__ import annotations

import csv
import io
from collections.abc import Container

from verikg.codec import canonical_json
from verikg.ir import types as T
from verikg.ir.validate import BundleIndex, check_link_endpoints, coverage_node_id
from verikg.rtl.ast import DesignModel

NODE_HEADER = ("id", "type", "run_id", "attributes")
EDGE_HEADER = ("src", "dst", "type", "run_id", "attributes")


class ExportError(Exception):
    pass


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


# Graph content as items: a node is (id, type, attributes), an edge is
# (src, dst, type). Attribute values are fresh objects, never the records'
# own lists, so a graph built from them is a snapshot of the bundle.
NodeItem = tuple[str, str, dict]
EdgeItem = tuple[str, str, str]

# The node types of the verification part of the graph; the design part
# (spec chunks, requirements, RTL) is fixed once the front end has run.
VERIFICATION_NODE_TYPES = frozenset(
    {"property", "formal_result", "cex_case", "coverage_metrics"})


def design_items(bundle: T.RunBundle) -> tuple[list[NodeItem], list[EdgeItem]]:
    """Spec chunks in reading order, requirements, and the RTL modules,
    signals and statements with their containment edges."""
    nodes: list[NodeItem] = []
    edges: list[EdgeItem] = []
    for c in bundle.spec_chunks or []:
        nodes.append((c.chunk_id, "spec_chunk", {
            "heading_path": list(c.heading_path),
            "order_index": c.order_index,
            "semantic_tags": list(c.semantic_tags),
            "text": c.text,
        }))
    ordered_chunks = sorted(bundle.spec_chunks or [], key=lambda c: c.order_index)
    for a, b in zip(ordered_chunks, ordered_chunks[1:]):
        edges.append((a.chunk_id, b.chunk_id, "next_chunk"))

    for r in bundle.requirements or []:
        nodes.append((r.req_id, "requirement", {
            "category": r.category.value,
            "priority": r.priority.value,
            "text": r.text,
        }))

    dm = bundle.design_model
    if dm is not None:
        for m in dm.modules:
            nodes.append((m.name, "rtl_module", {
                "ports": [p.name for p in m.ports],
                "parameters": {p.name: p.value for p in m.parameters},
                "instances": [[i.name, i.module] for i in m.instances],
            }))
        for module_name, path, width, kind in _walk_signals(dm):
            nodes.append((path, "rtl_signal", {
                "width": width,
                "kind": kind,
                "module": module_name,
            }))
            edges.append((module_name, path, "has_signal"))
        for s in dm.statements:
            nodes.append((s.id, "rtl_statement", {
                "module": s.module,
                "line": s.line,
                "kind": s.kind,
                "detail": s.detail,
            }))
            edges.append((s.module, s.id, "has_statement"))
    return nodes, edges


def verification_nodes(bundle: T.RunBundle) -> list[NodeItem]:
    """Properties, formal results, CEX cases and coverage records."""
    nodes: list[NodeItem] = []
    for p in bundle.properties or []:
        nodes.append((p.prop_id, "property", {
            "kind": p.kind.value,
            "status": p.status.value,
            "req_ids": list(p.req_ids),
            "line_span": list(p.line_span),
            "sva_text": p.sva_text,
        }))

    for r in bundle.formal_results or []:
        nodes.append((r.result_id, "formal_result", {
            "prop_id": r.prop_id,
            "status": r.status.value,
            "proof_depth": r.proof_depth,
            "runtime_ms": r.runtime_ms,
            "external": r.external,
        }))

    for c in bundle.cex_cases or []:
        nodes.append((c.cex_id, "cex_case", {
            "prop_id": c.prop_id,
            "failure_time": c.failure_time,
            "failure_line": c.failure_line,
            "root_cause": c.root_cause.value if c.root_cause else None,
        }))

    for i, m in enumerate(bundle.coverage_metrics or []):
        nodes.append((coverage_node_id(i), "coverage_metrics", {
            "reachable_pct": m.reachable_pct,
            "vacuity_count": m.vacuity_count,
            "unreachable": len(m.unreachable_statements),
            "partial": m.partial,
        }))
    return nodes


def verification_edges(bundle: T.RunBundle, node_ids: Container[str]) -> list[EdgeItem]:
    """Result-to-CEX containment plus one edge per trace link. A link whose
    endpoints are ill-typed or not among `node_ids` raises ExportError."""
    edges: list[EdgeItem] = []
    # result -> cex containment, needed by downstream invalidation
    results_by_prop: dict[str, list[T.FormalResult]] = {}
    for r in bundle.formal_results or []:
        results_by_prop.setdefault(r.prop_id, []).append(r)
    for c in bundle.cex_cases or []:
        for r in results_by_prop.get(c.prop_id, []):
            if r.status is T.ResultStatus.CEX:
                edges.append((r.result_id, c.cex_id, "has_cex"))

    ix = BundleIndex.from_bundle(bundle)
    for link in bundle.tracelinks or []:
        reason = check_link_endpoints(link, ix)
        if reason is not None or link.src_id not in node_ids or link.dst_id not in node_ids:
            raise ExportError(
                f"dangling or ill-typed link {link.src_id} -{link.link_kind.value}-> "
                f"{link.dst_id}: {reason or 'endpoint not exported'}")
        edges.append((link.src_id, link.dst_id, link.link_kind.value))
    return edges


def graph_items(bundle: T.RunBundle) -> tuple[list[NodeItem], list[EdgeItem]]:
    """The bundle's whole graph: the one definition of its content."""
    nodes, edges = design_items(bundle)
    nodes += verification_nodes(bundle)
    edges += verification_edges(bundle, {n[0] for n in nodes})
    return nodes, edges


def export_graph(bundle: T.RunBundle) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
    """`graph_items` as node and edge rows (header row first), attributes
    as canonical JSON, sorted by (type, id) and (type, src, dst)."""
    run_id = bundle.context.run_id
    nodes, edges = graph_items(bundle)
    node_rows = {(i, t, run_id, canonical_json(a)) for i, t, a in nodes}
    edge_rows = {(s, d, t, run_id, "{}") for s, d, t in edges}
    return ([NODE_HEADER] + sorted(node_rows, key=lambda r: (r[1], r[0])),
            [EDGE_HEADER] + sorted(edge_rows, key=lambda r: (r[2], r[0], r[1])))


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
