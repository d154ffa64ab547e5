"""Graph content and its row export: one node per IR entity / RTL object,
one edge per trace link plus structural containment.

`graph_items` is the one derivation of what the graph holds, as items
taken straight from the bundle's records. The pipeline's `sync_graph`
makes the whole live graph equal to it, `export_graph` turns it into
sorted, byte-deterministic rows with JSON attributes for `save_run`, and
the validator reads the same node types (`graph_nodes`). Every trace link
is checked against the node types of the items it joins
(`check_link_endpoints`)."""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping

from verikg.codec import canonical_json
from verikg.ir import types as T
from verikg.rtl.ast import DesignModel
from verikg.rtl.elaborate import ElabError, instances
from verikg.rtl.parser import ParseError, range_width

NODE_HEADER = ("id", "type", "run_id", "attributes")
EDGE_HEADER = ("src", "dst", "type", "run_id", "attributes")


class ExportError(Exception):
    pass


def _walk_signals(dm: DesignModel):
    """Yield (module_name, hierarchical_signal_path, width, kind), each
    width under its instance's parameter values.

    Paths are rooted at the top module's name when a top is set; otherwise
    each module is listed under its own name. A hierarchy that does not
    elaborate lists the instances reached before the walk stopped.
    """
    roots = [dm.top] if dm.top and dm.module(dm.top) is not None else [m.name for m in dm.modules]
    for root in roots:
        try:
            for prefix, m, env, _inst in instances(dm, root):
                for s in m.signals:
                    yield m.name, f"{prefix}.{s.name}", range_width(s, env), s.kind
        except (ElabError, ParseError):
            continue


# Graph content as items: a node is (id, type, attributes), an edge is
# (src, dst, type). Attribute values are fresh objects, never the records'
# own lists, so a graph built from them is a snapshot of the bundle.
NodeItem = tuple[str, str, dict]
EdgeItem = tuple[str, str, str]

# Link kind -> (source node type, destination node types).
_LINK_ENDPOINTS = {
    T.LinkKind.DERIVES_FROM: ("requirement", ("spec_chunk",)),
    T.LinkKind.VALIDATES: ("property", ("requirement",)),
    T.LinkKind.PROVES: ("formal_result", ("property",)),
    T.LinkKind.FAILS: ("formal_result", ("property",)),
    T.LinkKind.COVERS: ("property", ("coverage_metrics", "rtl_statement")),
}


def coverage_node_id(index: int) -> str:
    """Positional graph id for a CoverageMetrics record (they carry none)."""
    return T.make_id("COV", index + 1)


def check_link_endpoints(link: T.TraceLink, kind_of: Mapping[str, str]) -> str | None:
    """None when both endpoints are graph nodes of the types the link kind
    joins, else a reason; `kind_of` maps node id to node type."""
    want_src, want_dst = _LINK_ENDPOINTS[link.link_kind]
    src_kind = kind_of.get(link.src_id)
    dst_kind = kind_of.get(link.dst_id)
    if src_kind is None:
        return f"src {link.src_id!r} does not resolve"
    if dst_kind is None:
        return f"dst {link.dst_id!r} does not resolve"
    if src_kind != want_src:
        return (f"endpoint kind mismatch: src of {link.link_kind.value} must be "
                f"{want_src}, got {src_kind}")
    if dst_kind not in want_dst:
        return (f"endpoint kind mismatch: dst of {link.link_kind.value} must be "
                f"{' or '.join(want_dst)}, got {dst_kind}")
    return None


def graph_nodes(bundle: T.RunBundle) -> list[NodeItem]:
    """Every node, in graph order: spec chunks in reading order,
    requirements, the RTL modules, signals and statements, then properties,
    formal results, CEX cases and coverage records."""
    nodes: list[NodeItem] = []
    for c in bundle.spec_chunks or []:
        nodes.append((c.chunk_id, "spec_chunk", {
            "heading_path": list(c.heading_path),
            "order_index": c.order_index,
            "semantic_tags": list(c.semantic_tags),
            "text": c.text,
        }))

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
        for s in dm.statements:
            nodes.append((s.id, "rtl_statement", {
                "module": s.module,
                "line": s.line,
                "kind": s.kind,
                "detail": s.detail,
            }))

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


# The containment edge from a signal's or statement's module to it.
_CONTAINED_BY_MODULE = {"rtl_signal": "has_signal", "rtl_statement": "has_statement"}


def graph_items(bundle: T.RunBundle) -> tuple[list[NodeItem], list[EdgeItem]]:
    """The bundle's whole graph: the one definition of its content.

    Edges come in this order: spec chunks in reading order, module
    containment, result-to-CEX containment, then one edge per trace link.
    Each link is checked once, against the types of the nodes built here; an
    ill-typed or dangling link raises ExportError."""
    nodes = graph_nodes(bundle)
    ordered_chunks = sorted(bundle.spec_chunks or [], key=lambda c: c.order_index)
    edges: list[EdgeItem] = [(a.chunk_id, b.chunk_id, "next_chunk")
                             for a, b in zip(ordered_chunks, ordered_chunks[1:])]
    edges += [(attrs["module"], node_id, _CONTAINED_BY_MODULE[node_type])
              for node_id, node_type, attrs in nodes
              if node_type in _CONTAINED_BY_MODULE]

    # result -> cex containment, needed by downstream invalidation
    results_by_prop: dict[str, list[T.FormalResult]] = {}
    for r in bundle.formal_results or []:
        results_by_prop.setdefault(r.prop_id, []).append(r)
    for c in bundle.cex_cases or []:
        for r in results_by_prop.get(c.prop_id, []):
            if r.status is T.ResultStatus.CEX:
                edges.append((r.result_id, c.cex_id, "has_cex"))

    kind_of = {node_id: node_type for node_id, node_type, _ in nodes}
    for link in bundle.tracelinks or []:
        reason = check_link_endpoints(link, kind_of)
        if reason is not None:
            raise ExportError(
                f"dangling or ill-typed link {link.src_id} -{link.link_kind.value}-> "
                f"{link.dst_id}: {reason}")
        edges.append((link.src_id, link.dst_id, link.link_kind.value))
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
    """Comma-separated with doubled-quote escaping, LF line endings; a
    None field is written empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL,
               doublequote=True).writerows(rows)
    return buf.getvalue()


def parse_csv(text: str) -> list[tuple[str, ...]]:
    reader = csv.reader(io.StringIO(text))
    return [tuple(row) for row in reader if row]
