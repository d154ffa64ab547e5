"""Knowledge-graph runtime: typed graph store, task-bounded context
retrieval, signal resolution, downstream invalidation, connected
components and trace paths.

A run keeps one `Graph` from the front end to the end: at each stage
boundary the pipeline's `sync_graph` makes it equal to the one graph
derivation (`ir.export.graph_items`) in place, with `put_node`/`drop_node`/
`put_edge`/`drop_edge`. `build_graph` loads the rows a saved run wrote; it
is not used during a run. Both hold one rule for node ids, `unique_nodes`:
an id names one node."""

from __future__ import annotations

import heapq
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

TRACE_EDGES = frozenset({"derives_from", "validates"})
CONTAINMENT_EDGES = frozenset({"has_signal", "has_statement", "next_chunk"})
EVIDENCE_EDGES = frozenset({"proves", "fails", "covers", "has_cex"})
EVIDENCE_NODE_TYPES = frozenset({"formal_result", "cex_case", "coverage_metrics"})


class TaskKind(Enum):
    GENERATION = "generation"
    SYNTAX_REPAIR = "syntax_repair"
    CEX_REPAIR = "cex_repair"
    COVERAGE = "coverage"


# Generation sees intent and structure; repair tasks additionally see
# verification evidence (tool outputs).
ADMITTED_EDGES = {
    TaskKind.GENERATION: TRACE_EDGES | CONTAINMENT_EDGES,
    TaskKind.SYNTAX_REPAIR: TRACE_EDGES | CONTAINMENT_EDGES | EVIDENCE_EDGES,
    TaskKind.CEX_REPAIR: TRACE_EDGES | CONTAINMENT_EDGES | EVIDENCE_EDGES,
    TaskKind.COVERAGE: TRACE_EDGES | CONTAINMENT_EDGES | EVIDENCE_EDGES,
}


class InclusionReason(Enum):
    ANCHOR = "anchor"
    TRACE = "trace"
    STRUCTURE = "structure"
    EVIDENCE = "evidence"


def _reason_for(edge_type: str) -> InclusionReason:
    if edge_type in TRACE_EDGES:
        return InclusionReason.TRACE
    if edge_type in EVIDENCE_EDGES:
        return InclusionReason.EVIDENCE
    return InclusionReason.STRUCTURE


class GraphError(Exception):
    pass


@dataclass
class Node:
    id: str
    type: str
    attrs: dict
    stale: bool = False


class Edge(NamedTuple):
    src: str
    dst: str
    type: str


@dataclass
class Graph:
    """A run's knowledge graph, queried and updated in place.

    Edges are keyed by their (src, dst, type) triple, so putting one twice
    keeps one and dropping one is O(1). `out_adj` and `in_adj` hold each
    node's outgoing and incoming edges as insertion-ordered key sets.
    """
    nodes: dict[str, Node] = field(default_factory=dict)
    edges: dict[Edge, None] = field(default_factory=dict)
    out_adj: dict[str, dict[Edge, None]] = field(default_factory=dict)
    in_adj: dict[str, dict[Edge, None]] = field(default_factory=dict)
    duplicate_edge_count: int = 0

    def put_node(self, node_id: str, node_type: str, attrs: dict) -> None:
        """Add the node, or give it a new type and attributes while keeping
        its edges. Either way it is not stale."""
        node = self.nodes.get(node_id)
        if node is None:
            self.nodes[node_id] = Node(node_id, node_type, attrs)
            self.out_adj[node_id] = {}
            self.in_adj[node_id] = {}
        else:
            node.type, node.attrs, node.stale = node_type, attrs, False

    def drop_node(self, node_id: str) -> None:
        """Remove the node and every edge incident to it."""
        if node_id not in self.nodes:
            raise GraphError(f"unknown node {node_id!r}")
        for e in {**self.out_adj[node_id], **self.in_adj[node_id]}:
            self.drop_edge(*e)
        del self.nodes[node_id], self.out_adj[node_id], self.in_adj[node_id]

    def put_edge(self, src: str, dst: str, edge_type: str) -> bool:
        """Add the edge; False when it is already there."""
        e = Edge(src, dst, edge_type)
        if e in self.edges:
            return False
        for end in (src, dst):
            if end not in self.nodes:
                raise GraphError(f"edge {src!r} -{edge_type}-> {dst!r}: "
                                 f"unknown node {end!r}")
        self.edges[e] = None
        self.out_adj[src][e] = None
        self.in_adj[dst][e] = None
        return True

    def drop_edge(self, src: str, dst: str, edge_type: str) -> None:
        e = Edge(src, dst, edge_type)
        if e not in self.edges:
            raise GraphError(f"unknown edge {src!r} -{edge_type}-> {dst!r}")
        del self.edges[e], self.out_adj[src][e], self.in_adj[dst][e]

    def neighbors(self, node_id: str, admitted: frozenset[str] | None = None):
        """(neighbor id, edge type) pairs over both directions."""
        for e in self.out_adj.get(node_id, ()):
            if admitted is None or e.type in admitted:
                yield e.dst, e.type
        for e in self.in_adj.get(node_id, ()):
            if admitted is None or e.type in admitted:
                yield e.src, e.type

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)


@dataclass
class RetrievalBounds:
    radius: int = 2
    type_cap: int = 20


@dataclass
class ContextBundle:
    members: list[tuple[str, InclusionReason]]
    truncated: bool

    def member_ids(self) -> list[str]:
        return [m for m, _ in self.members]


@dataclass
class SignalIndex:
    # suffix token sequence -> full hierarchical paths carrying that suffix
    entries: dict[tuple[str, ...], set[str]] = field(default_factory=dict)
    path_widths: dict[str, int] = field(default_factory=dict)
    # the paths that have a value every cycle (`NetModel.readable`); None
    # when the index was built without a net model
    readable: frozenset[str] | None = None

    def add(self, path: str, width: int = 1) -> None:
        tokens = tuple(path.split("."))
        for i in range(len(tokens)):
            self.entries.setdefault(tokens[i:], set()).add(path)
        self.path_widths[path] = width


def unique_nodes(nodes: Iterable[tuple[str, str, dict]]) -> dict[str, tuple[str, dict]]:
    """(id, type, attributes) items as id -> (type, attributes), in first
    appearance order. A repeated id must repeat both, else GraphError."""
    out: dict[str, tuple[str, dict]] = {}
    for node_id, node_type, attrs in nodes:
        prior = out.setdefault(node_id, (node_type, attrs))
        if prior != (node_type, attrs):
            raise GraphError(
                f"duplicate node id {node_id!r} with conflicting attributes")
    return out


def build_graph(node_rows: list[tuple[str, ...]],
                edge_rows: list[tuple[str, ...]]) -> Graph:
    """Load a Graph from exported rows (header rows are skipped), as saved
    in a run directory's nodes.csv and edges.csv.

    Duplicate edges collapse to one with the duplicate count reported on the
    graph; a node id repeated with other attributes (`unique_nodes`) or a
    dangling edge endpoint raises GraphError.
    """
    def node_items():
        for row in node_rows:
            if row and row[0] == "id":
                continue
            if len(row) != 4:
                raise GraphError(f"node row needs 4 columns: {row!r}")
            node_id, node_type, _run_id, attrs_raw = row
            yield node_id, node_type, json.loads(attrs_raw) if attrs_raw else {}

    g = Graph()
    for node_id, (node_type, attrs) in unique_nodes(node_items()).items():
        g.put_node(node_id, node_type, attrs)

    edges = []
    for row in edge_rows:
        if row and row[0] == "src":
            continue
        if len(row) != 5:
            raise GraphError(f"edge row needs 5 columns: {row!r}")
        edges.append(row)
    dangling = [r for r in edges if r[0] not in g.nodes or r[1] not in g.nodes]
    if dangling:
        raise GraphError("dangling edge endpoints: "
                         + "; ".join(repr(r[:3]) for r in dangling))
    for src, dst, edge_type, _run_id, _attrs in edges:
        if not g.put_edge(src, dst, edge_type):
            g.duplicate_edge_count += 1
    return g


def bounded_ball(g: Graph, anchor: str, admitted: frozenset[str],
                 radius: int) -> dict[str, tuple[int, str | None]]:
    """Hop distance and first-discovery edge type for every node within
    `radius` hops of anchor over admitted edge types (both directions)."""
    dist: dict[str, tuple[int, str | None]] = {anchor: (0, None)}
    frontier = [anchor]
    hop = 0
    while frontier and hop < radius:
        hop += 1
        next_frontier: list[str] = []
        for node_id in frontier:
            for nbr, etype in sorted(g.neighbors(node_id, admitted)):
                if nbr not in dist:
                    dist[nbr] = (hop, etype)
                    next_frontier.append(nbr)
        frontier = next_frontier
    return dist


def neighborhood(g: Graph, anchor: str, task: TaskKind,
                 bounds: RetrievalBounds | None = None) -> ContextBundle:
    """Task-bounded context: the radius-bounded ball over the task's
    admitted edge types, capped per node type nearest-first with id-ascending
    tie-break. Capping filters membership; it never blocks traversal."""
    bounds = bounds or RetrievalBounds()
    if anchor not in g.nodes:
        raise GraphError(f"unknown anchor node {anchor!r}")
    if not isinstance(task, TaskKind):
        raise GraphError(f"unknown task kind {task!r}")
    admitted = ADMITTED_EDGES[task]
    dist = bounded_ball(g, anchor, admitted, bounds.radius)

    by_type: dict[str, list[str]] = {}
    for node_id in dist:
        by_type.setdefault(g.nodes[node_id].type, []).append(node_id)
    selected: set[str] = set()
    truncated = False
    for node_type, ids in by_type.items():
        ids.sort(key=lambda n: (dist[n][0], n))
        if len(ids) > bounds.type_cap:
            truncated = True
        selected.update(ids[:bounds.type_cap])

    ordered = sorted(selected, key=lambda n: (dist[n][0], n))
    members: list[tuple[str, InclusionReason]] = []
    for node_id in ordered:
        hop, etype = dist[node_id]
        if node_id == anchor:
            members.append((node_id, InclusionReason.ANCHOR))
        else:
            members.append((node_id, _reason_for(etype or "")))
    return ContextBundle(members, truncated)


def build_signal_index(g: Graph, readable: frozenset[str] | None = None
                       ) -> SignalIndex:
    idx = SignalIndex(readable=readable)
    for node in g.nodes.values():
        if node.type == "rtl_signal":
            idx.add(node.id, int(node.attrs.get("width", 1)))
    return idx


def resolve_signal(idx: SignalIndex, mention: str) -> list[str]:
    """All indexed hierarchical paths whose suffix token sequence equals the
    mention's tokens, sorted. Ambiguity is a list longer than one."""
    tokens = tuple(t for t in mention.strip().split(".") if t)
    if not tokens:
        return []
    return sorted(idx.entries.get(tokens, ()))


def invalidate_downstream(g: Graph, prop_id: str) -> set[str]:
    """Evidence nodes (formal results, CEX cases, coverage records) reachable
    from the property via evidence edges, traversing only evidence-typed
    nodes. The nodes are marked stale in place; sibling properties and their
    evidence are never touched."""
    node = g.nodes.get(prop_id)
    if node is None:
        raise GraphError(f"unknown node {prop_id!r}")
    if node.type != "property":
        raise GraphError(f"invalidate_downstream anchor must be a property, "
                         f"got {node.type!r}")
    out: set[str] = set()
    frontier = [prop_id]
    while frontier:
        current = frontier.pop()
        for nbr, _etype in g.neighbors(current, EVIDENCE_EDGES):
            if nbr in out:
                continue
            if g.nodes[nbr].type in EVIDENCE_NODE_TYPES:
                out.add(nbr)
                frontier.append(nbr)
    for node_id in out:
        g.nodes[node_id].stale = True
    return out


def connected(g: Graph, node_id: str) -> set[str]:
    """Every node joined to node_id by an undirected path over edges of
    any type, node_id included: the nodes trace_path can reach from it."""
    if node_id not in g.nodes:
        raise GraphError(f"unknown node {node_id!r}")
    seen = {node_id}
    frontier = [node_id]
    while frontier:
        for nbr, _etype in g.neighbors(frontier.pop()):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return seen


def trace_path(g: Graph, src: str, dst: str) -> list[str] | None:
    """Shortest undirected path; among equals, the lexicographically least
    node-id sequence. None when src and dst are disconnected."""
    if src not in g.nodes:
        raise GraphError(f"unknown node {src!r}")
    if dst not in g.nodes:
        raise GraphError(f"unknown node {dst!r}")
    if src == dst:
        return [src]
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (src,))]
    settled: set[str] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        tail = path[-1]
        if tail == dst:
            return list(path)
        if tail in settled:
            continue
        settled.add(tail)
        for nbr, _etype in sorted(g.neighbors(tail)):
            if nbr not in settled:
                heapq.heappush(heap, (dist + 1, path + (nbr,)))
    return None
