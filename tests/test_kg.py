import json
import random

import pytest

from independent_oracles import bfs_ball, evidence_reachable
from verikg.htmlview import render_html
from verikg.kg import (
    ADMITTED_EDGES,
    Edge,
    Graph,
    GraphError,
    RetrievalBounds,
    SignalIndex,
    TaskKind,
    build_graph,
    build_signal_index,
    connected,
    invalidate_downstream,
    neighborhood,
    resolve_signal,
    trace_path,
)


def rows(nodes, edges):
    node_rows = [("id", "type", "run_id", "attributes")]
    node_rows += [(n, t, "r", "{}") for n, t in nodes]
    edge_rows = [("src", "dst", "type", "run_id", "attributes")]
    edge_rows += [(s, d, t, "r", "{}") for s, d, t in edges]
    return node_rows, edge_rows


def chain_graph():
    """CHUNK <- REQ <- PROP <- RES (with the CEX hanging off the result)."""
    return build_graph(*rows(
        [("CHUNK-001", "spec_chunk"), ("REQ-001", "requirement"),
         ("PROP-001", "property"), ("RES-001", "formal_result"),
         ("CEX-001", "cex_case")],
        [("REQ-001", "CHUNK-001", "derives_from"),
         ("PROP-001", "REQ-001", "validates"),
         ("RES-001", "PROP-001", "fails"),
         ("RES-001", "CEX-001", "has_cex")],
    ))


class TestBuildGraph:
    def test_counts(self):
        g = build_graph(*rows([("a", "x"), ("b", "y")], [("a", "b", "t")]))
        assert g.node_count() == 2
        assert g.edge_count() == 1

    def test_duplicate_edge_collapses_with_count(self):
        g = build_graph(*rows([("a", "x"), ("b", "y")],
                              [("a", "b", "t"), ("a", "b", "t")]))
        assert g.edge_count() == 1
        assert g.duplicate_edge_count == 1

    def test_dangling_endpoint_lists_rows(self):
        with pytest.raises(GraphError) as err:
            build_graph(*rows([("a", "x")], [("a", "ghost", "t")]))
        assert "ghost" in str(err.value)

    def test_conflicting_duplicate_node(self):
        node_rows = [("id", "type", "run_id", "attributes"),
                     ("a", "x", "r", "{}"), ("a", "y", "r", "{}")]
        with pytest.raises(GraphError):
            build_graph(node_rows, [])

    def test_duplicate_node_rows(self):
        header = ("id", "type", "run_id", "attributes")
        same = [header, ("a", "x", "r", '{"k":1}'), ("a", "x", "r", '{"k":1}')]
        assert build_graph(same, []).node_count() == 1
        with pytest.raises(GraphError):
            build_graph([header, ("a", "x", "r", '{"k":1}'),
                         ("a", "x", "r", '{"k":2}')], [])

    def test_counts_match_export(self, fifo_model):
        from verikg.ir.export import export_graph
        from test_ir_store import make_bundle

        b = make_bundle(2, 1)
        b.design_model = fifo_model
        nodes, edges = export_graph(b)
        g = build_graph(nodes, edges)
        assert g.node_count() == len(nodes) - 1
        assert g.edge_count() == len(edges) - 1


class TestInPlaceUpdates:
    def test_put_node_replaces_attributes_and_clears_stale(self):
        g = chain_graph()
        invalidate_downstream(g, "PROP-001")
        assert g.nodes["RES-001"].stale
        g.put_node("RES-001", "formal_result", {"status": "proven"})
        node = g.nodes["RES-001"]
        assert (node.type, node.attrs, node.stale) == \
            ("formal_result", {"status": "proven"}, False)
        # the node keeps its edges
        assert sorted(g.neighbors("RES-001")) == \
            [("CEX-001", "has_cex"), ("PROP-001", "fails")]

    def test_drop_node_removes_incident_edges(self):
        g = chain_graph()
        g.put_edge("RES-001", "RES-001", "self")  # a loop is dropped once
        g.drop_node("RES-001")
        assert "RES-001" not in g.nodes
        assert set(g.edges) == {Edge("REQ-001", "CHUNK-001", "derives_from"),
                                Edge("PROP-001", "REQ-001", "validates")}
        assert list(g.neighbors("CEX-001")) == []
        assert list(g.neighbors("PROP-001")) == [("REQ-001", "validates")]
        with pytest.raises(GraphError):
            g.drop_node("RES-001")

    def test_put_edge_dedupes_and_checks_endpoints(self):
        g = Graph()
        g.put_node("a", "x", {})
        g.put_node("b", "y", {})
        assert g.put_edge("a", "b", "t") is True
        assert g.put_edge("a", "b", "t") is False
        assert g.put_edge("b", "a", "t") is True  # another direction
        assert g.put_edge("a", "b", "u") is True  # another type
        assert g.edge_count() == 3
        with pytest.raises(GraphError) as err:
            g.put_edge("a", "ghost", "t")
        assert "ghost" in str(err.value)
        assert g.edge_count() == 3

    def test_drop_edge(self):
        g = chain_graph()
        g.drop_edge("RES-001", "CEX-001", "has_cex")
        assert list(g.neighbors("CEX-001")) == []
        assert g.edge_count() == 3
        with pytest.raises(GraphError):
            g.drop_edge("RES-001", "CEX-001", "has_cex")

    def test_updates_match_a_fresh_build(self):
        """Random puts and drops leave the graph that a build of the
        surviving rows gives."""
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 30))
            for _ in range(40):
                ids = sorted(g.nodes)
                op = rng.randrange(4)
                if op == 0:
                    g.put_node(f"N{rng.randrange(40):03d}", "property", {"k": 1})
                elif op == 1 and ids:
                    g.drop_node(rng.choice(ids))
                elif op == 2 and ids:
                    g.put_edge(rng.choice(ids), rng.choice(ids), "covers")
                elif op == 3 and g.edges:
                    g.drop_edge(*rng.choice(sorted(g.edges)))
            fresh = build_graph(
                [("id", "type", "run_id", "attributes")]
                + [(n.id, n.type, "r", json.dumps(n.attrs)) for n in g.nodes.values()],
                [("src", "dst", "type", "run_id", "attributes")]
                + [(*e, "r", "{}") for e in g.edges])
            assert {n: (v.type, v.attrs) for n, v in g.nodes.items()} == \
                {n: (v.type, v.attrs) for n, v in fresh.nodes.items()}
            assert set(g.edges) == set(fresh.edges)
            for n in g.nodes:
                assert sorted(g.neighbors(n)) == sorted(fresh.neighbors(n))


class TestNeighborhood:
    def test_isolated_anchor(self):
        g = build_graph(*rows([("a", "x")], []))
        ctx = neighborhood(g, "a", TaskKind.GENERATION)
        assert ctx.member_ids() == ["a"]
        assert not ctx.truncated

    def test_generation_excludes_evidence(self):
        g = chain_graph()
        ctx = neighborhood(g, "REQ-001", TaskKind.GENERATION)
        assert set(ctx.member_ids()) == {"REQ-001", "CHUNK-001", "PROP-001"}

    def test_cex_repair_includes_result_and_cex(self):
        g = chain_graph()
        ctx = neighborhood(g, "PROP-001", TaskKind.CEX_REPAIR)
        assert {"RES-001", "CEX-001"} <= set(ctx.member_ids())

    def test_unknown_anchor_and_task(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            neighborhood(g, "nope", TaskKind.GENERATION)
        with pytest.raises(GraphError):
            neighborhood(g, "REQ-001", "generation")

    def test_deterministic_order(self):
        g = chain_graph()
        a = neighborhood(g, "PROP-001", TaskKind.CEX_REPAIR).members
        b = neighborhood(g, "PROP-001", TaskKind.CEX_REPAIR).members
        assert a == b

    def test_cap_is_nearest_first_prefix(self):
        nodes = [("anchor", "requirement")]
        edges = []
        for i in range(30):
            nodes.append((f"P{i:02d}", "property"))
            edges.append((f"P{i:02d}", "anchor", "validates"))
        g = build_graph(*rows(nodes, edges))
        ctx = neighborhood(g, "anchor", TaskKind.GENERATION,
                           RetrievalBounds(radius=2, type_cap=5))
        assert ctx.truncated
        props = [m for m in ctx.member_ids() if m.startswith("P")]
        assert props == [f"P{i:02d}" for i in range(5)]


def random_graph(rng: random.Random, n_nodes: int):
    types = ["spec_chunk", "requirement", "property", "formal_result",
             "cex_case", "coverage_metrics", "rtl_signal", "rtl_module"]
    edge_types = ["derives_from", "validates", "proves", "fails", "covers",
                  "has_signal", "has_statement", "next_chunk", "has_cex"]
    nodes = [(f"N{i:03d}", rng.choice(types)) for i in range(n_nodes)]
    edges = set()
    for _ in range(rng.randint(0, n_nodes * 2)):
        s = rng.randrange(n_nodes)
        d = rng.randrange(n_nodes)
        if s != d:
            edges.add((f"N{s:03d}", f"N{d:03d}", rng.choice(edge_types)))
    return build_graph(*rows(nodes, sorted(edges)))


class TestNeighborhoodSoundness:
    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 60))
            anchor = sorted(g.nodes)[rng.randrange(g.node_count())]
            task = rng.choice(list(TaskKind))
            radius = rng.randint(1, 3)
            admitted = ADMITTED_EDGES[task]

            def nbrs(n):
                return (x for x, _e in g.neighbors(n, admitted))

            oracle = bfs_ball(nbrs, anchor, radius)
            ctx = neighborhood(g, anchor, task,
                               RetrievalBounds(radius=radius, type_cap=10 ** 6))
            assert set(ctx.member_ids()) == set(oracle)


class TestSignals:
    def test_exact_match(self):
        idx = SignalIndex()
        idx.add("top.fifo.wr_en", 1)
        assert resolve_signal(idx, "top.fifo.wr_en") == ["top.fifo.wr_en"]

    def test_suffix_ambiguity_sorted(self):
        idx = SignalIndex()
        idx.add("top.b.wr_en", 1)
        idx.add("top.a.wr_en", 1)
        assert resolve_signal(idx, "wr_en") == ["top.a.wr_en", "top.b.wr_en"]

    def test_no_match(self):
        idx = SignalIndex()
        idx.add("top.a.wr_en", 1)
        assert resolve_signal(idx, "ready") == []

    def test_index_from_graph(self):
        g = build_graph(*rows([("fifo", "rtl_module"),
                               ("fifo.count", "rtl_signal")],
                              [("fifo", "fifo.count", "has_signal")]))
        g.nodes["fifo.count"].attrs["width"] = 2
        idx = build_signal_index(g)
        assert idx.path_widths == {"fifo.count": 2}
        assert resolve_signal(idx, "count") == ["fifo.count"]


class TestInvalidation:
    def test_property_with_no_results(self):
        g = build_graph(*rows([("PROP-001", "property")], []))
        assert invalidate_downstream(g, "PROP-001") == set()

    def test_failing_result_and_cex(self):
        g = chain_graph()
        out = invalidate_downstream(g, "PROP-001")
        assert out == {"RES-001", "CEX-001"}
        assert g.nodes["RES-001"].stale and g.nodes["CEX-001"].stale
        assert not g.nodes["REQ-001"].stale

    def test_shared_coverage_sibling_untouched(self):
        g = build_graph(*rows(
            [("P1", "property"), ("P2", "property"), ("COV-001", "coverage_metrics"),
             ("R2", "formal_result")],
            [("P1", "COV-001", "covers"), ("P2", "COV-001", "covers"),
             ("R2", "P2", "proves")],
        ))
        out = invalidate_downstream(g, "P1")
        assert out == {"COV-001"}
        assert not g.nodes["R2"].stale

    def test_non_property_anchor_rejected(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            invalidate_downstream(g, "REQ-001")

    def test_matches_reachability_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(3, 60))
            props = [n for n, node in g.nodes.items() if node.type == "property"]
            if not props:
                continue
            anchor = rng.choice(sorted(props))
            expected = evidence_reachable(g, anchor)
            assert invalidate_downstream(g, anchor) == expected


class TestConnected:
    def test_component(self):
        g = build_graph(*rows([("a", "x"), ("b", "y"), ("c", "z")],
                              [("b", "a", "t")]))
        assert connected(g, "a") == {"a", "b"}
        assert connected(g, "c") == {"c"}
        with pytest.raises(GraphError):
            connected(g, "ghost")

    def test_matches_trace_path_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 40))
            src = sorted(g.nodes)[rng.randrange(g.node_count())]
            assert connected(g, src) == {
                n for n in g.nodes if trace_path(g, src, n) is not None}


class TestTracePath:
    def test_self_path(self):
        g = chain_graph()
        assert trace_path(g, "REQ-001", "REQ-001") == ["REQ-001"]

    def test_chain_four_nodes(self):
        g = chain_graph()
        path = trace_path(g, "RES-001", "CHUNK-001")
        assert path == ["RES-001", "PROP-001", "REQ-001", "CHUNK-001"]

    def test_disconnected(self):
        g = build_graph(*rows([("a", "x"), ("b", "y")], []))
        assert trace_path(g, "a", "b") is None

    def test_lexicographic_tie_break(self):
        g = build_graph(*rows(
            [("s", "x"), ("m1", "x"), ("m2", "x"), ("t", "x")],
            [("s", "m2", "t"), ("s", "m1", "t"),
             ("m1", "t", "t"), ("m2", "t", "t")],
        ))
        assert trace_path(g, "s", "t") == ["s", "m1", "t"]


def test_html_view_self_contained():
    g = chain_graph()
    invalidate_downstream(g, "PROP-001")
    html = render_html(g, title="t")
    assert html.startswith("<!DOCTYPE html>")
    assert "http-equiv" not in html and "https://" not in html
    assert "CHUNK-001" in html and "has_cex" in html
    assert render_html(g, title="t") == html  # deterministic
