"""The run's one live knowledge graph against a fresh build.

`run_all` builds its graph once and syncs it at every stage boundary. After
each build and each sync, the live graph must equal the graph loaded from
the bundle's exported rows (`build_graph(*export_graph(bundle))`): the same
node ids, types and attributes and the same edge triples, with no stale
node. Between syncs only the nodes the CEX stage invalidated may be stale.
The coverage loop's connected-component requirement linking must agree
with the `trace_path` definition on the same graphs.
"""

import random
import re

import pytest

import verikg.pipeline as pipeline
from oracles import gen_design_source, gen_property_source
from verikg.ir import types as T
from verikg.ir.export import export_graph
from verikg.ir.store import load_run
from verikg.kg import build_graph, connected, trace_path
from verikg.pipeline import RunConfig, run_all
from verikg.rtl.parser import parse_rtl


def _view(g):
    return ({n.id: (n.type, n.attrs) for n in g.nodes.values()}, set(g.edges))


@pytest.fixture
def checked_graph(monkeypatch):
    """Wrap the pipeline's build, sync and invalidation with the checks;
    returns counts of what was checked."""
    log = {"checks": 0, "invalidated": 0, "pending": set()}
    real_sync = pipeline.sync_graph
    real_rebuild = pipeline.rebuild_graph
    real_invalidate = pipeline.invalidate_downstream

    def check(kg, bundle):
        assert _view(kg) == _view(build_graph(*export_graph(bundle)))
        assert not [n.id for n in kg.nodes.values() if n.stale]
        reqs = sorted(n.id for n in kg.nodes.values() if n.type == "requirement")
        for sid in sorted(n.id for n in kg.nodes.values() if n.type == "rtl_statement"):
            component = connected(kg, sid)
            assert [r for r in reqs if r in component] == \
                [r for r in reqs if trace_path(kg, sid, r) is not None]
        log["checks"] += 1

    def sync(kg, bundle):
        stale = {n.id for n in kg.nodes.values() if n.stale}
        assert stale <= log["pending"]
        log["pending"] = set()
        real_sync(kg, bundle)
        check(kg, bundle)

    def rebuild(bundle):
        kg = real_rebuild(bundle)
        check(kg, bundle)
        return kg

    def invalidate(kg, prop_id):
        out = real_invalidate(kg, prop_id)
        log["pending"] |= out
        log["invalidated"] += len(out)
        return out

    monkeypatch.setattr(pipeline, "sync_graph", sync)
    monkeypatch.setattr(pipeline, "rebuild_graph", rebuild)
    monkeypatch.setattr(pipeline, "invalidate_downstream", invalidate)
    return log


@pytest.mark.parametrize("spec, rtl, rulebook, invalidates", [
    ("fifo_spec.md", "fifo.v", "rulebook.txt", False),
    ("fifo_overconstrained_spec.md", "fifo.v", "rulebook.txt", True),
    ("gappy_spec.md", "gappy.v", None, False),
])
def test_fixture_runs(fixtures_dir, tmp_path, checked_graph, spec, rtl, rulebook,
                      invalidates):
    run_all(RunConfig(
        spec_path=str(fixtures_dir / spec), rtl_paths=[str(fixtures_dir / rtl)],
        out_root=str(tmp_path), backend="scripted",
        rulebook_path=str(fixtures_dir / rulebook) if rulebook else None))
    assert checked_graph["checks"] >= 3
    assert (checked_graph["invalidated"] > 0) == invalidates


def _generated_job(rng: random.Random, where) -> tuple[str, str]:
    """A generator design and a spec of requirements over its signals."""
    source = gen_design_source(rng)
    [module] = parse_rtl(source).modules
    one_bit = sorted(s.name for s in module.signals if s.width == 1 and s.name != "clk")
    two_bit = sorted(s.name for s in module.signals if s.width == 2)
    reqs = []
    for n in range(1, 7):
        body = re.match(r"assert property \((.*)\);",
                        gen_property_source(rng, one_bit, two_bit), re.S).group(1)
        kind = "COVER" if n % 3 == 0 else "ASSERT"
        reqs.append(f"REQ: Requirement {n} holds. {kind}: {body}")
    rtl = where / "d.v"
    rtl.write_text(source)
    spec = where / "d.md"
    spec.write_text("# Design\n\n## Behavior\n\n" + "\n".join(reqs) + "\n")
    return str(spec), str(rtl)


@pytest.mark.parametrize("seed", range(6))
def test_generated_designs(tmp_path, checked_graph, seed):
    spec, rtl = _generated_job(random.Random(seed), tmp_path)
    run_all(RunConfig(spec_path=spec, rtl_paths=[rtl],
                      out_root=str(tmp_path / "runs"), backend="scripted"))
    assert checked_graph["checks"] >= 3


def test_sync_follows_removed_and_changed_records(fixtures_dir, tmp_path):
    """Records that go away take their nodes and edges with them; changed
    records change their nodes' attributes."""
    report = run_all(RunConfig(
        spec_path=str(fixtures_dir / "fifo_spec.md"),
        rtl_paths=[str(fixtures_dir / "fifo_bug.v")],
        out_root=str(tmp_path), backend="scripted",
        rulebook_path=str(fixtures_dir / "rulebook.txt")))
    bundle = load_run(tmp_path, report.run_id)
    assert bundle.cex_cases
    kg = pipeline.rebuild_graph(bundle)

    failing = bundle.cex_cases[0].prop_id
    gone = {failing} | {r.result_id for r in bundle.formal_results
                        if r.prop_id == failing} \
        | {c.cex_id for c in bundle.cex_cases if c.prop_id == failing}
    bundle.properties = [p for p in bundle.properties if p.prop_id not in gone]
    bundle.formal_results = [r for r in bundle.formal_results
                             if r.result_id not in gone]
    bundle.cex_cases = [c for c in bundle.cex_cases if c.cex_id not in gone]
    bundle.tracelinks = [l for l in bundle.tracelinks
                         if l.src_id not in gone and l.dst_id not in gone]
    bundle.properties[0].status = T.PropStatus.DISABLED
    bundle.coverage_metrics = []

    pipeline.sync_graph(kg, bundle)
    assert not gone & set(kg.nodes)
    assert _view(kg) == _view(build_graph(*export_graph(bundle)))
