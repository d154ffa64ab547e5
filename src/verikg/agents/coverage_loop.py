"""Coverage-directed augmentation: gap prioritization, enabling-condition
analysis with blocking-assumption lookup in the graph, requirement linking
by graph connectivity, and targeted cover/assert emission, all on the
run's workspace."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from verikg.agents.common import Workspace, parse_property_block, send_step
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.ir import types as T
from verikg.kg import Graph, RetrievalBounds, TaskKind, connected, neighborhood
from verikg.rtl import ast as rtl
from verikg.rtl.analyze import statement_key
from verikg.rtl.ast import DesignModel
from verikg.sva import ast as S

_CLASS_RE = re.compile(r"classification:\s*(defensive|gap)")
_BLOCKED_RE = re.compile(r"blocked_by:\s*(\S+)")

# Arms that exist to catch the unspecified cases come after functional paths.
_DEFAULT_ARM_DETAILS = {"if_else", "case_default"}


@dataclass
class CoverageLoopResult:
    new_decls: list[S.PropertyDecl] = field(default_factory=list)
    new_records: list[T.PropertyRecord] = field(default_factory=list)
    new_links: list[T.TraceLink] = field(default_factory=list)
    dead_code: list[tuple[str, T.DeadCodeClass]] = field(default_factory=list)
    blockers: dict[str, str] = field(default_factory=dict)


def order_gaps(dm: DesignModel, gap_ids: list[str]) -> list[str]:
    """cov_lead_agent policy: functional-path statements first, then
    default/else arms; ids ascending within each group."""
    defaults = {s.id for s in dm.statements if s.detail in _DEFAULT_ARM_DETAILS}
    return sorted(gap_ids, key=lambda sid: (sid in defaults, *statement_key(sid)))


def enabling_conditions(dm: DesignModel) -> dict[str, tuple[rtl.Expr, ...]]:
    """Each statement's enabling condition in module-local source terms: the
    conditions under which its enclosing arms run, outermost first (none for
    a continuous assign), from one walk over every always block."""
    out: dict[str, tuple[rtl.Expr, ...]] = {}
    for m in dm.modules:
        for a in m.assigns:
            out.setdefault(a.stmt_id, ())
        stack = [(b.body, ()) for b in m.always_blocks]
        while stack:
            body, conds = stack.pop()
            for stmt in body:
                if isinstance(stmt, rtl.SeqAssign):
                    out.setdefault(stmt.stmt_id, conds)
                    continue
                for arm_id, _match, taken, arm_body in rtl.branches(stmt):
                    inner = conds + (taken,)
                    out.setdefault(arm_id, inner)
                    stack.append((arm_body, inner))
    return out


def guard_text(conds: tuple[rtl.Expr, ...]) -> str:
    """The conjunction of `conds` as source text, `1'd1` for none."""
    return " && ".join(f"({rtl.render_expr(c)})" for c in conds) or "1'd1"


def blocking_assumption_candidates(kg: Graph, stmt_id: str,
                                   bounds: RetrievalBounds | None = None) -> list[str]:
    """Assumption-kind property nodes inside the gap's neighborhood."""
    if stmt_id not in kg.nodes:
        return []
    ctx = neighborhood(kg, stmt_id, TaskKind.COVERAGE, bounds)
    out = []
    for node_id, _reason in ctx.members:
        node = kg.nodes[node_id]
        if node.type == "property" and node.attrs.get("kind") == "assumption":
            out.append(node_id)
    return sorted(out)


def already_targeted(kg: Graph, stmt_id: str) -> bool:
    """True when a non-assumption property already covers the statement;
    repeat loop iterations must not stack duplicate covers on one gap."""
    if stmt_id not in kg.nodes:
        return False
    for nbr, etype in kg.neighbors(stmt_id):
        if etype != "covers":
            continue
        node = kg.nodes[nbr]
        if node.type == "property" and node.attrs.get("kind") != "assumption":
            return True
    return False


def run_coverage_loop(ws: Workspace, cov: T.CoverageMetrics,
                      id_start: int = 1) -> CoverageLoopResult:
    """Walk the prioritized gaps; defensive verdicts reclassify dead code
    and emit nothing, gap verdicts get targeted cover directives (and any
    assertions the improver adds), numbered from PROP-`id_start`. New
    properties still flow through the syntax loop and engine downstream."""
    kg, dm = ws.kg, ws.dm
    result = CoverageLoopResult()
    classifications = dict(cov.dead_code)
    next_id = id_start

    requirements = sorted(n.id for n in kg.nodes.values() if n.type == "requirement")

    stmts_by_id = {s.id: s for s in dm.statements}
    conditions = enabling_conditions(dm)
    # the graph does not change inside the loop: each component is searched once
    components: dict[str, set[str]] = {}
    for sid in order_gaps(dm, list(cov.unreachable_statements)):
        if already_targeted(kg, sid):
            continue
        condition = guard_text(conditions.get(sid, ()))
        candidates = blocking_assumption_candidates(kg, sid, ws.bounds)
        stmt = stmts_by_id.get(sid)
        detail = stmt.detail if stmt and stmt.detail else stmt.kind if stmt else "unknown"

        analysis = send_step(ws.backend, PromptEnvelope.build(
            "cov_analyzer", f"cov/{sid}/analyze", ResponseShape.ANALYSIS,
            requirement="",
            spec_fragment="",
            signal_table=ws.signal_table,
            prior_code=f"statement {sid} kind: {detail}\n"
                       f"enabling condition: {condition}",
            diagnostics="candidate blocking assumptions: "
                        + (", ".join(candidates) if candidates else "(none)")))
        text = str(analysis.payload)
        cls_match = _CLASS_RE.search(text)
        blocked = _BLOCKED_RE.search(text)
        if blocked:
            result.blockers[sid] = blocked.group(1)
        if cls_match and cls_match.group(1) == "defensive":
            classifications[sid] = T.DeadCodeClass.DEFENSIVE
            continue
        classifications[sid] = T.DeadCodeClass.GAP

        # cov_processor role: link the gap to the requirements it has a
        # trace path to, that is, those in its connected component
        reachable = components.get(sid)
        if reachable is None:
            reachable = connected(kg, sid) if sid in kg.nodes else set()
            components.update(dict.fromkeys(reachable, reachable))
        linked = [rid for rid in requirements if rid in reachable]

        block_resp = send_step(ws.backend, PromptEnvelope.build(
            "cov_improver", f"cov/{sid}/improve", ResponseShape.PROPERTY_BLOCK,
            signal_table=ws.signal_table, rulebook=ws.rulebook,
            prior_code=f"// unreachable statement {sid}\n"
                       f"// enabling condition: {condition}"))
        for decl in parse_property_block(str(block_resp.payload), ws.memo):
            prop_id = T.make_id("PROP", next_id)
            next_id += 1
            result.new_decls.append(S.PropertyDecl(
                prop_id, decl.kind, decl.body, decl.line, decl.raw_source))
            record = T.PropertyRecord(
                prop_id=prop_id,
                req_ids=linked,
                kind=T.PropKind(decl.kind),
                sva_text=decl.raw_source,
                line_span=(1, 1),
            )
            result.new_records.append(record)
            result.new_links.append(T.TraceLink(prop_id, sid, T.LinkKind.COVERS))
            for rid in linked:
                result.new_links.append(
                    T.TraceLink(prop_id, rid, T.LinkKind.VALIDATES))

    result.dead_code = sorted(classifications.items())
    return result
