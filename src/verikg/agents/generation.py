"""Property generation: lead strategy, requirement decomposition, authoring,
review rounds with a patch cycle, then deterministic file assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.agents.common import (
    Workspace,
    parse_property_block,
    requirement_text,
    send_step,
    sibling_property_text,
    spec_fragment_text,
    sync_records,
)
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.ir import types as T
from verikg.kg import TaskKind, neighborhood
from verikg.rtl.ast import Id
from verikg.sva import ast as S
from verikg.sva.emit import emit_properties

MAX_REVIEW_ROUNDS = 3


@dataclass
class GenerationResult:
    property_file: S.PropertyFile
    records: list[T.PropertyRecord] = field(default_factory=list)
    links: list[T.TraceLink] = field(default_factory=list)
    emitted_text: str = ""


def run_generation(ws: Workspace, reqs: list[T.Requirement],
                   clock_name: str) -> GenerationResult:
    """Generate properties for every requirement (req_id order), numbered
    from PROP-001.

    Review rejections cycle through sva_patcher up to three rounds; a
    deadlock emits the last block with status=disabled and an attempt note.
    """
    kg, backend, rulebook = ws.kg, ws.backend, ws.rulebook
    pf = S.PropertyFile(default_clock=S.ClockSpec("posedge", Id(clock_name)))
    out = GenerationResult(pf)
    next_id = 1

    for req in sorted(reqs, key=lambda r: r.req_id):
        ctx = neighborhood(kg, req.req_id, TaskKind.GENERATION, ws.bounds)
        req_text = requirement_text(kg, req.req_id) or f"[{req.req_id}] {req.text}"
        fragment = spec_fragment_text(kg, ctx)
        siblings = sibling_property_text(kg, ctx)

        send_step(backend, PromptEnvelope.build(
            "sva_lead", f"gen/{req.req_id}/lead", ResponseShape.ANALYSIS,
            requirement=req_text, spec_fragment=fragment, rulebook=rulebook))
        send_step(backend, PromptEnvelope.build(
            "spec_analyst", f"gen/{req.req_id}/analyze", ResponseShape.ANALYSIS,
            requirement=req_text, spec_fragment=fragment))
        author = send_step(backend, PromptEnvelope.build(
            "sva_author", f"gen/{req.req_id}/author", ResponseShape.PROPERTY_BLOCK,
            requirement=req_text, spec_fragment=fragment,
            signal_table=ws.signal_table, rulebook=rulebook, prior_code=siblings))
        block_text = author.payload

        approved = False
        reject_reasons: list[str] = []
        for round_no in range(1, MAX_REVIEW_ROUNDS + 1):
            verdict = send_step(backend, PromptEnvelope.build(
                "sva_reviewer", f"gen/{req.req_id}/review/{round_no}",
                ResponseShape.VERDICT,
                requirement=req_text, rulebook=rulebook, prior_code=block_text))
            if verdict.payload["approve"]:
                approved = True
                break
            reject_reasons = verdict.payload["reasons"]
            if round_no == MAX_REVIEW_ROUNDS:
                break
            patched = send_step(backend, PromptEnvelope.build(
                "sva_patcher", f"gen/{req.req_id}/patch/{round_no}",
                ResponseShape.PROPERTY_BLOCK,
                requirement=req_text, rulebook=rulebook, prior_code=block_text,
                diagnostics="; ".join(reject_reasons)))
            block_text = patched.payload

        for decl in parse_property_block(block_text, ws.memo):
            prop_id = T.make_id("PROP", next_id)
            next_id += 1
            pf.properties.append(S.PropertyDecl(
                prop_id, decl.kind, decl.body, decl.line, decl.raw_source))
            record = T.PropertyRecord(
                prop_id=prop_id,
                req_ids=[req.req_id],
                kind=T.PropKind(decl.kind),
                sva_text=decl.raw_source,
                line_span=(1, 1),
                status=T.PropStatus.ACTIVE if approved else T.PropStatus.DISABLED,
            )
            if not approved:
                record.attempt_history.append(T.AttemptNote(
                    loop_kind=T.LoopKind.SYNTAX,
                    attempt_no=1,
                    diagnosis="reviewer deadlock after "
                              f"{MAX_REVIEW_ROUNDS} rounds: "
                              + "; ".join(reject_reasons),
                    patch_summary="property disabled",
                    outcome=T.AttemptOutcome.DISABLED,
                ))
            out.records.append(record)
            out.links.append(T.TraceLink(prop_id, req.req_id, T.LinkKind.VALIDATES))

    # code_extractor role: deterministic assembly through the emitter
    active_ids = {r.prop_id for r in out.records if r.status is T.PropStatus.ACTIVE}
    pf.properties = [p for p in pf.properties if p.prop_id in active_ids]
    out.emitted_text = emit_properties(pf)
    sync_records(pf, out.records)
    return out
