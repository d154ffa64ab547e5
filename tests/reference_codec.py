"""The hand-written document codecs that `verikg.codec` replaced, kept
verbatim as the reference it is compared against (`tests/test_codec.py`):
each IR record's `to_doc`/`from_doc` pair from `ir/types.py`, made a
function, and from `rtl/ast.py` `expr_to_json`/`expr_from_json`,
`_stmt_to_json`/`_stmt_from_json` and `DesignModel.to_doc`/`from_doc`.

It lives outside `oracles.py` because the benchmark imports that module
for its generators, and its peak RSS grows with that file's size.
"""

from __future__ import annotations

from typing import Any

from verikg.ir import types as T
from verikg.rtl.ast import (
    AlwaysBlock,
    AlwaysStmt,
    Binary,
    CaseArm,
    CaseStmt,
    Concat,
    ContAssign,
    DesignModel,
    Expr,
    FsmDesc,
    Id,
    IfStmt,
    Instance,
    Lit,
    ModuleDecl,
    Param,
    Port,
    Select,
    SeqAssign,
    Signal,
    StatementRef,
    Ternary,
    Unary,
)


# ---------------------------------------------------------------------------
# ir/types.py
# ---------------------------------------------------------------------------

def attempt_note_to_doc(self) -> dict:
    return {
        "loop_kind": self.loop_kind.value,
        "attempt_no": self.attempt_no,
        "diagnosis": self.diagnosis,
        "patch_summary": self.patch_summary,
        "outcome": self.outcome.value,
    }


def attempt_note_from_doc(d: dict) -> T.AttemptNote:
    return T.AttemptNote(T.LoopKind(d["loop_kind"]), d["attempt_no"], d["diagnosis"],
                         d["patch_summary"], T.AttemptOutcome(d["outcome"]))


def spec_chunk_to_doc(self) -> dict:
    return {
        "chunk_id": self.chunk_id,
        "heading_path": self.heading_path,
        "text": self.text,
        "semantic_tags": self.semantic_tags,
        "order_index": self.order_index,
    }


def spec_chunk_from_doc(d: dict) -> T.SpecChunk:
    return T.SpecChunk(d["chunk_id"], list(d["heading_path"]), d["text"],
                       list(d["semantic_tags"]), d["order_index"])


def requirement_to_doc(self) -> dict:
    return {
        "req_id": self.req_id,
        "text": self.text,
        "category": self.category.value,
        "priority": self.priority.value,
        "source_chunks": self.source_chunks,
    }


def requirement_from_doc(d: dict) -> T.Requirement:
    return T.Requirement(d["req_id"], d["text"], T.Category(d["category"]),
                         T.Priority(d["priority"]), list(d["source_chunks"]))


def test_plan_entry_to_doc(self) -> dict:
    return {
        "req_id": self.req_id,
        "observable_signals": self.observable_signals,
        "stimulus": self.stimulus,
        "expected_response": self.expected_response,
        "timing_constraint": self.timing_constraint,
    }


def test_plan_entry_from_doc(d: dict) -> T.TestPlanEntry:
    return T.TestPlanEntry(d["req_id"], list(d["observable_signals"]), d["stimulus"],
                           d["expected_response"], d.get("timing_constraint"))


def property_record_to_doc(self) -> dict:
    return {
        "prop_id": self.prop_id,
        "req_ids": self.req_ids,
        "kind": self.kind.value,
        "sva_text": self.sva_text,
        "line_span": list(self.line_span),
        "status": self.status.value,
        "attempt_history": [attempt_note_to_doc(a) for a in self.attempt_history],
    }


def property_record_from_doc(d: dict) -> T.PropertyRecord:
    return T.PropertyRecord(d["prop_id"], list(d["req_ids"]), T.PropKind(d["kind"]),
                            d["sva_text"], tuple(d["line_span"]), T.PropStatus(d["status"]),
                            [attempt_note_from_doc(a) for a in d["attempt_history"]])


def trace_link_to_doc(self) -> dict:
    return {"src_id": self.src_id, "dst_id": self.dst_id,
            "link_kind": self.link_kind.value}


def trace_link_from_doc(d: dict) -> T.TraceLink:
    return T.TraceLink(d["src_id"], d["dst_id"], T.LinkKind(d["link_kind"]))


def formal_result_to_doc(self) -> dict:
    return {
        "result_id": self.result_id,
        "prop_id": self.prop_id,
        "status": self.status.value,
        "proof_depth": self.proof_depth,
        "runtime_ms": self.runtime_ms,
        "artifact_path": self.artifact_path,
        "external": self.external,
        "note": self.note,
    }


def formal_result_from_doc(d: dict) -> T.FormalResult:
    return T.FormalResult(d["result_id"], d["prop_id"], T.ResultStatus(d["status"]),
                          d.get("proof_depth"), d.get("runtime_ms", 0),
                          d.get("artifact_path"), d.get("external", False),
                          d.get("note"))


def cex_case_to_doc(self) -> dict:
    return {
        "cex_id": self.cex_id,
        "prop_id": self.prop_id,
        "vcd_path": self.vcd_path,
        "failure_time": self.failure_time,
        "failure_line": self.failure_line,
        "attempts": [attempt_note_to_doc(a) for a in self.attempts],
        "root_cause": self.root_cause.value if self.root_cause else None,
        "note": self.note,
    }


def cex_case_from_doc(d: dict) -> T.CexCase:
    return T.CexCase(d["cex_id"], d["prop_id"], d["vcd_path"], d["failure_time"],
                     d["failure_line"], [attempt_note_from_doc(a) for a in d["attempts"]],
                     T.RootCause(d["root_cause"]) if d.get("root_cause") else None,
                     d.get("note"))


def coverage_metrics_to_doc(self) -> dict:
    return {
        "run_ref": self.run_ref,
        "reachable_pct": self.reachable_pct,
        "covered_statements": self.covered_statements,
        "unreachable_statements": self.unreachable_statements,
        "dead_code": [[sid, cls.value] for sid, cls in self.dead_code],
        "vacuity_count": self.vacuity_count,
        "proof_core_ratio": self.proof_core_ratio,
        "partial": self.partial,
    }


def coverage_metrics_from_doc(d: dict) -> T.CoverageMetrics:
    return T.CoverageMetrics(d["run_ref"], d["reachable_pct"], list(d["covered_statements"]),
                             list(d["unreachable_statements"]),
                             [(sid, T.DeadCodeClass(c)) for sid, c in d["dead_code"]],
                             d["vacuity_count"], d.get("proof_core_ratio"),
                             d.get("partial", False))


def run_context_to_doc(self) -> dict:
    return {
        "run_id": self.run_id,
        "artifact_paths": dict(sorted(self.artifact_paths.items())),
        "iteration_counts": dict(sorted(self.iteration_counts.items())),
        "tool_version": self.tool_version,
        "created_at": self.created_at,
        "config_snapshot": self.config_snapshot,
    }


def run_context_from_doc(d: dict) -> T.RunContext:
    return T.RunContext(d["run_id"], dict(d["artifact_paths"]),
                        dict(d["iteration_counts"]), d["tool_version"],
                        d["created_at"], dict(d["config_snapshot"]))


# ---------------------------------------------------------------------------
# rtl/ast.py
# ---------------------------------------------------------------------------

def expr_to_json(e: Expr) -> Any:
    if isinstance(e, Lit):
        return ["lit", e.value, e.width]
    if isinstance(e, Id):
        return ["id", e.name]
    if isinstance(e, Unary):
        return ["un", e.op, expr_to_json(e.operand)]
    if isinstance(e, Binary):
        return ["bin", e.op, expr_to_json(e.left), expr_to_json(e.right)]
    if isinstance(e, Ternary):
        return ["cond", expr_to_json(e.cond), expr_to_json(e.then), expr_to_json(e.other)]
    if isinstance(e, Concat):
        return ["cat", [expr_to_json(p) for p in e.parts]]
    if isinstance(e, Select):
        return ["sel", e.name, expr_to_json(e.msb), expr_to_json(e.lsb)]
    raise TypeError(f"not an expression node: {e!r}")


def expr_from_json(doc: Any) -> Expr:
    tag = doc[0]
    if tag == "lit":
        return Lit(doc[1], doc[2])
    if tag == "id":
        return Id(doc[1])
    if tag == "un":
        return Unary(doc[1], expr_from_json(doc[2]))
    if tag == "bin":
        return Binary(doc[1], expr_from_json(doc[2]), expr_from_json(doc[3]))
    if tag == "cond":
        return Ternary(expr_from_json(doc[1]), expr_from_json(doc[2]), expr_from_json(doc[3]))
    if tag == "cat":
        return Concat(tuple(expr_from_json(p) for p in doc[1]))
    if tag == "sel":
        return Select(doc[1], expr_from_json(doc[2]), expr_from_json(doc[3]))
    raise ValueError(f"unknown expression tag: {tag!r}")


def _stmt_to_json(s: AlwaysStmt) -> dict:
    if isinstance(s, SeqAssign):
        return {
            "kind": "seq_assign",
            "target": s.target,
            "sel": [expr_to_json(s.sel[0]), expr_to_json(s.sel[1])] if s.sel else None,
            "rhs": expr_to_json(s.rhs),
            "blocking": s.blocking,
            "stmt_id": s.stmt_id,
            "line": s.line,
        }
    if isinstance(s, IfStmt):
        return {
            "kind": "if",
            "cond": expr_to_json(s.cond),
            "then_body": [_stmt_to_json(x) for x in s.then_body],
            "else_body": [_stmt_to_json(x) for x in s.else_body] if s.else_body is not None else None,
            "then_id": s.then_id,
            "else_id": s.else_id,
            "line": s.line,
            "else_line": s.else_line,
        }
    if isinstance(s, CaseStmt):
        return {
            "kind": "case",
            "subject": expr_to_json(s.subject),
            "arms": [
                {
                    "labels": [expr_to_json(l) for l in a.labels] if a.labels is not None else None,
                    "body": [_stmt_to_json(x) for x in a.body],
                    "arm_id": a.arm_id,
                    "line": a.line,
                }
                for a in s.arms
            ],
            "line": s.line,
        }
    raise TypeError(f"not a statement node: {s!r}")


def _stmt_from_json(doc: dict) -> AlwaysStmt:
    kind = doc["kind"]
    if kind == "seq_assign":
        sel = doc["sel"]
        return SeqAssign(
            target=doc["target"],
            sel=(expr_from_json(sel[0]), expr_from_json(sel[1])) if sel else None,
            rhs=expr_from_json(doc["rhs"]),
            blocking=doc["blocking"],
            stmt_id=doc["stmt_id"],
            line=doc["line"],
        )
    if kind == "if":
        return IfStmt(
            cond=expr_from_json(doc["cond"]),
            then_body=[_stmt_from_json(x) for x in doc["then_body"]],
            else_body=[_stmt_from_json(x) for x in doc["else_body"]] if doc["else_body"] is not None else None,
            then_id=doc["then_id"],
            else_id=doc["else_id"],
            line=doc["line"],
            else_line=doc.get("else_line"),
        )
    if kind == "case":
        return CaseStmt(
            subject=expr_from_json(doc["subject"]),
            arms=[
                CaseArm(
                    labels=[expr_from_json(l) for l in a["labels"]] if a["labels"] is not None else None,
                    body=[_stmt_from_json(x) for x in a["body"]],
                    arm_id=a["arm_id"],
                    line=a["line"],
                )
                for a in doc["arms"]
            ],
            line=doc["line"],
        )
    raise ValueError(f"unknown statement kind: {kind!r}")


def design_model_to_doc(self) -> dict:
    return {
        "top": self.top,
        "modules": [
            {
                "name": m.name,
                "ports": [
                    {
                        "name": p.name, "direction": p.direction, "width": p.width,
                        "line": p.line,
                        "msb": expr_to_json(p.msb) if p.msb is not None else None,
                        "lsb": expr_to_json(p.lsb) if p.lsb is not None else None,
                    }
                    for p in m.ports
                ],
                "signals": [
                    {
                        "name": s.name, "width": s.width, "kind": s.kind, "line": s.line,
                        "msb": expr_to_json(s.msb) if s.msb is not None else None,
                        "lsb": expr_to_json(s.lsb) if s.lsb is not None else None,
                    }
                    for s in m.signals
                ],
                "parameters": [
                    {
                        "name": p.name, "value": p.value, "local": p.local, "line": p.line,
                        "expr": expr_to_json(p.expr) if p.expr is not None else None,
                    }
                    for p in m.parameters
                ],
                "instances": [
                    {
                        "name": i.name,
                        "module": i.module,
                        "ports": {k: expr_to_json(v) for k, v in sorted(i.ports.items())},
                        "params": {k: expr_to_json(v) for k, v in sorted(i.params.items())},
                        "line": i.line,
                    }
                    for i in m.instances
                ],
                "assigns": [
                    {
                        "target": a.target,
                        "sel": [expr_to_json(a.sel[0]), expr_to_json(a.sel[1])] if a.sel else None,
                        "rhs": expr_to_json(a.rhs),
                        "stmt_id": a.stmt_id,
                        "line": a.line,
                    }
                    for a in m.assigns
                ],
                "always_blocks": [
                    {
                        "clock": b.clock,
                        "body": [_stmt_to_json(s) for s in b.body],
                        "line": b.line,
                    }
                    for b in m.always_blocks
                ],
                "line": m.line,
            }
            for m in self.modules
        ],
        "fsms": [
            {
                "state_reg": f.state_reg,
                "encoding": dict(sorted(f.encoding.items())),
                "transition_lines": f.transition_lines,
            }
            for f in self.fsms
        ],
        "statements": [
            {"id": s.id, "module": s.module, "line": s.line, "kind": s.kind, "detail": s.detail}
            for s in self.statements
        ],
    }

def design_model_from_doc(doc: dict) -> DesignModel:
    modules = []
    for md in doc["modules"]:
        modules.append(
            ModuleDecl(
                name=md["name"],
                ports=[
                    Port(
                        p["name"], p["direction"], p["width"], p["line"],
                        expr_from_json(p["msb"]) if p.get("msb") is not None else None,
                        expr_from_json(p["lsb"]) if p.get("lsb") is not None else None,
                    )
                    for p in md["ports"]
                ],
                signals=[
                    Signal(
                        s["name"], s["width"], s["kind"], s["line"],
                        expr_from_json(s["msb"]) if s.get("msb") is not None else None,
                        expr_from_json(s["lsb"]) if s.get("lsb") is not None else None,
                    )
                    for s in md["signals"]
                ],
                parameters=[
                    Param(
                        p["name"], p["value"], p["local"], p["line"],
                        expr_from_json(p["expr"]) if p.get("expr") is not None else None,
                    )
                    for p in md["parameters"]
                ],
                instances=[
                    Instance(
                        name=i["name"],
                        module=i["module"],
                        ports={k: expr_from_json(v) for k, v in i["ports"].items()},
                        params={k: expr_from_json(v) for k, v in i["params"].items()},
                        line=i["line"],
                    )
                    for i in md["instances"]
                ],
                assigns=[
                    ContAssign(
                        target=a["target"],
                        sel=(expr_from_json(a["sel"][0]), expr_from_json(a["sel"][1])) if a["sel"] else None,
                        rhs=expr_from_json(a["rhs"]),
                        stmt_id=a["stmt_id"],
                        line=a["line"],
                    )
                    for a in md["assigns"]
                ],
                always_blocks=[
                    AlwaysBlock(
                        clock=b["clock"],
                        body=[_stmt_from_json(s) for s in b["body"]],
                        line=b["line"],
                    )
                    for b in md["always_blocks"]
                ],
                line=md["line"],
            )
        )
    return DesignModel(
        modules=modules,
        fsms=[
            FsmDesc(f["state_reg"], dict(f["encoding"]), list(f["transition_lines"]))
            for f in doc["fsms"]
        ],
        statements=[
            StatementRef(s["id"], s["module"], s["line"], s["kind"], s.get("detail"))
            for s in doc["statements"]
        ],
        top=doc.get("top"),
    )


# record class -> (to_doc, from_doc)
CODECS = {
    T.AttemptNote: (attempt_note_to_doc, attempt_note_from_doc),
    T.SpecChunk: (spec_chunk_to_doc, spec_chunk_from_doc),
    T.Requirement: (requirement_to_doc, requirement_from_doc),
    T.TestPlanEntry: (test_plan_entry_to_doc, test_plan_entry_from_doc),
    T.PropertyRecord: (property_record_to_doc, property_record_from_doc),
    T.TraceLink: (trace_link_to_doc, trace_link_from_doc),
    T.FormalResult: (formal_result_to_doc, formal_result_from_doc),
    T.CexCase: (cex_case_to_doc, cex_case_from_doc),
    T.CoverageMetrics: (coverage_metrics_to_doc, coverage_metrics_from_doc),
    T.RunContext: (run_context_to_doc, run_context_from_doc),
    DesignModel: (design_model_to_doc, design_model_from_doc),
}
