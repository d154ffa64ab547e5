"""Counterexample correction: waveform triage, root-cause classification,
property patching through the fixer-attempt path the syntax loop shares
(`common.attempt_fix`) with an engine re-check of the patch alone,
`MAX_ATTEMPTS` then manual flag. A patch compiles against the workspace's
signal index, through its statement memo."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from verikg.agents.common import (
    FIXER_UNAVAILABLE,
    Workspace,
    attempt_fix,
    attempts_used,
    record_requirements,
    send_step,
    sync_records,
)
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.engine.check import CheckConfig, check
from verikg.ir import types as T
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S
from verikg.sva.emit import render_statement
from verikg.vcd import failure_window, parse_vcd

# Cycles of waveform shown before the failure time.
PRE_CYCLES = 3

_ROOT_CAUSE_RE = re.compile(
    r"root_cause:\s*(rtl_bug|over_specification|missing_assumption|under_specification)")

_CAUSE_MAP = {
    "rtl_bug": T.RootCause.RTL_BUG,
    "over_specification": T.RootCause.OVER_SPECIFICATION,
    "missing_assumption": T.RootCause.MISSING_ASSUMPTION,
    "under_specification": T.RootCause.UNDER_SPECIFICATION,
}


@dataclass
class CexLoopReport:
    corrected: list[str] = field(default_factory=list)
    not_corrected: list[str] = field(default_factory=list)
    manual_review: list[str] = field(default_factory=list)
    cases: list[T.CexCase] = field(default_factory=list)
    # prop ids whose property text changed (drives downstream invalidation)
    patched: list[str] = field(default_factory=list)


def _render_window(summary) -> str:
    lines = [f"failure time: {summary.center_time}"]
    for t, name, old, new in summary.window:
        lines.append(f"#{t}: {name}: {old} -> {new}")
    if summary.missing:
        lines.append("missing signals: " + ", ".join(summary.missing))
    return "\n".join(lines)


def run_cex_loop(ws: Workspace, results: list[T.FormalResult], net: NetModel,
                 rtl_source: str, pf: S.PropertyFile,
                 records: list[T.PropertyRecord], artifacts: dict[str, bytes],
                 cfg: CheckConfig, cex_id_start: int = 1) -> CexLoopReport:
    """Process every failing result in prop_id order.

    RTL bugs are documented and the property left failing; property-side
    causes go through the fixer-attempt path (`common.attempt_fix`), whose
    patch must also pass the engine check before it is adopted.
    """
    report = CexLoopReport()
    records_by_id = {r.prop_id: r for r in records}
    # VCD bytes -> parsed WaveDb, so a trace that several results share is
    # parsed once (failure_window only reads the WaveDb)
    waves = {}
    next_cex = cex_id_start

    def proven_or_vacuous(bp: S.BoundProperty) -> bool:
        """A CEX patch's gate past compiling alone: it is no cover, and
        the engine proves it (or finds it vacuous) on its own."""
        if bp.kind == "cover":
            return False
        result, _trace = check(net, bp, cfg)
        return result.status in (T.ResultStatus.PROVEN, T.ResultStatus.VACUOUS)

    failing = sorted((r for r in results if r.status is T.ResultStatus.CEX),
                     key=lambda r: r.prop_id)
    for result in failing:
        pid = result.prop_id
        record = records_by_id.get(pid)
        decl = pf.get(pid)
        line = pf.line_map.get(pid, (0, 0))[1]
        cex_id = T.make_id("CEX", next_cex)
        next_cex += 1

        blob = artifacts.get(result.artifact_path or "")
        if blob is None:
            report.cases.append(T.CexCase(
                cex_id, pid, result.artifact_path or "", 0, line,
                note="missing_artifact"))
            report.not_corrected.append(pid)
            continue

        # vcd_parser role: deterministic waveform triage
        db = waves.get(blob)
        if db is None:
            db = waves[blob] = parse_vcd(blob)
        failure_time = (result.proof_depth or db.end_time()) * db.timescale[0]
        prop_signals = sorted(db.signal_names())
        window = failure_window(db, failure_time, prop_signals, PRE_CYCLES)
        window_text = _render_window(window)

        case = T.CexCase(cex_id, pid, result.artifact_path or "",
                         failure_time, line)
        report.cases.append(case)

        req_text = record_requirements(ws.kg, record)
        prop_text = render_statement(decl) if decl else (record.sva_text if record else "")

        analysis = send_step(ws.backend, PromptEnvelope.build(
            "spec_assertion_analyzer", f"cex/{pid}/classify",
            ResponseShape.ANALYSIS,
            requirement=req_text, prior_code=prop_text,
            diagnostics=window_text))
        m = _ROOT_CAUSE_RE.search(str(analysis.payload))
        cause = _CAUSE_MAP[m.group(1)] if m else T.RootCause.UNDER_SPECIFICATION
        case.root_cause = cause

        if cause is T.RootCause.RTL_BUG:
            doc = send_step(ws.backend, PromptEnvelope.build(
                "rtl_analyzer", f"cex/{pid}/rtl", ResponseShape.ANALYSIS,
                requirement=req_text, prior_code=rtl_source,
                diagnostics=window_text))
            case.note = str(doc.payload)[:500]
            report.not_corrected.append(pid)
            continue  # genuine bugs are documented, the property stays failing

        if decl is None:
            report.not_corrected.append(pid)
            continue

        # a property whose budget is spent goes straight to manual review
        used = attempts_used(record, T.LoopKind.CEX)
        for attempt_no in range(used + 1, T.MAX_ATTEMPTS + 1):
            payload, fixed = attempt_fix(ws, PromptEnvelope.build(
                "cex_fixer", f"cex/{pid}/fix/{attempt_no}",
                ResponseShape.CODE_PATCH,
                requirement=req_text, signal_table=ws.signal_table,
                prior_code=render_statement(decl), diagnostics=window_text),
                decl, pf, proven_or_vacuous)
            note = T.AttemptNote(
                loop_kind=T.LoopKind.CEX,
                attempt_no=attempt_no,
                diagnosis=f"root_cause={cause.value}",
                patch_summary=FIXER_UNAVAILABLE if payload is None else payload[:200],
                outcome=T.AttemptOutcome.FIXED if fixed else T.AttemptOutcome.RETRY,
            )
            case.attempts.append(note)
            if record is not None:
                record.attempt_history.append(note)
            if fixed:
                if record is not None:
                    sync_records(pf, [record])
                report.corrected.append(pid)
                report.patched.append(pid)
                break
        else:
            report.not_corrected.append(pid)
            report.manual_review.append(pid)
    return report
