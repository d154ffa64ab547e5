"""Syntax correction: compile, attribute, deterministic repairs first,
backend fixes for the rest through the fixer-attempt path the CEX loop
shares (`common.attempt_fix`), `MAX_ATTEMPTS` per property then disable.
Every compile binds against the workspace's signal index and goes through
its statement memo."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from verikg.agents.common import (
    FIXER_UNAVAILABLE,
    Workspace,
    attempt_fix,
    attempts_used,
    compile_alone,
    record_requirements,
    sync_records,
)
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.ir import types as T
from verikg.kg import SignalIndex, resolve_signal
from verikg.rtl import ast as rtl
from verikg.sva import ast as S
from verikg.sva.bind import Compiled, compile_properties
from verikg.sva.emit import emit_properties, render_statement

_MACRO_STYLE = re.compile(r"^[A-Z][A-Z0-9_]*$")


@dataclass
class PropFailure:
    prop_id: str
    messages: list[str] = field(default_factory=list)
    bind_items: list[S.BindErrorItem] = field(default_factory=list)
    parse_error: bool = False


@dataclass
class SyntaxLoopReport:
    attempts: dict[str, int] = field(default_factory=dict)
    backend_fixes: int = 0
    disabled: list[str] = field(default_factory=list)
    emitted_text: str = ""
    # the last compile's bound properties: no property failed in it
    bound: list[S.BoundProperty] = field(default_factory=list)


def _failures(compiled: Compiled) -> dict[str, PropFailure]:
    """syntax_analyzer role: attribute parse and bind errors per property
    (deterministic in this engine); unattributed ones go to "(file)"."""
    failures: dict[str, PropFailure] = {}
    for d in compiled.diags.errors:
        pid = d.prop_id or "(file)"
        f = failures.setdefault(pid, PropFailure(pid))
        f.messages.append(d.render())
        f.parse_error = True
    for item in compiled.errors.items:
        f = failures.setdefault(item.prop_id, PropFailure(item.prop_id))
        f.messages.append(str(item))
        f.bind_items.append(item)
    return failures


def _rewrite_identifier(decl: S.PropertyDecl, old: str, new_expr) -> None:
    """Give `decl` a new body with `old` read as `new_expr`; bodies are
    shared (a run's memo hands one out for every parse of its text), so
    the old body is left as it is."""
    def leaf(e):
        if isinstance(e, rtl.Id) and e.name == old:
            return new_expr
        if isinstance(e, rtl.Select) and e.name == old and isinstance(new_expr, rtl.Id):
            return rtl.Select(new_expr.name, e.msb, e.lsb)
        return None

    def rw(e):
        return rtl.rewrite(e, leaf)

    body = decl.body
    if body is None:
        return

    def rw_seq(seq):
        if seq is None:
            return None
        return S.Sequence(tuple(S.SeqStep(s.delay_lo, s.delay_hi, rw(s.expr))
                                for s in seq.steps))

    decl.body = replace(
        body,
        antecedent=rw_seq(body.antecedent),
        consequent=rw_seq(body.consequent),
        disable=rw(body.disable) if body.disable is not None else None,
        clock=(S.ClockSpec(body.clock.edge, rw(body.clock.signal))
               if body.clock is not None else None))


def _try_rules(pf: S.PropertyFile, decl: S.PropertyDecl,
               failure: PropFailure, idx: SignalIndex) -> str | None:
    """Deterministic repair table. Returns a patch summary when a rule
    applied; None sends the property to the backend fixer."""
    if failure.parse_error or decl.body is None:
        return None
    applied: list[str] = []
    macro_names = dict(pf.macros)
    for item in failure.bind_items:
        if item.kind is S.BindErrorKind.UNDECLARED_IDENTIFIER:
            ident = item.identifier
            if ident.startswith("(") or not ident:
                return None
            leaf = ident.split(".")[-1]
            leaf_matches = resolve_signal(idx, leaf)
            if "." in ident and len(leaf_matches) == 1:
                # R1: wrong scope prefix, unique leaf -> hierarchical path
                _rewrite_identifier(decl, ident, rtl.Id(leaf_matches[0]))
                applied.append(f"R1: {ident} -> {leaf_matches[0]}")
                continue
            ci_matches = resolve_signal(idx, leaf.lower())
            if _MACRO_STYLE.match(ident) and len(ci_matches) == 1:
                # R2: macro-style token -> define an aliasing macro
                if ident not in macro_names:
                    pf.macros.append((ident, ci_matches[0]))
                    macro_names[ident] = ci_matches[0]
                _rewrite_identifier(decl, ident, S.MacroRef(ident))
                applied.append(f"R2: `define {ident} {ci_matches[0]}")
                continue
            return None
        if item.kind is S.BindErrorKind.UNDEFINED_MACRO:
            name = item.identifier
            if item.candidates:  # recursive or unparseable expansion
                return None
            ci_matches = resolve_signal(idx, name.lower())
            if len(ci_matches) == 1:
                # R3: undefined macro with a unique signal candidate
                pf.macros.append((name, ci_matches[0]))
                macro_names[name] = ci_matches[0]
                applied.append(f"R3: `define {name} {ci_matches[0]}")
                continue
            return None
        return None  # width mismatches etc. go to the backend
    return "; ".join(applied) if applied else None


def run_syntax_loop(ws: Workspace, pf: S.PropertyFile,
                    records: list[T.PropertyRecord]) -> SyntaxLoopReport:
    """Repair until fixpoint. Deterministic rules R1-R3 never call the
    backend; each repair try counts as one attempt; a property exceeding
    `MAX_ATTEMPTS` is disabled with a logged note. When the workspace's
    signal index is built with the design's `NetModel.readable`, a property
    that reads another name fails to bind."""
    report = SyntaxLoopReport()
    records_by_id = {r.prop_id: r for r in records}
    # The attempt budget is global per property, spanning invocations.
    for r in records:
        used = attempts_used(r, T.LoopKind.SYNTAX)
        if used:
            report.attempts[r.prop_id] = used

    while True:
        compiled = compile_properties(pf, ws.idx, ws.memo)
        pf.properties = compiled.parsed.properties
        pf.line_map = compiled.parsed.line_map
        active_failures = {pid: f for pid, f in _failures(compiled).items()
                           if pid != "(file)"}
        if not active_failures:
            report.bound = compiled.bound
            break
        for pid in sorted(active_failures):
            failure = active_failures[pid]
            decl = pf.get(pid)
            record = records_by_id.get(pid)
            used = report.attempts.get(pid, 0)
            if decl is None or used >= T.MAX_ATTEMPTS:
                _disable(pf, pid, record, failure, report)
                continue
            attempt_no = used + 1
            report.attempts[pid] = attempt_no

            summary = _try_rules(pf, decl, failure, ws.idx)
            if summary is not None:
                ok = compile_alone(ws, decl, pf.macros, pf.default_clock) is not None
                outcome = T.AttemptOutcome.FIXED if ok else T.AttemptOutcome.RETRY
                _note(record, attempt_no, failure, summary, outcome)
                continue

            payload, ok = attempt_fix(ws, PromptEnvelope.build(
                "syntax_fixer", f"syntax/{pid}/attempt/{attempt_no}",
                ResponseShape.CODE_PATCH,
                requirement=record_requirements(ws.kg, record),
                signal_table=ws.signal_table,
                rulebook=ws.rulebook,
                prior_code=render_statement(decl),
                diagnostics="\n".join(failure.messages)), decl, pf,
                lambda _bound: True)
            if payload is None:
                summary = FIXER_UNAVAILABLE
            else:
                report.backend_fixes += 1
                summary = "backend patch" + ("" if ok else " (failed isolated validation)")
            _note(record, attempt_no, failure, summary,
                  T.AttemptOutcome.FIXED if ok else T.AttemptOutcome.RETRY)
            if not ok and attempt_no >= T.MAX_ATTEMPTS:
                _disable(pf, pid, record, failure, report)
    report.emitted_text = emit_properties(pf)
    sync_records(pf, records)
    return report


def _note(record: T.PropertyRecord | None, attempt_no: int, failure: PropFailure,
          patch_summary: str, outcome: T.AttemptOutcome) -> None:
    if record is None:
        return
    record.attempt_history.append(T.AttemptNote(
        loop_kind=T.LoopKind.SYNTAX,
        attempt_no=attempt_no,
        diagnosis="; ".join(failure.messages)[:500],
        patch_summary=patch_summary,
        outcome=outcome,
    ))


def _disable(pf: S.PropertyFile, pid: str, record: T.PropertyRecord | None,
             failure: PropFailure, report: SyntaxLoopReport) -> None:
    decl = pf.get(pid)
    if decl is not None:
        if record is not None:
            record.sva_text = render_statement(decl)
        pf.properties = [p for p in pf.properties if p.prop_id != pid]
    pf.line_map.pop(pid, None)
    if record is not None:
        record.status = T.PropStatus.DISABLED
        history = [n for n in record.attempt_history
                   if n.loop_kind is T.LoopKind.SYNTAX]
        if history and history[-1].outcome is not T.AttemptOutcome.DISABLED:
            history[-1].outcome = T.AttemptOutcome.DISABLED
        elif not history:
            record.attempt_history.append(T.AttemptNote(
                T.LoopKind.SYNTAX, 1,
                "; ".join(failure.messages)[:500],
                "no repair available", T.AttemptOutcome.DISABLED))
    if pid not in report.disabled:
        report.disabled.append(pid)
