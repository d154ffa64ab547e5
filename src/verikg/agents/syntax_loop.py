"""Syntax correction: compile, attribute, deterministic repairs first,
backend fixes for the rest, isolated validation before reintegration,
three attempts per property then disable."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from verikg.agents.backend import Backend
from verikg.agents.common import render_signal_table, requirement_text, send_step
from verikg.agents.envelope import PromptEnvelope, ResponseShape
from verikg.ir import types as T
from verikg.kg import Graph, SignalIndex, build_signal_index, resolve_signal
from verikg.rtl import ast as rtl
from verikg.rtl.ast import DesignModel
from verikg.sva import ast as S
from verikg.sva.bind import Compiled, compile_properties
from verikg.sva.emit import emit_properties, render_statement
from verikg.sva.parser import parse_properties_with_recovery

MAX_ATTEMPTS = 3
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
    rule_fixes: int = 0
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

    body.antecedent = rw_seq(body.antecedent)
    body.consequent = rw_seq(body.consequent)
    if body.disable is not None:
        body.disable = rw(body.disable)
    if body.clock is not None:
        body.clock = S.ClockSpec(body.clock.edge, rw(body.clock.signal))


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


def _isolated_ok(decl: S.PropertyDecl, pf: S.PropertyFile, dm: DesignModel,
                 idx: SignalIndex) -> bool:
    """syntax_validator role: the property compiles alone, with the file's
    macros and default clock."""
    c = compile_properties(S.PropertyFile(macros=list(pf.macros), properties=[decl],
                                          default_clock=pf.default_clock), dm, idx)
    return not c.diags.has_errors() and not c.errors and bool(c.bound)


def run_syntax_loop(pf: S.PropertyFile, dm: DesignModel, kg: Graph,
                    backend: Backend, records: list[T.PropertyRecord],
                    rulebook: str = "") -> SyntaxLoopReport:
    """Repair until fixpoint. Deterministic rules R1-R3 never call the
    backend; each repair try counts as one attempt; a property exceeding
    three attempts is disabled with a logged note."""
    idx = build_signal_index(kg)
    report = SyntaxLoopReport()
    records_by_id = {r.prop_id: r for r in records}
    signal_table = render_signal_table(idx)
    # The three-attempt budget is global per property, spanning invocations.
    for r in records:
        used = sum(1 for n in r.attempt_history if n.loop_kind is T.LoopKind.SYNTAX)
        if used:
            report.attempts[r.prop_id] = used

    while True:
        compiled = compile_properties(pf, dm, idx)
        pf.properties = compiled.parsed.properties
        pf.line_map = compiled.parsed.line_map
        active_failures = {pid: f for pid, f in _failures(compiled).items()
                           if pid != "(file)"}
        if not active_failures:
            report.bound = compiled.bound
            break
        progressed = False
        for pid in sorted(active_failures):
            failure = active_failures[pid]
            decl = pf.get(pid)
            record = records_by_id.get(pid)
            if decl is None:
                _disable(pf, pid, record, failure, report)
                progressed = True
                continue
            used = report.attempts.get(pid, 0)
            if used >= MAX_ATTEMPTS:
                _disable(pf, pid, record, failure, report)
                progressed = True
                continue
            attempt_no = used + 1
            report.attempts[pid] = attempt_no

            summary = _try_rules(pf, decl, failure, idx)
            if summary is not None:
                ok = _isolated_ok(decl, pf, dm, idx)
                report.rule_fixes += 1
                outcome = T.AttemptOutcome.FIXED if ok else T.AttemptOutcome.RETRY
                _note(record, attempt_no, failure, summary, outcome)
                progressed = True
                continue

            req_text = "\n".join(requirement_text(kg, rid)
                                 for rid in (record.req_ids if record else []))
            try:
                fix = send_step(backend, PromptEnvelope.build(
                    "syntax_fixer", f"syntax/{pid}/attempt/{attempt_no}",
                    ResponseShape.CODE_PATCH,
                    requirement=req_text,
                    signal_table=signal_table,
                    rulebook=rulebook,
                    prior_code=render_statement(decl),
                    diagnostics="\n".join(failure.messages)))
            except Exception:
                # a refusing or failing fixer consumes the attempt
                _note(record, attempt_no, failure, "backend fixer unavailable",
                      T.AttemptOutcome.RETRY)
                progressed = True
                if report.attempts[pid] >= MAX_ATTEMPTS:
                    _disable(pf, pid, record, failure, report)
                continue
            report.backend_fixes += 1
            patched_block, _pd = parse_properties_with_recovery(fix.payload)
            candidate = next((p for p in patched_block.properties), None)
            ok = False
            if candidate is not None and candidate.body is not None:
                trial = S.PropertyDecl(pid, candidate.kind, candidate.body,
                                       decl.line, candidate.raw_source)
                if _isolated_ok(trial, patched_with_macros(pf, patched_block), dm, idx):
                    decl.body = candidate.body
                    decl.kind = candidate.kind
                    decl.raw_source = candidate.raw_source
                    for name, repl in patched_block.macros:
                        if name not in dict(pf.macros):
                            pf.macros.append((name, repl))
                    ok = True
            _note(record, attempt_no, failure,
                  "backend patch" + ("" if ok else " (failed isolated validation)"),
                  T.AttemptOutcome.FIXED if ok else T.AttemptOutcome.RETRY)
            progressed = True
            if not ok and report.attempts[pid] >= MAX_ATTEMPTS:
                _disable(pf, pid, record, failure, report)
        if not progressed:
            for pid in sorted(active_failures):
                record = records_by_id.get(pid)
                _disable(pf, pid, record, active_failures[pid], report)
    report.emitted_text = emit_properties(pf)
    _sync_spans(pf, records)
    return report


def patched_with_macros(pf: S.PropertyFile, block: S.PropertyFile) -> S.PropertyFile:
    merged = S.PropertyFile(macros=list(pf.macros), properties=[],
                            default_clock=pf.default_clock)
    for name, repl in block.macros:
        if name not in dict(merged.macros):
            merged.macros.append((name, repl))
    return merged


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


def _sync_spans(pf: S.PropertyFile, records: list[T.PropertyRecord]) -> None:
    by_id = {p.prop_id: p for p in pf.properties}
    for record in records:
        decl = by_id.get(record.prop_id)
        if decl is None:
            continue
        record.line_span = pf.line_map.get(record.prop_id, record.line_span)
        record.sva_text = render_statement(decl)
