"""Default deterministic ruleset for the scripted backend.

Requirement lines may carry property annotations that the scripted author
emits verbatim:

    REQ: The FIFO never overflows. ASSERT: full |-> ##1 !empty
    REQ[safety,high]: Depth bound. ASSERT: count <= 2'd2
    REQ: Full is reachable. COVER: full

The CEX classifier uses a keyword rule over the failure window (a reset
rising inside the window means the property lacked a reset guard); the CEX
fixer adds `disable iff (rst)`. Tests may prepend their own rules.
"""

from __future__ import annotations

import re
from dataclasses import replace

from verikg.agents.backend import ScriptedRule
from verikg.agents.envelope import PromptEnvelope
from verikg.rtl.ast import Id
from verikg.sva import ast as S
from verikg.sva.emit import render_statement
from verikg.sva.parser import parse_properties_with_recovery

_ANNOTATION_RE = re.compile(r"\b(ASSERT|ASSUME|COVER):\s*(.+?)(?=(?:\bASSERT:|\bASSUME:|\bCOVER:|$))")
_KEYWORD = {"ASSERT": "assert", "ASSUME": "assume", "COVER": "cover"}
_RESET_RISE_RE = re.compile(r"\brst\b[^\n]*(?:->\s*1|None -> 1)\b")


def section(env: PromptEnvelope, name: str) -> str:
    for sec, text in env.context:
        if sec == name:
            return text
    return ""


def _extract_requirements(env: PromptEnvelope) -> str:
    lines = []
    for line in section(env, "spec_fragment").split("\n"):
        if re.match(r"^\s*REQ(\[\w+,\w+\])?:", line):
            lines.append(line.strip())
    return "\n".join(lines) if lines else "(no requirements found)"


def _author_block(env: PromptEnvelope) -> str:
    req = section(env, "requirement")
    stmts = []
    for kind, body in _ANNOTATION_RE.findall(req):
        stmts.append(f"{_KEYWORD[kind]} property ({body.strip().rstrip(';')});")
    return "\n".join(stmts)


def _classify_cex(env: PromptEnvelope) -> str:
    window = section(env, "diagnostics")
    if _RESET_RISE_RE.search(window):
        return ("root_cause: over_specification\n"
                "the reset rises inside the failure window; the property "
                "lacks a reset guard")
    return ("root_cause: rtl_bug\n"
            "no environment cause is visible in the failure window")


def _fix_cex(env: PromptEnvelope) -> str:
    """Add `disable iff (rst)` to the property when it has none."""
    prior = section(env, "prior_code")
    block, _diags = parse_properties_with_recovery(prior)
    decl = next((p for p in block.properties if p.body is not None), None)
    if decl is None or decl.body.disable is not None:
        return ""  # refuse: shape parse fails, the attempt is consumed
    if not any("rst" in path.split(".")[-1] for path in
               section(env, "signal_table").split()):
        return ""
    decl.body = replace(decl.body, disable=Id("rst"))
    return render_statement(decl)


def _analyze_gap(env: PromptEnvelope) -> str:
    prior = section(env, "prior_code")
    blockers = section(env, "diagnostics")
    is_default_arm = "kind: case_default" in prior or "kind: if_else" in prior
    out = []
    if is_default_arm:
        out.append("classification: defensive")
    else:
        out.append("classification: gap")
    m = re.search(r"candidate blocking assumptions: (\S+?)(?:,|$)", blockers)
    if m and m.group(1) != "(none)":
        out.append(f"blocked_by: {m.group(1)}")
    return "\n".join(out)


def _improve_gap(env: PromptEnvelope) -> str:
    prior = section(env, "prior_code")
    m = re.search(r"enabling condition: (.+)", prior)
    guard = m.group(1).strip() if m else "1'd1"
    return f"cover property ({guard});"


def default_rules() -> list[ScriptedRule]:
    return [
        ScriptedRule("spec_analyst", "ingest/*", _extract_requirements),
        ScriptedRule("sva_lead", "gen/*", lambda env: "strategy: direct mapping "
                                                      "of the requirement onto design signals"),
        ScriptedRule("spec_analyst", "gen/*",
                     lambda env: "trigger: requirement condition; response: "
                                 "asserted behavior; timing: per annotation; "
                                 "exceptions: none"),
        ScriptedRule("sva_author", "gen/*", _author_block),
        ScriptedRule("sva_reviewer", "gen/*", lambda env: "approve"),
        ScriptedRule("sva_patcher", "gen/*", lambda env: section(env, "prior_code")),
        ScriptedRule("syntax_fixer", "syntax/*", lambda env: ""),  # refuses
        ScriptedRule("spec_assertion_analyzer", "cex/*", _classify_cex),
        ScriptedRule("rtl_analyzer", "cex/*",
                     lambda env: "implementation fault suspected along the "
                                 "failing property's signals; flagged for "
                                 "manual RTL correction"),
        ScriptedRule("cex_fixer", "cex/*", _fix_cex),
        ScriptedRule("cov_analyzer", "cov/*", _analyze_gap),
        ScriptedRule("cov_improver", "cov/*", _improve_gap),
    ]
