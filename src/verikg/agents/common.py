"""Shared pipeline machinery: the run's workspace, step execution with the
retry contract, context assembly from knowledge-graph neighborhoods and
the one fixer-attempt path of the syntax and CEX loops."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from verikg.agents.backend import Backend, ProtocolError
from verikg.agents.envelope import AgentResponse, PromptEnvelope
from verikg.ir import types as T
from verikg.kg import ContextBundle, Graph, RetrievalBounds, SignalIndex
from verikg.rtl.ast import DesignModel
from verikg.sva import ast as S
from verikg.sva.bind import compile_properties
from verikg.sva.emit import render_statement
from verikg.sva.memo import StatementMemo
from verikg.sva.parser import parse_properties_with_recovery


class PipelineAbort(Exception):
    """A step failed its retry; the caller preserves artifacts and stops."""

    def __init__(self, step_id: str, cause: ProtocolError):
        super().__init__(f"step {step_id!r} aborted: {cause}")
        self.step_id = step_id
        self.cause = cause


def send_step(backend: Backend, env: PromptEnvelope) -> AgentResponse:
    """One protocol-error retry, then abort."""
    try:
        return backend.send(env)
    except ProtocolError:
        try:
            return backend.send(env)
        except ProtocolError as exc:
            raise PipelineAbort(env.step_id, exc) from exc


SIGNAL_TABLE_ROWS = 64  # the first signal paths, in sorted order


def render_signal_table(idx: SignalIndex) -> str:
    rows = [f"{path} [{width}]" for path, width
            in sorted(idx.path_widths.items())[:SIGNAL_TABLE_ROWS]]
    return "\n".join(rows)


@dataclass
class Workspace:
    """What more than one agent step of a run reads. The signal index does
    not change once built, so its table is rendered once, here; every
    property parse and compile of the run goes through the memo."""
    kg: Graph
    idx: SignalIndex
    dm: DesignModel
    backend: Backend
    rulebook: str = ""
    bounds: RetrievalBounds = field(default_factory=RetrievalBounds)
    memo: StatementMemo = field(default_factory=StatementMemo)
    signal_table: str = field(init=False)

    def __post_init__(self) -> None:
        self.signal_table = render_signal_table(self.idx)


def spec_fragment_text(g: Graph, ctx: ContextBundle) -> str:
    parts = []
    for node_id, _reason in ctx.members:
        node = g.nodes[node_id]
        if node.type == "spec_chunk":
            heading = " / ".join(node.attrs.get("heading_path", []))
            parts.append(f"[{node_id}] {heading}\n{node.attrs.get('text', '')}")
    return "\n\n".join(parts)


def sibling_property_text(g: Graph, ctx: ContextBundle) -> str:
    parts = []
    for node_id, _reason in ctx.members:
        node = g.nodes[node_id]
        if node.type == "property":
            parts.append(f"// {node_id}\n{node.attrs.get('sva_text', '')}")
    return "\n".join(parts)


def sync_records(pf: S.PropertyFile, records: list[T.PropertyRecord]) -> None:
    """Align each record of a property in `pf` with the file just emitted
    from it: its kind (a fix may turn an assertion into an assumption), its
    statement text and its line span (`emit_properties` gives every
    property one)."""
    by_id = {p.prop_id: p for p in pf.properties}
    for record in records:
        decl = by_id.get(record.prop_id)
        if decl is not None:
            record.kind = T.PropKind(decl.kind)
            record.line_span = pf.line_map[record.prop_id]
            record.sva_text = render_statement(decl)


def requirement_text(g: Graph, req_id: str) -> str:
    node = g.nodes.get(req_id)
    if node is None or node.type != "requirement":
        return ""
    return f"[{req_id}] {node.attrs.get('text', '')}"


def record_requirements(g: Graph, record: T.PropertyRecord | None) -> str:
    """The text of every requirement a property record validates."""
    return "\n".join(requirement_text(g, rid)
                     for rid in (record.req_ids if record else []))


def parse_property_block(text: str, memo: StatementMemo) -> list[S.PropertyDecl]:
    """Parse an agent-produced block of property statements (no file
    header); broken statements are kept with their raw source."""
    return parse_properties_with_recovery(text, memo=memo)[0].properties


FIXER_UNAVAILABLE = "backend fixer unavailable"


def attempts_used(record: T.PropertyRecord | None, kind: T.LoopKind) -> int:
    """Attempts of one loop kind already spent on a property: the budget
    of `T.MAX_ATTEMPTS` spans loop invocations."""
    return sum(1 for n in (record.attempt_history if record else [])
               if n.loop_kind is kind)


def compile_alone(ws: Workspace, decl: S.PropertyDecl,
                  macros: list[tuple[str, str]],
                  default_clock: S.ClockSpec | None) -> S.BoundProperty | None:
    """syntax_validator role: `decl` bound in a file of its own, with the
    given macros and default clock; None on any parse or bind error."""
    c = compile_properties(S.PropertyFile(macros=list(macros), properties=[decl],
                                          default_clock=default_clock),
                           ws.idx, ws.memo)
    if c.diags.has_errors() or c.errors or not c.bound:
        return None
    return c.bound[0]


def attempt_fix(ws: Workspace, env: PromptEnvelope, decl: S.PropertyDecl,
                pf: S.PropertyFile,
                accept: Callable[[S.BoundProperty], bool]) -> tuple[str | None, bool]:
    """One fixer attempt on `decl`: the payload's first statement, given
    `decl`'s id and line, compiled alone with the file's macros plus the
    payload's new ones, is adopted into `decl` and `pf` when it binds and
    `accept` passes it. Returns the payload (None when the fixer refused)
    and whether the patch was adopted."""
    try:
        payload = str(send_step(ws.backend, env).payload)
    except PipelineAbort:
        return None, False
    block = parse_properties_with_recovery(payload, memo=ws.memo)[0]
    first = next(iter(block.properties), None)
    if first is None or first.body is None:
        return payload, False
    known = dict(pf.macros)  # the parser keeps one definition per name
    new_macros = [(name, repl) for name, repl in block.macros if name not in known]
    trial = S.PropertyDecl(decl.prop_id, first.kind, first.body, decl.line,
                           first.raw_source)
    bound = compile_alone(ws, trial, pf.macros + new_macros, pf.default_clock)
    if bound is None or not accept(bound):
        return payload, False
    decl.kind, decl.body, decl.raw_source = first.kind, first.body, first.raw_source
    pf.macros.extend(new_macros)
    return payload, True
