"""Shared pipeline machinery: the run's workspace, step execution with the
retry contract and context assembly from knowledge-graph neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.agents.backend import Backend, ProtocolError
from verikg.agents.envelope import AgentResponse, PromptEnvelope
from verikg.ir import types as T
from verikg.kg import ContextBundle, Graph, RetrievalBounds, SignalIndex
from verikg.rtl.ast import DesignModel
from verikg.sva import ast as S
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
    from it: its statement text and its line span (`emit_properties` gives
    every property one)."""
    by_id = {p.prop_id: p for p in pf.properties}
    for record in records:
        decl = by_id.get(record.prop_id)
        if decl is not None:
            record.line_span = pf.line_map[record.prop_id]
            record.sva_text = render_statement(decl)


def requirement_text(g: Graph, req_id: str) -> str:
    node = g.nodes.get(req_id)
    if node is None or node.type != "requirement":
        return ""
    return f"[{req_id}] {node.attrs.get('text', '')}"


def parse_property_block(text: str, memo: StatementMemo) -> list[S.PropertyDecl]:
    """Parse an agent-produced block of property statements (no file
    header); broken statements are kept with their raw source."""
    return parse_properties_with_recovery(text, memo=memo)[0].properties
