"""Shared pipeline machinery: step execution with the retry contract and
context assembly from knowledge-graph neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass

from verikg.agents.backend import Backend, ProtocolError
from verikg.agents.envelope import AgentResponse, PromptEnvelope
from verikg.kg import ContextBundle, Graph, SignalIndex
from verikg.sva import ast as S
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


def render_signal_table(idx: SignalIndex, limit: int = 64) -> str:
    rows = [f"{path} [{width}]" for path, width
            in sorted(idx.path_widths.items())[:limit]]
    return "\n".join(rows)


def spec_fragment_text(g: Graph, ctx: ContextBundle) -> str:
    parts = []
    for node_id, _reason in ctx.members:
        node = g.nodes[node_id]
        if node.type == "spec_chunk":
            heading = " / ".join(node.attrs.get("heading_path", []))
            parts.append(f"[{node_id}] {heading}\n{node.attrs.get('text', '')}")
    return "\n\n".join(parts)


def sibling_property_text(g: Graph, ctx: ContextBundle, exclude: set[str]) -> str:
    parts = []
    for node_id, _reason in ctx.members:
        node = g.nodes[node_id]
        if node.type == "property" and node_id not in exclude:
            parts.append(f"// {node_id}\n{node.attrs.get('sva_text', '')}")
    return "\n".join(parts)


def requirement_text(g: Graph, req_id: str) -> str:
    node = g.nodes.get(req_id)
    if node is None or node.type != "requirement":
        return ""
    return f"[{req_id}] {node.attrs.get('text', '')}"


@dataclass
class ParsedBlock:
    decls: list[S.PropertyDecl]
    parse_errors: int


def parse_property_block(text: str) -> ParsedBlock:
    """Parse an agent-produced block of property statements (no file
    header); broken statements are kept with their raw source."""
    pf, diags = parse_properties_with_recovery(text)
    return ParsedBlock(pf.properties, len(diags.errors))
