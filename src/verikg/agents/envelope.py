"""Prompt envelopes and shape-tagged responses.

Context sections render in a fixed order (requirement, spec fragment,
signal table, rulebook excerpt, prior code, diagnostics) so replay digests
are stable across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring

SECTION_ORDER = (
    "requirement",
    "spec_fragment",
    "signal_table",
    "rulebook",
    "prior_code",
    "diagnostics",
)

DEFAULT_CONTEXT_BUDGET = 16000  # characters of rendered context


class ResponseShape(Enum):
    ANALYSIS = "analysis"
    CODE_PATCH = "code_patch"
    VERDICT = "verdict"
    PROPERTY_BLOCK = "property_block"


@dataclass
class PromptEnvelope:
    role: str
    step_id: str
    context: list[tuple[str, str]]
    expected_shape: ResponseShape

    @classmethod
    def build(cls, role: str, step_id: str, shape: ResponseShape,
              **sections: str) -> "PromptEnvelope":
        """Order sections canonically and truncate to the context budget."""
        unknown = set(sections) - set(SECTION_ORDER)
        if unknown:
            raise ValueError(f"unknown context sections: {sorted(unknown)}")
        ordered = [(name, sections[name]) for name in SECTION_ORDER
                   if name in sections and sections[name]]
        if ordered:
            per_section = max(DEFAULT_CONTEXT_BUDGET // len(ordered), 200)
            ordered = [
                (name, text if len(text) <= per_section
                 else text[:per_section] + "\n...[truncated]")
                for name, text in ordered
            ]
        return cls(role, step_id, ordered, shape)

    def render(self) -> str:
        parts = []
        for name, text in self.context:
            parts.append(f"## {name}\n{text}")
        return "\n\n".join(parts)

    def digest(self) -> str:
        """sha256 (hex) of the canonical JSON, UTF-8 encoded, of
        {"context": [[name, text], ...], "expected_shape", "role", "step_id"},
        built from pieces: each string quoted by the C string encoder."""
        parts = [b'{"context":[']
        for i, (name, text) in enumerate(self.context):
            parts += (b",[" if i else b"[", _quoted(name), b",", _quoted(text), b"]")
        parts += (b'],"expected_shape":', _quoted(self.expected_shape.value),
                  b',"role":', _quoted(self.role),
                  b',"step_id":', _quoted(self.step_id), b"}")
        return hashlib.sha256(b"".join(parts)).hexdigest()


def _quoted(s: str) -> bytes:
    """`s` as a JSON string with non-ASCII kept, UTF-8 encoded."""
    return encode_basestring(s).encode("utf-8")


@dataclass
class AgentResponse:
    role: str
    step_id: str
    shape: ResponseShape
    payload: object  # str, or {"approve": bool, "reasons": [...]} for verdicts

    def to_doc(self) -> dict:
        return {
            "role": self.role,
            "step_id": self.step_id,
            "shape": self.shape.value,
            "payload": self.payload,
        }

    @classmethod
    def from_doc(cls, d: dict) -> "AgentResponse":
        return cls(d["role"], d["step_id"], ResponseShape(d["shape"]), d["payload"])


def parse_payload(shape: ResponseShape, text: str):
    """Interpret raw backend text under the declared shape.

    Raises ValueError when the text cannot be read as that shape; callers
    surface this as a protocol error.
    """
    if shape is ResponseShape.ANALYSIS:
        return text
    if shape is ResponseShape.VERDICT:
        head = text.strip().lower()
        if head == "approve" or head.startswith("approve"):
            return {"approve": True, "reasons": []}
        if head.startswith("reject"):
            reasons = text.strip()[len("reject"):].lstrip(" :").strip()
            return {"approve": False,
                    "reasons": [r.strip() for r in reasons.split(";") if r.strip()]}
        raise ValueError(f"verdict must start with approve/reject: {text[:80]!r}")
    if shape in (ResponseShape.CODE_PATCH, ResponseShape.PROPERTY_BLOCK):
        if not text.strip():
            raise ValueError("empty code payload")
        return text
    raise ValueError(f"unhandled shape {shape}")
