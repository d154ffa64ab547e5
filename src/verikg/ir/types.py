"""Typed IR artifact records.

One record class per artifact row; a RunBundle collects one collection per
artifact kind plus the run context. Their JSON document form is
`verikg.codec`'s: each field under its own (snake_case) name, an enum by
its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from verikg.codec import Record, from_doc, to_doc
from verikg.rtl.ast import DesignModel


def make_id(prefix: str, n: int) -> str:
    """REQ-001 style identifiers, zero-padded to 3 digits."""
    return f"{prefix}-{n:03d}"


class Category(Enum):
    FUNCTIONAL = "functional"
    TIMING = "timing"
    INTERFACE = "interface"
    SAFETY = "safety"


class Priority(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class PropKind(Enum):
    ASSERTION = "assertion"
    ASSUMPTION = "assumption"
    COVER = "cover"


class PropStatus(Enum):
    ACTIVE = "active"
    DISABLED = "disabled"


class LinkKind(Enum):
    DERIVES_FROM = "derives_from"
    VALIDATES = "validates"
    PROVES = "proves"
    FAILS = "fails"
    COVERS = "covers"


class ResultStatus(Enum):
    PROVEN = "proven"
    CEX = "cex"
    VACUOUS = "vacuous"
    BOUNDED = "bounded"
    ERROR = "error"


class RootCause(Enum):
    RTL_BUG = "rtl_bug"
    OVER_SPECIFICATION = "over_specification"
    MISSING_ASSUMPTION = "missing_assumption"
    UNDER_SPECIFICATION = "under_specification"


class LoopKind(Enum):
    SYNTAX = "syntax"
    CEX = "cex"
    COVERAGE = "coverage"


class AttemptOutcome(Enum):
    FIXED = "fixed"
    RETRY = "retry"
    DISABLED = "disabled"


class DeadCodeClass(Enum):
    DEFENSIVE = "defensive"
    GAP = "gap"


# Repair attempts a property gets per loop kind, spanning loop invocations.
MAX_ATTEMPTS = 3


@dataclass
class AttemptNote(Record):
    loop_kind: LoopKind
    attempt_no: int  # 1..MAX_ATTEMPTS
    diagnosis: str
    patch_summary: str
    outcome: AttemptOutcome


@dataclass
class SpecChunk(Record):
    chunk_id: str
    heading_path: list[str]
    text: str
    semantic_tags: list[str]
    order_index: int


@dataclass
class Requirement(Record):
    req_id: str
    text: str
    category: Category
    priority: Priority
    source_chunks: list[str]


@dataclass
class TestPlanEntry(Record):
    req_id: str
    observable_signals: list[str]
    stimulus: str
    expected_response: str
    timing_constraint: str | None = None


@dataclass
class PropertyRecord(Record):
    prop_id: str
    req_ids: list[str]
    kind: PropKind
    sva_text: str
    line_span: tuple[int, int]
    status: PropStatus = PropStatus.ACTIVE
    attempt_history: list[AttemptNote] = field(default_factory=list)


@dataclass
class TraceLink(Record):
    src_id: str
    dst_id: str
    link_kind: LinkKind


@dataclass
class FormalResult(Record):
    result_id: str
    prop_id: str
    status: ResultStatus
    proof_depth: int | None = None
    runtime_ms: int = 0  # deterministic logical cost, see README
    artifact_path: str | None = None
    external: bool = False
    note: str | None = None  # e.g. an unmapped external status, retained


@dataclass
class CexCase(Record):
    cex_id: str
    prop_id: str
    vcd_path: str
    failure_time: int
    failure_line: int
    attempts: list[AttemptNote] = field(default_factory=list)
    root_cause: RootCause | None = None
    note: str | None = None  # e.g. missing_artifact, consumes no attempt


@dataclass
class CoverageMetrics(Record):
    run_ref: str
    reachable_pct: float
    covered_statements: list[str]
    unreachable_statements: list[str]
    dead_code: list[tuple[str, DeadCodeClass]] = field(default_factory=list)
    vacuity_count: int = 0
    proof_core_ratio: float | None = None  # pass-through only, never computed
    partial: bool = False


@dataclass
class RunContext(Record):
    run_id: str
    artifact_paths: dict[str, str] = field(default_factory=dict)
    iteration_counts: dict[str, int] = field(default_factory=dict)
    tool_version: str = ""
    created_at: str = ""  # ISO-8601 UTC
    config_snapshot: dict = field(default_factory=dict)


# Kind name -> Table-style artifact file name. The graph exports are included
# so all twelve artifact kinds are addressable by validate_artifact.
ARTIFACT_FILE_NAMES = {
    "spec_chunks": "spec_chunks.json",
    "requirements": "requirements.json",
    "testplan": "testplan.json",
    "design_model": "design_model.json",
    "properties": "properties.json",
    "tracelinks": "tracelinks.json",
    "formal_results": "formal_results.json",
    "cex_cases": "cex_cases.json",
    "coverage_metrics": "coverage_metrics.json",
    "run_context": "run_context.json",
    "nodes": "nodes.csv",
    "edges": "edges.csv",
}

ARTIFACT_KINDS = tuple(ARTIFACT_FILE_NAMES)

_COLLECTION_TYPES = {
    "spec_chunks": list[SpecChunk],
    "requirements": list[Requirement],
    "testplan": list[TestPlanEntry],
    "design_model": DesignModel,
    "properties": list[PropertyRecord],
    "tracelinks": list[TraceLink],
    "formal_results": list[FormalResult],
    "cex_cases": list[CexCase],
    "coverage_metrics": list[CoverageMetrics],
}


@dataclass
class RunBundle:
    """One verification run's complete set of typed artifacts.

    A collection set to None is absent from the run (distinct from present
    but empty).
    """

    context: RunContext
    spec_chunks: list[SpecChunk] | None = None
    requirements: list[Requirement] | None = None
    testplan: list[TestPlanEntry] | None = None
    design_model: DesignModel | None = None
    properties: list[PropertyRecord] | None = None
    tracelinks: list[TraceLink] | None = None
    formal_results: list[FormalResult] | None = None
    cex_cases: list[CexCase] | None = None
    coverage_metrics: list[CoverageMetrics] | None = None

    COLLECTION_KINDS = tuple(_COLLECTION_TYPES)  # the content hash's order

    def present_kinds(self) -> list[str]:
        return [k for k in self.COLLECTION_KINDS if getattr(self, k) is not None]

    def collection_doc(self, kind: str):
        value = getattr(self, kind)
        return None if value is None else to_doc(value)

    @staticmethod
    def collection_from_doc(kind: str, doc):
        return from_doc(_COLLECTION_TYPES[kind], doc)
