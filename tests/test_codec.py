"""The one document codec (`verikg.codec`) against the hand-written codecs
it replaced (`tests/reference_codec.py`): the same documents, a lossless
round trip through JSON, and the same rule for which keys may be absent."""

import dataclasses
import json
import random

import pytest

import reference_codec as ref
import reference_walkers
from oracles import gen_design_source
from test_ir_store import make_bundle, random_bundle
from verikg import codec
from verikg.ir import types as T
from verikg.ir.validate import validate_artifact
from verikg.rtl import ast as rtl
from verikg.rtl.parser import parse_rtl

FULL_DESIGN = """module leaf #(parameter W = 2) (input clk, input [W-1:0] d, output [W-1:0] q);
  reg [W-1:0] r;
  assign q = r;
  always @(posedge clk) r <= d;
endmodule

module top (input clk, input rst, input [1:0] a, output [3:0] y);
  localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2;
  reg [1:0] st;
  reg [3:0] r;
  wire [1:0] q;
  assign y[3:2] = {a[1], q[0]};
  assign y[1:0] = r[1:0];
  leaf #(.W(2)) u0 (.clk(clk), .d(a ^ st), .q(q));
  always @(posedge clk)
    if (rst) begin
      st <= S0;
      r <= 4'd0;
    end else begin
      case (st)
        S0: st <= S1;
        S1, S2: begin
          st <= S0;
          r[3:2] <= (a == 2'd3) ? ~a : -a;
        end
        default: st <= S0;
      endcase
    end
endmodule
"""


def full_bundle() -> T.RunBundle:
    """A bundle with every record class, every optional field set."""
    b = make_bundle(2, 2)
    b.context.artifact_paths = {"requirements": "requirements.json"}
    b.context.iteration_counts = {"cex": 2, "coverage": 1}
    b.context.config_snapshot = {"max_depth": 9, "rtl_paths": ["a.v"]}
    b.testplan = [T.TestPlanEntry("REQ-001", ["a", "y"], "pulse a", "y rises",
                                  timing_constraint="within 2 cycles")]
    note = T.AttemptNote(T.LoopKind.CEX, 1, "reset edge", "added disable iff",
                         T.AttemptOutcome.FIXED)
    b.properties[0].attempt_history = [note]
    b.formal_results = [
        T.FormalResult("RES-001", "PROP-001", T.ResultStatus.CEX, proof_depth=3,
                       runtime_ms=41, artifact_path="artifacts/PROP-001.vcd",
                       external=True, note="sby: FAIL"),
        T.FormalResult("RES-002", "PROP-002", T.ResultStatus.PROVEN, 5, 12)]
    b.cex_cases = [T.CexCase("CEX-001", "PROP-001", "artifacts/PROP-001.vcd", 3, 4,
                             [note], T.RootCause.MISSING_ASSUMPTION, "kept")]
    b.coverage_metrics = [T.CoverageMetrics(
        "self", 50.0, ["S1"], ["S2"], [("S2", T.DeadCodeClass.GAP)],
        vacuity_count=1, proof_core_ratio=0.25, partial=True)]
    dm = parse_rtl(FULL_DESIGN)
    assert isinstance(dm, rtl.DesignModel) and dm.fsms, dm
    dm.top = "top"
    b.design_model = dm
    return b


def _json(doc):
    return json.loads(json.dumps(doc))


def _ref_doc(x):
    if isinstance(x, list):
        return [_ref_doc(v) for v in x]
    return ref.CODECS[type(x)][0](x)


def _ref_load(tp, doc):
    if isinstance(doc, list):
        return [ref.CODECS[tp][1](d) for d in doc]
    return ref.CODECS[tp][1](doc)


def _item_type(bundle: T.RunBundle, kind: str) -> type:
    value = getattr(bundle, kind)
    return type(value[0]) if isinstance(value, list) else type(value)


def _assert_like_reference(bundle: T.RunBundle) -> None:
    for kind in bundle.present_kinds():
        value = getattr(bundle, kind)
        doc = bundle.collection_doc(kind)
        assert doc == _ref_doc(value), kind
        assert T.RunBundle.collection_from_doc(kind, _json(doc)) == value, kind
        if value:
            assert _ref_load(_item_type(bundle, kind), _json(doc)) == value, kind
    ctx = bundle.context
    assert ctx.to_doc() == ref.run_context_to_doc(ctx)
    assert T.RunContext.from_doc(_json(ctx.to_doc())) == ctx


def test_ir_documents_match_the_reference_on_random_bundles():
    rng = random.Random(1)  # criterion 01's bundles
    for _ in range(100):
        _assert_like_reference(random_bundle(rng))
    _assert_like_reference(full_bundle())


def _designs():
    rng = random.Random(21)
    for _ in range(60):
        yield gen_design_source(rng)
    for _ in range(60):
        yield reference_walkers.gen_stmt_design(rng)
    yield FULL_DESIGN


def test_design_documents_match_the_reference():
    concats = part_selects = 0
    for source in _designs():
        dm = parse_rtl(source)
        assert isinstance(dm, rtl.DesignModel), source
        doc = dm.to_doc()
        assert doc == ref.design_model_to_doc(dm), source
        assert rtl.DesignModel.from_doc(_json(doc)) == dm, source
        assert ref.design_model_from_doc(_json(doc)) == dm, source
        text = json.dumps(doc)
        concats += '["cat"' in text
        part_selects += '"sel": [[' in text
    assert concats >= 20 and part_selects >= 1


@pytest.mark.parametrize("e", [
    rtl.Concat((rtl.Id("a"), rtl.Select("b", rtl.Lit(3, None), rtl.Lit(1, None)))),
    rtl.Concat((rtl.Concat((rtl.Lit(1, 1),)), rtl.Unary("~", rtl.Id("c")))),
    rtl.Select("r", rtl.Binary("-", rtl.Id("W"), rtl.Lit(1, None)), rtl.Lit(0, None)),
    rtl.Ternary(rtl.Binary("==", rtl.Id("s"), rtl.Lit(2, 2)),
                rtl.Concat((rtl.Id("x"), rtl.Id("y"))), rtl.Lit(0, 2)),
])
def test_expressions_match_the_reference(e):
    doc = codec.to_doc(e)
    assert doc == ref.expr_to_json(e)
    assert codec.from_doc(rtl.Expr, _json(doc)) == e
    assert ref.expr_from_json(_json(doc)) == e


# The keys a document may leave out: the fields whose default is None.
OPTIONAL_KEYS = {
    ("TestPlanEntry", "timing_constraint"),
    ("FormalResult", "proof_depth"),
    ("FormalResult", "artifact_path"),
    ("FormalResult", "note"),
    ("CexCase", "root_cause"),
    ("CexCase", "note"),
    ("CoverageMetrics", "proof_core_ratio"),
    ("DesignModel", "top"),
    ("Port", "msb"),
    ("Port", "lsb"),
    ("Signal", "msb"),
    ("Signal", "lsb"),
    ("Param", "expr"),
    ("IfStmt", "else_line"),
    ("StatementRef", "detail"),
}


def _records(value, doc):
    """Each (record, its dict) pair of a document, nested records included;
    expression nodes are lists, not dicts, and are not records here."""
    if isinstance(doc, dict) and dataclasses.is_dataclass(value):
        yield value, doc
        for f in dataclasses.fields(value):
            yield from _records(getattr(value, f.name), doc[f.name])
    elif isinstance(doc, dict):
        for k, v in value.items():
            yield from _records(v, doc[k])
    elif isinstance(doc, list) and isinstance(value, (list, tuple)):
        for v, d in zip(value, doc):
            yield from _records(v, d)


def _load(kind, doc):
    if kind == "run_context":
        return T.RunContext.from_doc(doc)
    return T.RunBundle.collection_from_doc(kind, doc)


def test_only_keys_whose_default_is_none_may_be_absent():
    b = full_bundle()
    docs = {k: _json(b.collection_doc(k)) for k in b.present_kinds()}
    docs["run_context"] = _json(b.context.to_doc())
    seen_classes, optional = set(), set()
    for kind, doc in docs.items():
        value = b.context if kind == "run_context" else getattr(b, kind)
        for record, d in _records(value, doc):
            cls = type(record).__name__
            seen_classes.add(cls)
            for key in list(d):
                kept = d.pop(key)
                report = validate_artifact(doc, kind)
                parse_errors = [v for v in report.violations
                                if v.message.startswith("parse:")]
                if (cls, key) in OPTIONAL_KEYS:
                    assert not parse_errors, (cls, key, str(report))
                    if kept is not None:
                        optional.add((cls, key))
                    loaded = _load(kind, doc)
                    d[key] = None
                    assert loaded == _load(kind, doc), (cls, key)
                else:
                    assert parse_errors, (cls, key, str(report))
                d[key] = kept
            assert _load(kind, doc) == value
    assert optional == OPTIONAL_KEYS
    assert seen_classes == {
        "AttemptNote", "SpecChunk", "Requirement", "TestPlanEntry",
        "PropertyRecord", "TraceLink", "FormalResult", "CexCase",
        "CoverageMetrics", "RunContext", "DesignModel", "ModuleDecl", "Port",
        "Signal", "Param", "Instance", "ContAssign", "AlwaysBlock",
        "SeqAssign", "IfStmt", "CaseStmt", "CaseArm", "FsmDesc",
        "StatementRef"}


@pytest.mark.parametrize("kind, doc", [
    ("properties", [{"prop_id": "PROP-001", "req_ids": [], "kind": "assertion",
                     "sva_text": "x", "line_span": [1], "status": "active",
                     "attempt_history": []}]),
    ("coverage_metrics", [{"run_ref": "self", "reachable_pct": 0.0,
                           "covered_statements": [], "unreachable_statements": [],
                           "dead_code": [["S1"]], "vacuity_count": 0,
                           "partial": False}]),
    ("design_model", {"modules": [{"name": "m", "ports": [], "signals": [],
                                   "parameters": [], "instances": [],
                                   "assigns": [{"target": "y", "sel": None,
                                                "rhs": ["mul", ["id", "a"]],
                                                "stmt_id": "S1", "line": 1}],
                                   "always_blocks": [], "line": 1}],
                      "fsms": [], "statements": []}),
    ("design_model", {"modules": [{"name": "m", "ports": [], "signals": [],
                                   "parameters": [], "instances": [], "assigns": [],
                                   "always_blocks": [{"clock": "clk", "line": 1,
                                                      "body": [{"kind": "while"}]}],
                                   "line": 1}],
                      "fsms": [], "statements": []}),
    ("formal_results", [{"result_id": "RES-001", "prop_id": "PROP-001",
                         "status": "maybe", "runtime_ms": 0, "external": False}]),
    ("formal_results", [{"result_id": "RES-001", "prop_id": "PROP-001",
                         "status": "proven", "proof_depth": "deep",
                         "runtime_ms": 0, "external": False}]),
    ("properties", [{"prop_id": "PROP-001", "req_ids": [], "kind": "assertion",
                     "sva_text": "x", "line_span": ["1", "2"], "status": "active",
                     "attempt_history": []}]),
])
def test_malformed_documents_are_parse_violations(kind, doc):
    """A wrong-length pair, an unknown expression tag or statement kind, an
    unknown enum value, a scalar of the wrong type: reported, not raised."""
    report = validate_artifact(doc, kind)
    assert [v.message.split(":")[0] for v in report.violations] == ["parse"], str(report)
