import email.message
import io
import json
import urllib.request
import urllib.response

import pytest

from verikg.agents.backend import (
    LiveBackend,
    ProtocolError,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptedRule,
    Transcript,
)
from verikg.agents.envelope import PromptEnvelope, ResponseShape, parse_payload
from verikg.agents.generation import run_generation
from verikg.agents.roles import system_instructions
from verikg.agents.scripted import default_rules
from verikg.ir import types as T
from verikg.kg import build_signal_index
from verikg.pipeline import rebuild_graph


def env(role="sva_reviewer", step="gen/REQ-001/review/1",
        shape=ResponseShape.VERDICT, **sections):
    return PromptEnvelope.build(role, step, shape, **sections)


class TestEnvelope:
    def test_section_order_fixed(self):
        e = PromptEnvelope.build(
            "sva_author", "s", ResponseShape.ANALYSIS,
            diagnostics="d", requirement="r", signal_table="s")
        assert [name for name, _ in e.context] == \
            ["requirement", "signal_table", "diagnostics"]

    def test_digest_stable_and_sensitive(self):
        a = env(requirement="x")
        b = env(requirement="x")
        c = env(requirement="y")
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_digest_bytes_are_pinned(self):
        """The digest of sections that need JSON escapes, pinned from the
        formula `sha256(json.dumps({"context": [[name, text], ...],
        "expected_shape", "role", "step_id"}, sort_keys=True,
        separators=(",", ":"), ensure_ascii=False).encode("utf-8"))`."""
        e = PromptEnvelope.build(
            "sva_author", "gen/REQ-\u00e9/1", ResponseShape.PROPERTY_BLOCK,
            requirement="caf\u00e9 \U0001F600 \"quoted\" back\\slash",
            signal_table="line one\nline\ttwo",
            diagnostics="sep\u2028x \x01 \x1f end")
        pinned = "f3015e63042aaacf99067caca84dfcace737cb9fa0e0d25693a7fa832c369dd0"
        assert e.digest() == pinned

    def test_budget_truncates(self):
        e = PromptEnvelope.build("sva_author", "s", ResponseShape.ANALYSIS,
                                 budget=300, requirement="r" * 1000)
        assert len(e.context[0][1]) < 1000
        assert e.context[0][1].endswith("[truncated]")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            PromptEnvelope.build("sva_author", "s", ResponseShape.ANALYSIS,
                                 bogus="x")

    def test_verdict_parsing(self):
        assert parse_payload(ResponseShape.VERDICT, "approve")["approve"]
        rej = parse_payload(ResponseShape.VERDICT, "reject: weak; no reset")
        assert rej == {"approve": False, "reasons": ["weak", "no reset"]}
        with pytest.raises(ValueError):
            parse_payload(ResponseShape.VERDICT, "maybe")


class TestScripted:
    def test_rule_lookup(self):
        backend = ScriptedBackend([
            ScriptedRule("sva_reviewer", "gen/*", lambda e: "approve")])
        out = backend.send(env())
        assert out.payload["approve"] is True

    def test_no_rule_is_protocol_error(self):
        backend = ScriptedBackend([])
        with pytest.raises(ProtocolError):
            backend.send(env())

    def test_shape_misparse_is_protocol_error(self):
        backend = ScriptedBackend([
            ScriptedRule("sva_reviewer", "*", lambda e: "shrug")])
        with pytest.raises(ProtocolError):
            backend.send(env())


class TestReplay:
    def test_hit_returns_recorded_verbatim(self):
        inner = ScriptedBackend([
            ScriptedRule("sva_reviewer", "*", lambda e: "approve")])
        rec = RecordingBackend(inner)
        e = env()
        first = rec.send(e)
        replay = ReplayBackend(rec.transcript)
        again = replay.send(e)
        assert again.payload == first.payload

    def test_miss_names_digest(self):
        replay = ReplayBackend(Transcript())
        e = env()
        with pytest.raises(ProtocolError) as err:
            replay.send(e)
        assert e.digest() in str(err.value)

    def test_transcript_file_round_trip(self, tmp_path):
        inner = ScriptedBackend([
            ScriptedRule("sva_reviewer", "*", lambda e: "approve")])
        rec = RecordingBackend(inner)
        rec.send(env())
        rec.transcript.run_id = "r"
        path = tmp_path / "t.json"
        rec.transcript.save(path)
        loaded = Transcript.load(path)
        assert loaded.entries[0][0] == rec.transcript.entries[0][0]
        assert loaded.entries[0][1].payload == {"approve": True, "reasons": []}


class TestLive:
    def _compl(self, text):
        return {"choices": [{"message": {"content": text}}]}

    def test_success(self):
        calls = []

        def transport(url, payload, headers):
            calls.append((url, payload["model"],
                          payload["messages"][0]["role"]))
            return self._compl("approve")

        backend = LiveBackend("http://example/v1/chat", "m1",
                              api_key="k", transport=transport)
        out = backend.send(env())
        assert out.payload["approve"] is True
        assert calls == [("http://example/v1/chat", "m1", "system")]

    def test_transport_retries_then_protocol_error(self):
        attempts = []

        def transport(url, payload, headers):
            attempts.append(1)
            raise OSError("boom")

        backend = LiveBackend("http://x", "m", transport=transport,
                              sleep=lambda s: None)
        with pytest.raises(ProtocolError):
            backend.send(env())
        assert len(attempts) == 3

    def test_shape_parse_failure_carries_raw(self):
        backend = LiveBackend("http://x", "m",
                              transport=lambda u, p, h: self._compl("nah"),
                              sleep=lambda s: None)
        with pytest.raises(ProtocolError) as err:
            backend.send(env())
        assert err.value.raw == "nah"


@pytest.fixture
def stub_http():
    """Install an opener whose HTTP handler records each request and
    answers with the next queued (status, body); it opens no socket."""
    replies, requests = [], []

    class StubHandler(urllib.request.HTTPHandler):
        def http_open(self, req):
            requests.append(req)
            status, body = replies.pop(0)
            resp = urllib.response.addinfourl(
                io.BytesIO(body), email.message.Message(), req.full_url, status)
            resp.msg = "stub"
            return resp

    urllib.request.install_opener(urllib.request.build_opener(StubHandler()))
    yield replies, requests
    urllib.request.install_opener(None)


class TestLiveDefaultTransport:
    URL = "http://example/v1/chat"

    def _backend(self, sleeps):
        return LiveBackend(self.URL, "m1", api_key="k", sleep=sleeps.append,
                           timeout=7.0)

    def _ok(self, text):
        return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()

    def test_posts_the_json_body_and_headers(self, stub_http):
        replies, requests = stub_http
        replies.append(self._ok("approve"))
        e = env()
        out = self._backend([]).send(e)
        assert out.payload["approve"] is True
        [req] = requests
        assert (req.full_url, req.get_method(), req.timeout) == (self.URL, "POST", 7.0)
        assert json.loads(req.data) == {"model": "m1", "messages": [
            {"role": "system", "content": system_instructions(e.role)},
            {"role": "user", "content": e.render()}]}
        assert req.get_header("Content-type") == "application/json"
        assert req.get_header("Authorization") == "Bearer k"

    def test_http_error_status_retries_then_protocol_error(self, stub_http):
        replies, requests = stub_http
        replies += [(500, b"down"), (503, b"down"), self._ok("approve")]
        sleeps = []
        assert self._backend(sleeps).send(env()).payload["approve"] is True
        assert len(requests) == 3 and sleeps == [1, 2]
        replies += [(500, b"down")] * 3
        with pytest.raises(ProtocolError, match="transport failed after 3 tries"):
            self._backend([]).send(env())
        assert len(requests) == 6


def generation_setup(fifo_model, annotations):
    ctx = T.RunContext(run_id="20260808T000000Z-00000000",
                       tool_version="t", created_at="2026-08-08T00:00:00Z")
    chunks = [T.SpecChunk("CHUNK-001", ["Spec"], "body", [], 0)]
    reqs = [
        T.Requirement(T.make_id("REQ", i + 1), text, T.Category.FUNCTIONAL,
                      T.Priority.MEDIUM, ["CHUNK-001"])
        for i, text in enumerate(annotations)
    ]
    links = [T.TraceLink(r.req_id, "CHUNK-001", T.LinkKind.DERIVES_FROM)
             for r in reqs]
    bundle = T.RunBundle(context=ctx, spec_chunks=chunks, requirements=reqs,
                         tracelinks=links, design_model=fifo_model)
    kg = rebuild_graph(bundle)
    idx = build_signal_index(kg)
    return bundle, kg, idx, reqs


class TestGeneration:
    def test_zero_requirements(self, fifo_model):
        _b, kg, idx, _r = generation_setup(fifo_model, [])
        rec = RecordingBackend(ScriptedBackend(default_rules()))
        out = run_generation([], kg, fifo_model, "", rec, idx, "clk")
        assert out.records == []
        assert rec.transcript.entries == []
        assert "assert" not in out.emitted_text

    def test_property_count_matches_scripted_blocks(self, fifo_model):
        annotations = [
            "No overflow. ASSERT: count <= 2'd2",
            "Flags exclusive. ASSERT: !(full && empty) COVER: full",
        ]
        _b, kg, idx, reqs = generation_setup(fifo_model, annotations)
        out = run_generation(reqs, kg, fifo_model, "rules",
                             ScriptedBackend(default_rules()), idx, "clk")
        assert len(out.records) == 3  # one + two annotation blocks
        assert all(r.req_ids for r in out.records)
        validates = [l for l in out.links
                     if l.link_kind is T.LinkKind.VALIDATES]
        assert len(validates) == len(out.records)
        kinds = sorted(r.kind.value for r in out.records)
        assert kinds == ["assertion", "assertion", "cover"]

    def test_replay_reproduces_byte_identical_file(self, fifo_model):
        annotations = ["No overflow. ASSERT: count <= 2'd2"]
        _b, kg, idx, reqs = generation_setup(fifo_model, annotations)
        rec = RecordingBackend(ScriptedBackend(default_rules()))
        first = run_generation(reqs, kg, fifo_model, "rb", rec, idx, "clk")
        replay = ReplayBackend(rec.transcript)
        second = run_generation(reqs, kg, fifo_model, "rb", replay, idx, "clk")
        assert second.emitted_text == first.emitted_text

    def test_reviewer_deadlock_disables_with_note(self, fifo_model):
        rules = default_rules()
        rules.insert(0, ScriptedRule("sva_reviewer", "gen/*",
                                     lambda e: "reject: not convincing"))
        rules.insert(0, ScriptedRule("sva_patcher", "gen/*",
                                     lambda e: "assert property (full);"))
        _b, kg, idx, reqs = generation_setup(
            fifo_model, ["Weak. ASSERT: count <= 2'd2"])
        out = run_generation(reqs, kg, fifo_model, "",
                             ScriptedBackend(rules), idx, "clk")
        record = out.records[0]
        assert record.status is T.PropStatus.DISABLED
        assert record.attempt_history[0].outcome is T.AttemptOutcome.DISABLED
        assert "deadlock" in record.attempt_history[0].diagnosis
        assert record.sva_text  # last text retained

    def test_protocol_error_retries_once_then_aborts(self, fifo_model):
        from verikg.agents.common import PipelineAbort

        calls = []

        def flaky(e):
            calls.append(e.step_id)
            raise RuntimeError  # never reached; rule below raises instead

        rules = [ScriptedRule("sva_lead", "gen/*",
                              lambda e: calls.append(1) or "ok")]
        # author missing entirely -> protocol error, retried once, abort
        rules += [r for r in default_rules() if r.role == "spec_analyst"]
        _b, kg, idx, reqs = generation_setup(
            fifo_model, ["X. ASSERT: count <= 2'd2"])
        backend = ScriptedBackend(rules)
        with pytest.raises(PipelineAbort):
            run_generation(reqs, kg, fifo_model, "", backend, idx, "clk")
