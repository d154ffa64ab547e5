"""Backend boundary: scripted rules, recorded-transcript replay, and a live
chat-completion client (documented in the README) that posts through the
standard library's `urllib.request`."""

from __future__ import annotations

import fnmatch
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

from verikg.agents.envelope import AgentResponse, PromptEnvelope, parse_payload
from verikg.agents.roles import ROLE_NAMES, system_instructions
from verikg.codec import pretty_json


class ProtocolError(Exception):
    def __init__(self, message: str, digest: str | None = None, raw: str | None = None):
        super().__init__(message)
        self.digest = digest
        self.raw = raw


class Backend(Protocol):
    def send(self, env: PromptEnvelope) -> AgentResponse:  # pragma: no cover
        ...


@dataclass
class ScriptedRule:
    role: str
    step_pattern: str  # fnmatch pattern over step_id
    respond: Callable[[PromptEnvelope], str]


class ScriptedBackend:
    """Deterministic rule table: first rule whose (role, step pattern)
    matches answers the envelope."""

    def __init__(self, rules: list[ScriptedRule]):
        self.rules = rules
        self.calls = 0

    def send(self, env: PromptEnvelope) -> AgentResponse:
        self.calls += 1
        if env.role not in ROLE_NAMES:
            raise ProtocolError(f"unknown role {env.role!r}", env.digest())
        for rule in self.rules:
            if rule.role == env.role and fnmatch.fnmatch(env.step_id, rule.step_pattern):
                text = rule.respond(env)
                try:
                    payload = parse_payload(env.expected_shape, text)
                except ValueError as exc:
                    raise ProtocolError(f"scripted response failed shape parse: {exc}",
                                        env.digest(), text) from exc
                return AgentResponse(env.role, env.step_id, env.expected_shape, payload)
        raise ProtocolError(
            f"no scripted rule for role={env.role!r} step={env.step_id!r}",
            env.digest())


@dataclass
class Transcript:
    run_id: str = ""
    created_at: str = ""
    entries: list[tuple[str, AgentResponse]] = field(default_factory=list)

    def to_doc(self) -> dict:
        return {
            "run_id": self.run_id,
            "created_at": self.created_at,
            "entries": [{"digest": d, "response": r.to_doc()} for d, r in self.entries],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Transcript":
        return cls(doc.get("run_id", ""), doc.get("created_at", ""),
                   [(e["digest"], AgentResponse.from_doc(e["response"]))
                    for e in doc["entries"]])

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.render_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "Transcript":
        return cls.from_doc(json.loads(Path(path).read_text(encoding="utf-8")))

    def render_bytes(self) -> bytes:
        return (pretty_json(self.to_doc(), ascii=True) + "\n").encode("utf-8")


class RecordingBackend:
    """Wraps any backend and records (digest, response) pairs."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.transcript = Transcript()

    def send(self, env: PromptEnvelope) -> AgentResponse:
        response = self.inner.send(env)
        self.transcript.entries.append((env.digest(), response))
        return response


class ReplayBackend:
    """Answers envelopes from a recorded transcript, keyed by digest."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript
        self._by_digest: dict[str, AgentResponse] = {}
        for digest, response in transcript.entries:
            self._by_digest.setdefault(digest, response)
        self.calls = 0

    def send(self, env: PromptEnvelope) -> AgentResponse:
        self.calls += 1
        digest = env.digest()
        hit = self._by_digest.get(digest)
        if hit is None:
            raise ProtocolError(f"replay miss for envelope digest {digest}", digest)
        return AgentResponse(env.role, env.step_id, env.expected_shape, hit.payload)


class LiveBackend:
    """One chat-completion request per envelope.

    Request: POST {url} with {"model", "messages": [system, user]}; the
    response's first choice message content is parsed under the expected
    shape. Transport failures retry with exponential backoff (3 tries);
    shape-parse failures raise ProtocolError carrying the raw text.
    """

    def __init__(self, url: str, model: str, api_key: str | None = None,
                 transport: Callable | None = None, sleep: Callable = time.sleep,
                 timeout: float = 60.0):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.sleep = sleep
        self.transport = transport or self._default_transport

    def _default_transport(self, url: str, payload: dict, headers: dict) -> dict:
        """POST `payload` as JSON; an HTTP error status raises."""
        import urllib.request  # here: it loads http and ssl, which only a live run needs

        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"), headers=headers,
            method="POST")
        with urllib.request.urlopen(request, timeout=self.timeout) as resp:
            return json.loads(resp.read())

    def send(self, env: PromptEnvelope) -> AgentResponse:
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_instructions(env.role)},
                {"role": "user", "content": env.render()},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(3):
            try:
                doc = self.transport(self.url, payload, headers)
                break
            except Exception as exc:  # transport failure
                last_error = exc
                if attempt < 2:
                    self.sleep(2 ** attempt)
        else:
            raise ProtocolError(f"transport failed after 3 tries: {last_error}",
                                env.digest())
        try:
            text = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed completion response: {exc}",
                                env.digest(), str(doc)[:500]) from exc
        try:
            parsed = parse_payload(env.expected_shape, text)
        except ValueError as exc:
            raise ProtocolError(f"response failed shape parse: {exc}",
                                env.digest(), text) from exc
        return AgentResponse(env.role, env.step_id, env.expected_shape, parsed)
