"""The two text forms of run bytes (`verikg.codec`) and the envelope
digest, each against the `json.dumps` formula it replaces."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verikg.agents.backend import RecordingBackend
from verikg.agents.envelope import SECTION_ORDER, PromptEnvelope, ResponseShape
from verikg.codec import canonical_json, pretty_json
from verikg.pipeline import RunConfig, run_all

FIXTURE_RUNS = {
    "fifo": ("fifo_spec.md", "fifo.v", "rulebook.txt"),
    "fifo_overconstrained": ("fifo_overconstrained_spec.md", "fifo.v", "rulebook.txt"),
    "gappy": ("gappy_spec.md", "gappy.v", None),
}


def dumps_pretty(doc, ascii: bool) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=ascii)


def dumps_digest(env: PromptEnvelope) -> str:
    doc = {
        "role": env.role,
        "step_id": env.step_id,
        "expected_shape": env.expected_shape.value,
        "context": [[n, t] for n, t in env.context],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def assert_same_bytes(doc) -> None:
    for ascii in (False, True):
        want = dumps_pretty(doc, ascii)
        assert pretty_json(doc, ascii=ascii) == want
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                             ensure_ascii=False)


@pytest.fixture(scope="module")
def fixture_runs(fixtures_dir, tmp_path_factory):
    """name -> (run directory, envelopes sent), for each golden fixture run."""
    out = {}
    mp = pytest.MonkeyPatch()
    sent: list[PromptEnvelope] = []
    send = RecordingBackend.send

    def recording_send(self, env):
        sent.append(env)
        return send(self, env)

    mp.setattr(RecordingBackend, "send", recording_send)
    mp.chdir(fixtures_dir)
    try:
        for name, (spec, rtl, rulebook) in FIXTURE_RUNS.items():
            root = tmp_path_factory.mktemp(name)
            report = run_all(RunConfig(spec_path=spec, rtl_paths=[rtl],
                                       rulebook_path=rulebook, out_root=str(root),
                                       backend="scripted",
                                       created_at="2026-01-01T00:00:00Z"))
            out[name] = (root / report.run_id, list(sent))
            sent.clear()
    finally:
        mp.undo()
    return out


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_writer_matches_json_on_fixture_run_documents(fixture_runs, name):
    run_dir, _sent = fixture_runs[name]
    paths = sorted(run_dir.glob("*.json"))
    assert "transcript.json" in {p.name for p in paths} and len(paths) >= 10
    for path in paths:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert_same_bytes(doc)
        ascii = path.name == "transcript.json"
        assert text == pretty_json(doc, ascii=ascii) + "\n", path.name


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_digests_match_json_on_fixture_run_envelopes(fixture_runs, name):
    run_dir, sent = fixture_runs[name]
    assert sent
    digests = [dumps_digest(env) for env in sent]
    assert [env.digest() for env in sent] == digests
    transcript = json.loads((run_dir / "transcript.json").read_text(encoding="utf-8"))
    assert [e["digest"] for e in transcript["entries"]] == digests


# Strings that need each kind of JSON escape, and text around them.
SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\r", "\b", "\f", "\x00", "\x01", "\x1f",
                           "\x7f", "\u2028", "\u2029", "\u00e9", "\ufeff", "\U0001F600"])
TEXT = st.lists(st.one_of(st.text(max_size=8), SPECIAL), max_size=6).map("".join)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-7, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")]))
INTS = st.one_of(st.integers(-10, 10), st.integers(-(2 ** 100), 2 ** 100))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(TEXT, kids, max_size=5),
        st.dictionaries(INTS, kids, max_size=3),
    ),
    max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TREES)
def test_writer_matches_json_on_generated_trees(doc):
    assert_same_bytes(doc)


def test_writer_matches_json_on_edge_values():
    for doc in ([], {}, [[]], [{}], {"": {}}, "", 0, -0.0, math.pi, True, None,
                [True, False, None, 2 ** 64, -(2 ** 64)],
                {"b": (1, [2, (3,)]), "a": {"z": [], "y": ()}},
                {3: "x", -1: "y", 10: "z"}):
        assert_same_bytes(doc)
    with pytest.raises(TypeError):
        pretty_json({"a": object()})
    with pytest.raises(TypeError):
        pretty_json({object(): 1})


ENVELOPES = st.builds(
    lambda role, step, shape, sections: PromptEnvelope.build(role, step, shape, **sections),
    TEXT, TEXT, st.sampled_from(list(ResponseShape)),
    st.dictionaries(st.sampled_from(SECTION_ORDER), TEXT))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ENVELOPES)
def test_digests_match_json_on_generated_envelopes(env):
    assert env.digest() == dumps_digest(env)
