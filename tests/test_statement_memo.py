"""The run-scoped statement memo: a compile through it equals an uncached
compile, it is scoped to one run, and shared bodies are never changed.
Also a metamorphic check of whole runs: renaming signals keeps verdicts."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gen_design_source, gen_property_source
from test_front_end import _PROPERTY_CORPUS, _edits, _mutate
from test_pipeline import fifo_config
from test_syntax_loop import loop_setup, refusing_backend
from verikg.agents.common import Workspace
from verikg.agents.syntax_loop import run_syntax_loop
from verikg.ir import types as T
from verikg.ir.store import load_run
from verikg.kg import SignalIndex, build_signal_index
from verikg.pipeline import RunConfig, run_all
from verikg.rtl.elaborate import elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind, compile_properties
from verikg.sva.emit import emit_properties
from verikg.sva.memo import StatementMemo
from verikg.sva.parser import parse_properties_with_recovery

# The signals the property corpus reads: r0 and i0 one bit, r1 two bits.
_DESIGN = """module duv(input clk, input i0);
  reg r0;
  reg [1:0] r1;
  always @(posedge clk) begin
    r0 <= i0;
    r1 <= r1 + 2'd1;
  end
endmodule
"""
_DM = parse_rtl(_DESIGN)
_NET = elaborate(_DM, "duv")
_IDX = SignalIndex(readable=_NET.readable)
for _name, _width in _NET.widths.items():
    _IDX.add(_name, _width)


def _emitted(source: str) -> str:
    pf, _diags = parse_properties_with_recovery(source)
    return emit_properties(pf)


# Hand-written files first, then the same files as the compile emits them
# (one statement a line, each after its `// property:` marker).
_SOURCES = _PROPERTY_CORPUS + [_emitted(s) for s in _PROPERTY_CORPUS]


def _compile(source: str, memo: StatementMemo | None):
    """Everything a compile of `source` gives: the parse (decls with their
    lines and raw source, the line map, macros, default clock), every
    diagnostic in order, the bound properties and the bind errors; then the
    same for the emit-and-reparse compile of the parsed file."""
    pf, diags = parse_properties_with_recovery(source, memo=memo)
    parsed = (list(pf.properties), dict(pf.line_map), list(pf.macros),
              pf.default_clock, list(diags.items))
    bound, errors = bind(pf, _IDX, memo)
    c = compile_properties(pf, _IDX, memo)
    return (parsed, bound, errors.items, c.parsed.properties, c.parsed.line_map,
            c.diags.items, c.bound, c.errors.items)


_MEMOS: dict[int, StatementMemo] = {}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, len(_SOURCES) - 1), _edits)
def test_memo_compile_equals_uncached(which, edits):
    """One memo per source, warmed with the clean file and then with every
    mutant before this one; compiling through it changes nothing."""
    memo = _MEMOS.get(which)
    if memo is None:
        memo = _MEMOS[which] = StatementMemo()
        assert _compile(_SOURCES[which], memo) == _compile(_SOURCES[which], None)
    source = _mutate(_SOURCES[which], edits)
    assert _compile(source, memo) == _compile(source, None)


@pytest.mark.parametrize("source", [
    # a `;` in a comment inside a statement, and in a line comment before it
    "default clocking @(posedge clk); endclocking\n"
    "assert property (r0 /* ; */ |-> i0);\n// x ; y\nassert property (i0);\n",
    # a based literal takes the character after its `'`: here the `;`
    "assert property (@(posedge clk) r1 == 2';\nassert property (@(posedge clk) i0);\n",
    # a statement left open runs into the next one
    "assert property (@(posedge clk) i0\nassert property (@(posedge clk) r0);\n",
    # default clocking: missing `endclocking`, broken clock, twice
    "default clocking @(posedge clk);\nassert property (i0);\nassert property (r0);\n",
    "default clocking @(posedge) ;\nendclocking assert property (i0);\nassert property (r0);\n",
    "default clocking @(posedge clk); endclocking\n"
    "default clocking @(posedge clk); endclocking assert property (i0);\n",
    "default clocking @(posedge clk); endclocking$1 assert property (i0);\n",
    # labels, markers, serial ids, a duplicate id, a macro used too early
    "a: assert property (@(posedge clk) `M);\n`define M i0\n// property: a\n"
    "assert property (@(posedge clk) r0);\nassert property (@(posedge clk) r0);\n",
    # two statements on one line; a lexical error after clean statements
    "assert property (@(posedge clk) i0); assert property (@(posedge clk) i0);\n",
    "assert property (@(posedge clk) i0);\nassert property (@(posedge clk) i0 # 1);\n"
    "assert property (@(posedge clk) r0 \x01);\n",
])
def test_memo_compile_equals_uncached_on_edge_cases(source):
    memo = StatementMemo()
    for _ in range(2):  # cold, then warm
        assert _compile(source, memo) == _compile(source, None)
    # the same statements again, now at other lines and columns
    moved = "\n\n  " + source.replace("\n", "\n ")
    assert _compile(moved, memo) == _compile(moved, None)


def test_memo_applies_the_delay_bound():
    memo = StatementMemo()
    for hi in (3, S.MAX_DELAY_BOUND + 1, 3):
        source = f"assert property (@(posedge clk) i0 ##{hi} r0);\n"
        got = parse_properties_with_recovery(source, memo)
        assert got == parse_properties_with_recovery(source)
        assert got[1].has_errors() == (hi > S.MAX_DELAY_BOUND)


def test_unchanged_statements_are_not_lexed_again(monkeypatch):
    import verikg.sva.parser as parser

    lexed = []
    tokenize = parser.tokenize

    def counting(source, start=0, end=None, line=1):
        tokens = tokenize(source, start, end, line)
        lexed.append(len(tokens) - 1)
        return tokens

    monkeypatch.setattr(parser, "tokenize", counting)
    source = _emitted(_PROPERTY_CORPUS[0])
    memo = StatementMemo()
    parse_properties_with_recovery(source, memo=memo)
    cold = sum(lexed)
    lexed.clear()
    parse_properties_with_recovery(source, memo=memo)
    # only the default clocking statement is lexed again
    assert sum(lexed) == len("default clocking @ ( posedge clk ) ; endclocking".split())
    assert cold > 10 * sum(lexed)


# Statements that fail to parse: on a line after their first, at their
# first token, at their `;`, after a label and after a marker; one of two
# statements on a line, with its error on that line; with an error code
# other than SYNTAX.
_FAILING = [
    "assert property (@(posedge clk) i0\n  ##1 r0 r1);",
    "foo bar;",
    "assert property (@(posedge clk) i0;",
    "lab: assert property (@(posedge clk) r1 == );",
    "// property: m1\nassume property (@(posedge clk) ##[3:1] i0);",
    "assert property (@(posedge clk) r0); cover property (@(posedge clk) i0 |-> r0);",
    f"assert property (@(posedge clk) i0 ##{S.MAX_DELAY_BOUND + 1} r0);",
    "assert property (@(posedge clk) i0 |-> r0 |-> i0);",
    "assert property (@(posedge clk) r1 == 2'd1);",
]


def test_each_statement_is_lexed_once_in_a_run(monkeypatch):
    """Through one memo, a statement text is lexed once, whether it parsed
    or not; compiled again, and again at other lines and columns, the
    file gives what an uncached compile gives."""
    import verikg.sva.parser as parser
    from verikg.rtl.lexer import STATEMENT_RE

    source = "\n".join(_FAILING) + "\n"
    moved = "\n\n" + "".join(f"  {s}\n\n" for s in _FAILING).replace(
        "); cover", ");   cover")
    want = [_compile(s, None) for s in (source, source, moved)]
    _decls, line_map, _macros, _clock, diags = want[0][0]
    assert [(d.line, d.col, d.prop_id, d.code.value) for d in diags] == [
        (2, 10, "P001", "SYNTAX"), (3, 1, "P002", "SYNTAX"),
        (4, 35, "P003", "SYNTAX"), (5, 44, "lab", "SYNTAX"),
        (7, 33, "m1", "SYNTAX"), (8, 72, "P005", "SYNTAX"),
        (9, 36, "P006", "BOUND_EXCEEDED"), (10, 43, "P007", "NESTED_IMPLICATION")]
    assert (line_map["P001"], line_map["m1"]) == ((1, 2), (6, 7))

    lexed = []
    tokenize = parser.tokenize

    def counting(text, start=0, end=None, line=1):
        m = STATEMENT_RE.match(text, start, end)
        if m is not None:
            lexed.append(m["stmt"])
        return tokenize(text, start, end, line)

    monkeypatch.setattr(parser, "tokenize", counting)
    memo = StatementMemo()
    assert [_compile(s, memo) for s in (source, source, moved)] == want
    assert "foo bar;" in lexed
    assert len(lexed) == len(set(lexed))


def test_memo_binds_against_one_index():
    memo = StatementMemo()
    pf, _diags = parse_properties_with_recovery(_PROPERTY_CORPUS[0], memo=memo)
    bind(pf, _IDX, memo)
    with pytest.raises(ValueError):
        bind(pf, SignalIndex(), memo)


@pytest.mark.parametrize("line, rule, old, new", [
    ("assert property (bogus.count <= 2'd2);", "R1:", "bogus.count", "fifo.count"),
    ("assert property (FULL |-> count != 2'd0);", "R2:", "FULL |->", "`FULL |->"),
])
def test_rule_repair_leaves_memoised_body_untouched(fifo_model, line, rule, old, new):
    """R1 and R2 give the property a new body; the body the memo handed
    out for the statement's text stays as it was."""
    _b, kg, pf, records = loop_setup(fifo_model, [line])
    idx = build_signal_index(kg)
    memo = StatementMemo()
    compile_properties(pf, idx, memo)
    shared = {key: (stmt.body, S.render_body(stmt.body))
              for key, stmt in memo.statements.items()}
    assert any(old in text for _body, text in shared.values())
    report = run_syntax_loop(Workspace(kg, idx, fifo_model, refusing_backend(),
                                       memo=memo),
                             pf, records)
    assert records[0].attempt_history[0].patch_summary.startswith(rule)
    assert new in report.emitted_text
    for key, (body, text) in shared.items():
        assert memo.statements[key].body is body
        assert S.render_body(body) == text


def test_each_run_lexes_its_statements_again(fixtures_dir, tmp_path, monkeypatch):
    """The memo lives for one run: a second run on the same input lexes as
    many statements as the first. Within a run it saves work, and the run
    is the same without it."""
    import verikg.sva.parser as parser

    lexed = []
    tokenize = parser.tokenize

    def counting(source, start=0, end=None, line=1):
        tokens = tokenize(source, start, end, line)
        lexed.append(len(tokens))
        return tokens

    monkeypatch.setattr(parser, "tokenize", counting)
    spec = str(fixtures_dir / "fifo_overconstrained_spec.md")
    runs = []
    for i in range(2):
        lexed.clear()
        report = run_all(fifo_config(fixtures_dir, tmp_path / str(i), spec_path=spec,
                                     created_at="2026-01-01T00:00:00Z"))
        runs.append((report.run_id, sum(lexed)))
    assert runs[0] == runs[1]
    lexed.clear()
    monkeypatch.setattr(StatementMemo, "remember", lambda *args: None)
    report = run_all(fifo_config(fixtures_dir, tmp_path / "uncached", spec_path=spec,
                                 created_at="2026-01-01T00:00:00Z"))
    assert report.run_id == runs[0][0]
    assert sum(lexed) > runs[0][1]


# ---------------------------------------------------------------------------
# Metamorphic: renamed signals, same verdicts
# ---------------------------------------------------------------------------

_ASSERT_RE = re.compile(r"^assert property \((.*)\);\s*$", re.S)


def _design_and_spec(rng: random.Random) -> tuple[str, str, list[str]]:
    """A generated design, a spec of four annotated requirements over its
    signals, and the signal names (the clock excluded)."""
    source = gen_design_source(rng)
    one_bit = sorted(re.findall(r"input (\w+)", source) + re.findall(r"wire (\w+);", source))
    one_bit.remove("clk")
    two_bit = []
    for hi, name in re.findall(r"reg (?:\[(\d+):0\] )?(\w+);", source):
        (two_bit if hi == "1" else one_bit).append(name)
    reqs = []
    for n in range(1, 5):
        kind = "COVER" if rng.random() < 0.2 else "ASSERT"
        body = _ASSERT_RE.match(gen_property_source(rng, one_bit, two_bit)).group(1)
        reqs.append(f"REQ: Requirement {n} holds. {kind}: {body}")
    spec = "# Design\n\n## Behavior\n\n" + "\n".join(reqs) + "\n"
    return source, spec, one_bit + two_bit


def _rename(text: str, names: list[str], suffix: str) -> str:
    for name in names:
        text = re.sub(rf"\b{name}\b", name + suffix, text)
    return text


def _verdicts(tmp_path, name: str, source: str, spec: str) -> dict:
    rtl = tmp_path / f"{name}.v"
    rtl.write_text(source)
    spec_path = tmp_path / f"{name}.md"
    spec_path.write_text(spec)
    report = run_all(RunConfig(spec_path=str(spec_path), rtl_paths=[str(rtl)],
                               out_root=str(tmp_path / "runs"),
                               created_at="2026-01-01T00:00:00Z"))
    bundle = load_run(tmp_path / "runs", report.run_id)
    return {r.prop_id: (r.status, r.proof_depth) for r in bundle.formal_results}


@pytest.mark.parametrize("seed", range(8))
def test_renaming_signals_keeps_verdicts(seed, tmp_path):
    source, spec, names = _design_and_spec(random.Random(seed))
    want = _verdicts(tmp_path, "plain", source, spec)
    assert want and all(status is not T.ResultStatus.ERROR
                        for status, _depth in want.values())
    got = _verdicts(tmp_path, "renamed", _rename(source, names, "_x7"),
                    _rename(spec, names, "_x7"))
    assert got == want
