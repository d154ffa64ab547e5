"""The shared front end: the tokenizer and the expression parser under the
RTL parser, the property parser and macro expansion.

Hostile literals must give a diagnostic, never a traceback. Byte-mutated
RTL and property files must give the same tokens, the same ASTs and the
same diagnostics as the reference front end in `independent_oracles.py`.
"""

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from independent_oracles import ref_tokenize, reference_front_end
from oracles import gen_design_source, gen_property_source
from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl.lexer import MAX_LITERAL_WIDTH, LexError, tokenize
from verikg.rtl.ast import render_depth, render_expr
from verikg.rtl.parser import MAX_EXPR_DEPTH, parse_rtl
from verikg.sva.parser import parse_properties_with_recovery

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Hostile literals
# ---------------------------------------------------------------------------

_RTL_PREFIX = "module m(input clk, output y);\n  assign y = "
_RTL = _RTL_PREFIX + "{lit};\nendmodule\n"
_PROP_PREFIX = "assert property (@(posedge clk) y == "
_PROP = _PROP_PREFIX + "{lit});\n"


@pytest.mark.parametrize("lit, message", [
    ("²", "unexpected character '²'"),
    ("١", "unexpected character '١'"),
    pytest.param("1" * 5000, "decimal literal of 5000 digits is too long",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no int-string conversion limit")),
    ("99999999999999999999'd1", f"literal width exceeds {MAX_LITERAL_WIDTH} bits"),
    ("9999999999'd1", f"literal width exceeds {MAX_LITERAL_WIDTH} bits"),
    (f"{MAX_LITERAL_WIDTH + 1}'d1", f"literal width exceeds {MAX_LITERAL_WIDTH} bits"),
    ("2'd4", "literal value 4 does not fit in 2 bits"),
    ("8'h" + "f" * 3000, "literal value of 12000 bits does not fit in 8 bits"),
    pytest.param("8'd" + "1" * 5000, "literal of 5000 digits is too long",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no int-string conversion limit"),
                 id="based-5000-digits"),
    pytest.param("8'd" + "1x" * 5000,
                 "bad digits '" + "1x" * 16 + "... (10000 digits)' for base 10",
                 id="based-10000-bad-digits"),
    ("8'd1x", "bad digits '1x' for base 10"),
])
@pytest.mark.parametrize("parser", ["rtl", "property"])
def test_hostile_literal_is_a_diagnostic(parser, lit, message):
    if parser == "rtl":
        result = parse_rtl(_RTL.format(lit=lit))
        col = len(_RTL_PREFIX.split("\n")[-1]) + 1
        assert isinstance(result, Diagnostics)
        diags = result
        line = 2
    else:
        _, diags = parse_properties_with_recovery(_PROP.format(lit=lit))
        col = len(_PROP_PREFIX) + 1
        line = 1
    assert [(d.line, d.col, d.message, d.code) for d in diags.errors] == \
        [(line, col, message, DiagCode.SYNTAX)]


@pytest.mark.parametrize("digits", ["1" * 5000, "1x" * 5000, "f" * 9000],
                         ids=["decimal", "bad", "hex"])
def test_based_literal_message_is_bounded(digits):
    """However long the digit string, the diagnostic quotes a bounded part
    of it and keeps the literal's line:col."""
    result = parse_rtl("module m(output y); assign y = 8'd" + digits + "; endmodule")
    [d] = result.errors
    assert (d.line, d.col) == (1, 32)
    assert len(d.message) < 100, d.message


def test_widest_literal_is_accepted():
    (tok, _eof) = tokenize(f"{MAX_LITERAL_WIDTH}'d1")
    assert (tok.kind, tok.value, tok.width) == ("NUMBER", 1, MAX_LITERAL_WIDTH)


# ---------------------------------------------------------------------------
# Deep nesting
# ---------------------------------------------------------------------------

_NESTED = {
    # kind: (the expression nested n deep, the column of the token that
    # opens level MAX_EXPR_DEPTH + 1, counted from the expression's start)
    "paren": (lambda n: "(" * n + "a" + ")" * n, MAX_EXPR_DEPTH + 1),
    "tilde": (lambda n: "~" * n + "a", MAX_EXPR_DEPTH),
    # the then-arm of the 100th `?:`, whose condition is at level 100
    "ternary": (lambda n: "a ? a : " * n + "a",
                (MAX_EXPR_DEPTH - 1) * len("a ? a : ") + len("a ? a")),
}


def _parse_expr_in(parser: str, expr: str):
    """The diagnostics of `expr` in an RTL assign or a property, and the
    column its first token has there."""
    if parser == "rtl":
        prefix = "  assign y = "
        result = parse_rtl(f"module m(input a, output y);\n{prefix}{expr};\nendmodule\n")
        return (result if isinstance(result, Diagnostics) else Diagnostics()), 2, len(prefix)
    prefix = "assert property ("
    _pf, diags = parse_properties_with_recovery(f"{prefix}{expr} |-> ##1 !a);\n")
    return diags, 1, len(prefix)


@pytest.mark.parametrize("n", [300, 5000])
@pytest.mark.parametrize("kind", sorted(_NESTED))
@pytest.mark.parametrize("parser", ["rtl", "property"])
def test_deep_nesting_is_a_diagnostic(parser, kind, n):
    """Nesting past the bound is one BOUND_EXCEEDED diagnostic at the token
    that opens the level past it, however deep the input goes."""
    nested, col = _NESTED[kind]
    diags, line, offset = _parse_expr_in(parser, nested(n))
    assert [(d.line, d.col, d.message, d.code) for d in diags.errors] == [
        (line, offset + col,
         f"expression nests deeper than {MAX_EXPR_DEPTH} levels",
         DiagCode.BOUND_EXCEEDED)]


@pytest.mark.parametrize("kind, deepest", [
    # as written: n parentheses open n + 1 levels
    ("paren", MAX_EXPR_DEPTH - 1),
    # as printed, `~(~(... ~a))` and `(a ? a : (a ? a : ...))` open two
    # levels per operator
    ("tilde", MAX_EXPR_DEPTH // 2),
    ("ternary", (MAX_EXPR_DEPTH - 1) // 2),
])
@pytest.mark.parametrize("parser", ["rtl", "property"])
def test_nesting_at_the_bound_parses_and_prints_back(parser, kind, deepest):
    nested, _col = _NESTED[kind]
    diags, _line, _offset = _parse_expr_in(parser, nested(deepest))
    assert not diags.errors
    diags, _line, offset = _parse_expr_in(parser, nested(deepest + 1))
    assert [(d.message, d.code) for d in diags.errors] == [
        (f"expression nests deeper than {MAX_EXPR_DEPTH} levels", DiagCode.BOUND_EXCEEDED)]
    # the printed form of what parsed is at the bound, and parses again
    pf, diags = parse_properties_with_recovery(f"assert property ({nested(deepest)});\n")
    (expr,) = [st.expr for st in pf.properties[0].body.consequent.steps]
    assert render_depth(expr) <= MAX_EXPR_DEPTH
    again, diags = parse_properties_with_recovery(f"assert property ({render_expr(expr)});\n")
    assert not diags.errors
    assert again.properties[0].body.consequent.steps[0].expr == expr


def nested_statements(kind: str, n: int) -> str:
    """A module whose always block nests n `if` or n `case` statements; the
    outermost is on line 5, column 5."""
    opens = "    if (d)\n" if kind == "if" else "    case (d) 1'd1:\n"
    closes = "" if kind == "if" else "    endcase\n" * n
    return ("module deep(input clk, input d, output q);\n  reg r;\n  assign q = r;\n"
            "  always @(posedge clk)\n" + opens * n + "      r <= d;\n" + closes
            + "endmodule\n")


# The deepest statement nesting that parses: an `if` opens one level, a
# `case` two (its own and its arm's).
STMT_BOUND = {"if": MAX_EXPR_DEPTH, "case": MAX_EXPR_DEPTH // 2}


@pytest.mark.parametrize("kind", sorted(STMT_BOUND))
def test_deep_statement_nesting_is_a_diagnostic(kind):
    """Statements nested past the bound give a BOUND_EXCEEDED diagnostic at
    the statement that opens the level past it, however deep the input goes,
    never a RecursionError."""
    deepest = STMT_BOUND[kind]
    assert not isinstance(parse_rtl(nested_statements(kind, deepest)), Diagnostics)
    for n in (deepest + 1, 2000):
        diags = parse_rtl(nested_statements(kind, n))
        assert isinstance(diags, Diagnostics)
        first = diags.errors[0]
        assert (first.line, first.col, first.message, first.code) == (
            5 + deepest, 5, f"statements nest deeper than {MAX_EXPR_DEPTH} levels",
            DiagCode.BOUND_EXCEEDED)
        assert [d.code for d in diags.errors].count(DiagCode.BOUND_EXCEEDED) == 1


# Each way to nest a statement in another: the opening text of one level and
# the closing text, if any.
_NESTINGS = {
    "if": ("    if (d)\n", ""),
    "if_else": ("    if (d) r <= d; else\n", ""),
    "if_begin": ("    if (d) begin\n", "    end\n"),
    "case": ("    case (d) 1'd1:\n", "    endcase\n"),
    "case_begin": ("    case (d) 1'd1: begin\n", "    end endcase\n"),
}


@pytest.mark.parametrize("n", [101, 2000])
@pytest.mark.parametrize("shape", sorted(_NESTINGS))
def test_statements_nested_past_the_bound_are_one_diagnostic(shape, n):
    """The RTL parser resumes after the whole `always` item that nests too
    deep, so none of its closers is a diagnostic of its own, and a malformed
    item after it is still reported."""
    opens, closes = _NESTINGS[shape]
    source = ("module deep(input clk, input d, output q);\n  reg r;\n  assign q = r;\n"
              "  always @(posedge clk)\n" + opens * n + "      r <= d;\n" + closes * n)
    diags = parse_rtl(source + "endmodule\n")
    assert [d.code for d in diags.errors] == [DiagCode.BOUND_EXCEEDED]
    diags = parse_rtl(source + "  assign = d;\nendmodule\n")
    assert [(d.line, d.code) for d in diags.errors][1:] == [
        (source.count("\n") + 1, DiagCode.SYNTAX)]


def test_parsing_goes_on_after_a_statement_nested_too_deep():
    """The recovering property parser keeps one expression parser for the
    whole file: a statement past the bound, as written or as printed, leaves
    no level open for the next one."""
    tilde, _col = _NESTED["tilde"]
    paren, _col = _NESTED["paren"]
    source = "".join(f"assert property ({e} |-> ##1 !a);\n" for e in [
        tilde(MAX_EXPR_DEPTH // 2 + 1), paren(MAX_EXPR_DEPTH), tilde(MAX_EXPR_DEPTH // 2)])
    pf, diags = parse_properties_with_recovery(source)
    assert [(d.line, d.code) for d in diags.errors] == [
        (1, DiagCode.BOUND_EXCEEDED), (2, DiagCode.BOUND_EXCEEDED)]
    assert [p.body is not None for p in pf.properties] == [False, False, True]


# ---------------------------------------------------------------------------
# Differential: the front end against the reference on byte-mutated sources
# ---------------------------------------------------------------------------

_PROPERTY_HEADER = (
    "// generated property file\n"
    "default clocking @(posedge clk); endclocking\n"
    "`define BUSY (r0 && !i0)\n"
    "/* a block\n   comment */\n"
)


# Operator chains without parentheses, across and within precedence levels.
_CHAINS = """module chains(input clk, input [3:0] a, input [3:0] b, output y);
  reg [3:0] r;
  wire w;
  assign w = a - b - 4'd1 + r == b & a | r ^ b && a < b || !a >= ~b;
  assign y = a + b < r - 1 ? a == b != w : a | b | r & a & b ^ r ^ a;
  always @(posedge clk)
    if (a <= b - r + a && r > 2'b1_0 || w)
      r <= {a[1:0], b[3]} - 4'hA + 8'd3;
endmodule
"""


def _rtl_corpus() -> list[str]:
    rng = random.Random(6)
    return [p.read_text() for p in sorted(FIXTURES.glob("*.v"))] + [_CHAINS] + \
        [gen_design_source(rng) for _ in range(6)]


def _property_corpus() -> list[str]:
    rng = random.Random(6)
    sources = []
    for _ in range(6):
        lines = [_PROPERTY_HEADER]
        for k in range(4):
            if rng.random() < 0.5:
                lines.append(f"// property: R{k}\n")
            lines.append(gen_property_source(rng, ["r0", "i0", "`BUSY"], ["r1"]))
        lines.append("c: cover property (r0 ##[1:2] $past(i0, 2) == 1'b1 || r1 - 1 - r1"
                     " < 2'd2 && r0 | i0 & r0 ^ i0);\n")
        sources.append("".join(lines))
    return sources


_RTL_CORPUS = _rtl_corpus()
_PROPERTY_CORPUS = _property_corpus()
_CORPUS = _RTL_CORPUS + _PROPERTY_CORPUS
# Bytes that start, end or split tokens, plus the first byte of a non-ASCII
# character; any other byte is drawn too.
_INTERESTING = b" \n\t'_/*`$#|-=<>()[]{};:,.?!~^&+0123456789bdhxzBDH\xc2"


def _mutate(source: str, edits: list[tuple[int, int, int]]) -> str:
    data = bytearray(source.encode())
    for where, op, byte in edits:
        i = where % (len(data) + 1)
        if op == 0:
            data.insert(i, byte)
        elif op == 1 and i < len(data):
            data[i] = byte
        elif i < len(data):
            del data[i]
    return data.decode("utf-8", errors="replace")


def _documented_difference(source: str) -> bool:
    """Inputs on which the reference is wrong by design: it reads non-ASCII
    digits as digits, and it crashes or stalls on oversized literals."""
    if any(c.isdigit() and not c.isascii() for c in source):
        return True
    if re.search(r"[0-9]{4000}", source):
        return True
    return any(int(w.replace("_", "")) > MAX_LITERAL_WIDTH
               for w in re.findall(r"([0-9][0-9_]*)'", source))


def _lex(lex, source):
    try:
        return [tuple(t) for t in lex(source)]
    except LexError as le:
        return ("LexError", le.line, le.col, le.message)


def _parse_all(source):
    return parse_rtl(source), parse_properties_with_recovery(source)


_edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 2),
                            st.one_of(st.sampled_from(list(_INTERESTING)),
                                      st.integers(0, 255))),
                  min_size=1, max_size=2)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers(0, len(_CORPUS) - 1), _edits)
def test_front_end_matches_reference(which, edits):
    source = _mutate(_CORPUS[which], edits)
    if _documented_difference(source):
        return
    assert _lex(tokenize, source) == _lex(ref_tokenize, source)
    got = _parse_all(source)
    with reference_front_end():
        want = _parse_all(source)
    assert got == want


def test_corpus_parses_clean_and_matches_reference():
    for source in _CORPUS:
        assert _lex(tokenize, source) == _lex(ref_tokenize, source)
        got = _parse_all(source)
        with reference_front_end():
            want = _parse_all(source)
        assert got == want
    for source in _RTL_CORPUS:
        assert not isinstance(parse_rtl(source), Diagnostics)
    for source in _PROPERTY_CORPUS:
        assert not parse_properties_with_recovery(source)[1].has_errors()
