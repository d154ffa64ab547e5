"""Tokenizer shared by the RTL and property-file parsers.

One compiled pattern with a named group per token class is matched along
the source (the "Writing a Tokenizer" recipe of Python's `re` docs). Line
and column are tracked only across whitespace and comments, the only
matches that can hold a newline; a token's column is its offset from the
start of its line. The `ERR` group matches any character that no token
group takes, so every position is covered and an error is reported at the
exact character where lexing stops.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Token(NamedTuple):
    kind: str  # ID SYSID MACRO NUMBER PUNCT EOF
    text: str
    line: int
    col: int
    # Decoded (value, width) for NUMBER tokens; width None when unsized.
    value: int | None = None
    width: int | None = None


# Longest first so maximal munch works.
_PUNCT = [
    "|->", "|=>", "##", "&&", "||", "==", "!=", "<=", ">=",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "@", "#", "?",
    ".", "=", "<", ">", "&", "|", "^", "~", "!", "+", "-", "*", "/",
]

# The widest sized literal accepted: the smallest limit IEEE 1364 lets a
# tool impose on a literal's width.
MAX_LITERAL_WIDTH = 1 << 16

_BASES = {"b": 2, "d": 10, "h": 16}
_SHOWN_DIGITS = 32  # a "bad digits" message quotes at most this many


# Whitespace and comments; `STATEMENT_RE` uses it too.
_SKIP = r"(?:[ \t\r\n]|//[^\n]*|/\*(?s:.*?)\*/)+"

_TOKEN_RE = re.compile("|".join([
    rf"(?P<SKIP>{_SKIP})",
    r"(?P<ID>[A-Za-z_][A-Za-z0-9_$]*)",
    # A '/' that opens a block comment is never an operator: an unterminated
    # `/*` falls through to ERR and is reported as such.
    "(?P<PUNCT>{})".format("|".join(
        r"/(?!\*)" if p == "/" else re.escape(p) for p in _PUNCT)),
    # Plain or based; the base letter and digits are checked in `_number`.
    r"(?P<NUMBER>[0-9][0-9_]*(?:'(?s:.)?\w*)?)",
    r"(?P<SYSID>\$[A-Za-z0-9_$]+)",
    r"(?P<MACRO>`[A-Za-z_][A-Za-z0-9_$]*)",
    r"(?P<ERR>(?s:.))",
]))

# One statement, for callers that look statements up without tokenizing
# them: whitespace and comments, then the text through the next `;`,
# provided that nothing in that text can make a token hold the `;` or
# start a comment (a based literal takes the character after its `'`).
# Then `tokenize` from the same start ends its first `;` token at the end
# of the match, unless it fails before it. The leading comments are one
# `SKIP` match, taken whole (a lookahead, then a backreference), so
# backtracking cannot end the statement at a `;` inside a comment. Where
# the pattern does not match, the caller must tokenize.
STATEMENT_RE = re.compile(
    f"(?:(?=(?P<lead>{_SKIP}))(?P=lead))?"
    r"(?P<stmt>[^;/']*(?:(?:'(?!;)|/(?![/*]))[^;/']*)*;)")


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message


def tokenize(source: str, start: int = 0, end: int | None = None,
             line: int = 1) -> list[Token]:
    """Tokenize; lexical problems are raised as LexError (callers convert
    them to diagnostics so parsing never crashes on malformed input).

    `source[start:end]` alone is tokenized, with `line` the line number at
    `start`; line and column stay those of the whole source. The slice must
    start where a token of the whole source could start."""
    if end is None:
        end = len(source)
    tokens: list[Token] = []
    append = tokens.append
    line_start = source.rfind("\n", 0, start) + 1  # offset of the first character of `line`
    for m in _TOKEN_RE.finditer(source, start, end):
        kind = m.lastgroup
        if kind == "SKIP":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            continue
        start = m.start()
        col = start - line_start + 1
        if kind == "ID" or kind == "PUNCT" or kind == "SYSID":
            append(Token(kind, m.group(), line, col))
        elif kind == "NUMBER":
            text = m.group()
            value, width = _number(text, line, col)
            append(Token("NUMBER", text, line, col, value, width))
        elif kind == "MACRO":
            append(Token("MACRO", m.group()[1:], line, col))
        else:
            raise LexError(line, col, _error_message(source, start, end))
    append(Token("EOF", "", line, end - line_start + 1))
    return tokens


def _error_message(source: str, pos: int, end: int) -> str:
    c = source[pos]
    if c == "`":
        return "expected macro name after '`'"
    if c == "$":
        return "expected name after '$'"
    if source.startswith("/*", pos, end):
        return "unterminated block comment"
    return f"unexpected character {c!r}"


def _number(text: str, line: int, col: int) -> tuple[int, int | None]:
    """Decode a NUMBER match to (value, width); width None when unsized."""
    tick = text.find("'")
    if tick < 0:
        digits = text.replace("_", "")
        try:
            return int(digits), None
        except ValueError:  # over Python's int-string conversion limit
            raise LexError(line, col,
                           f"decimal literal of {len(digits)} digits is too long")
    base_ch = text[tick + 1:tick + 2]
    if base_ch not in "bdhBDH":
        raise LexError(line, col, f"bad literal base {base_ch!r}")
    width_digits = text[:tick].replace("_", "").lstrip("0") or "0"
    # Length first: int() of a long digit string is slow or refused.
    if len(width_digits) > len(str(MAX_LITERAL_WIDTH)) \
            or int(width_digits) > MAX_LITERAL_WIDTH:
        raise LexError(line, col, f"literal width exceeds {MAX_LITERAL_WIDTH} bits")
    width = int(width_digits)
    digits = text[tick + 2:].replace("_", "")
    if not digits:
        raise LexError(line, col, "literal has no digits")
    base = _BASES[base_ch.lower()]
    try:
        value = int(digits, base) if digits.isascii() else None
    except ValueError:
        value = None
    if value is None:
        if digits.isascii() and digits.isdigit() and base == 10:
            # valid, but over Python's int-string conversion limit
            raise LexError(line, col, f"literal of {len(digits)} digits is too long")
        shown = digits if len(digits) <= _SHOWN_DIGITS else \
            digits[:_SHOWN_DIGITS] + f"... ({len(digits)} digits)"
        raise LexError(line, col, f"bad digits {shown!r} for base {base}")
    if width <= 0:
        raise LexError(line, col, "literal width must be positive")
    if value.bit_length() > width:
        # str() of an int is limited like int() of a str (never below 640
        # digits); name a huge value by its bit length.
        shown = value if value.bit_length() <= 2048 else \
            f"of {value.bit_length()} bits"
        raise LexError(line, col, f"literal value {shown} does not fit in {width} bits")
    return value, width
