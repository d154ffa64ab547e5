"""Tokenizer shared by the RTL and property-file parsers."""

from __future__ import annotations

from dataclasses import dataclass



@dataclass(frozen=True)
class Token:
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

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CHARS = _ID_START | set("0123456789$")


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message


def tokenize(source: str, diags: Diagnostics | None = None) -> list[Token]:
    """Tokenize; lexical problems are raised as LexError (callers convert
    them to diagnostics so parsing never crashes on malformed input)."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j - i) if j != -1 else (n - i))
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j == -1:
                raise LexError(line, col, "unterminated block comment")
            advance(j + 2 - i)
            continue
        if c == "`":
            start_line, start_col = line, col
            j = i + 1
            if j >= n or source[j] not in _ID_START:
                raise LexError(line, col, "expected macro name after '`'")
            k = j
            while k < n and source[k] in _ID_CHARS:
                k += 1
            text = source[j:k]
            advance(k - i)
            tokens.append(Token("MACRO", text, start_line, start_col))
            continue
        if c == "$":
            start_line, start_col = line, col
            k = i + 1
            while k < n and source[k] in _ID_CHARS:
                k += 1
            if k == i + 1:
                raise LexError(line, col, "expected name after '$'")
            text = source[i:k]
            advance(k - i)
            tokens.append(Token("SYSID", text, start_line, start_col))
            continue
        if c.isdigit():
            start_line, start_col = line, col
            k = i
            while k < n and (source[k].isdigit() or source[k] == "_"):
                k += 1
            if k < n and source[k] == "'":
                base_ch = source[k + 1] if k + 1 < n else ""
                if base_ch not in "bdhBDH":
                    raise LexError(line, col, f"bad literal base {base_ch!r}")
                width = int(source[i:k].replace("_", ""))
                j = k + 2
                digits_start = j
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
                digits = source[digits_start:j].replace("_", "")
                if not digits:
                    raise LexError(line, col, "literal has no digits")
                base = {"b": 2, "d": 10, "h": 16}[base_ch.lower()]
                try:
                    value = int(digits, base)
                except ValueError:
                    raise LexError(line, col, f"bad digits {digits!r} for base {base}")
                if width <= 0:
                    raise LexError(line, col, "literal width must be positive")
                if value >= (1 << width):
                    raise LexError(line, col,
                                   f"literal value {value} does not fit in {width} bits")
                text = source[i:j]
                advance(j - i)
                tokens.append(Token("NUMBER", text, start_line, start_col, value, width))
            else:
                text = source[i:k]
                advance(k - i)
                tokens.append(Token("NUMBER", text, start_line, start_col,
                                    int(text.replace("_", "")), None))
            continue
        if c in _ID_START:
            start_line, start_col = line, col
            k = i
            while k < n and source[k] in _ID_CHARS:
                k += 1
            text = source[i:k]
            advance(k - i)
            tokens.append(Token("ID", text, start_line, start_col))
            continue
        matched = False
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("PUNCT", p, line, col))
                advance(len(p))
                matched = True
                break
        if not matched:
            raise LexError(line, col, f"unexpected character {c!r}")
    tokens.append(Token("EOF", "", line, col))
    return tokens
