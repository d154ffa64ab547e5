"""A run's memo of compiled property statements.

Each compile emits the whole property file, then parses and binds every
statement of it, although most statements have not changed since the last
compile. A `StatementMemo` maps a statement's text, from its first token
through its `;`, to its parse, failed or clean; and a clean parse, the
file's macro table and its default clock to the bind outcome. Lines and
error positions are kept relative to the statement; where it is found
again, it takes its property id and position from the file it is in.

A memo serves one run. It binds against the one signal index it is first
used with, and the run's design does not change. Each run makes its own
memo, so a second run on the same input lexes, parses and binds every
statement again, as a separate process would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.kg import SignalIndex
from verikg.rtl.parser import ParseError
from verikg.sva import ast as S


@dataclass
class Statement:
    """The parse of one property statement."""

    label: str | None
    kind: str
    body: S.PropBody | None  # None if it failed; else shared, never changed
    newlines: int  # the statement's lines, less one
    # what stopped the parse: its `line` counts lines after the first, and
    # on the first line its `col` counts columns after the first token's
    error: ParseError | None = None
    # bind outcome per bind context (`StatementMemo.context`), with the
    # property id and line of the statement it was first computed for
    binds: dict[int, S.BoundProperty | S.BindErrorItem] = field(default_factory=dict)


class StatementMemo:
    def __init__(self):
        self.statements: dict[str, Statement] = {}
        # id(body) -> its statement; the memo keeps every body alive, so
        # no other object can take one of these ids
        self._by_body: dict[int, Statement] = {}
        self._contexts: dict[tuple, int] = {}
        self._index: SignalIndex | None = None

    def remember(self, text: str, stmt: Statement) -> None:
        self.statements[text] = stmt
        if stmt.body is not None:
            self._by_body[id(stmt.body)] = stmt

    def statement_of(self, body: S.PropBody) -> Statement | None:
        """The statement whose parse `body` is, if it came from this memo."""
        stmt = self._by_body.get(id(body))
        return stmt if stmt is not None and stmt.body is body else None

    def context(self, pf: S.PropertyFile, idx: SignalIndex) -> int:
        """A number for what a bind outcome depends on besides the body:
        the file's macro table and default clock (the index is fixed)."""
        if self._index is None:
            self._index = idx
        elif idx is not self._index:
            raise ValueError("a statement memo binds against one signal index")
        key = (tuple(pf.macros), pf.default_clock)
        return self._contexts.setdefault(key, len(self._contexts))
