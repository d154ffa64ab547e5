"""A run's memo of compiled property statements.

Each compile emits the whole property file, then parses and binds every
statement of it, although most statements have not changed since the last
compile. A `StatementMemo` maps a statement's text, from its first token
through its `;`, to the statement's parse; and the parse, the file's
macro table and its default clock to the statement's bind outcome. Only
a statement that parsed cleanly on its own is kept. Its lines are kept
relative to the statement; where it is found again, it takes its
property id and its lines from the file it is in.

A memo serves one run. It binds against the one signal index it is first
used with, and the run's design does not change. Each run makes its own
memo, so a second run on the same input lexes, parses and binds every
statement again, as a separate process would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.kg import SignalIndex
from verikg.sva import ast as S


@dataclass
class Statement:
    """One statement that parsed cleanly on its own."""

    label: str | None
    kind: str
    body: S.PropBody  # shared by every parse of the text: never changed
    newlines: int  # the statement's lines, less one
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

    def remember(self, text: str, label: str | None, kind: str,
                 body: S.PropBody) -> None:
        stmt = Statement(label, kind, body, text.count("\n"))
        self.statements[text] = stmt
        self._by_body[id(body)] = stmt

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
