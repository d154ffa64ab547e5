"""Shared diagnostic records for the RTL and property front ends."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Severity(Enum):
    ERROR = "error"


class DiagCode(Enum):
    SYNTAX = "SYNTAX"
    UNSUPPORTED = "UNSUPPORTED"
    WIDTH = "WIDTH"
    CYCLE = "CYCLE"
    UNRESOLVED = "UNRESOLVED"
    DUPLICATE = "DUPLICATE"
    MULTICLOCK = "MULTICLOCK"
    UNDEFINED_MACRO = "UNDEFINED_MACRO"
    RECURSIVE_MACRO = "RECURSIVE_MACRO"
    NESTED_IMPLICATION = "NESTED_IMPLICATION"
    MISSING_CLOCK = "MISSING_CLOCK"
    BOUND_EXCEEDED = "BOUND_EXCEEDED"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    line: int
    col: int
    message: str
    code: DiagCode
    # Property the diagnostic was attributed to, when determinable.
    prop_id: str | None = None

    def render(self, filename: str = "<input>") -> str:
        return (
            f"{filename}:{self.line}:{self.col}: "
            f"{self.severity.value}[{self.code.value}]: {self.message}"
        )


@dataclass
class Diagnostics:
    """Ordered diagnostic list; any item is an error, and means no model
    was produced."""

    items: list[Diagnostic] = field(default_factory=list)
    filename: str = "<input>"

    def error(self, line: int, col: int, message: str, code: DiagCode,
              prop_id: str | None = None) -> None:
        self.items.append(Diagnostic(Severity.ERROR, line, col, message, code, prop_id))

    @property
    def errors(self) -> list[Diagnostic]:
        return list(self.items)

    def has_errors(self) -> bool:
        return bool(self.items)

    def render(self) -> str:
        return "\n".join(d.render(self.filename) for d in self.items)

    def __bool__(self) -> bool:
        return bool(self.items)
