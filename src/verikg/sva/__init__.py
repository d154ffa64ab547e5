"""Assertion-subset front end: parse, emit, bind, and compile property files."""

from verikg.sva.ast import (
    BindErrors,
    BoundProperty,
    ClockSpec,
    PropertyDecl,
    PropertyFile,
    Sequence,
    SeqStep,
)
from verikg.sva.parser import parse_properties
from verikg.sva.emit import emit_properties
from verikg.sva.bind import Compiled, bind, compile_properties

__all__ = [
    "BindErrors",
    "BoundProperty",
    "ClockSpec",
    "PropertyDecl",
    "PropertyFile",
    "Sequence",
    "SeqStep",
    "parse_properties",
    "emit_properties",
    "bind",
    "Compiled",
    "compile_properties",
]
