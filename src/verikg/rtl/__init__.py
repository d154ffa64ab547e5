"""RTL front end: subset parser, design model, elaboration to a bit-level
transition system, FSM detection, and the coverage statement index."""

from verikg.rtl.ast import (
    DesignModel,
    FsmDesc,
    ModuleDecl,
    StatementRef,
)
from verikg.rtl.parser import parse_rtl
from verikg.rtl.analyze import detect_fsms
from verikg.rtl.elaborate import NetModel, elaborate

__all__ = [
    "DesignModel",
    "FsmDesc",
    "ModuleDecl",
    "StatementRef",
    "NetModel",
    "parse_rtl",
    "elaborate",
    "detect_fsms",
]
