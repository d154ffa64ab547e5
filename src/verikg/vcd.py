"""VCD writing for counterexample traces and parsing for triage.

Writer output is two-valued and bit-exact: header, initial dump at #0,
then per-cycle change records only where a value differs from the previous
cycle, one timestamp per cycle at cycle*timescale ticks. The parser also
accepts externally produced files, recording x/z values verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from verikg.engine.check import CexTrace


class VcdError(Exception):
    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class WaveDb:
    timescale: tuple[int, str] = (1, "ns")
    # (hierarchical name, width, code) in declaration order
    signals: list[tuple[str, int, str]] = field(default_factory=list)
    # code -> sorted (time, value); value is int, or str for x/z patterns
    changes: dict[str, list[tuple[int, int | str]]] = field(default_factory=dict)
    warnings: int = 0

    def code_of(self, name: str) -> str | None:
        for sig, _w, code in self.signals:
            if sig == name:
                return code
        return None

    def signal_names(self) -> list[str]:
        return [name for name, _w, _c in self.signals]

    def end_time(self) -> int:
        end = 0
        for series in self.changes.values():
            if series:
                end = max(end, series[-1][0])
        return end


@dataclass
class WindowSummary:
    center_time: int
    window: list[tuple[int, str, int | str | None, int | str]]  # (t, signal, old, new)
    signals_of_interest: list[str]
    missing: list[str] = field(default_factory=list)


def _code_for(i: int) -> str:
    # printable identifier codes: ! " # ... excluding whitespace
    chars = [chr(c) for c in range(33, 127)]
    out = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, len(chars))
        out = chars[rem] + out
    return out


def _fmt_value(value: int, width: int, code: str) -> str:
    if width == 1:
        return f"{value & 1}{code}"
    return f"b{value:0{width}b} {code}"


def write_vcd(trace: CexTrace, decls: list[tuple[str, int]],
              timescale: tuple[int, str] = (1, "ns")) -> bytes:
    """Render a trace for the declared signals. Values come from the per-
    cycle input/state valuations; a declared name missing from the trace or
    a value too wide for its declaration is an error."""
    lines: list[str] = []
    lines.append("$comment counterexample trace $end")
    lines.append(f"$timescale {timescale[0]}{timescale[1]} $end")

    codes: dict[str, str] = {}
    scoped: list[tuple[tuple[str, ...], str, int]] = []
    for i, (name, width) in enumerate(decls):
        codes[name] = _code_for(i)
        parts = tuple(name.split("."))
        scoped.append((parts[:-1], name, width))

    open_scope: tuple[str, ...] = ()
    for scope, name, width in scoped:
        while open_scope and open_scope != scope[:len(open_scope)]:
            lines.append("$upscope $end")
            open_scope = open_scope[:-1]
        for part in scope[len(open_scope):]:
            lines.append(f"$scope module {part} $end")
            open_scope = open_scope + (part,)
        leaf = name.split(".")[-1]
        ref = leaf if width == 1 else f"{leaf} [{width - 1}:0]"
        lines.append(f"$var wire {width} {codes[name]} {ref} $end")
    while open_scope:
        lines.append("$upscope $end")
        open_scope = open_scope[:-1]
    lines.append("$enddefinitions $end")

    def cycle_values(cycle: tuple[dict, dict]) -> dict[str, int]:
        inputs, state = cycle
        merged = dict(state)
        merged.update(inputs)
        return merged

    prev: dict[str, int] = {}
    for t, cycle in enumerate(trace.cycles):
        values = cycle_values(cycle)
        changed: list[str] = []
        for name, width in decls:
            if name not in values:
                raise VcdError(f"trace has no value for declared signal {name!r}")
            v = values[name]
            if v >= (1 << width):
                raise VcdError(
                    f"value {v} of {name!r} overflows declared width {width}")
            if t == 0 or prev.get(name) != v:
                changed.append(_fmt_value(v, width, codes[name]))
                prev[name] = v
        lines.append(f"#{t * timescale[0]}")
        if t == 0:
            lines.append("$dumpvars")
            lines.extend(changed)
            lines.append("$end")
        else:
            lines.extend(changed)
    return ("\n".join(lines) + "\n").encode("ascii")


_SKIPPED_DIRECTIVES = {"$comment", "$date", "$version"}


def parse_vcd(data: bytes) -> WaveDb:
    """Parse the supported VCD subset into a WaveDb.

    Scalar and vector (b...) changes are supported; x/z values are recorded
    verbatim as strings. Unknown directives are skipped with a warning
    count; structural problems raise VcdError with a byte offset.
    """
    text = data.decode("ascii", errors="replace")
    db = WaveDb()
    scope: list[str] = []
    widths: dict[str, int] = {}
    current_time: int | None = None
    last_time: int | None = None
    in_defs = True

    pos = 0
    n = len(text)

    def next_token() -> tuple[str, int]:
        nonlocal pos
        while pos < n and text[pos] in " \t\r\n":
            pos += 1
        start = pos
        while pos < n and text[pos] not in " \t\r\n":
            pos += 1
        return text[start:pos], start

    def read_until_end(offset: int) -> list[str]:
        out = []
        while True:
            tok, off = next_token()
            if tok == "":
                raise VcdError("unterminated directive", offset)
            if tok == "$end":
                return out
            out.append(tok)

    while True:
        tok, offset = next_token()
        if tok == "":
            break
        if tok == "$timescale":
            body = read_until_end(offset)
            joined = "".join(body)
            num = "".join(ch for ch in joined if ch.isdigit())
            unit = "".join(ch for ch in joined if ch.isalpha())
            db.timescale = (int(num) if num else 1, unit or "ns")
        elif tok == "$scope":
            body = read_until_end(offset)
            if len(body) != 2:
                raise VcdError("malformed $scope", offset)
            scope.append(body[1])
        elif tok == "$upscope":
            read_until_end(offset)
            if scope:
                scope.pop()
        elif tok == "$var":
            body = read_until_end(offset)
            if len(body) < 4:
                raise VcdError("malformed $var declaration", offset)
            _vtype, width_s, code = body[0], body[1], body[2]
            name_parts = body[3:]
            try:
                width = int(width_s)
            except ValueError:
                raise VcdError(f"bad $var width {width_s!r}", offset)
            leaf = name_parts[0]
            full = ".".join(scope + [leaf])
            db.signals.append((full, width, code))
            widths[code] = width
            db.changes.setdefault(code, [])
        elif tok == "$enddefinitions":
            read_until_end(offset)
            in_defs = False
        elif tok in ("$dumpvars", "$end"):
            continue
        elif tok.startswith("$"):
            read_until_end(offset)
            if tok not in _SKIPPED_DIRECTIVES:
                db.warnings += 1
        elif tok.startswith("#"):
            try:
                current_time = int(tok[1:])
            except ValueError:
                raise VcdError(f"bad timestamp {tok!r}", offset)
            if last_time is not None and current_time <= last_time:
                raise VcdError(
                    f"non-monotonic timestamp #{current_time}", offset)
            last_time = current_time
        elif tok[0] in "01xXzZ":
            code = tok[1:]
            if code not in widths:
                raise VcdError(f"change for undeclared code {code!r}", offset)
            t = current_time or 0
            ch = tok[0]
            value: int | str = int(ch) if ch in "01" else ch.lower()
            db.changes[code].append((t, value))
        elif tok[0] in "bB":
            bits = tok[1:]
            code_tok, code_off = next_token()
            if code_tok == "":
                raise VcdError("vector change missing identifier code", offset)
            if code_tok not in widths:
                raise VcdError(f"change for undeclared code {code_tok!r}", code_off)
            if len(bits) > widths[code_tok]:
                raise VcdError(
                    f"value {tok!r} wider than declaration ({widths[code_tok]})",
                    offset)
            t = current_time or 0
            if set(bits) <= {"0", "1"}:
                value = int(bits, 2)
            else:
                value = bits.lower()
            db.changes[code_tok].append((t, value))
        else:
            raise VcdError(f"unexpected token {tok!r}", offset)

    for code, series in db.changes.items():
        times = [t for t, _v in series]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise VcdError(f"duplicate change time for code {code!r}")
    return db


def failure_window(db: WaveDb, t: int, signals: list[str],
                   pre_cycles: int) -> WindowSummary:
    """All changes of the named signals inside [t - pre, t], time-sorted,
    with each change's prior value. Unknown names land in `missing`."""
    ticks = db.timescale[0] or 1
    lo = t - pre_cycles * ticks
    window: list[tuple[int, str, int | str | None, int | str]] = []
    missing: list[str] = []
    for name in signals:
        code = db.code_of(name)
        if code is None:
            missing.append(name)
            continue
        prev: int | str | None = None
        for time, value in db.changes.get(code, ()):
            if lo <= time <= t:
                window.append((time, name, prev, value))
            prev = value
    window.sort(key=lambda item: (item[0], item[1]))
    return WindowSummary(t, window, list(signals), missing)
