"""Per-layer tracing for the benchmark's traced runs.

`Tracer.install` wraps the public functions of each verikg layer from the
outside: no verikg source is changed. A wrapped call records a span (name,
start, end, parent) and the counters of that layer boundary. Spans stay in
memory; the benchmark writes them out after measuring, outside every run
directory.

Two bindings make naive patching undercount, so `install` replaces a
function object wherever a loaded verikg module holds it, not only in its
defining module:

- `verikg.rtl.elaborate` as a package attribute is the *function*; the
  module is reached through `sys.modules`.
- `pipeline` binds `check`, `check_cover`, `coverage`, `elaborate` and
  `parse_rtl` by name, and `engine.coverage` binds `_explore` by name and
  imports `check` lazily (the lazy import reads the patched module
  attribute at call time).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, defining module, attribute) for every timed function.
TIMED_FUNCTIONS = [
    ("pipeline.run_all", "verikg.pipeline", "run_all"),
    ("rtl.parse", "verikg.rtl.parser", "parse_rtl"),
    ("rtl.elaborate", "verikg.rtl.elaborate", "elaborate"),
    ("engine.check", "verikg.engine.check", "check"),
    ("engine.check", "verikg.engine.check", "check_cover"),
    ("engine.coverage", "verikg.engine.coverage", "coverage"),
    ("sva.parse", "verikg.sva.parser", "parse_properties_with_recovery"),
    ("sva.bind", "verikg.sva.bind", "bind"),
    ("sva.emit", "verikg.sva.emit", "emit_properties"),
    ("sva.emit", "verikg.sva.emit", "render_statement"),
    ("kg.build_graph", "verikg.kg", "build_graph"),
    ("kg.neighborhood", "verikg.kg", "neighborhood"),
    ("kg.trace_path", "verikg.kg", "trace_path"),
    ("ir.export", "verikg.ir.export", "export_graph"),
    ("ir.save", "verikg.ir.store", "save_run"),
    ("vcd.write", "verikg.vcd", "write_vcd"),
    ("vcd.parse", "verikg.vcd", "parse_vcd"),
]

# Counters kept by the wrappers and by `count_run_dir`.
COUNTERS = [
    "rtl.step_calls", "engine.explorations", "engine.checks",
    "engine.explored_states", "engine.repeat_checks", "ir.run_bytes",
    "agents.backend_calls", "agents.envelope_bytes", "agents.loop_iterations",
]

# Layers whose call count is reported as `<layer>_calls`.
COUNTED_CALLS = ["sva.parse", "kg.build_graph", "ir.export", "vcd.write"]


class Tracer:
    """Spans plus counters for one unit of work (see `reset`)."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.run_all_self = 0.0
        self._stack: list[list] = []  # [name, start, child seconds, index]
        self._nets: dict[int, tuple[object, set, set]] = {}
        self._checked: set = set()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append((name, 0.0, 0.0, -1))  # filled in by exit()

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        self.spans[index] = (name, start, end, parent)
        if all(frame[0] != name for frame in self._stack):
            # a span inside one of the same name (emit_properties calling
            # render_statement) is already in the outer span's time
            self.total[name] += duration
        self.calls[name] += 1
        if name == "pipeline.run_all":
            self.run_all_self += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- counters at layer boundaries -----------------------------------------

    def _after_check(self, args, kwargs, out) -> None:
        result, _trace = out
        self.counters["engine.checks"] += 1
        self.counters["engine.explored_states"] += result.runtime_ms
        net, bp = args[0], args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        assumptions = tuple(repr(a) for a in cfg.input_assumptions) if cfg else ()
        budgets = (cfg.max_states, cfg.max_depth) if cfg else None
        key = (id(net), repr(bp), assumptions, budgets)
        if key in self._checked:
            self.counters["engine.repeat_checks"] += 1
        self._checked.add(key)
        self._keep(net)

    def _keep(self, net):
        entry = self._nets.get(id(net))
        if entry is None:
            # holding the net keeps its id unique for the whole unit
            entry = self._nets[id(net)] = (net, set(), set())
        return entry

    def _wrap_step(self, step):
        @functools.wraps(step)
        def wrapper(net, state, inputs):
            self.counters["rtl.step_calls"] += 1
            _net, pairs, states = self._keep(net)
            pairs.add((state, inputs))
            states.add(state)
            return step(net, state, inputs)
        return wrapper

    def _wrap_explore(self, explore):
        @functools.wraps(explore)
        def wrapper(*args, **kwargs):
            self.counters["engine.explorations"] += 1
            return explore(*args, **kwargs)
        return wrapper

    def _wrap_send(self, send):
        timed = self._timed("agents.send", send)

        @functools.wraps(send)
        def wrapper(backend, env):
            self.counters["agents.backend_calls"] += 1
            self.counters["agents.envelope_bytes"] += len(env.render().encode("utf-8"))
            return timed(backend, env)
        return wrapper

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary in the loaded verikg modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, module, attr in TIMED_FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            after = self._after_check if name == "engine.check" else None
            wrappers[id(fn)] = (fn, self._timed(name, fn, after))
        explore = sys.modules["verikg.engine.check"]._explore
        wrappers[id(explore)] = (explore, self._wrap_explore(explore))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "verikg" or mod_name.startswith("verikg.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        net_model = sys.modules["verikg.rtl.elaborate"].NetModel
        self._patch(net_model, "step", self._wrap_step(net_model.step))
        recording = sys.modules["verikg.agents.backend"].RecordingBackend
        self._patch(recording, "send", self._wrap_send(recording.send))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------------

    def count_run_dir(self, run_dir: Path) -> None:
        """Count a saved run: its bytes and its agent-loop iterations."""
        self.counters["ir.run_bytes"] += sum(
            p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        ctx = json.loads((run_dir / "run_context.json").read_text(encoding="utf-8"))
        self.counters["agents.loop_iterations"] += sum(ctx["iteration_counts"].values())

    def unit_counters(self) -> dict[str, int]:
        """The deterministic counters of the unit traced since `reset`."""
        out = {name: self.counters[name] for name in COUNTERS}
        out["rtl.step_distinct"] = sum(len(p) for _n, p, _s in self._nets.values())
        out["rtl.step_states"] = sum(len(s) for _n, _p, s in self._nets.values())
        out["engine.coverage_calls"] = self.calls["engine.coverage"]
        for layer in COUNTED_CALLS:
            out[f"{layer}_calls"] = self.calls[layer]
        return out

    def unit_seconds(self) -> dict[str, float]:
        """Inclusive seconds per layer for the unit, plus run_all self time."""
        names = sorted({name for name, _m, _a in TIMED_FUNCTIONS} | {"agents.send"})
        out = {f"{name}_s": self.total[name] for name in names
               if name != "pipeline.run_all"}
        out["pipeline.self_s"] = self.run_all_self
        return out
