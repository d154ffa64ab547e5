"""Workload input generators for the verikg benchmark.

Every generator is a pure function of the workload seed and of its
parameters in workloads.json: it writes the design, spec and rulebook files
that one run needs into a directory and returns one job (the `RunConfig`
keyword arguments) per `run_all` call. The program under test sees only
those files.

Nothing here imports verikg at module level, so the benchmark can time the
import itself as part of set-up (see `load_program`).
"""

from __future__ import annotations

import importlib
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("wide_fifo", "bulk_spec", "many_designs")


def load_program(root: Path) -> SimpleNamespace:
    """Import (or re-import) verikg and the oracle generators from `root`.

    Modules already loaded are dropped first, so each call pays the full
    import cost; the benchmark times this call as part of `setup_s`.
    """
    for name in [m for m in sys.modules
                 if m == "verikg" or m.startswith("verikg.") or m == "oracles"]:
        del sys.modules[name]
    for path in (root / "tests", root / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    pipeline = importlib.import_module("verikg.pipeline")
    oracles = importlib.import_module("oracles")
    return SimpleNamespace(pipeline=pipeline, oracles=oracles)


def generate(workload: str, seed: int, params: dict, created_at: str,
             prog: SimpleNamespace, in_dir: Path) -> list[dict]:
    """Write the inputs of `workload` under `in_dir` (a path relative to the
    repository root, so run ids do not depend on where the checkout is)."""
    in_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    if workload == "wide_fifo":
        jobs = [_wide_fifo(rng, params, in_dir)]
    elif workload == "bulk_spec":
        jobs = [_bulk_spec(rng, params, prog.oracles, in_dir)]
    elif workload == "many_designs":
        jobs = _many_designs(rng, params, prog.oracles, in_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        job["created_at"] = created_at
    return jobs


def rename(text: str, names: list[str], suffix: str) -> str:
    """`text` with each of `names` (whole words) given `suffix`.

    So a seed changes the inputs, and their run ids, without changing the
    work: as long as no name is a prefix of another, the suffix keeps every
    name's sort position, so the engine explores in the same order.
    """
    for name in names:
        text = re.sub(rf"\b{name}\b", name + suffix, text)
    return text


def widen_fifo(source: str, bits: int, renamed: list[str], suffix: str) -> str:
    """The fixture FIFO with its 2-bit data path (the `renamed` signals)
    widened to `bits` and given `suffix`."""
    out = rename(source, renamed, suffix)
    for name in renamed:
        out = re.sub(rf"\[1:0\] {name}{suffix}\b", f"[{bits - 1}:0] {name}{suffix}", out)
        out = out.replace(f"{name}{suffix} <= 2'd0", f"{name}{suffix} <= {bits}'d0")
    return out


def _wide_fifo(rng: random.Random, params: dict, in_dir: Path) -> dict:
    suffix = f"_{rng.randrange(1000):03d}"
    source = widen_fifo(Path(params["rtl"]).read_text(encoding="utf-8"),
                        params["data_bits"], params["renamed"], suffix)
    rtl = in_dir / "fifo.v"
    rtl.write_text(source, encoding="utf-8")
    spec = in_dir / Path(params["spec"]).name
    spec.write_text(keep_requirements(Path(params["spec"]).read_text(encoding="utf-8"),
                                      params["requirements"]), encoding="utf-8")
    rulebook = _copy(params["rulebook"], in_dir)
    return _job(spec, rtl, rulebook)


def keep_requirements(spec: str, keep: list[int]) -> str:
    """`spec` with only its `keep` requirement lines (1-based, in order of
    appearance); every other line stays."""
    out, n = [], 0
    for line in spec.splitlines(keepends=True):
        if line.startswith("REQ"):
            n += 1
            if n not in keep:
                continue
        out.append(line)
    return "".join(out)


_ASSERT_RE = re.compile(r"^assert property \((.*)\);\s*$", re.S)


def _requirement(oracles, rng: random.Random, n: int, cover_share: float,
                 one_bit: list[str], two_bit: list[str]) -> str:
    kind = "COVER" if rng.random() < cover_share else "ASSERT"
    source = oracles.gen_property_source(rng, one_bit, two_bit)
    m = _ASSERT_RE.match(source)
    if m is None:
        raise ValueError(f"unexpected property generator output {source!r}")
    return f"REQ: Requirement {n} holds. {kind}: {m.group(1)}"


def _bulk_spec(rng: random.Random, params: dict, oracles, in_dir: Path) -> dict:
    lines = ["# Bulk specification", "",
             "Seeded requirements over the gappy register design.", ""]
    per_section = params["requirements"] // params["sections"]
    n = 0
    for s in range(1, params["sections"] + 1):
        lines += [f"## Section {s}", ""]
        for _ in range(per_section):
            n += 1
            lines.append(_requirement(oracles, rng, n, params["cover_share"],
                                      params["signals"], []))
        lines.append("")
    spec = in_dir / "bulk_spec.md"
    spec.write_text("\n".join(lines), encoding="utf-8")
    return _job(spec, _copy(params["rtl"], in_dir), None)


_REG_RE = re.compile(r"^\s*reg (?:\[(\d+):0\] )?(\w+);", re.M)
_INPUT_RE = re.compile(r"^\s*input (\w+)", re.M)
_WIRE_RE = re.compile(r"^\s*wire (\w+);", re.M)


def design_signals(source: str) -> tuple[list[str], list[str]]:
    """(one-bit, two-bit) signal names of a generated design, clock excluded."""
    one_bit = [n for n in _INPUT_RE.findall(source) if n != "clk"]
    one_bit += _WIRE_RE.findall(source)
    two_bit = []
    for hi, name in _REG_RE.findall(source):
        (two_bit if hi == "1" else one_bit).append(name)
    return sorted(one_bit), sorted(two_bit)


def _many_designs(rng: random.Random, params: dict, oracles,
                  in_dir: Path) -> list[dict]:
    """The designs and requirements come from `design_seed`, the same for
    every workload seed: the cost of one design varies too widely for 100
    random ones to average out. The workload seed renames their signals."""
    design_rng = random.Random(params["design_seed"])
    suffix = f"_{rng.randrange(1000):03d}"
    jobs = []
    for i in range(params["designs"]):
        source = oracles.gen_design_source(design_rng)
        one_bit, two_bit = design_signals(source)
        reqs = [_requirement(oracles, design_rng, n, params["cover_share"],
                             one_bit, two_bit)
                for n in range(1, params["requirements"] + 1)]
        spec_text = f"# Design {i}\n\n## Behavior\n\n" + "\n".join(reqs) + "\n"
        rtl = in_dir / f"d{i:03d}.v"
        rtl.write_text(rename(source, one_bit + two_bit, suffix), encoding="utf-8")
        spec = in_dir / f"d{i:03d}.md"
        spec.write_text(rename(spec_text, one_bit + two_bit, suffix), encoding="utf-8")
        jobs.append(_job(spec, rtl, None))
    return jobs


def _copy(fixture: str, in_dir: Path) -> Path:
    target = in_dir / Path(fixture).name
    target.write_bytes(Path(fixture).read_bytes())
    return target


def _job(spec: Path, rtl: Path, rulebook: Path | None) -> dict:
    return {
        "spec_path": spec.as_posix(),
        "rtl_paths": [rtl.as_posix()],
        "rulebook_path": rulebook.as_posix() if rulebook else None,
    }
