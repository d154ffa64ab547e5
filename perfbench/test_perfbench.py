"""Tests of the benchmark itself: layer-wrapper calibration, the per-run
cap, reference seconds, output checks and the result line.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_calibration_on_fixture_fifo(tmp_path):
    """The wrappers count every exploration and step, including those
    reached through by-name bindings: 9 explorations, 21,888 step calls and
    3,072 distinct (state, input) pairs over 96 states."""
    from verikg.pipeline import RunConfig, run_all

    tracer = layers.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        run_all(RunConfig(spec_path=str(FIXTURES / "fifo_spec.md"),
                          rtl_paths=[str(FIXTURES / "fifo.v")],
                          rulebook_path=str(FIXTURES / "rulebook.txt"),
                          out_root=str(tmp_path), created_at="2026-01-01T00:00:00Z"))
        elapsed = time.perf_counter() - start
    finally:
        tracer.remove()
    counters = tracer.unit_counters()
    assert counters["engine.explorations"] == 9
    assert counters["rtl.step_calls"] == 21888
    assert counters["rtl.step_distinct"] == 3072
    assert counters["rtl.step_states"] == 96
    assert counters["engine.checks"] == 8
    assert counters["engine.coverage_calls"] == 1

    # emit_properties calls render_statement, both timed as sva.emit: the
    # layer time is that of the outermost sva.emit spans only
    outer = [end - begin for name, begin, end, parent in tracer.spans
             if name == "sva.emit" and not _inside(tracer.spans, parent, "sva.emit")]
    assert len(outer) < tracer.calls["sva.emit"]
    assert tracer.total["sva.emit"] == pytest.approx(sum(outer))
    assert tracer.total["sva.emit"] <= elapsed


def _inside(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def test_nested_span_of_same_name_counts_once():
    tracer = layers.Tracer()
    tracer.enter("sva.emit")
    tracer.enter("sva.emit")
    tracer.exit()
    tracer.exit()
    (_n, start, end, _p), inner = tracer.spans
    assert tracer.total["sva.emit"] == end - start
    assert tracer.calls["sva.emit"] == 2 and inner[3] == 0


def test_remove_restores_every_binding():
    import verikg.pipeline as pipeline

    # the package attributes `check` and `coverage` are functions that
    # shadow their modules
    check_mod = sys.modules["verikg.engine.check"]
    coverage_mod = sys.modules["verikg.engine.coverage"]

    before = (pipeline.check, pipeline.elaborate, coverage_mod._explore,
              check_mod.NetModel.step)
    tracer = layers.Tracer()
    tracer.install()
    assert pipeline.check is not before[0]
    assert coverage_mod._explore is not before[2]
    tracer.remove()
    assert (pipeline.check, pipeline.elaborate, coverage_mod._explore,
            check_mod.NetModel.step) == before


def test_widen_fifo_widens_data_path_only():
    source = (FIXTURES / "fifo.v").read_text(encoding="utf-8")
    wide = workloads.widen_fifo(source, 3, ["din", "dout", "slot0", "slot1"], "_007")
    assert "input [2:0] din_007" in wide
    assert "output [2:0] dout_007" in wide
    assert "reg [2:0] slot0_007;" in wide and "reg [2:0] slot1_007;" in wide
    assert "slot1_007 <= 3'd0;" in wide
    assert "reg [1:0] count;" in wide  # the control path keeps its width
    assert sorted(["din_007", "rd_en", "rst", "wr_en"])[0] == "din_007"


def test_tail_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90)
    assert run.tail(samples[:40]) == (30.0, 75)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 75)
    assert run.tail(samples[:17]) == (13.0, 75)  # p37 would be below the median


def test_dir_digest_ignores_backend_only(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    ctx = {"config_snapshot": {"backend": "scripted", "spec": "s.md"}}
    (run_dir / "run_context.json").write_text(json.dumps(ctx))
    (run_dir / "formal_results.json").write_text("[]")
    digest = run.dir_digest(run_dir)
    ctx["config_snapshot"]["backend"] = "replay"
    (run_dir / "run_context.json").write_text(json.dumps(ctx))
    assert run.dir_digest(run_dir) == digest
    (run_dir / "formal_results.json").write_text("[ ]")
    assert run.dir_digest(run_dir) != digest


def test_cap_records_timeout_as_failed_run(tmp_path, monkeypatch):
    import verikg.pipeline as pipeline

    monkeypatch.chdir(ROOT)  # generator parameters name fixtures from the root
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    prog = SimpleNamespace(pipeline=pipeline, oracles=None)
    jobs = workloads.generate("wide_fifo", 1, spec["generators"]["wide_fifo"],
                              spec["created_at"], prog, tmp_path / "in")
    session = run.Session(prog, jobs, tmp_path, cap=0.2, pinned=None)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        assert session.run_unit() == []
    finally:
        signal.signal(signal.SIGALRM, old)
    assert session.attempted == 1
    assert session.failures == ["job 0: timeout after 0.2 s"]


def test_times_are_rescaled_to_reference_seconds():
    samples = [run.Sample(wall=2.0, cpu=1.8, verdicts=4, scale=0.5)] * 3
    setup_reps = [(0.4, 0.5), (0.6, 0.5), (0.5, 2.0)]
    ref, _pct = run.end_to_end(samples, setup_reps, rescale=True)
    raw, _pct = run.end_to_end(samples, setup_reps, rescale=False)
    assert (ref["run_s"], ref["cpu_s"], ref["verdicts_per_s"]) == (1.0, 0.9, 4.0)
    assert (raw["run_s"], raw["cpu_s"], raw["verdicts_per_s"]) == (2.0, 1.8, 2.0)
    assert (ref["setup_s"], raw["setup_s"]) == (0.3, 0.5)
    assert speed.scale((1, 0.01), (5, 0.03)) == pytest.approx(speed.PROBE_REF_S * 4 / 0.02)
    assert speed.scale((2, 0.01), (2, 0.01)) == 1.0


def test_probe_samples_while_started():
    probe = speed.Probe()
    probe.start()
    try:
        start = time.process_time()
        while time.process_time() - start < 20 * speed.INTERVAL_S:
            pass
    finally:
        probe.stop()
    count, seconds = probe.totals()
    assert count >= 10 and seconds > 0
    time.sleep(2 * speed.INTERVAL_S)
    assert probe.totals() == (count, seconds)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_default_seed_matches_pins(trace):
    proc = _bench("--workload", "bulk_spec", "--seed", "1", "--seconds", "0.1",
                  "--trace", trace)
    result = _result(proc)
    assert proc.returncode == 0, proc.stdout
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in declared[section]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "bulk_spec", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
