"""verikg benchmark: whole `run_all` timings per workload, plus a traced run
that reports each layer on its own.

Run from the repository root:

    python3 perfbench/run.py --workload wide_fifo --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated from --seed; see workloads.py):

- wide_fifo     the fixture FIFO with a 3-bit data path, checked against
                its cover requirement only (engine-bound)
- bulk_spec     300 seeded requirements on the gappy design (front end,
                graph, CEX loop; the engine does little)
- many_designs  100 seeded designs, one short run_all each (fixed costs)

Each invocation runs in one process with no worker threads. It sets up
(imports verikg and generates the inputs) several times and reports the
median as `setup_s`, then runs `run_all` with the scripted backend and a
fixed `created_at` in units (one run_all; for many_designs one pass over
all designs) until --seconds have passed. Each run has a time cap
(CAP_S); a run over it is a `timeout` and counts as failed.

Every time is reported in reference seconds (speed.py): a fixed probe
kernel is timed on a CPU-time interval timer while each measured call
runs, and the call's seconds are rescaled by the probe's slowdown during
that call, so that the changing speed of a shared host cancels out. The
measured seconds are printed beside them.

Outputs are checked: every run id must equal the one pinned in
workloads.json for the default seed (for other seeds, the first run of the
same input), and the first run's transcript is replayed once through the
replay backend, which must give a byte-identical run directory.

--trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
untraced units, prints the per-layer metrics (layers.py) and
`trace.overhead`, and fails if two traced units of the same input give
different counters. Spans are written to perfbench/.work, never into a run
directory.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when `correct` is true.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPS = 7
CAP_S = 60.0
MIN_TRACED_UNITS = 2
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
TAIL_MIN_PCT = 75  # the tail percentile when there are too few samples
FINAL_VERDICTS = {"proven", "cex", "vacuous"}


class RunTimeout(BaseException):
    """Raised inside run_all when the per-run cap expires.

    A BaseException, so verikg's own `except Exception` handlers cannot
    swallow it.
    """


def _on_alarm(_signum, _frame):
    raise RunTimeout()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def dir_digest(run_dir: Path) -> str:
    """Hash of every file's relative path and bytes under `run_dir`.

    run_context.json records which backend produced the run; that one field
    is normalised so a replayed run can equal its recording.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_context.json":
            doc = json.loads(data)
            doc["config_snapshot"]["backend"] = "scripted"
            data = json.dumps(doc, sort_keys=True).encode("utf-8")
        h.update(path.relative_to(run_dir).as_posix().encode("utf-8") + b"\0")
        h.update(data + b"\0")
    return h.hexdigest()


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile, at most p99,
    with at least TAIL_BEYOND samples above its nearest-rank position; with
    too few samples for that, TAIL_MIN_PCT, so the tail never falls below
    the median."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, TAIL_MIN_PCT, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], p
    return ordered[math.ceil(TAIL_MIN_PCT * n / 100) - 1], TAIL_MIN_PCT


class Sample(NamedTuple):
    """One successful run: measured wall and CPU seconds (the probes' time
    taken out), final verdicts, and the reference seconds per measured
    second of its unit."""
    wall: float
    cpu: float
    verdicts: int
    scale: float


class Session:
    """Runs one workload's jobs and checks their outputs."""

    def __init__(self, prog, jobs: list[dict], work: Path, cap: float,
                 pinned: list[str] | None):
        self.prog = prog
        self.jobs = jobs
        self.work = work
        self.cap = cap
        self.pinned = pinned
        self.probe = speed.Probe()
        self.scale = 1.0  # of the last unit
        self.first_ids: dict[int, str] = {}
        self.verdicts: dict[int, int] = {}
        self.ref_digest = ""
        self.transcript = work / "transcript.json"
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed run
        self.problems: list[str] = []  # failed checks that are not runs

    def _attempt(self, job: dict, out_root: Path, **extra):
        """One capped and probed run_all: (report, wall s, cpu s, error),
        the times without the probes' own. On a timeout or an exception,
        report is None and error says why."""
        cfg = self.prog.pipeline.RunConfig(out_root=str(out_root), **job, **extra)
        if out_root.exists():
            shutil.rmtree(out_root)
        self.attempted += 1
        probed = self.probe.seconds
        signal.setitimer(signal.ITIMER_REAL, self.cap)
        self.probe.start()
        try:
            start, cpu = time.perf_counter(), _cpu_seconds()
            report = self.prog.pipeline.run_all(cfg)
            wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu
        except RunTimeout:
            return None, 0.0, 0.0, f"timeout after {self.cap:g} s"
        except Exception as exc:  # any failure of the program counts
            return None, 0.0, 0.0, f"{type(exc).__name__}: {exc}"
        finally:
            self.probe.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
        probed = self.probe.seconds - probed
        return report, wall - probed, cpu - probed, None

    def run_unit(self, tracer: layers.Tracer | None = None) -> list[Sample]:
        """One run_all per job; returns a Sample per successful run, all
        with the scale of the unit's probes."""
        runs = []
        before = self.probe.totals()
        out_root = self.work / "out"
        for i, job in enumerate(self.jobs):
            report, wall, cpu, error = self._attempt(job, out_root)
            expected = (self.pinned[i] if self.pinned
                        else self.first_ids.get(i, report and report.run_id))
            if error is None and report.run_id != expected:
                error = f"run id {report.run_id} != expected {expected}"
            if error is not None:
                self.failures.append(f"job {i}: {error}")
                continue
            run_dir = out_root / report.run_id
            if i not in self.first_ids:
                self.first_ids[i] = report.run_id
                self.verdicts[i] = _final_verdicts(run_dir)
                if i == 0:
                    self.ref_digest = dir_digest(run_dir)
                    shutil.copyfile(run_dir / "transcript.json", self.transcript)
            if tracer is not None:
                tracer.count_run_dir(run_dir)
            runs.append((wall, cpu, self.verdicts[i]))
        self.scale = speed.scale(before, self.probe.totals())
        return [Sample(*run, self.scale) for run in runs]

    def replay_check(self) -> None:
        """Replay the first recorded transcript; the run directory must be
        byte-identical to the recording (untimed)."""
        if not self.ref_digest:
            self.problems.append("replay: no successful recording to replay")
            return
        root = self.work / "replay"
        report, _wall, _cpu, error = self._attempt(
            self.jobs[0], root, backend="replay", transcript_path=str(self.transcript))
        if error is None and report.run_id != self.first_ids[0]:
            error = f"run id {report.run_id} != {self.first_ids[0]}"
        elif error is None and dir_digest(root / report.run_id) != self.ref_digest:
            error = "run directory differs from the recording"
        if error is not None:
            self.failures.append(f"replay: {error}")


def _final_verdicts(run_dir: Path) -> int:
    doc = json.loads((run_dir / "formal_results.json").read_text(encoding="utf-8"))
    return sum(1 for r in doc if r["status"] in FINAL_VERDICTS)


def setup(workload: str, seed: int, spec: dict, in_dir: Path):
    """Import verikg and generate the inputs SETUP_REPS times, probed.
    Returns the program, the jobs and (seconds without the probes, scale)
    of each repetition; the last import is the one measured afterwards."""
    probe = speed.Probe()
    reps = []
    for _ in range(SETUP_REPS):
        if in_dir.exists():
            shutil.rmtree(in_dir)
        before = probe.totals()
        probe.start()
        try:
            start = time.perf_counter()
            prog = W.load_program(ROOT)
            jobs = W.generate(workload, seed, spec["generators"][workload],
                              spec["created_at"], prog, in_dir)
            took = time.perf_counter() - start
        finally:
            probe.stop()
        after = probe.totals()
        reps.append((took - (after[1] - before[1]), speed.scale(before, after)))
    gc.collect()  # drop the earlier imports before anything is measured
    return prog, jobs, reps


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure(session: Session, seconds: float) -> list[Sample]:
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        samples += session.run_unit()
    return samples


def end_to_end(samples: list[Sample], setup_reps, rescale: bool) -> tuple[dict, int]:
    """The end-to-end metrics in reference seconds, or with `rescale`
    false in measured seconds; also the percentile of run_s.tail."""
    def k(scale):
        return scale if rescale else 1.0
    walls = [s.wall * k(s.scale) for s in samples]
    value, pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(t * k(scale) for t, scale in setup_reps),
        "run_s": statistics.median(walls),
        "run_s.tail": value,
        "verdicts_per_s": sum(s.verdicts for s in samples) / sum(walls),
        "cpu_s": statistics.median(s.cpu * k(s.scale) for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, pct


def traced(session: Session, seconds: float, tracer: layers.Tracer, span_file: Path):
    """Alternate traced and untraced units, starting traced, until
    `seconds` have passed and MIN_TRACED_UNITS traced units ran. Returns
    the untraced samples, the traced wall times, and the counters and layer
    seconds of each traced unit."""
    plain, traced_walls = [], []
    counter_sets, seconds_sets = [], []
    plain_units = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(counter_sets) < MIN_TRACED_UNITS):
        if len(counter_sets) <= plain_units:
            tracer.reset()
            tracer.install()
            try:
                samples = session.run_unit(tracer)
            finally:
                tracer.remove()
            if len(samples) != len(session.jobs):
                break  # a failed run; reported through session.failures
            traced_walls += [s.wall * s.scale for s in samples]
            counter_sets.append(tracer.unit_counters())
            seconds_sets.append({name: t * session.scale
                                 for name, t in tracer.unit_seconds().items()})
            if len(counter_sets) == 1:
                _write_spans(tracer, span_file)
        else:
            plain += session.run_unit()
            plain_units += 1
    return plain, traced_walls, counter_sets, seconds_sets


def _write_spans(tracer: layers.Tracer, path: Path) -> None:
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with path.open("w", encoding="utf-8") as f:
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                "start_s": start - origin, "end_s": end - origin}) + "\n")


def per_layer(plain, traced_walls, counter_sets, seconds_sets) -> dict:
    counters = counter_sets[0]
    out: dict[str, float] = dict(counters)
    for name in seconds_sets[0]:
        out[name] = statistics.median(s[name] for s in seconds_sets)
    out["rtl.step_reuse"] = (counters["rtl.step_distinct"] / counters["rtl.step_calls"]
                             if counters["rtl.step_calls"] else 0.0)
    check_s = out["engine.check_s"]
    out["engine.states_per_s"] = counters["engine.explored_states"] / check_s if check_s else 0.0
    if plain:
        out["trace.overhead"] = statistics.median(traced_walls) / statistics.median(
            s.wall * s.scale for s in plain)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "verikg").is_dir() or not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: verikg sources not found under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    work = BENCH.relative_to(ROOT) / ".work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    facts_before = host_facts()

    prog, jobs, setup_reps = setup(args.workload, args.seed, spec, work / "in")
    pinned = (spec["pinned_run_ids"][args.workload]
              if args.seed == spec["default_seed"] else None)
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(prog, jobs, work, CAP_S, pinned)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} cap {CAP_S:g}")
    print(f"host before: {json.dumps(facts_before)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = {}
    if args.trace:
        tracer = layers.Tracer()
        plain, traced_walls, counter_sets, seconds_sets = traced(
            session, args.seconds, tracer, work / "spans.jsonl")
        session.replay_check()
        if any(c != counter_sets[0] for c in counter_sets):
            session.problems.append("traced units gave different counters")
        metrics = (per_layer(plain, traced_walls, counter_sets, seconds_sets)
                   if counter_sets else {})
        notes = [f"{len(counter_sets)} traced units, {len(plain)} untraced runs; "
                 "counters are per unit, times are medians over traced units"]
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        samples = measure(session, args.seconds)
        session.replay_check()
        metrics, notes = {}, []
        if samples:
            metrics, pct = end_to_end(samples, setup_reps, rescale=True)
            measured, _pct = end_to_end(samples, setup_reps, rescale=False)
            notes = [f"run_s.tail is p{pct} of n={len(samples)} runs",
                     "reference seconds per measured second: median "
                     f"{statistics.median(s.scale for s in samples):.4g} (runs), "
                     f"{statistics.median(k for _t, k in setup_reps):.4g} (set-up)"]
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print(f"host after: {json.dumps(host_facts())}")

    print(f"{'metric':24s} {'value':12s} {'unit':6s} measured")
    for name, value in sorted(metrics.items()):
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        unit = declared.get(name, "s" if name.endswith("_s") else "count")
        raw = f"{measured[name]:.6g}" if name in measured else ""
        print(f"{name:24s} {text:12s} {unit:6s} {raw}")
    failed = len(session.failures)
    print(f"{'fail_ratio':24s} {failed / max(session.attempted, 1):<12.6g} ratio  "
          f"({failed} of {session.attempted} runs)")
    for note in notes:
        print(note)
    print("run ids: " + json.dumps([session.first_ids.get(i) for i in range(len(jobs))]))
    missing = [name for name in declared if name not in metrics]
    if missing:
        session.problems.append("no value for " + ", ".join(missing))
    for problem in session.failures + session.problems:
        print(f"FAIL {problem}")

    correct = not (session.failures or session.problems)
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
