"""Host-speed probes for the benchmark's timings.

On a shared host the speed of pure-Python code changes by a factor of two
from one tenth of a second to the next, as other tenants load the cores,
and the share of slow stretches drifts over minutes. Two sets of raw wall
times taken an hour apart then disagree by more than any useful bound,
whatever the program does.

So while a measured call runs, a CPU-time interval timer (SIGPROF, every
INTERVAL_S of process CPU time) interrupts it and times a tiny fixed probe
kernel. The mean probe time over the call tells how fast the host ran
during that very call. Every time is then reported in *reference seconds*:
the call's own seconds (the probes' time taken out) times PROBE_REF_S over
the mean probe time. On a host where one probe takes PROBE_REF_S (a 2-vCPU
x86-64 VM with Python 3.11 at its usual speed), reference seconds equal
wall seconds. A change to verikg moves the call's seconds but not the
probe, so it shows in full.

The probe never calls verikg and runs with the garbage collector off, so
the program's heap does not leak into it. It follows the host's changing
share of the cores, not every slowdown: when neighbours contend for caches,
memory or disk instead, verikg slows more than the probe, and the reference
seconds of one input still move by a tenth or more between hours.
"""

from __future__ import annotations

import gc
import signal
import time

PROBE_REF_S = 60e-6  # seconds of one probe on the reference host
INTERVAL_S = 0.005  # process CPU time between probes


class _Node:
    """A binary operator node of the probe's expression tree."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right):
        self.op, self.left, self.right = op, left, right

    def eval(self, env: dict) -> int:
        a = self.left.eval(env) if type(self.left) is _Node else env.get(self.left, self.left)
        b = self.right.eval(env) if type(self.right) is _Node else env.get(self.right, self.right)
        if self.op == 0:
            return a & b
        if self.op == 1:
            return a ^ b
        return (a + b) & 255


def _tree(depth: int, i: int = 0):
    if depth == 0:
        return ("x", "y", "z", 3, 5)[i % 5]
    return _Node(i % 3, _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


_TREE = _tree(6)


def probe_kernel() -> int:
    """A fixed amount of interpreter-like work: evaluate an expression tree
    of 127 nodes three times. Of the kernels tried (dict and tuple
    updates, string building, this one), its slowdown tracked that of
    verikg's runs most closely on the host named above."""
    return sum(_TREE.eval({"x": x, "y": 3 * x, "z": 7}) for x in range(3))


class Probe:
    """Times `probe_kernel` on every SIGPROF while started; `count` and
    `seconds` are running totals."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0

    def _on_prof(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:  # the run's time cap may fire in here
            start = time.perf_counter()
            probe_kernel()
            self.seconds += time.perf_counter() - start
            self.count += 1
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def totals(self) -> tuple[int, float]:
        return self.count, self.seconds


def scale(before: tuple[int, float], after: tuple[int, float]) -> float:
    """Reference seconds per second between two `Probe.totals`: PROBE_REF_S
    over the mean probe time. With no probe in between (less than
    INTERVAL_S of CPU time) the scale is 1."""
    count, seconds = after[0] - before[0], after[1] - before[1]
    return PROBE_REF_S * count / seconds if count else 1.0
