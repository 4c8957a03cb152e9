"""Host-normalised timing: every evaluation is timed next to a fixed reference kernel.

The CPU speed of a shared host drifts by up to 2x over a few seconds, and
process time drifts with wall time, so one raw timing is not reproducible.
The reference kernel is a fixed stdlib-only Fraction/dict loop, shaped like
the exact layers' hot path (Fraction products summed into a dict keyed by
tuples).  It imports nothing from the program, so no change to the program
can change it.

An evaluation's cost in xref units is its CPU seconds divided by the mean
CPU seconds of the two kernel runs that bracket it.  CPU time leaves out the
time the host preempts the process, and the kernel ratio divides out the
host's speed.  The speed changes within a second, so the kernel is short and
runs often: the nearest kernels tracked it better than medians over wider
windows.  Wall time is kept alongside for people to read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time
from typing import Callable, Hashable, List, Optional

_A = tuple(Fraction((7 * i) % 19 - 9, 1 + i % 4) for i in range(24))
_B = tuple(Fraction((5 * i) % 17 - 8, 1 + i % 3) for i in range(24))


def reference_kernel() -> Fraction:
    acc: dict = {}
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            key = ((i + j) % 23, (i * j) % 7)
            acc[key] = acc.get(key, 0) + a * b
    return sum(acc.values(), Fraction(0))


KERNEL_VALUE = reference_kernel()


def kernel_cpu_seconds() -> float:
    """CPU seconds of one checked kernel run."""
    c0 = process_time()
    value = reference_kernel()
    cpu = process_time() - c0
    if value != KERNEL_VALUE:
        raise RuntimeError("reference kernel returned a wrong value")
    return cpu


# A kernel run takes about 3 ms; one runs before a timed call whenever this
# much wall time has passed since the last, so the bracket stays short and
# the kernel costs about a seventh of the run.
KERNEL_INTERVAL_S = 0.02


@dataclass
class Sample:
    """One timed call: `evals` evaluations of one class in one round.

    Calls that share a `group` form one latency sample (their evaluations'
    mean); each call is still normalised by its own bracketing kernels."""

    seconds: float   # wall
    cpu: float
    kernel_before: int
    label: Optional[str]
    round: int
    evals: int
    group: Hashable
    xref: float = 0.0


class Meter:
    """Times calls and runs the reference kernel between them."""

    def __init__(self, tracer=None):
        self.kernel_cpu: List[float] = []
        self.samples: List[Sample] = []
        self.round = 0
        self.tracer = tracer
        self._eval_seq = 0
        self._last_kernel_end = float("-inf")
        self._closed = 0   # samples before this index have their xref

    def _run_kernel(self) -> None:
        self.kernel_cpu.append(kernel_cpu_seconds())
        self._last_kernel_end = perf_counter()

    def time(self, fn: Callable, *args, label: Optional[str] = None, evals: int = 1,
             group: Optional[Hashable] = None):
        """Call fn(*args), record its wall and CPU time, and return its result.

        An exception from fn propagates and no sample is recorded.
        """
        if perf_counter() - self._last_kernel_end >= KERNEL_INTERVAL_S:
            self._run_kernel()
        self._eval_seq += 1
        if self.tracer is not None:
            self.tracer.eval_id = self._eval_seq
        t0, c0 = perf_counter(), process_time()
        out = fn(*args)
        cpu, wall = process_time() - c0, perf_counter() - t0
        self.samples.append(Sample(wall, cpu, len(self.kernel_cpu) - 1, label, self.round, evals,
                                   self._eval_seq if group is None else group))
        return out

    def close(self) -> None:
        """Run a kernel so every sample so far has one right after it, and fill in
        their xref.  Called at the end of each round."""
        self._run_kernel()
        for s in self.samples[self._closed:]:
            k = s.kernel_before
            s.xref = s.cpu / ((self.kernel_cpu[k] + self.kernel_cpu[k + 1]) / 2)
        self._closed = len(self.samples)
