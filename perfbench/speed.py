"""Processor-speed reference, sampled while a timed section runs.

The machine the benchmark was tuned on drifts between a fast and a slow state
for tens of seconds at a time (see README.md, "Speed reference"), so the wall
time of one replay says as much about the state as about the program. This module
measures the state over exactly the timed interval: a real-time interval timer
interrupts the measured process every ``INTERVAL_S`` and runs a fixed kernel
that does not touch the library. Its mix resembles a replay's and a set-up's
(see ``kernel``).

A section's time at reference speed is its processor time, without the
handler, divided by ``slowdown``: the mean processor time of a warm kernel
over the section divided by ``REFERENCE_KERNEL_S``. Processor time leaves out
the time the host gave to other guests (steal) or other processes, which on a
shared machine is most of the difference between wall and processor time.
Set-up and replay are processor-bound, so it leaves out little else; the
caller keeps the wall time too. The kernel runs in the Python signal handler,
that is between bytecodes of the main thread, so no extra thread or process
is started."""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.2
# The kernel's mean time on the reference machine: a 2-vCPU x86-64 cloud VM
# (Python 3.11, numpy 2.4) in the slower of its two states, where it spent most
# of the time. Any constant would do, as only runs on one machine are compared;
# this one keeps figures close to the wall-clock ones there.
REFERENCE_KERNEL_S = 0.0025

_rng = np.random.default_rng(0)
_VECS = [_rng.standard_normal(32) for _ in range(24)] + [_rng.standard_normal(300) for _ in range(4)]
_COORDS = [(float(a), float(b)) for a, b in _rng.uniform(-60.0, 60.0, size=(40, 2))]
_LINE = "tok000000 " + " ".join(repr(float(x)) for x in _rng.standard_normal(300))


def kernel() -> float:
    """Fixed work, about 2.5 ms on the reference machine.

    Parsing a 300-float text row (the embedding table and the stream) takes
    about half the time; great-circle distances in pure Python (labeling) and
    cosine similarities of small numpy vectors (routing and team prediction)
    take a quarter each.
    """
    acc = 0.0
    counts: dict[int, float] = {}
    lat0, lon0 = _COORDS[0]
    for i, (lat, lon) in enumerate(_COORDS * 10):
        p1, p2 = math.radians(lat0), math.radians(lat)
        h = (math.sin((p2 - p1) / 2.0) ** 2
             + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon - lon0) / 2.0) ** 2)
        d = 2.0 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))
        counts[i & 15] = counts.get(i & 15, 0.0) + d
    q32, q300 = _VECS[0], _VECS[-1]
    for _ in range(3):
        for v in _VECS:
            q = q32 if v.shape == q32.shape else q300
            na, nq = float(np.linalg.norm(v)), float(np.linalg.norm(q))
            acc += float(np.dot(v, q) / (na * nq))
    for _ in range(8):
        acc += sum(map(float, _LINE.split(" ")[1:]))
    return acc + sum(counts.values())


@dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0  # processor time of the whole section
    handler_wall_s: float = 0.0  # all time in the signal handler
    handler_cpu_s: float = 0.0
    timed_cpu_s: float = 0.0  # processor time of the warm kernels only
    kernels: int = 0

    @property
    def own_s(self) -> float:
        """Wall time of the section without the signal handler."""
        return self.wall_s - self.handler_wall_s

    @property
    def busy_s(self) -> float:
        """Processor time of the section without the signal handler."""
        return self.cpu_s - self.handler_cpu_s

    def slowdown(self) -> float:
        """Mean processor time of a warm kernel against the reference."""
        return self.timed_cpu_s / self.kernels / REFERENCE_KERNEL_S

    def reference_s(self) -> float:
        """The section's processor time at reference speed."""
        return self.busy_s / self.slowdown()


@contextmanager
def sampling():
    """Time the block, running the kernel every INTERVAL_S of wall time."""
    sample = Sample()

    def tick(signum, frame):
        # the section evicts the kernel's code and data between ticks; a first,
        # untimed run brings them back, so that the timed one measures the
        # processor rather than how much of the cache the section used
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1 = time.thread_time()
        kernel()
        w2, c2 = time.perf_counter(), time.thread_time()
        sample.handler_wall_s += w2 - w0
        sample.handler_cpu_s += c2 - c0
        sample.timed_cpu_s += c2 - c1
        sample.kernels += 1

    previous = signal.signal(signal.SIGALRM, tick)
    w0, c0 = time.perf_counter(), time.thread_time()
    # one kernel at the start, so that even a short section has a sample
    tick(None, None)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield sample
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        sample.wall_s = time.perf_counter() - w0
        sample.cpu_s = time.thread_time() - c0
        signal.signal(signal.SIGALRM, previous)
