"""Host-speed reference loop and reference-normalized timing.

The host this benchmark runs on changes speed by up to ~1.7x in spells
that last several seconds, longer than a run, so no statistic taken
inside one run can remove them.  Every timed sample is therefore
bracketed by a fixed reference loop that belongs to the benchmark
alone, and its time is scaled by ``c_ref / c``: ``c`` is the median of
the loop times around the sample (its two bracketing loops and any
other loop within :data:`WINDOW_S`) and ``c_ref`` the constant
:data:`C_REF_NS_PER_REP` times the loop length.  A normalized time
reads "how long this would have taken on a host that runs the loop at
``C_REF_NS_PER_REP`` ns per repetition".

The loop touches dicts and lists (which tracks the interpreter's speed
better than pure integer arithmetic), calls no ``repro`` code,
allocates nothing the program can see and runs with ``gc`` disabled.
Callers run it only when no program work is in flight: no outstanding
service request and no helper process.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import statistics
import time

#: repetitions of one reference loop (~3.5 ms on a 2-vCPU VM).
REF_REPS = 12_000
#: the normalization constant: reference-host ns per loop repetition.
C_REF_NS_PER_REP = 300.0
#: a finished loop may bracket the next sample only if it ended this
#: recently (seconds); otherwise a fresh loop runs first.
_CARRY_S = 0.02
#: loops within this many seconds of a sample set its ``c``.
WINDOW_S = 0.5


class RefLoop:
    """The fixed reference workload; owns its own list and dict.

    Both are small enough (~150 KB) to stay cache-resident, and one
    untimed pass over them precedes each timed loop, so the time does
    not depend on what the program left in the caches."""

    def __init__(self) -> None:
        self._lst = list(range(1 << 12))
        self._dict = {i: i for i in range(1 << 10)}

    def _touch(self, reps: int) -> int:
        lst = self._lst
        d = self._dict
        acc = 0
        for i in range(reps):
            k = (i * 7) & 1023
            d[k] = (d[k] + i) & 0xFFFF
            acc += lst[(i * 13) & 4095]
        return acc

    def run(self, reps: int = REF_REPS) -> int:
        """Run ``reps`` repetitions with gc off; returns elapsed ns."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._touch(4096)  # warm: every list slot and dict key once
            t0 = time.perf_counter_ns()
            self._touch(reps)
            elapsed = time.perf_counter_ns() - t0
        finally:
            if was_enabled:
                gc.enable()
        return elapsed


class Sample:
    """One timed sample; its normalized time is computed on first read,
    once the loops that follow it exist."""

    __slots__ = ("raw", "t0", "t1", "_clock", "_norm")

    def __init__(self, raw: float, t0: float, t1: float, clock: "HostClock"):
        self.raw = raw
        self.t0 = t0
        self.t1 = t1
        self._clock = clock
        self._norm = None

    @property
    def norm(self) -> float:
        if self._norm is None:
            self._norm = self.raw * self._clock.scale(self.t0, self.t1)
        return self._norm


class HostClock:
    """Times samples bracketed by reference loops.

    ``time(fn, *args)`` returns ``(Sample, fn_result)``; ``bracket()``
    times a group of back-to-back samples between one pair of loops.
    The loop after one sample doubles as the loop before the next when
    the next starts within ``_CARRY_S``.  A sample's ``c`` is
    the median of every loop within :data:`WINDOW_S` of it — always
    including its two bracketing loops — so one loop hit by an
    interrupt does not skew it, while spells of several seconds are
    still tracked.
    """

    def __init__(self, reps: int = REF_REPS, spans=None) -> None:
        self.reps = reps
        self._loop = RefLoop()
        self._spans = spans
        self._carry_end: float | None = None
        #: (mid-point time, ns) of every reference loop, in time order.
        self.loops: list[tuple[float, int]] = []

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        if self._spans is not None:
            with self._spans.span("host"):
                ns = self._loop.run(self.reps)
        else:
            ns = self._loop.run(self.reps)
        self.loops.append((t0 + ns / 2e9, ns))
        self._carry_end = time.perf_counter()

    @contextlib.contextmanager
    def bracket(self):
        """Bracket a group of back-to-back samples with loops; yields a
        ``timer(fn, *args) -> (Sample, fn_result)`` for each of them."""
        if self._carry_end is None or time.perf_counter() - self._carry_end > _CARRY_S:
            self._calibrate()

        def timer(fn, *args):
            t0 = time.perf_counter()
            out = fn(*args)
            t1 = time.perf_counter()
            return Sample(t1 - t0, t0, t1, self), out

        try:
            yield timer
        finally:
            self._calibrate()

    def time(self, fn, *args):
        """Time one sample between its own pair of loops."""
        with self.bracket() as timer:
            return timer(fn, *args)

    def c_ns(self, t0: float, t1: float) -> float:
        """Median loop time around the interval ``[t0, t1]``."""
        mids = [t for t, _ in self.loops]
        lo = bisect.bisect_left(mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(mids, t1 + WINDOW_S)
        return statistics.median(ns for _, ns in self.loops[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """``c_ref / c`` for a sample taken over ``[t0, t1]``."""
        return C_REF_NS_PER_REP * self.reps / self.c_ns(t0, t1)

    def calib_ms(self) -> float:
        """Median raw reference-loop time, ms (the host diagnostic)."""
        return statistics.median(ns for _, ns in self.loops) / 1e6 if self.loops else 0.0


@contextlib.contextmanager
def quiet_heap():
    """Collect, then move every object that exists now out of the
    collector's view for the duration of a timed stage, so the
    benchmark's own bookkeeping does not lengthen the program's
    garbage-collection passes."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
