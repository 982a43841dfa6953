"""Machine-speed normalisation of measured times.

On a shared host the same Python code runs up to twice as fast in one
second as in another (CPU time tracks wall time, so it is not stolen time
but a slower core).  Such phases last seconds, so wall times of two runs
differ by far more than any change worth detecting.

``Meter`` therefore runs a fixed pure-Python reference kernel between
operations, about every ``EVERY_NS`` of wall time, and scales every measured
duration by ``NOMINAL_NS / (reference duration near it)``.  A reported time
is the time the operation would have taken on a machine where the kernel
takes exactly ``NOMINAL_NS``; measured on a 2-core x86 container, the fast
phase of that machine runs the kernel in about that time.  The kernel mixes
what sigauto does per observation: string-keyed dict updates over a few
thousand keys, float arithmetic, small tuples and method calls.

Only modules that the interpreter has loaded at start-up are imported
here, so the worker can calibrate before it imports the program without
paying part of the program's import time.
"""

from __future__ import annotations

import gc
import math
from array import array
from time import perf_counter_ns

NOMINAL_NS = 2_000_000
EVERY_NS = 100_000_000
KERNEL_REPS = 3  # kernel runs per calibration; their median is recorded
WINDOW = 2  # calibrations on each side of a chunk that set its speed

_KEYS = [str(k) for k in range(4096)]
_CELLS = {key: [k, k + 1] for k, key in enumerate(_KEYS[:3000])}


class _Acc:
    __slots__ = ("value", "count")

    def __init__(self):
        self.value = 0.0
        self.count = 0

    def add(self, x: float) -> None:
        self.value = self.value * 0.5 + x
        self.count += 1


def reference_kernel() -> float:
    """Fixed work of about 2 ms on the nominal machine."""
    table: dict[str, _Acc] = {}
    total = 0.0
    for i in range(1500):
        key = _KEYS[(i * 2654435761) % 4096]
        acc = table.get(key)
        if acc is None:
            acc = table[key] = _Acc()
        point = (i * 0.37, i * 0.11)
        acc.add(math.floor(point[0]) + point[1] * 0.5)
        total += acc.value / (acc.count + 1.0)
    # copying a structure of small lists, as the lookahead frontier does
    copied = {key: list(cells) for key, cells in _CELLS.items()}
    return total + len(copied)


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def kernel_ns() -> int:
    """Median kernel time, with the garbage collector off so that the size of
    the program's heap cannot enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        laps = []
        for _ in range(KERNEL_REPS):
            t0 = perf_counter_ns()
            reference_kernel()
            laps.append(perf_counter_ns() - t0)
    finally:
        if enabled:
            gc.enable()
    return int(median(laps))


class Meter:
    """Busy time and latency samples, each tagged with the calibration chunk
    it fell in, plus the reference-kernel timings that bound the chunks.

    Chunk ``c`` is the stretch between calibration ``c - 1`` and ``c``.
    Calibrate once before the first operation and once after the last.
    Samples are kept in flat arrays so that their memory, which counts in
    the workload's peak RSS, stays small.
    """

    def __init__(self):
        self.refs: list[int] = []
        self.busy: list[int] = [0]  # busy ns per chunk
        self.samples: dict[str, tuple[array, array]] = {}  # kind -> (ns, chunk)
        self._open: int | None = None
        self._last = -EVERY_NS

    def calibrate(self, force: bool = False) -> None:
        """Run the kernel if ``EVERY_NS`` has passed; never counted as busy."""
        now = perf_counter_ns()
        if not force and now - self._last < EVERY_NS:
            return
        if self._open is not None:
            self.busy[-1] += now - self._open
        self.refs.append(kernel_ns())
        self.busy.append(0)
        self._last = perf_counter_ns()
        if self._open is not None:
            self._open = self._last

    def begin(self) -> int:
        self._open = perf_counter_ns()
        return self._open

    def end(self) -> int:
        """Close the busy interval; returns the end stamp."""
        now = perf_counter_ns()
        self.busy[-1] += now - self._open
        self._open = None
        return now

    def pause(self) -> None:
        """Stop counting busy time inside an open interval, for harness work."""
        self.busy[-1] += perf_counter_ns() - self._open

    def resume(self) -> None:
        self._open = perf_counter_ns()

    def sample(self, kind: str, ns: int, chunk: int | None = None) -> None:
        series = self.samples.get(kind)
        if series is None:
            series = self.samples[kind] = (array("q"), array("l"))
        series[0].append(ns)
        series[1].append(len(self.refs) if chunk is None else chunk)

    def timed(self, kind: str, fn, *args):
        """``fn(*args)`` as one busy interval and one ``kind`` sample."""
        self.calibrate()
        t0 = self.begin()
        result = fn(*args)
        self.sample(kind, self.end() - t0)
        return result

    def factors(self) -> list[float]:
        """Scale of each chunk: nominal over the median kernel time near it."""
        return [
            NOMINAL_NS / median(self.refs[max(0, c - WINDOW):c + WINDOW] or self.refs)
            for c in range(len(self.refs) + 1)
        ]

    def raw_busy_ns(self) -> int:
        return sum(self.busy)

    def busy_ns(self) -> float:
        return sum(ns * f for ns, f in zip(self.busy, self.factors()))

    def normalized(self, kind: str) -> list[float]:
        scale = self.factors()
        ns, chunks = self.samples.get(kind, ((), ()))
        return [t * scale[c] for t, c in zip(ns, chunks)]
