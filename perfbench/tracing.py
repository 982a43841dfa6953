"""In-memory spans recorded from the benchmark's own files.

A span has a name, a start and an end (``perf_counter_ns``), the span that
was open when it began (its parent) and the observation it belongs to.
Spans are kept in flat typed arrays until the run ends, then folded into
per-name totals.  A span's self time is its duration minus the time its
direct children cover.

``Traced`` wraps one pluggable object (classifier, clusterer, statistic) so
that calls to the listed methods become child spans of whatever layer called
them; every other attribute read or write goes to the wrapped object.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("l")
        self._obs = array("l")
        self._open: list[int] = []
        self.obs = -1  # observation id stamped on the spans that begin next

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._open[-1] if self._open else -1)
        self._obs.append(self.obs)
        self._end.append(0)
        self._open.append(idx)
        self._start.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _arrays(self):
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        return ((end - start).astype(np.float64),
                np.frombuffer(self._parent, dtype=np.int_),
                np.frombuffer(self._obs, dtype=np.int_) >= 0)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, total ``ns`` and ``self_ns``.

        Spans stamped with observation -1 are the harness's own bookkeeping
        (output checks, extra counts) and are left out.
        """
        dur, parent, kept = self._arrays()
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        names = np.frombuffer(self._name, dtype=np.uint16)[kept]
        k = len(self.names)
        count = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur[kept], minlength=k)
        own = np.bincount(names, weights=(dur - child)[kept], minlength=k)
        return {
            name: {"count": int(count[i]), "ns": float(total[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def top_level_ns(self) -> float:
        """Time covered by the kept spans that have no parent."""
        dur, parent, kept = self._arrays()
        return float(dur[kept & (parent < 0)].sum())


class Traced:
    """Proxy whose listed methods record a span named ``name`` per call."""

    def __init__(self, tracer: Tracer, target, name: str, methods):
        slots = self.__dict__
        slots["_target"] = target
        for method in methods:
            slots[method] = _spanned(tracer, name, getattr(target, method))

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def __setattr__(self, attr, value):
        setattr(self._target, attr, value)


def _spanned(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return call
