"""Timing harness for the complexity contract.

Five claims are measured on a synthetic random-walk stream: the
per-observation update path (classifier step + automaton update + model
update) stays flat as the stream grows, and so does the one-step forecast
that follows each update; the from-scratch build path grows linearly; a
lookahead frontier advance (O(h) reconciliation) stays flat as the
frontier's history grows, and so does appending one observation and
re-deriving Scott's bandwidth (amortised O(1) moment folding).
Methodology: one discarded warm-up run at the smallest size, monotonic
clock, garbage collector paused while a path is measured, medians over at
least 30 samples per point.  Every gated figure is derived from the points.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import asdict, dataclass

from .automaton import build_isa
from .forecasting import forecast
from .hmm import isa_to_hmm
from .lookahead import lookahead_advance, lookahead_build
from .pipeline import StreamPipeline
from .plugins import (
    Clusterer,
    EmaGridClassifier,
    PluginParams,
    default_bandwidth,
    rho_fn,
    sigma_fn,
)
from .signal import Signal

MIN_SAMPLES = 30
LOOKAHEAD_HORIZON = 2
MAX_RATIO = 3.0
SLOPE_RANGE = (0.8, 1.2)
# Each flat series' report key, with the series and the gate's name.
RATIOS = {
    "constancy_ratio": ("update", "update-path constancy"),
    "forecast_ratio": ("forecast", "one-step forecast"),
    "lookahead_ratio": ("lookahead", "lookahead-advance"),
    "bandwidth_ratio": ("bandwidth", "append + Scott bandwidth"),
}


@dataclass
class BenchPoint:
    n: int
    samples: int
    median_ns: float
    p99_ns: float


@dataclass
class BenchReport:
    update: list[BenchPoint]
    build: list[BenchPoint]
    forecast: list[BenchPoint]
    lookahead: list[BenchPoint]
    bandwidth: list[BenchPoint]

    def ratio(self, series: str) -> float:
        """Median time at the largest n over the median at the smallest."""
        points = getattr(self, series)
        smallest = min(points, key=lambda p: p.n)
        largest = max(points, key=lambda p: p.n)
        return largest.median_ns / smallest.median_ns if smallest.median_ns else float("inf")

    @property
    def build_slope(self) -> float:
        """The least-squares slope of log10 median time against log10 n."""
        import numpy as np

        xs = np.log10([p.n for p in self.build])
        ys = np.log10([p.median_ns for p in self.build])
        return float(np.polyfit(xs, ys, 1)[0])

    def failures(self) -> list[str]:
        problems = [f"{gate} ratio {ratio:.2f} exceeds {MAX_RATIO}"
                    for series, gate in RATIOS.values()
                    if (ratio := self.ratio(series)) > MAX_RATIO]
        lo, hi = SLOPE_RANGE
        if not (lo <= self.build_slope <= hi):
            problems.append(
                f"build-path log-log slope {self.build_slope:.3f} outside [{lo}, {hi}]"
            )
        return problems

    def to_dict(self) -> dict:
        return {**asdict(self),
                **{key: self.ratio(series) for key, (series, _) in RATIOS.items()},
                "build_slope": self.build_slope, "max_ratio": MAX_RATIO,
                "slope_range": SLOPE_RANGE}


def _point(n: int, samples_ns: list[int]) -> BenchPoint:
    if len(samples_ns) < MIN_SAMPLES:
        raise ValueError(f"refusing to report from {len(samples_ns)} samples (< {MIN_SAMPLES})")
    ordered, mid = sorted(samples_ns), len(samples_ns) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    p99 = ordered[min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))]
    return BenchPoint(n=n, samples=len(ordered), median_ns=float(median), p99_ns=float(p99))


def random_walk(length: int, seed: int = 0, step: float = 0.3) -> list[float]:
    rng = random.Random(seed)
    value = 0.0
    out = []
    for _ in range(length):
        value += rng.gauss(0.0, step)
        out.append(value)
    return out


def _paths(params: PluginParams, walk: list[float], streams: tuple, builds: tuple) -> list:
    """The gated paths, as (series, (sizes, samples), reach).  ``reach(n)``
    brings a path to size n and returns ``next_ops``, which hands out one
    sample's operations, one per series.  ``streams`` and ``builds`` are
    (sizes, samples) pairs; the stream paths grow one state across sizes."""
    pipe, signal, updates, appends = StreamPipeline(params), Signal(), iter(walk), iter(walk)
    sigma, rho = sigma_fn(params), rho_fn(params)
    ahead = PluginParams.from_dict({**params.to_dict(), "horizon": LOOKAHEAD_HORIZON})

    def update(n):  # each update, and apart from it the forecast that reads its rows
        while pipe.n + 1 < n:
            pipe.advance(next(updates))

        def next_ops():
            obs = next(updates)
            return lambda: pipe.advance(obs), lambda: forecast(pipe.hmm, 1)
        return next_ops

    def build(n):
        prefix = Signal(walk[:n])

        def next_ops():
            classifier, clusterer = EmaGridClassifier(params), Clusterer(params.grid_width)
            return (lambda: isa_to_hmm(build_isa(prefix, classifier), prefix, sigma, rho,
                                       clusterer),)
        return next_ops

    def lookahead(n):  # a frontier built over the first n values, advanced by the next
        frontier, values = lookahead_build(walk[:n], ahead, seed=0), iter(walk[n:])

        def next_ops():
            value = next(values)
            return (lambda: lookahead_advance(frontier, value),)
        return next_ops

    def bandwidth(n):  # append one value and re-derive the bandwidth, once read at n
        while len(signal) < n:
            signal.append(next(appends))
        default_bandwidth(signal)

        def next_ops():
            obs = next(appends)
            return (lambda: (signal.append(obs), default_bandwidth(signal)),)
        return next_ops

    return [(("update", "forecast"), streams, update), (("build",), builds, build),
            (("lookahead",), (builds[0], streams[1]), lookahead),
            (("bandwidth",), streams, bandwidth)]


def _timed(series: tuple[str, ...], sizes, samples: int, reach) -> dict:
    """Each series' points: with the collector paused, walk ``sizes`` in
    ascending order, reach each size untimed, then time each operation of
    ``samples`` samples alone."""
    points = {name: [] for name in series}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in sorted(sizes):
            next_ops = reach(n)
            laps = [[] for _ in series]
            for _ in range(samples):
                for lap, op in zip(laps, next_ops()):
                    t0 = time.perf_counter_ns()
                    op()
                    lap.append(time.perf_counter_ns() - t0)
            for name, lap in zip(series, laps):
                points[name].append(_point(n, lap))
    finally:
        if enabled:
            gc.enable()
    return points


def run_bench(update_sizes: tuple[int, ...] = (2_000, 20_000, 200_000),
              build_sizes: tuple[int, ...] = (1_000, 10_000, 100_000),
              update_samples: int = 300,
              build_samples: int = MIN_SAMPLES,
              seed: int = 0,
              params: PluginParams | None = None) -> BenchReport:
    """Measure the five paths; the figures are derived from the points.

    Lookahead points advance frontiers built over ``build_sizes`` histories,
    ``update_samples`` advances each, at horizon ``LOOKAHEAD_HORIZON``.
    """
    params = params or PluginParams()
    walk = random_walk(max(max(update_sizes) + update_samples * len(update_sizes) + 16,
                           max(build_sizes) + update_samples), seed=seed)
    streams, builds = (update_sizes, update_samples), (build_sizes, build_samples)
    for series, (sizes, samples), reach in _paths(params, walk, streams, builds):
        _timed(series, [min(sizes)], samples, reach)  # warm-up, discarded
    points = {}
    for series, (sizes, samples), reach in _paths(params, walk, streams, builds):
        points.update(_timed(series, sizes, samples, reach))
    return BenchReport(**points)
