"""Timing harness for the complexity contract.

Five claims are measured on a synthetic random-walk stream: the
per-observation update path (classifier step + automaton update + model
update) stays flat as the stream grows, and so does the one-step forecast
that follows each update; the from-scratch build path grows linearly; a
lookahead frontier advance (O(h) reconciliation) stays flat as the
frontier's history grows, and so does appending one observation and
re-deriving Scott's bandwidth (amortised O(1) moment folding).
Methodology: one discarded warm-up run, monotonic clock, garbage collector
paused during timed sections, medians over at least 30 samples per point.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
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
    build_slope: float
    constancy_ratio: float
    forecast: list[BenchPoint]
    forecast_ratio: float
    lookahead: list[BenchPoint]
    lookahead_ratio: float
    bandwidth: list[BenchPoint]
    bandwidth_ratio: float
    max_ratio: float = 3.0
    slope_range: tuple[float, float] = (0.8, 1.2)

    def failures(self) -> list[str]:
        ratios = (("update-path constancy", self.constancy_ratio),
                  ("one-step forecast", self.forecast_ratio),
                  ("lookahead-advance", self.lookahead_ratio),
                  ("append + Scott bandwidth", self.bandwidth_ratio))
        problems = [f"{gate} ratio {ratio:.2f} exceeds {self.max_ratio}"
                    for gate, ratio in ratios if ratio > self.max_ratio]
        lo, hi = self.slope_range
        if not (lo <= self.build_slope <= hi):
            problems.append(
                f"build-path log-log slope {self.build_slope:.3f} outside [{lo}, {hi}]"
            )
        return problems

    def to_dict(self) -> dict:
        return asdict(self)


def _point(n: int, samples_ns: list[int]) -> BenchPoint:
    if len(samples_ns) < MIN_SAMPLES:
        raise ValueError(f"refusing to report from {len(samples_ns)} samples (< {MIN_SAMPLES})")
    ordered = sorted(samples_ns)
    mid = len(ordered) // 2
    median = (
        ordered[mid]
        if len(ordered) % 2
        else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    p99 = ordered[min(len(ordered) - 1, int(round(0.99 * (len(ordered) - 1))))]
    return BenchPoint(n=n, samples=len(ordered), median_ns=float(median), p99_ns=float(p99))


def _ratio(points: list[BenchPoint]) -> float:
    """Median time at the largest n over the median at the smallest."""
    smallest = min(points, key=lambda p: p.n)
    largest = max(points, key=lambda p: p.n)
    return largest.median_ns / smallest.median_ns if smallest.median_ns else float("inf")


def random_walk(length: int, seed: int = 0, step: float = 0.3) -> list[float]:
    rng = random.Random(seed)
    value = 0.0
    out = []
    for _ in range(length):
        value += rng.gauss(0.0, step)
        out.append(value)
    return out


@contextmanager
def _gc_paused():
    """Keep the garbage collector out of the timed sections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _measure_updates(params: PluginParams, walk: list[float], sizes: tuple[int, ...],
                     samples: int) -> tuple[list[BenchPoint], list[BenchPoint]]:
    """Time each sampled update, and apart from it the one-step forecast
    made right after it (which reads the rows the update has just written)."""
    pipe = StreamPipeline(params)
    updates, forecasts = [], []
    cursor = 0
    with _gc_paused():
        for target in sorted(sizes):
            while cursor < target:
                pipe.advance(walk[cursor])
                cursor += 1
            laps, forecast_laps = [], []
            for _ in range(samples):
                obs = walk[cursor]
                t0 = time.perf_counter_ns()
                pipe.advance(obs)
                t1 = time.perf_counter_ns()
                forecast(pipe.hmm, 1)
                t2 = time.perf_counter_ns()
                laps.append(t1 - t0)
                forecast_laps.append(t2 - t1)
                cursor += 1
            updates.append(_point(target, laps))
            forecasts.append(_point(target, forecast_laps))
    return updates, forecasts


def _measure_builds(params: PluginParams, walk: list[float],
                    sizes: tuple[int, ...], samples: int) -> list[BenchPoint]:
    sigma = sigma_fn(params)
    rho = rho_fn(params)
    points = []
    with _gc_paused():
        for n in sorted(sizes):
            signal = Signal(walk[:n])
            laps = []
            for _ in range(samples):
                classifier = EmaGridClassifier(params)
                clusterer = Clusterer(params.grid_width)
                t0 = time.perf_counter_ns()
                isa = build_isa(signal, classifier)
                isa_to_hmm(isa, signal, sigma, rho, clusterer)
                t1 = time.perf_counter_ns()
                laps.append(t1 - t0)
            points.append(_point(n, laps))
    return points


def _measure_lookahead(params: PluginParams, walk: list[float],
                       sizes: tuple[int, ...], samples: int) -> list[BenchPoint]:
    """Advance a frontier built over the first n values by the next ones."""
    points = []
    with _gc_paused():
        for n in sorted(sizes):
            frontier = lookahead_build(walk[:n], params, seed=0)
            laps = []
            for value in walk[n : n + samples]:
                t0 = time.perf_counter_ns()
                lookahead_advance(frontier, value)
                t1 = time.perf_counter_ns()
                laps.append(t1 - t0)
            points.append(_point(n, laps))
    return points


def _measure_bandwidth(walk: list[float], sizes: tuple[int, ...],
                       samples: int) -> list[BenchPoint]:
    """Append one value and re-derive Scott's bandwidth, once the stream has
    reached n (and its moments have been read there)."""
    signal = Signal()
    points = []
    with _gc_paused():
        for target in sorted(sizes):
            while len(signal) < target:
                signal.append(walk[len(signal)])
            default_bandwidth(signal)
            laps = []
            for _ in range(samples):
                obs = walk[len(signal)]
                t0 = time.perf_counter_ns()
                signal.append(obs)
                default_bandwidth(signal)
                t1 = time.perf_counter_ns()
                laps.append(t1 - t0)
            points.append(_point(target, laps))
    return points


def run_bench(update_sizes: tuple[int, ...] = (2_000, 20_000, 200_000),
              build_sizes: tuple[int, ...] = (1_000, 10_000, 100_000),
              update_samples: int = 300,
              build_samples: int = MIN_SAMPLES,
              seed: int = 0,
              params: PluginParams | None = None) -> BenchReport:
    """Measure the five paths and fit the build-path growth exponent.

    Lookahead points advance frontiers built over ``build_sizes`` histories,
    ``update_samples`` advances each, at horizon ``LOOKAHEAD_HORIZON``.
    """
    params = params or PluginParams()
    ahead = PluginParams.from_dict({**params.to_dict(), "horizon": LOOKAHEAD_HORIZON})
    walk = random_walk(max(max(update_sizes) + update_samples * len(update_sizes) + 16,
                           max(build_sizes) + update_samples), seed=seed)
    # warm-up pass, discarded
    warm = StreamPipeline(params)
    for value in walk[: min(2_000, len(walk))]:
        warm.advance(value)
    frontier = lookahead_build(walk[:500], ahead, seed=0)
    for value in walk[500:1_000]:
        lookahead_advance(frontier, value)
    warm_signal = Signal(walk[:100])
    for value in walk[100:200]:
        warm_signal.append(value)
        default_bandwidth(warm_signal)

    update_points, forecast_points = _measure_updates(params, walk, tuple(update_sizes),
                                                      update_samples)
    build_points = _measure_builds(params, walk, tuple(build_sizes), build_samples)
    lookahead_points = _measure_lookahead(ahead, walk, tuple(build_sizes),
                                          update_samples)
    bandwidth_points = _measure_bandwidth(walk, tuple(update_sizes), update_samples)

    import numpy as np

    xs = np.log10([p.n for p in build_points])
    ys = np.log10([p.median_ns for p in build_points])
    slope = float(np.polyfit(xs, ys, 1)[0])

    return BenchReport(
        update=update_points,
        build=build_points,
        build_slope=slope,
        constancy_ratio=_ratio(update_points),
        forecast=forecast_points,
        forecast_ratio=_ratio(forecast_points),
        lookahead=lookahead_points,
        lookahead_ratio=_ratio(lookahead_points),
        bandwidth=bandwidth_points,
        bandwidth_ratio=_ratio(bandwidth_points),
    )
