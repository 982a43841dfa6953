"""Horizon forecasting, sampling, scoring and parameter fitting.

A forecast for horizon h is the sequence of event distributions obtained by
propagating the initial state indicator j times through the transition matrix
and applying the emissions, for j = 1..h.  The matrix power is never
materialized: each step is one sparse row-vector product.

When the model's current state is new (no outgoing instants), no forecast is
possible and every step is the point mass on the dummy event.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .automaton import init_isa, next_isa
from .errors import ConfigError, EmptyInputError, RejectedInputError
from .hmm import (
    DUMMY_STATE,
    Hmm,
    HmmContinuous,
    _TransitionCore,
    isa_to_hmm,
    next_event_probability,
)
from .plugins import (
    DUMMY_EVENT,
    Clusterer,
    EmaGridClassifier,
    Kernel,
    PluginParams,
    rho_fn,
    sigma_fn,
)
from .signal import Signal


@dataclass
class Forecast:
    """Per-step event distributions; ``is_dummy`` marks the no-forecast case."""

    horizon: int
    steps: list[dict[str, float]]
    is_dummy: bool

    @classmethod
    def dummy(cls, horizon: int) -> "Forecast":
        """The no-forecast value: the dummy event at every step (no steps,
        and so not a dummy, at horizon 0)."""
        if horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon}")
        return cls(horizon, [{DUMMY_EVENT: 1.0} for _ in range(horizon)], horizon > 0)

    def step(self, j: int) -> dict[str, float]:
        """Distribution for step j (1-based)."""
        return self.steps[j - 1]

    def record(self, i: int, seed) -> dict:
        """JSONL-ready forecast record for instant ``i``."""
        steps = [{"j": j, "dist": dist} for j, dist in enumerate(self.steps, 1)]
        return {"i": i, "dummy": self.is_dummy, "steps": steps, "seed": seed}


def state_occupancies(model: _TransitionCore, horizon: int) -> list[dict[str, float]]:
    """State distributions after 1..horizon transition steps."""
    occ: dict[str, float] = model.alpha()
    out = []
    for _ in range(horizon):
        nxt: dict[str, float] = {}
        for s, w in occ.items():
            for q, t in model.transition_row(s).items():
                nxt[q] = nxt.get(q, 0.0) + w * t
        occ = nxt
        out.append(occ)
    return out


def event_distribution(hmm: Hmm, occupancy: dict[str, float]) -> dict[str, float]:
    """Project a state distribution through the emission rows."""
    dist: dict[str, float] = {}
    for s, w in occupancy.items():
        if w == 0.0:
            continue
        for c, e in hmm.emission_row(s).items():
            dist[c] = dist.get(c, 0.0) + w * e
    return dist


def forecast(hmm: Hmm, horizon: int) -> Forecast:
    if horizon < 1 or hmm.current_is_new:
        return Forecast.dummy(horizon)
    steps = [event_distribution(hmm, occ) for occ in state_occupancies(hmm, horizon)]
    return Forecast(horizon, steps, False)


def forecast_density_at(hmm_c: HmmContinuous, signal: Signal, j: int, x,
                        kernel: Kernel | None = None) -> float:
    """Forecast density at point ``x`` for step ``j`` of the continuous model,
    with ``hmm_c.kernel_for(kernel)``; ``signal`` is not read (the model's
    own signal is).

    The dummy state's point mass lives off the observation space, so it
    contributes zero at any finite x.
    """
    if j < 1:
        raise ConfigError(f"forecast step must be >= 1, got {j}")
    kern = hmm_c.kernel_for(kernel)
    if len(x) != kern.d:
        raise ConfigError(f"point has dimension {len(x)}, kernel has {kern.d}")
    occupancy = state_occupancies(hmm_c, j)[-1]
    total = 0.0
    for q, w in occupancy.items():
        if q == DUMMY_STATE or w == 0.0:
            continue
        total += w * hmm_c.density(q, x, kern)
    return total


def _inverse_cdf(dist: dict[str, float], u: float) -> str | None:
    """The first label, in sorted key order, at which the cumulative
    positive mass exceeds ``u``; the last label with positive mass when none
    does (rounding), and None when no label has any."""
    cumulative = 0.0
    last = None
    for label in sorted(dist):
        p = dist[label]
        if p <= 0.0:
            continue
        cumulative += p
        last = label
        if u < cumulative:
            break
    return last


def sample_event(dist: dict[str, float], seed) -> str:
    """Inverse-CDF draw over the sparse support in sorted key order.

    Deterministic for a given seed; accepts int or string seeds.
    """
    if not dist:
        raise EmptyInputError("cannot sample from an empty distribution")
    label = _inverse_cdf(dist, random.Random(seed).random())
    if label is None:
        raise EmptyInputError("distribution has no positive mass")
    return label


def sample_observation(hmm_c: HmmContinuous, j: int, seed: int,
                       kernel: Kernel | None = None):
    """Sample an observation from the continuous forecast at step ``j``.

    Draws a state from the propagated occupancy, then a mixture center
    uniformly, then adds kernel noise.  Returns None when the dummy state is
    drawn (no observation can represent the dummy event).  The noise is
    drawn with ``hmm_c.kernel_for(kernel)``.
    """
    import numpy as np

    kern = hmm_c.kernel_for(kernel)
    occupancy = state_occupancies(hmm_c, j)[-1]
    rng = np.random.default_rng(seed)
    state = _inverse_cdf(occupancy, float(rng.random()))
    if state is None or state == DUMMY_STATE:
        return None
    centers, _ = hmm_c.mixture(state)
    center = hmm_c.signal[centers[int(rng.integers(len(centers)))]]
    noise = rng.multivariate_normal(np.zeros(kern.d), kern.h_matrix)
    return tuple(float(c + e) for c, e in zip(center, noise))


# ---------------------------------------------------------------------------
# Scoring and fitting


def _scores(grid: list[PluginParams], signal: Signal, start: int, stop: int,
            floor: float) -> list[float]:
    """``score`` of every entry of ``grid``.  The automaton depends only on
    the classifier, so entries that share ``lam`` and ``grid_width`` share
    one pass over ``signal[0..stop)``: its classifier, clusterer and
    automaton drive one model per entry, each with its own sigma and rho.
    Every step reads ``signal`` only up to its own instant."""
    n = signal.last_instant
    if not (0 <= start < stop <= n):
        raise RejectedInputError(
            f"scoring window [{start}, {stop}) out of range for signal at {n}"
        )
    groups: dict[tuple, list[int]] = {}
    for k, params in enumerate(grid):
        if params.bandwidth != "scott":
            Kernel(params.bandwidth)  # refused as `run` refuses it; no score reads it
        groups.setdefault((params.lam, params.grid_width), []).append(k)
    totals = [0.0] * len(grid)
    for members in groups.values():
        lead = grid[members[0]]
        classifier, clusterer = EmaGridClassifier(lead), Clusterer(lead.grid_width)
        for i in range(stop):
            if i == 0:
                isa = init_isa(signal[0], classifier)
                models = {k: isa_to_hmm(isa, signal, sigma_fn(grid[k]), rho_fn(grid[k]), clusterer)
                          for k in members}
            else:
                next_isa(isa, signal, classifier)
                obs = signal[i]
                for hmm in models.values():
                    hmm.update(isa, obs)
            if i >= start:
                cluster = clusterer.label_of(signal[i + 1])
                for k, hmm in models.items():
                    totals[k] += math.log(max(next_event_probability(hmm, cluster), floor))
    return [total / (stop - start) for total in totals]


def score(params: PluginParams, signal: Signal, start: int, stop: int,
          floor: float = 1e-12) -> float:
    """Mean one-step-ahead log-likelihood over instants [start, stop).

    At each instant i the probability the current model assigns to the cluster
    of the next observation is scored; dummy forecasts (and zero-probability
    events) contribute log(floor), so refusing to forecast stays costly but
    finite.
    """
    return _scores([params], signal, start, stop, floor)[0]


@dataclass
class FitReport:
    """Grid-search outcome: held-out score per parameter tuple."""

    grid: list[PluginParams]
    scores: list[float]
    best_index: int
    split: int
    best: PluginParams = field(init=False)

    def __post_init__(self):
        self.best = self.grid[self.best_index]


def fit(grid: list[PluginParams], signal: Signal, split: int,
        floor: float = 1e-12) -> FitReport:
    """Score every parameter tuple on the held-out window [split, n).

    Each score is ``score`` of its entry: the model, warmed up on [0, split),
    scores each later observation.  Entries that share ``lam`` and
    ``grid_width`` share one classifier and automaton pass, which drives one
    model per entry.  Ties break toward the earlier grid entry.
    """
    if not grid:
        raise EmptyInputError("parameter grid is empty")
    n = signal.last_instant
    if not (0 < split < n):
        raise RejectedInputError(f"split {split} out of range (0, {n})")
    scores = _scores(grid, signal, split, n, floor)
    best_index = max(range(len(scores)), key=lambda k: (scores[k], -k))
    return FitReport(grid=list(grid), scores=scores, best_index=best_index, split=split)
