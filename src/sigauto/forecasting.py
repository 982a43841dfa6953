"""Horizon forecasting, sampling, scoring and parameter fitting.

A forecast for horizon h is the sequence of event distributions obtained by
propagating the initial state indicator j times through the transition matrix
and applying the emissions, for j = 1..h.  The matrix power is never
materialized: each step is one sparse row-vector product.

When the model's current state is new (no outgoing instants), no forecast is
possible and every step is the point mass on the dummy event.

``fit`` scores its grid entries in up to one forked process per available
CPU; each score is computed by the same serial code, so it has the same bits.
"""

from __future__ import annotations

import math
import os

from .automaton import Isa, step_stream
from .errors import ConfigError, EmptyInputError, Fields, RejectedInputError
from .hmm import (
    DUMMY_STATE,
    Hmm,
    HmmContinuous,
    _TransitionCore,
    next_event_probability,
)
from .plugins import (
    DUMMY_EVENT,
    Clusterer,
    EmaGridClassifier,
    PluginParams,
    rho_fn,
    sigma_fn,
)
from .signal import Signal


class Forecast(Fields):
    """Per-step event distributions, one per step of the horizon
    ``len(steps)``; ``is_dummy`` marks the no-forecast case."""

    __slots__ = ("steps", "is_dummy")

    def __init__(self, steps: list[dict[str, float]], is_dummy: bool):
        self.steps, self.is_dummy = steps, is_dummy

    @classmethod
    def dummy(cls, horizon: int) -> "Forecast":
        """The no-forecast value: the dummy event at every step (no steps,
        and so not a dummy, at horizon 0)."""
        if horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon}")
        return cls([{DUMMY_EVENT: 1.0} for _ in range(horizon)], horizon > 0)

    def step(self, j: int) -> dict[str, float]:
        """Distribution for step j, 1 <= j <= horizon."""
        _check_step(j)
        if j > len(self.steps):
            raise ConfigError(f"forecast step must be <= the horizon {len(self.steps)}, got {j}")
        return self.steps[j - 1]

    def record(self, i: int, seed) -> dict:
        """JSONL-ready forecast record for instant ``i``."""
        steps = [{"j": j, "dist": dist} for j, dist in enumerate(self.steps, 1)]
        return {"i": i, "dummy": self.is_dummy, "steps": steps, "seed": seed}


def state_occupancies(model: _TransitionCore, horizon: int) -> list[dict[str, float]]:
    """State distributions after 1..horizon transition steps.

    The initial distribution is the point mass on the current state, so the
    first step is a copy of the current state's transition row, in its key
    order: ``0.0 + 1.0 * t`` is ``t`` for every weight t >= 0.  It is a copy
    because the caller keeps it and the cached row is shared.
    """
    if horizon < 1:
        return []
    occ: dict[str, float] = dict(model.transition_row(model.current))
    out = [occ]
    for _ in range(horizon - 1):
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
    return Forecast(steps, False)


def _check_step(j: int) -> None:
    if j < 1:
        raise ConfigError(f"forecast step must be >= 1, got {j}")


def forecast_density_at(hmm_c: HmmContinuous, signal: Signal, j: int, x,
                        kernel: Kernel | None = None) -> float:
    """Forecast density at point ``x`` for step ``j`` of the continuous model,
    with ``hmm_c.kernel_for(kernel, x)``, which checks ``kernel`` and ``x``
    once; ``signal`` is not read (the model's own signal is).

    The dummy state's point mass lives off the observation space, so it
    contributes zero at any finite x.
    """
    _check_step(j)
    kern = hmm_c.kernel_for(kernel, x)
    occupancy = state_occupancies(hmm_c, j)[-1]
    return sum((w * hmm_c._density(q, x, kern) for q, w in occupancy.items() if w != 0.0), 0.0)


# One constant per use, so that uses share no key: 2**64 * frac(sqrt(p)), p = 2, 3, 5.
EVENT_STREAM, LOOKAHEAD_STREAM, OBSERVATION_STREAM = (
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B)
_MASK, _GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15  # 2**64 - 1; splitmix64's increment


def keyed_uniform(seed: int, i: int, stream: int) -> float:
    """The uniform draw in [0, 1) keyed by ``(seed, i, stream)``, a pure
    function of its key.  The integers ``seed`` and ``i`` are reduced mod
    2**64.  The splitmix64 finaliser of ``seed`` XOR ``stream`` starts a
    splitmix64 sequence, whose output ``i`` (from 0) gives the top 53 bits."""
    z = (seed ^ stream) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    z = ((z ^ (z >> 31)) + _GAMMA * (i + 1)) & _MASK  # the sequence's state i + 1
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def pick_event(dist: dict[str, float], u: float) -> str:
    """Inverse-CDF pick of the uniform draw ``u`` over the sparse support:
    the first label, in sorted key order, at which the cumulative positive
    mass exceeds ``u``, else (rounding) the last label with positive mass."""
    if not dist:
        raise EmptyInputError("cannot sample from an empty distribution")
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
    if last is None:
        raise EmptyInputError("distribution has no positive mass")
    return last


def sample_event(dist: dict[str, float], seed: int) -> str:
    """Inverse-CDF draw over the sparse support in sorted key order:
    ``pick_event`` of ``keyed_uniform(seed, 0, EVENT_STREAM)``, so
    deterministic for a given integer seed."""
    return pick_event(dist, keyed_uniform(seed, 0, EVENT_STREAM))


def sample_observation(hmm_c: HmmContinuous, j: int, seed: int):
    """Sample an observation from the continuous forecast at step ``j``.

    Draws a state from the propagated occupancy, then a mixture center
    uniformly, then adds noise from the model's own kernel,
    ``hmm_c.kernel_for()``: its Cholesky factor times standard normals.
    Draw k is ``keyed_uniform(seed, k, OBSERVATION_STREAM)``: draw 0 picks
    the state, draw 1 the center, and each later pair one normal (the
    cosine of Box-Muller).  Returns None when the dummy state is drawn (no
    observation can represent the dummy event).
    """
    _check_step(j)
    kern = hmm_c.kernel_for()
    occupancy = state_occupancies(hmm_c, j)[-1]
    u = [keyed_uniform(seed, k, OBSERVATION_STREAM) for k in range(2 * kern.d + 2)]
    state = pick_event(occupancy, u[0])
    if state == DUMMY_STATE:
        return None
    centers, _ = hmm_c.mixture(state)
    center = hmm_c.signal[centers[int(u[1] * len(centers))]]
    noise = kern.chol @ [math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b)
                         for a, b in zip(u[2::2], u[3::2])]
    return tuple(float(c + e) for c, e in zip(center, noise))


# ---------------------------------------------------------------------------
# Scoring and fitting

SCORE_FLOOR = 1e-12  # the least probability a scored observation counts as


def _groups(grid: list[PluginParams]) -> list[list[int]]:
    """Indices of ``grid`` by ``(lam, grid_width)``, groups in first-appearance
    order and entries in grid order inside each."""
    groups: dict[tuple, list[int]] = {}
    for k, params in enumerate(grid):
        groups.setdefault((params.lam, params.grid_width), []).append(k)
    return list(groups.values())


def _scores(grid: list[PluginParams], signal: Signal, start: int, stop: int) -> list[float]:
    """``score`` of every entry of ``grid``.  The automaton depends only on
    the classifier, so entries that share ``lam`` and ``grid_width`` share
    one pass over ``signal[0..stop)``: its classifier, clusterer and
    automaton drive one model per entry, each with its own sigma and rho.
    The automaton and models start empty, and each instant, the first
    included, is one ``step_stream`` of all of them.  Every step reads
    ``signal`` only up to its own instant."""
    n = signal.last_instant
    if not (0 <= start < stop <= n):
        raise RejectedInputError(
            f"scoring window [{start}, {stop}) out of range for signal at {n}"
        )
    totals = [0.0] * len(grid)
    for members in _groups(grid):
        lead = grid[members[0]]
        classifier, clusterer, isa = EmaGridClassifier(lead), Clusterer(lead.grid_width), Isa()
        models = {k: Hmm(sigma_fn(grid[k]), rho_fn(grid[k]), clusterer, isa) for k in members}
        for i in range(stop):
            step_stream(isa, signal, classifier, models.values())
            if i >= start:
                cluster = clusterer.label_of(signal[i + 1])
                for k, hmm in models.items():
                    totals[k] += math.log(max(next_event_probability(hmm, cluster), SCORE_FLOOR))
    return [total / (stop - start) for total in totals]


def score(params: PluginParams, signal: Signal, start: int, stop: int) -> float:
    """Mean one-step-ahead log-likelihood over instants [start, stop).

    At each instant i the probability the current model assigns to the cluster
    of the next observation is scored; dummy forecasts (and zero-probability
    events) contribute log(SCORE_FLOOR), so refusing to forecast stays costly
    but finite.
    """
    return _scores([params], signal, start, stop)[0]


def _forked_scores(grid: list[PluginParams], signal: Signal, start: int,
                   stop: int) -> list[float] | None:
    """``_scores(grid, ...)`` from one process per CPU this process may run
    on, at most one per entry; None when that is one process, or when a
    chunk fails, so that the caller scores serially and gets the serial
    result or error.

    The entries, grouped as ``_scores`` groups them, are cut into contiguous
    chunks whose sizes differ by at most one.  The caller scores the first
    chunk; a forked child scores each other one with ``_scores`` and writes
    the doubles to a pipe, so every score has the bits of the serial one.
    Forking is left alone where the platform lacks it or the caller runs
    other threads, whose locks a child would inherit held.  Every child is
    reaped before this returns or raises, and killed first unless it ended.
    """
    import threading

    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return None
    workers = min(len(grid), len(os.sched_getaffinity(0)))
    if workers == 1:
        return None
    from array import array
    from signal import SIGKILL

    order = [k for members in _groups(grid) for k in members]
    size, extra = divmod(len(order), workers)
    cuts = [c * size + min(c, extra) for c in range(workers + 1)]
    mine, *others = [order[a:b] for a, b in zip(cuts, cuts[1:])]
    scores = [0.0] * len(grid)
    children: dict[int, tuple] = {}  # pid -> (read end, chunk), until reaped
    try:
        for chunk in others:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                return None
            if pid == 0:  # the child: every path ends in os._exit
                code = 1
                try:
                    result = _scores([grid[k] for k in chunk], signal, start, stop)
                    with open(write, "wb") as pipe:
                        pipe.write(array("d", result).tobytes())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (open(read, "rb"), chunk)
        try:
            own = _scores([grid[k] for k in mine], signal, start, stop)
        except Exception:  # a chunk's error; the serial pass raises it in grid order
            return None
        for k, s in zip(mine, own):
            scores[k] = s
        for pid, (pipe, chunk) in list(children.items()):
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            del children[pid]
            if len(data) != 8 * len(chunk):  # the child failed before it wrote
                return None
            for k, s in zip(chunk, array("d", data)):
                scores[k] = s
        return scores
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


class FitReport(Fields):
    """Grid-search outcome: held-out score per parameter tuple; the best
    tuple is ``grid[best_index]``."""

    __slots__ = ("grid", "scores", "best_index", "split")

    def __init__(self, grid: list[PluginParams], scores: list[float], best_index: int,
                 split: int):
        self.grid, self.scores, self.best_index, self.split = grid, scores, best_index, split


def fit(grid: list[PluginParams], signal: Signal, split: int) -> FitReport:
    """Score every parameter tuple on the held-out window [split, n).

    Each score is ``score`` of its entry: the model, warmed up on [0, split),
    scores each later observation.  Entries that share ``lam`` and
    ``grid_width`` share one classifier and automaton pass, which drives one
    model per entry.  Ties break toward the earlier grid entry.

    On a platform with ``os.fork`` and ``os.sched_getaffinity`` (Linux),
    a caller with no other thread has its entries scored in up to one
    process per CPU it may run on (``_forked_scores``).  Each score, and
    each error, is the serial one.
    """
    if not grid:
        raise EmptyInputError("parameter grid is empty")
    n = signal.last_instant
    if not (0 < split < n):
        raise RejectedInputError(f"split {split} out of range (0, {n})")
    scores = _forked_scores(grid, signal, split, n)
    if scores is None:
        scores = _scores(grid, signal, split, n)
    best_index = max(range(len(scores)), key=lambda k: (scores[k], -k))
    return FitReport(grid=list(grid), scores=scores, best_index=best_index, split=split)
