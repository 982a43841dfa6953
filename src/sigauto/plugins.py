"""Pluggable pieces of the pipeline.

Three contracts live here:

* classifiers, which map signal prefixes to automaton state labels and keep
  a constant-time running summary so the per-observation step never re-reads
  the prefix;
* statistical weight functions over instant sets, with accumulators that
  support exact O(1) maintenance (discounting handled lazily);
* the grid clusterer that discretizes the observation space, and the
  multivariate normal kernel used for continuous emission densities.

State labels and cluster ids are plain strings: ``"3"`` for a 1-d grid cell,
``"(2,4)"`` for a multi-d cell, and ``"5|1"`` for a lookahead word.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyInputError, RejectedInputError, TemporalOrderError
from .signal import as_observation

log = logging.getLogger(__name__)

DUMMY_EVENT = "__no_event__"

STAT_VARIANTS = (
    "count",
    "discounted_sum",
    "discounted_complement",
    "region_count",
    "latest_occurrence",
)
# Variants additive over disjoint instant sets; only these keep emission rows
# stochastic, so only these are accepted for the emission weight function.
ADDITIVE_VARIANTS = (
    "count",
    "discounted_sum",
    "discounted_complement",
    "region_count",
)

CLASSIFIER_KINDS = ("ema_grid", "lookahead_word")


def _as_widths(grid_width) -> float | tuple[float, ...]:
    if isinstance(grid_width, (int, float)):
        if grid_width <= 0:
            raise ConfigError(f"grid_width must be positive, got {grid_width}")
        return float(grid_width)
    widths = tuple(float(w) for w in grid_width)
    if not widths or any(w <= 0 for w in widths):
        raise ConfigError(f"grid_width entries must be positive, got {grid_width}")
    return widths


def _as_region(region):
    if region is None:
        return None
    try:
        box = tuple((float(lo), float(hi)) for lo, hi in region)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"region must be a sequence of (lo, hi) pairs: {region!r}") from exc
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ConfigError(f"region bounds must be finite with lo <= hi: {region!r}")
    return box


def _as_bandwidth(bandwidth):
    if bandwidth == "scott":
        return "scott"
    if isinstance(bandwidth, (int, float)):
        if bandwidth <= 0:
            raise ConfigError("scalar bandwidth must be positive")
        return ((float(bandwidth),),)
    try:
        matrix = tuple(tuple(float(x) for x in row) for row in bandwidth)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bandwidth must be 'scott', a scalar or a matrix: {bandwidth!r}") from exc
    return matrix


@dataclass(frozen=True)
class PluginParams:
    """The shared parameter tuple all plugins are configured from.

    ``lam`` is the exponential-average weight in (0, 1]; ``delta`` the
    discount in [0, 1); ``grid_width`` a positive cell width (scalar or one
    per coordinate); ``region`` an optional closed axis-aligned box used by
    the region statistics; ``bandwidth`` either an explicit symmetric
    positive-definite matrix or ``"scott"``; ``horizon`` the forecast and
    lookahead length.
    """

    lam: float = 1.0
    grid_width: float | tuple[float, ...] = 1.0
    delta: float = 0.0
    stat_variant: str = "count"
    region: tuple[tuple[float, float], ...] | None = None
    bandwidth: str | tuple[tuple[float, ...], ...] = "scott"
    horizon: int = 1

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ConfigError(f"lambda must be in (0, 1], got {self.lam}")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError(f"delta must be in [0, 1), got {self.delta}")
        if self.stat_variant not in STAT_VARIANTS:
            raise ConfigError(f"unknown stat_variant {self.stat_variant!r}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {self.horizon}")
        object.__setattr__(self, "grid_width", _as_widths(self.grid_width))
        object.__setattr__(self, "region", _as_region(self.region))
        object.__setattr__(self, "bandwidth", _as_bandwidth(self.bandwidth))

    def widths_for(self, dim: int) -> tuple[float, ...]:
        if isinstance(self.grid_width, tuple):
            if len(self.grid_width) != dim:
                raise ConfigError(
                    f"grid_width has {len(self.grid_width)} entries for {dim}-d observations"
                )
            return self.grid_width
        return (self.grid_width,) * dim

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "grid_width": list(self.grid_width)
            if isinstance(self.grid_width, tuple)
            else self.grid_width,
            "delta": self.delta,
            "stat_variant": self.stat_variant,
            "region": [list(b) for b in self.region] if self.region else None,
            "bandwidth": [list(r) for r in self.bandwidth]
            if isinstance(self.bandwidth, tuple)
            else self.bandwidth,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PluginParams":
        known = {
            "lambda": "lam",
            "grid_width": "grid_width",
            "delta": "delta",
            "stat_variant": "stat_variant",
            "region": "region",
            "bandwidth": "bandwidth",
            "horizon": "horizon",
        }
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown parameter key {key!r}")
            if value is not None:
                kwargs[known[key]] = value
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Grid cells and labels


def cell_index(coords: Sequence[float], widths: Sequence[float]) -> tuple[int, ...]:
    """Half-open grid cell [k*w, (k+1)*w) per coordinate."""
    return tuple(math.floor(x / w) for x, w in zip(coords, widths))


def cell_label(index: Sequence[int]) -> str:
    if len(index) == 1:
        return str(index[0])
    return "(" + ",".join(str(k) for k in index) + ")"


def cell_center(index: Sequence[int], widths: Sequence[float]) -> tuple[float, ...]:
    return tuple((k + 0.5) * w for k, w in zip(index, widths))


# ---------------------------------------------------------------------------
# Classifiers


class EmaGridClassifier:
    """Quantized exponential moving average.

    Keeps e_i = lam * r_i + (1 - lam) * e_{i-1} as the running summary and
    emits the grid cell of e_i as the state label.  The summary makes the
    per-observation step constant-time while the emitted label equals the
    from-scratch classification of the whole prefix.
    """

    kind = "ema_grid"
    lookahead = 0

    def __init__(self, params: PluginParams):
        self.params = params
        self._ema: tuple[float, ...] | None = None
        self._widths: tuple[float, ...] | None = None

    def reset(self) -> None:
        self._ema = None
        self._widths = None

    def step(self, obs, future=()) -> str:
        if future:
            raise RejectedInputError("plain classifier takes no lookahead window")
        coords = as_observation(obs, None if self._ema is None else len(self._ema))
        if self._ema is None:
            self._ema = coords
            self._widths = self.params.widths_for(len(coords))
        else:
            lam = self.params.lam
            self._ema = tuple(
                lam * x + (1.0 - lam) * e for x, e in zip(coords, self._ema)
            )
        return cell_label(cell_index(self._ema, self._widths))

    def summary(self):
        """Serializable running state (the EMA vector)."""
        return list(self._ema) if self._ema is not None else None

    def restore(self, summary) -> None:
        if summary is None:
            self.reset()
        else:
            self._ema = tuple(float(x) for x in summary)
            self._widths = self.params.widths_for(len(self._ema))

    def clone(self) -> "EmaGridClassifier":
        dup = EmaGridClassifier(self.params)
        dup._ema = self._ema
        dup._widths = self._widths
        return dup


class LookaheadWordClassifier:
    """Classifier consuming the next ``horizon`` observations.

    The label is the word of grid-cluster ids of the future window, letters
    joined by ``"|"``.  It keeps no running summary.
    """

    kind = "lookahead_word"

    def __init__(self, params: PluginParams):
        if params.horizon < 1:
            raise ConfigError("lookahead classifier needs horizon >= 1")
        self.params = params

    @property
    def lookahead(self) -> int:
        return self.params.horizon

    def reset(self) -> None:
        pass

    def step(self, obs, future=()) -> str:
        h = self.params.horizon
        if len(future) != h:
            raise RejectedInputError(
                f"lookahead window has {len(future)} observations, expected {h}"
            )
        letters = []
        for value in future:
            coords = as_observation(value)
            widths = self.params.widths_for(len(coords))
            letters.append(cell_label(cell_index(coords, widths)))
        return "|".join(letters)

    def summary(self):
        return None

    def restore(self, summary) -> None:
        pass

    def clone(self) -> "LookaheadWordClassifier":
        return LookaheadWordClassifier(self.params)


def make_classifier(params: PluginParams, kind: str = "ema_grid"):
    if kind == "ema_grid":
        return EmaGridClassifier(params)
    if kind == "lookahead_word":
        return LookaheadWordClassifier(params)
    raise ConfigError(f"unknown classifier kind {kind!r}")


def classify_full(params: PluginParams, signal) -> str:
    """From-scratch classification of a whole signal prefix."""
    observations = list(signal)
    if not observations:
        raise EmptyInputError("cannot classify an empty signal")
    handle = EmaGridClassifier(params)
    label = ""
    for obs in observations:
        label = handle.step(obs)
    return label


def classify_step(handle, obs) -> str:
    """One incremental classification step on a live handle."""
    return handle.step(obs)


def classify_lookahead(params: PluginParams, signal, future) -> str:
    """Word of cluster ids of a length-``horizon`` future window."""
    return LookaheadWordClassifier(params).step(None, tuple(future))


# ---------------------------------------------------------------------------
# Statistical weight functions


@dataclass
class StatAccumulator:
    """Running value of a statistical function over a growing instant set.

    ``last_now`` is the instant the stored value is normalized to; reads at a
    later instant apply the pending discount lazily, so untouched accumulators
    are never visited when time advances.
    """

    value: float = 0.0
    last_now: int = 0
    raw_count: int = 0


class StatFn:
    """One statistical weight function; evaluates instant sets and maintains
    accumulators.

    Variants: ``count`` (cardinality), ``discounted_sum`` (sum of
    delta**(now - i), recent instants weigh more), ``discounted_complement``
    (cardinality minus that sum), ``region_count`` (observations inside the
    configured box), ``latest_occurrence`` (most recent in-region instant,
    0 if none).
    """

    def __init__(self, variant: str, delta: float = 0.0, region=None, tau_id=None):
        if variant not in STAT_VARIANTS:
            raise ConfigError(f"unknown stat variant {variant!r}")
        self.variant = variant
        self.delta = float(delta)
        self.region = _as_region(region)
        self.tau_id = tau_id

    @property
    def additive(self) -> bool:
        return self.variant in ADDITIVE_VARIANTS

    def _in_region(self, coords) -> bool:
        if self.region is None:
            return True
        if len(coords) != len(self.region):
            raise RejectedInputError(
                f"region has {len(self.region)} axes for {len(coords)}-d observations"
            )
        return all(lo <= x <= hi for x, (lo, hi) in zip(coords, self.region))

    # -- from-scratch evaluation

    def eval(self, signal, instants: Iterable[int], now: int) -> float:
        instants = list(instants)
        if any(i > now for i in instants):
            raise TemporalOrderError(f"instant set reaches beyond now={now}")
        v = self.variant
        if v == "count":
            return float(len(instants))
        if v == "discounted_sum":
            return float(sum(self.delta ** (now - i) for i in instants))
        if v == "discounted_complement":
            return float(len(instants)) - sum(self.delta ** (now - i) for i in instants)
        if v == "region_count":
            return float(sum(1 for i in instants if self._in_region(signal[i])))
        # latest_occurrence
        hits = [i for i in instants if self._in_region(signal[i])]
        return float(max(hits)) if hits else 0.0

    def eval_acc(self, signal, instants: Iterable[int], now: int) -> StatAccumulator:
        """Accumulator equivalent to having stepped through ``instants``."""
        instants = list(instants)
        return StatAccumulator(
            value=self.eval(signal, instants, now),
            last_now=now,
            raw_count=len(instants),
        )

    # -- incremental maintenance

    def new_acc(self, now: int = 0) -> StatAccumulator:
        return StatAccumulator(value=0.0, last_now=now, raw_count=0)

    def read(self, acc: StatAccumulator, now: int) -> float:
        if now < acc.last_now:
            raise TemporalOrderError(
                f"read at {now} precedes accumulator time {acc.last_now}"
            )
        v = self.variant
        if v == "count":
            return float(acc.raw_count)
        if v == "discounted_sum":
            return acc.value * self.delta ** (now - acc.last_now)
        if v == "discounted_complement":
            return acc.raw_count - (acc.raw_count - acc.value) * self.delta ** (
                now - acc.last_now
            )
        return acc.value

    def advance(self, acc: StatAccumulator, now: int) -> None:
        """Catch the stored value up to ``now`` (lazy discount application)."""
        acc.value = self.read(acc, now)
        acc.last_now = now

    def step(self, acc: StatAccumulator, obs, instant: int) -> StatAccumulator:
        """Add one instant (with its observation) to the accumulated set.

        The added instant is the current time, so discounted variants
        contribute delta**0 = 1 for it.
        """
        if instant < acc.last_now:
            raise TemporalOrderError(
                f"instant {instant} precedes accumulator time {acc.last_now}"
            )
        self.advance(acc, instant)
        v = self.variant
        acc.raw_count += 1
        if v == "count":
            acc.value = float(acc.raw_count)
        elif v == "discounted_sum":
            acc.value += 1.0
        elif v == "discounted_complement":
            pass  # value = k - sum; both gained 1
        elif v == "region_count":
            if self._in_region(as_observation(obs)):
                acc.value += 1.0
        else:  # latest_occurrence
            if self._in_region(as_observation(obs)):
                acc.value = float(instant)
        return acc

    def tick(self, acc: StatAccumulator) -> StatAccumulator:
        """Advance the accumulator's clock by one instant."""
        self.advance(acc, acc.last_now + 1)
        return acc

    def params_fingerprint(self) -> tuple:
        return (self.variant, self.delta, self.region)


def sigma_fn(params: PluginParams) -> StatFn:
    """Transition-weight statistic configured from the parameter tuple."""
    return StatFn(params.stat_variant, params.delta, params.region, tau_id=id(params))


def rho_fn(params: PluginParams) -> StatFn:
    """Emission-weight statistic; must be additive to keep rows stochastic.

    ``latest_occurrence`` is not additive over the cluster partition, so it
    falls back to plain counting here.
    """
    variant = params.stat_variant
    if variant not in ADDITIVE_VARIANTS:
        log.warning("stat variant %r is not additive; emissions use 'count'", variant)
        variant = "count"
    return StatFn(variant, params.delta, params.region, tau_id=id(params))


# Functional wrappers over StatFn for one-off evaluations.


def stat_eval(params: PluginParams, signal, instants, now: int) -> float:
    return sigma_fn(params).eval(signal, instants, now)


def stat_step(params: PluginParams, acc: StatAccumulator, obs, instant: int) -> StatAccumulator:
    return sigma_fn(params).step(acc, obs, instant)


def stat_tick(params: PluginParams, acc: StatAccumulator) -> StatAccumulator:
    return sigma_fn(params).tick(acc)


def stat_read(params: PluginParams, acc: StatAccumulator, now: int) -> float:
    return sigma_fn(params).read(acc, now)


# ---------------------------------------------------------------------------
# Clusterer


class Clusterer:
    """Axis-aligned grid partition of the observation space.

    ``cluster_of`` registers the returned id so the set of observed clusters
    (the discrete event alphabet) grows monotonically; ``label_of`` is the
    pure lookup.  Cells are half-open per coordinate and the reserved
    DUMMY_EVENT id is never produced.
    """

    def __init__(self, grid_width):
        self._raw_width = _as_widths(grid_width)
        self._widths: tuple[float, ...] | None = None
        self.observed: dict[str, tuple[int, ...]] = {}

    def _widths_for(self, coords) -> tuple[float, ...]:
        if self._widths is None:
            if isinstance(self._raw_width, tuple):
                if len(self._raw_width) != len(coords):
                    raise ConfigError(
                        f"grid_width has {len(self._raw_width)} entries for "
                        f"{len(coords)}-d observations"
                    )
                self._widths = self._raw_width
            else:
                self._widths = (self._raw_width,) * len(coords)
        return self._widths

    def label_of(self, obs) -> str:
        coords = as_observation(obs)
        return cell_label(cell_index(coords, self._widths_for(coords)))

    def cluster_of(self, obs) -> str:
        coords = as_observation(obs)
        idx = cell_index(coords, self._widths_for(coords))
        label = cell_label(idx)
        if label not in self.observed:
            self.observed[label] = idx
        return label

    def center(self, label: str) -> tuple[float, ...]:
        """Canonical representative of an observed cluster (its cell center)."""
        if label not in self.observed:
            raise ConfigError(f"cluster {label!r} has not been observed")
        return cell_center(self.observed[label], self._widths)

    def copy(self) -> "Clusterer":
        dup = Clusterer(self._raw_width)
        dup._widths = self._widths
        dup.observed = dict(self.observed)
        return dup


def cluster_of(clusterer: Clusterer, obs) -> str:
    return clusterer.cluster_of(obs)


# ---------------------------------------------------------------------------
# Kernel and bandwidth


class Kernel:
    """Multivariate normal kernel with a fixed bandwidth matrix.

    Evaluates (2*pi)**(-d/2) * |H|**(-1/2) * exp(-x' H^-1 x / 2); the inverse
    and the normalization constant are precomputed once.
    """

    def __init__(self, bandwidth):
        H = np.asarray(bandwidth, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ConfigError(f"bandwidth must be a square matrix, got shape {H.shape}")
        if not np.allclose(H, H.T, rtol=0.0, atol=1e-12):
            raise ConfigError("bandwidth matrix must be symmetric")
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("bandwidth matrix must be positive definite") from exc
        self.h_matrix = H
        self.d = H.shape[0]
        self._inv = np.linalg.inv(H)
        det = float(np.prod(np.diagonal(chol))) ** 2
        self._norm = (2.0 * math.pi) ** (-self.d / 2.0) * det ** -0.5

    def __call__(self, x) -> float:
        diff = np.asarray(x, dtype=float).reshape(self.d)
        quad = float(diff @ self._inv @ diff)
        return self._norm * math.exp(-0.5 * quad)


def kernel_eval(kernel: Kernel, x) -> float:
    return kernel(x)


def default_bandwidth(signal) -> np.ndarray:
    """Diagonal Scott's-rule bandwidth: ((n**(-1/(d+4))) * s_j)**2 per axis.

    ``s_j`` is the sample standard deviation of coordinate j, floored at 1e-6
    before squaring so degenerate coordinates still give a usable kernel.
    """
    data = np.asarray(list(signal), dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    n, d = data.shape
    if n < 2:
        raise EmptyInputError("bandwidth selection needs at least 2 observations")
    scale = n ** (-1.0 / (d + 4))
    s = np.std(data, axis=0, ddof=1)
    h = np.maximum(scale * s, 1e-6)
    return np.diag(h**2)


def resolve_kernel(params: PluginParams, signal) -> Kernel:
    """Kernel from an explicit matrix, or Scott's rule over the signal."""
    if params.bandwidth == "scott":
        return Kernel(default_bandwidth(signal))
    return Kernel(params.bandwidth)
