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

import functools
import math
import sys
from typing import Iterable, Sequence

from .errors import (ConfigError, EmptyInputError, Fields, RejectedInputError,
                     TemporalOrderError)

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


def is_number(value, types=(int, float)) -> bool:
    """``isinstance(value, types)``, except that a ``bool`` (an ``int`` to
    Python, ``true``/``false`` in JSON) is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _floats(values) -> tuple[float, ...]:
    """A list of numbers as floats; ``TypeError`` if ``is_number`` refuses
    an entry (a string's entries are its characters)."""
    values = tuple(values)
    if not all(is_number(v) for v in values):
        raise TypeError("not a list of numbers")
    return tuple(map(float, values))


def _positive(x: float) -> bool:
    """``0 < x < inf``; false for NaN."""
    return 0.0 < x < math.inf


def _as_widths(grid_width) -> float | tuple[float, ...]:
    if is_number(grid_width):
        if not _positive(grid_width):
            raise ConfigError(f"grid_width must be positive and finite, got {grid_width}")
        return float(grid_width)
    try:
        widths = _floats(grid_width)
    except TypeError as exc:
        raise ConfigError(f"grid_width must be a number or a list: {grid_width!r}") from exc
    if not widths or not all(map(_positive, widths)):
        raise ConfigError(f"grid_width entries must be positive and finite, got {grid_width}")
    return widths


def _widths_for_dim(widths: float | tuple[float, ...], dim: int) -> tuple[float, ...]:
    """Per-coordinate cell widths of ``dim``-d observations from a checked
    ``grid_width``."""
    if isinstance(widths, tuple):
        if len(widths) != dim:
            raise ConfigError(f"grid_width has {len(widths)} entries for {dim}-d observations")
        return widths
    return (widths,) * dim


def _as_region(region):
    if region is None:
        return None
    try:
        box = tuple((lo, hi) for lo, hi in map(_floats, region))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"region must be a sequence of (lo, hi) pairs: {region!r}") from exc
    if not box:
        raise ConfigError(f"region must have at least one (lo, hi) pair: {region!r}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ConfigError(f"region bounds must be finite with lo <= hi: {region!r}")
    return box


def _as_bandwidth(bandwidth):
    if bandwidth == "scott":
        return "scott"
    if is_number(bandwidth):
        if not _positive(bandwidth):
            raise ConfigError(f"scalar bandwidth must be positive and finite, got {bandwidth}")
        return ((float(bandwidth),),)
    try:
        matrix = tuple(map(_floats, bandwidth))
    except TypeError as exc:
        raise ConfigError(f"bandwidth must be 'scott', a scalar or a matrix: {bandwidth!r}") from exc
    if len({len(row) for row in matrix}) > 1:
        raise ConfigError(f"bandwidth matrix rows differ in length: {bandwidth!r}")
    if not all(math.isfinite(x) for row in matrix for x in row):
        raise ConfigError(f"bandwidth matrix entries must be finite: {bandwidth!r}")
    Kernel(matrix)  # the kernel's rule: square, symmetric, positive definite
    return matrix


def _listed(value):
    """``value`` with every tuple turned into a list, as JSON reads it back."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


class PluginParams(Fields):
    """The shared parameter tuple all plugins are configured from.

    ``lam`` is the exponential-average weight in (0, 1]; ``delta`` the
    discount in [0, 1); ``grid_width`` a positive cell width (scalar or one
    per coordinate); ``region`` an optional closed axis-aligned box used by
    the region statistics; ``bandwidth`` either an explicit symmetric
    positive-definite matrix or ``"scott"``; ``horizon`` the forecast and
    lookahead length.  Immutable, and hashed by its fields.
    """

    __slots__ = ("lam", "grid_width", "delta", "stat_variant", "region", "bandwidth",
                 "horizon")

    # The config key of each field, in the order ``to_dict`` writes them:
    # snapshot and report bytes depend on that order.
    FIELDS = {"lambda": "lam", "grid_width": "grid_width", "delta": "delta",
              "stat_variant": "stat_variant", "region": "region",
              "bandwidth": "bandwidth", "horizon": "horizon"}

    def __init__(self, lam: float = 1.0, grid_width: float | tuple[float, ...] = 1.0,
                 delta: float = 0.0, stat_variant: str = "count",
                 region: tuple[tuple[float, float], ...] | None = None,
                 bandwidth: str | tuple[tuple[float, ...], ...] = "scott", horizon: int = 1):
        for name, value in (("lambda", lam), ("delta", delta)):
            if not is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not is_number(horizon, int):
            raise ConfigError(f"horizon must be an integer, got {horizon!r}")
        if not (0.0 < lam <= 1.0):
            raise ConfigError(f"lambda must be in (0, 1], got {lam}")
        if not (0.0 <= delta < 1.0):
            raise ConfigError(f"delta must be in [0, 1), got {delta}")
        if stat_variant not in STAT_VARIANTS:
            raise ConfigError(f"unknown stat_variant {stat_variant!r}")
        if horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon}")
        values = (lam, _as_widths(grid_width), delta, stat_variant, _as_region(region),
                  _as_bandwidth(bandwidth), horizon)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def to_dict(self) -> dict:
        return {key: _listed(getattr(self, name)) for key, name in self.FIELDS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "PluginParams":
        """Parameters from their config keys; a ``None`` value leaves the
        default."""
        for key in data:
            if key not in cls.FIELDS:
                raise ConfigError(f"unknown parameter key {key!r}")
        return cls(**{cls.FIELDS[k]: v for k, v in data.items() if v is not None})


# ---------------------------------------------------------------------------
# Grid cells and labels


# Cells whose labels are kept, shared by every classifier and clusterer:
# more than the ~2.6k cells a 40k-step 2-d walk visits, ~1.3 MB when full.
LABEL_CELLS = 1 << 12


def cell_index(coords: Sequence[float], widths: Sequence[float]) -> tuple[int, ...]:
    """Half-open grid cell [k*w, (k+1)*w) per coordinate."""
    return tuple([math.floor(x / w) for x, w in zip(coords, widths)])


@functools.lru_cache(maxsize=LABEL_CELLS)
def cell_label(index: tuple[int, ...]) -> str:
    """The label of a cell index, built once per cell while the cell is
    among the ``LABEL_CELLS`` most recently labelled."""
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
    from-scratch classification of the whole prefix.  A step takes a stored
    ``Signal`` row, unchecked, and computes one cell index; ``cell_label``
    builds each cell's label once.
    """

    def __init__(self, params: PluginParams):
        self.params = params
        self._ema: tuple[float, ...] | None = None
        self._widths: tuple[float, ...] | None = None

    def reset(self) -> None:
        self._ema = None
        self._widths = None

    def step(self, obs) -> str:
        ema = self._ema
        if ema is None:
            ema = obs
            self._widths = _widths_for_dim(self.params.grid_width, len(obs))
        else:
            lam = self.params.lam
            ema = tuple([lam * x + (1.0 - lam) * e for x, e in zip(obs, ema)])
        self._ema = ema
        return cell_label(cell_index(ema, self._widths))


class LookaheadWordClassifier:
    """Classifier consuming the next ``horizon`` observations.

    The label is the word of grid-cluster ids of the future window, letters
    joined by ``"|"``.  It keeps no running summary.  Its letters are the
    ``label_of`` labels of ``clusterer``, a ``Clusterer`` of its own grid,
    so a row that sits in the windows of h consecutive words is labelled
    once.  ``label_of`` registers nothing, so a model may be built on
    the same clusterer and label each row the words labelled already;
    ``reset`` gives the classifier a fresh clusterer and leaves the old one
    to such a model.
    """

    def __init__(self, params: PluginParams):
        if params.horizon < 1:
            raise ConfigError("lookahead classifier needs horizon >= 1")
        self.params = params
        self.reset()

    # The word of a window's labels; ``lookahead_build`` joins its sliding
    # window of labels with it too.
    word = "|".join

    def reset(self) -> None:
        self.clusterer = Clusterer(self.params.grid_width)

    def step(self, obs, future=()) -> str:
        h = self.params.horizon
        if len(future) != h:
            raise RejectedInputError(
                f"lookahead window has {len(future)} observations, expected {h}"
            )
        return self.word([self.clusterer.label_of(value) for value in future])


# ---------------------------------------------------------------------------
# Statistical weight functions


class StatAccumulator(Fields):
    """Running value of a statistical function over a growing instant set.

    ``last_now`` is the instant the stored value is normalized to; reads at a
    later instant apply the pending discount lazily, so untouched accumulators
    are never visited when time advances.
    """

    __slots__ = ("value", "last_now", "raw_count")

    def __init__(self, value: float = 0.0, last_now: int = 0, raw_count: int = 0):
        self.value, self.last_now, self.raw_count = value, last_now, raw_count


def _stale(what: str, acc: StatAccumulator) -> TemporalOrderError:
    return TemporalOrderError(f"{what} precedes accumulator time {acc.last_now}")


# Each variant's formulas, side by side: from the discount and the region
# test, its ``evaluate(signal, instants, now)`` over an instant list,
# ``read(acc, now)`` and ``step_gain(acc, obs, instant)``.  A step adds the
# current instant, so a discounted variant adds delta**0 = 1 for it, and
# returns how much it raised the accumulator's read at that instant: what a
# transition cell's step adds to its row sum.  ``count`` is the region count
# over the whole space: its region test accepts every row.


def _discounted_sum(delta, in_region):
    def evaluate(signal, instants, now):
        return float(sum(delta ** (now - i) for i in instants))

    def read(acc, now):
        if now < acc.last_now:
            raise _stale(f"read at {now}", acc)
        return acc.value * delta ** (now - acc.last_now)

    def step_gain(acc, obs, instant):
        if instant < acc.last_now:
            raise _stale(f"instant {instant}", acc)
        before = acc.value * delta ** (instant - acc.last_now)
        acc.value = before + 1.0
        acc.last_now = instant
        acc.raw_count += 1
        return acc.value - before

    return evaluate, read, step_gain


def _discounted_complement(delta, in_region):
    """The cardinality minus the discounted sum, kept as the value k - sum
    with ``raw_count`` k: a step raises both by 1 and leaves the value."""
    def evaluate(signal, instants, now):
        return float(len(instants)) - sum(delta ** (now - i) for i in instants)

    def read(acc, now):
        if now < acc.last_now:
            raise _stale(f"read at {now}", acc)
        k = acc.raw_count
        return k - (k - acc.value) * delta ** (now - acc.last_now)

    def step_gain(acc, obs, instant):
        if instant < acc.last_now:
            raise _stale(f"instant {instant}", acc)
        k = acc.raw_count
        before = acc.value = k - (k - acc.value) * delta ** (instant - acc.last_now)
        acc.last_now = instant
        acc.raw_count = k = k + 1
        return k - (k - before) - before  # the read after the step, which may round

    return evaluate, read, step_gain


def _everywhere(obs) -> bool:
    return True


def _region_count(delta, in_region, latest=False):
    """The in-region observations, or with ``latest`` the latest in-region
    instant (0 if none)."""
    def evaluate(signal, instants, now):
        hits = [i for i in instants if in_region(signal[i])]
        return float(max(hits, default=0)) if latest else float(len(hits))

    def read(acc, now):
        if now < acc.last_now:
            raise _stale(f"read at {now}", acc)
        return acc.value

    def step_gain(acc, obs, instant):
        if instant < acc.last_now:
            raise _stale(f"instant {instant}", acc)
        before = acc.value
        if in_region(obs):
            acc.value = float(instant) if latest else before + 1.0
        acc.last_now = instant
        acc.raw_count += 1
        return acc.value - before

    return evaluate, read, step_gain


_FORMULAS = {
    "count": lambda delta, in_region: _region_count(delta, _everywhere),
    "discounted_sum": _discounted_sum,
    "discounted_complement": _discounted_complement,
    "region_count": _region_count,
    "latest_occurrence": functools.partial(_region_count, latest=True),
}


class StatFn:
    """One statistical weight function; evaluates instant sets and maintains
    accumulators.

    Variants: ``count`` (cardinality: the region count over the whole
    space, whatever ``region`` is), ``discounted_sum`` (sum of
    delta**(now - i), recent instants weigh more), ``discounted_complement``
    (cardinality minus that sum), ``region_count`` (observations inside the
    configured box), ``latest_occurrence`` (most recent in-region instant,
    0 if none).  Each variant's formulas are the functions that ``_FORMULAS``
    maps it to, above; a ``StatFn`` binds its variant's ``read(acc, now)``
    (the accumulator's value at ``now``), ``step_gain(acc, obs, instant)``
    and ``advance(acc, now)`` once, when it is built, so no accumulator call
    looks at the variant.
    """

    def __init__(self, variant: str, delta: float = 0.0, region=None):
        if variant not in STAT_VARIANTS:
            raise ConfigError(f"unknown stat variant {variant!r}")
        self.variant = variant
        self.delta = float(delta)
        self.region = _as_region(region)
        # True when a row's normalised weights do not depend on the instant
        # it is read at: a row is then read at its sum's ``last_now``, where
        # the discounted sum's common factor delta**(now - last_now) has
        # cancelled, so a row left long ago does not underflow to zero.  The
        # complement's weights change with ``now``; it is read at ``now``.
        self.row_ignores_now = variant != "discounted_complement"
        self._eval, read, self.step_gain = _FORMULAS[variant](self.delta, self._in_region)

        def advance(acc: StatAccumulator, now: int) -> None:
            """Catch the stored value up to ``now`` (lazy discount application)."""
            acc.value = read(acc, now)
            acc.last_now = now

        self.read, self.advance = read, advance

    @property
    def additive(self) -> bool:
        return self.variant in ADDITIVE_VARIANTS

    def _in_region(self, coords) -> bool:
        if self.region is None:
            return True
        if len(coords) != len(self.region):
            raise ConfigError(
                f"region has {len(self.region)} axes for {len(coords)}-d observations"
            )
        return all(lo <= x <= hi for x, (lo, hi) in zip(coords, self.region))

    # -- from-scratch evaluation

    def eval(self, signal, instants: Iterable[int], now: int) -> float:
        instants = list(instants)
        if any(i > now for i in instants):
            raise TemporalOrderError(f"instant set reaches beyond now={now}")
        return self._eval(signal, instants, now)

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

    def step(self, acc: StatAccumulator, obs, instant: int) -> StatAccumulator:
        """Add one instant (with its observation) to the accumulated set."""
        self.step_gain(acc, obs, instant)
        return acc

    def params_fingerprint(self) -> tuple:
        return (self.variant, self.delta, self.region)


def sigma_fn(params: PluginParams) -> StatFn:
    """Transition-weight statistic configured from the parameter tuple."""
    return StatFn(params.stat_variant, params.delta, params.region)


def rho_fn(params: PluginParams, notice: bool = True) -> StatFn:
    """Emission-weight statistic; must be additive to keep rows stochastic.

    ``latest_occurrence`` is not additive over the cluster partition, so it
    falls back to plain counting here, with a WARNING on the
    ``sigauto.plugins`` logger when ``logging`` is loaded and ``notice`` is
    true (a caller that builds no discrete model passes false): sigauto
    never loads it for this notice (the CLI loads it for SIGAUTO_LOG=info
    or debug), so a process that does not use ``logging`` pays nothing for
    it.
    """
    variant = params.stat_variant
    if variant not in ADDITIVE_VARIANTS:
        logging = sys.modules.get("logging") if notice else None
        if logging is not None:
            logging.getLogger(__name__).warning(
                "stat variant %r is not additive; emissions use 'count'", variant)
        variant = "count"
    return StatFn(variant, params.delta, params.region)


# ---------------------------------------------------------------------------
# Clusterer


# The rows a ``Clusterer`` remembers, a fixed bound.  One lookahead advance
# labels ~2h + 1 distinct rows (h + 1 genuine ones and up to h estimates),
# so 32 holds several advances' rows at the horizons in use.  A full memo
# forgets its oldest row, so a row stays while the h words and the model
# that read it are still to come.
MEMO_ROWS = 32


class Clusterer:
    """Axis-aligned grid partition of the observation space.

    ``cluster_of`` registers the returned id so the set of observed clusters
    (the discrete event alphabet) grows monotonically; ``label_of`` is the
    pure lookup.  Cells are half-open per coordinate and the reserved
    DUMMY_EVENT id is never produced.

    A row is a stored ``Signal`` row, unchecked; the first fixes the cell
    widths.  Up to ``MEMO_ROWS`` recent rows are remembered with their label
    and cell, keyed by the row's value: a label is a function of the
    coordinates and the grid alone, so a hit returns what a miss computes.
    A full memo forgets its oldest row.  The models of a ``fit`` group read
    the same stored row, and a lookahead row is read by h words and by the
    model, so each is labelled once.  A miss computes the row's cell index,
    and ``cell_label`` builds each cell's label once.  ``center`` keeps each
    label's centre.
    """

    def __init__(self, grid_width):
        self._raw_width = _as_widths(grid_width)
        self._widths: tuple[float, ...] | None = None
        self.observed: dict[str, tuple[int, ...]] = {}
        self._memo: dict[tuple, tuple[str, tuple[int, ...]]] = {}  # row -> (label, cell)
        self._centers: dict[str, tuple[float, ...]] = {}

    def _lookup(self, obs) -> tuple[str, tuple[int, ...]]:
        """Label and cell index of the row ``obs``."""
        hit = self._memo.get(obs)
        if hit is None:
            if self._widths is None:
                self._widths = _widths_for_dim(self._raw_width, len(obs))
            idx = cell_index(obs, self._widths)
            memo = self._memo
            if len(memo) >= MEMO_ROWS:
                del memo[next(iter(memo))]
            hit = memo[obs] = (cell_label(idx), idx)
        return hit

    def label_of(self, obs) -> str:
        return self._lookup(obs)[0]

    def cluster_of(self, obs) -> str:
        label, idx = self._lookup(obs)
        if label not in self.observed:
            self.observed[label] = idx
        return label

    def center(self, label: str) -> tuple[float, ...]:
        """Canonical representative of an observed cluster (its cell center)."""
        if label not in self.observed:
            raise ConfigError(f"cluster {label!r} has not been observed")
        center = self._centers.get(label)
        if center is None:
            idx = self.observed[label]
            center = self._centers[label] = cell_center(
                idx, _widths_for_dim(self._raw_width, len(idx)))
        return center


# ---------------------------------------------------------------------------
# Kernel and bandwidth


class Kernel:
    """Multivariate normal kernel with a fixed bandwidth matrix.

    Evaluates (2*pi)**(-d/2) * |H|**(-1/2) * exp(-x' H^-1 x / 2); the inverse
    and the normalization constant are precomputed once.
    """

    def __init__(self, bandwidth):
        import numpy as np

        H = np.asarray(bandwidth, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ConfigError(f"bandwidth must be a square matrix, got shape {H.shape}")
        # What np.allclose(H, H.T, rtol=0, atol=1e-12) decides (equal
        # infinities pass, NaN fails) at a fraction of its cost; exact
        # symmetry, the usual case, is tested first.
        symmetric = H == H.T
        if not symmetric.all():
            with np.errstate(invalid="ignore"):  # inf - inf
                symmetric |= np.abs(H - H.T) <= 1e-12
            if not symmetric.all():
                raise ConfigError("bandwidth matrix must be symmetric")
        if not np.isfinite(H).all():
            raise ConfigError("bandwidth matrix entries must be finite")
        try:
            chol = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ConfigError("bandwidth matrix must be positive definite") from exc
        self.h_matrix = H
        self.d = H.shape[0]
        self._inv = np.linalg.inv(H)
        det = float(np.prod(np.diagonal(chol))) ** 2
        self._norm = (2.0 * math.pi) ** (-self.d / 2.0) * det ** -0.5

    def mean_at(self, x, centers) -> float:
        """Mean of the kernel at ``x`` minus each row of the (k, d) ``centers``:
        the density of the uniform mixture centred there, in one vector
        operation."""
        import numpy as np

        diff = np.asarray(x, dtype=float).reshape(1, self.d) - np.asarray(
            centers, dtype=float).reshape(-1, self.d)
        quad = np.einsum("ij,jk,ik->i", diff, self._inv, diff)
        return self._norm * float(np.mean(np.exp(-0.5 * quad)))

    def __call__(self, x) -> float:
        return self.mean_at(x, [(0.0,) * self.d])


def default_bandwidth(signal: Signal) -> np.ndarray:
    """Diagonal Scott's-rule bandwidth: ((n**(-1/(d+4))) * s_j)**2 per axis.

    ``s_j`` is the sample standard deviation of coordinate j; the per-axis
    width is floored at 1e-6 before squaring so degenerate coordinates still
    give a usable kernel.  ``s_j`` comes from the signal's incrementally
    folded moments, so a call costs O(d) plus the observations appended since
    the previous call.
    """
    import numpy as np

    if len(signal) < 2:
        raise EmptyInputError("bandwidth selection needs at least 2 observations")
    n, _mean, m2 = signal.moments()
    scale = n ** (-1.0 / (len(m2) + 4))
    s = np.sqrt(m2 / (n - 1))
    h = np.maximum(scale * s, 1e-6)
    return np.diag(h**2)

