"""Lookahead forecasting with estimated future observations.

With a lookahead classifier the automaton state at instant i depends on the
next ``h`` observations, so at present time n only instants up to n - h are
fully determined.  For each frontier instant i in (n - h, n] the missing
observations are replaced by estimates sampled from the previous frontier
model's (h+1)-step forecast, each estimate being the grid-cell center of the
sampled cluster.

If a frontier step samples the dummy event, or classifies to a word never
seen before (a new state), that entry and all later ones are poisoned:
no lookahead objects exist beyond that point until genuine data arrives.

Frontier entries are copy-on-write overlays over the genuine base automaton
and model at instant n - h.  Because an unseen word poisons its entry, a
stored entry never adds a state, so it is exactly one step past its parent:
one appended instant and at most four replaced accumulators (the transition
cell, its row sum, the emission cell and the emission denominator).  Entry k
therefore holds k + 1 instants and at most 4(k + 1) accumulators, and every
other read falls through to the base.  The model overlay is an ``Hmm``
subclass that overrides only where accumulators are stored, so it reads,
normalizes and steps with ``Hmm``'s own code.  It caches the normalized rows
it replaced beside its layers (starting from its parent's); every other row
is read from, and cached in, the base model's row cache.  Writing an entry
into the base drops the base's cached rows for the rows the entry replaced.

When a genuine observation arrives, the oldest frontier entry becomes fully
determined.  If its estimated word matches the genuine one, its one-step
delta is written into the base in place and every deeper entry is kept;
otherwise the base takes the genuine step and the at most h entries are
rebuilt.  Either way an advance costs O(h) accumulator updates plus the
frontier's (h+1)-step sampling forecasts.  Each frontier step draws from a
generator seeded by (run seed, absolute instant), so a rebuilt suffix is
identical to a fresh build over the extended signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    Isa,
    InstantsMatrix,
    _checked_label,
    init_isa,
    is_new_state,
    next_isa,
)
from .errors import InsufficientHistoryError, SigautoError, StalenessError
from .forecasting import (
    Forecast,
    event_distribution,
    forecast as model_forecast,
    sample_event,
    state_occupancies,
)
from .hmm import Hmm, isa_to_hmm, next_hmm
from .plugins import (
    DUMMY_EVENT,
    Clusterer,
    LookaheadWordClassifier,
    PluginParams,
    StatAccumulator,
    StatFn,
    rho_fn,
    sigma_fn,
)
from .signal import Signal
from .snapshot import model_document


class _ThetaOverlay:
    """Instants matrix of a frontier automaton: the base matrix plus the
    (p, q, instant) moves of the steps since, oldest first."""

    __slots__ = ("base", "moves")

    def __init__(self, base: InstantsMatrix, moves: tuple):
        self.base = base
        self.moves = moves

    def append(self, p: str, q: str, instant: int) -> None:
        last = [j for a, b, j in self.moves if a == p and b == q]
        last = last or self.base.row(p).get(q, ())
        if last and instant <= last[-1]:
            raise SigautoError(
                f"instant {instant} not after {last[-1]} in cell ({p!r}, {q!r})"
            )
        self.moves += ((p, q, instant),)

    def has_outgoing(self, p: str) -> bool:
        return self.base.has_outgoing(p) or any(a == p for a, _, _ in self.moves)

    def cells(self):
        """Iterate (p, q, instants) over the merged cells; O(n)."""
        extra: dict[tuple[str, str], list[int]] = {}
        for p, q, j in self.moves:
            extra.setdefault((p, q), []).append(j)
        for p, q, instants in self.base.cells():
            yield p, q, instants + extra.pop((p, q), [])
        for (p, q), instants in extra.items():
            yield p, q, instants


class _IsaOverlay:
    """A frontier automaton over the base ``Isa``.

    ``states`` and ``new_state_instants`` are the base's: a step to an unseen
    word is not added to them, so such an overlay reads as new and is
    dropped as poisoned.
    """

    __slots__ = ("base", "theta", "current", "n")

    def __init__(self, base: Isa, parent, signal: Signal, classifier, future):
        """``next_isa`` from ``parent`` (the base or an overlay over it) into
        a new overlay; neither the parent nor the base is written."""
        i = parent.n + 1
        if len(signal) < i + 1:
            raise StalenessError(
                f"automaton is at instant {parent.n} but signal has only "
                f"{len(signal)} observations"
            )
        label = _checked_label(classifier.step(signal[i], future))
        self.base = base
        self.theta = _ThetaOverlay(base.theta, () if parent is base else parent.theta.moves)
        self.theta.append(parent.current, label, i)
        self.current = label
        self.n = i

    @property
    def states(self) -> dict[str, None]:
        return self.base.states

    @property
    def new_state_instants(self) -> list[int]:
        return self.base.new_state_instants

    def commit(self) -> None:
        """Append this overlay's move to the base, which it is one step past."""
        for p, q, j in self.theta.moves:
            self.base.theta.append(p, q, j)
        self.base.current = self.current
        self.base.n = self.n

    def rebase(self) -> None:
        """Drop the moves the base has caught up with."""
        n = self.base.n
        self.theta.moves = tuple(m for m in self.theta.moves if m[2] > n)


class _Layer:
    """One accumulator table of a frontier model: the base model's table
    (``base``) with the entries the frontier steps replaced (``over``) on
    top.  This class holds a row-sum table, which maps a row to its
    accumulator."""

    __slots__ = ("base", "over")

    def __init__(self, base: dict, parent):
        """``parent`` is the base table itself or the parent model's layer."""
        self.base = base
        self.over = {} if parent is base else dict(parent.over)

    def get(self, row: str):
        acc = self.over.get(row)
        return self.base.get(row) if acc is None else acc

    def commit(self) -> None:
        self.base.update(self.over)

    def rebase(self, n: int) -> None:
        self.over = {row: acc for row, acc in self.over.items() if acc.last_now > n}


class _CellLayer(_Layer):
    """A cell table: a row maps each column to its accumulator and reads as
    ``{**base_row, **replaced}``, the order in which a full copy would
    iterate."""

    __slots__ = ()

    def get(self, row: str):
        cells = self.base.get(row)
        replaced = self.over.get(row)
        if replaced:
            return {**cells, **replaced} if cells else replaced
        return cells

    def commit(self) -> None:
        for row, cells in self.over.items():
            self.base.setdefault(row, {}).update(cells)

    def rebase(self, n: int) -> None:
        kept = {}
        for row, cells in self.over.items():
            live = {c: acc for c, acc in cells.items() if acc.last_now > n}
            if live:
                kept[row] = live
        self.over = kept


class _RowCache:
    """The normalized-row cache of a frontier model: its own rows for the
    rows it replaced (those in the row-sum layer ``totals``), the base
    model's cache for every other row."""

    __slots__ = ("base", "totals", "own")

    def __init__(self, base: dict, totals: _Layer, parent):
        """``parent`` is the base cache itself or the parent model's cache."""
        self.base = base
        self.totals = totals
        self.own = {} if parent is base else dict(parent.own)

    def get(self, row: str):
        if row in self.totals.over:
            return self.own.get(row)
        return self.base.get(row)

    def __setitem__(self, row: str, normalized: dict) -> None:
        (self.own if row in self.totals.over else self.base)[row] = normalized

    def pop(self, row: str) -> None:
        self.own.pop(row, None)

    def commit(self) -> None:
        """Drop the base's rows for the rows the layers have written there."""
        for row in self.totals.over:
            self.base.pop(row, None)

    def rebase(self) -> None:
        """Keep only the rows still replaced once ``totals`` is rebased."""
        self.own = {row: r for row, r in self.own.items() if row in self.totals.over}


class _ModelOverlay(Hmm):
    """A frontier model over the base ``Hmm``.

    It differs from ``Hmm`` only in where accumulators are stored: each
    table is a layer over the base's, and ``_acc`` installs a private copy
    in the layer before a step writes it, so neither the base nor an
    ancestor is ever written, and an overlay is never changed after its
    step except by ``rebase``.  Reads and the step itself are ``Hmm``'s.
    """

    def __init__(self, base: Hmm, parent: Hmm):
        super().__init__(parent.sigma, parent.rho, parent.clusterer, parent.n,
                         parent.current, parent.current_is_new)
        self.base = base
        self.state_order = base.state_order
        self._tcells = _CellLayer(base._tcells, parent._tcells)
        self._trow = _Layer(base._trow, parent._trow)
        self._ecells = _CellLayer(base._ecells, parent._ecells)
        self._edenom = _Layer(base._edenom, parent._edenom)
        self._tnorm = _RowCache(base._tnorm, self._trow, parent._tnorm)
        self._enorm = _RowCache(base._enorm, self._edenom, parent._enorm)

    def _acc(self, layer, norm, row: str, col: str | None, stat: StatFn,
             instant: int) -> StatAccumulator:
        """A private copy of the accumulator (a new one if absent), installed
        among the layer's replaced entries."""
        norm.pop(row)
        if col is None:
            acc = layer.get(row)
        else:
            acc = layer.over.get(row, {}).get(col) or layer.base.get(row, {}).get(col)
        if acc is None:
            acc = stat.new_acc(now=instant)
        else:
            acc = StatAccumulator(acc.value, acc.last_now, acc.raw_count)
        layer.over[row] = acc if col is None else {**layer.over.get(row, {}), col: acc}
        return acc

    # -- reconciliation

    def _layers(self):
        return (self._tcells, self._trow, self._ecells, self._edenom)

    def commit(self) -> None:
        """Write this overlay into the base, which it is one step past."""
        for part in self._layers() + (self._tnorm, self._enorm):
            part.commit()
        base = self.base
        base.n = self.n
        base.current = self.current
        base.current_is_new = self.current_is_new

    def rebase(self) -> None:
        """Drop the accumulators the base has caught up with.  Every replaced
        accumulator was last moved to the instant of the step that wrote it."""
        for layer in self._layers():
            layer.rebase(self.base.n)
        self._tnorm.rebase()
        self._enorm.rebase()


@dataclass
class FrontierEntry:
    """One lookahead automaton/model pair at a frontier instant."""

    isa: Isa | _IsaOverlay
    hmm: Hmm


class LookaheadFrontier:
    """The family of lookahead objects for instants (n - h, n].

    ``entries[k]`` holds the overlay pair for instant n - h + 1 + k, or None
    when poisoned; ``estimated[k]`` is the sampled observation for position
    n + 1 + k.  ``base_isa``/``base_hmm`` are the fully genuine objects at
    instant n - h.
    """

    def __init__(self, params: PluginParams, seed, signal: Signal,
                 classifier: LookaheadWordClassifier, clusterer: Clusterer,
                 sigma, rho):
        self.params = params
        self.h = params.horizon
        self.seed = seed
        self.signal = signal
        self.classifier = classifier
        self.clusterer = clusterer
        self.sigma = sigma
        self.rho = rho
        self.base_isa: Isa | None = None
        self.base_hmm: Hmm | None = None
        self.entries: list[FrontierEntry | None] = []
        self.estimated: list[tuple | None] = []

    @property
    def n(self) -> int:
        return self.signal.last_instant

    def poisoned_from(self) -> int | None:
        """Absolute instant of the first poisoned entry, if any."""
        for k, entry in enumerate(self.entries):
            if entry is None:
                return self.n - self.h + 1 + k
        return None

    def _window(self, i: int) -> tuple:
        """Observations at positions i+1 .. i+h, estimates past the present."""
        n = self.n
        out = []
        for pos in range(i + 1, i + self.h + 1):
            out.append(self.signal[pos] if pos <= n else self.estimated[pos - n - 1])
        return tuple(out)

    def _extend(self, i: int) -> None:
        """Append the entry for instant ``i`` (and the estimate for i + h).

        Frontier instants never pass the present, so the step reads genuine
        observations and only its window holds estimates.
        """
        prev = self.entries[-1] if self.entries else FrontierEntry(self.base_isa, self.base_hmm)
        if prev is None:
            self.entries.append(None)
            self.estimated.append(None)
            return
        occupancy = state_occupancies(prev.hmm, self.h + 1)[-1]
        dist = event_distribution(prev.hmm, occupancy)
        label = sample_event(dist, seed=f"{self.seed}:{i}")
        if label == DUMMY_EVENT:
            self.entries.append(None)
            self.estimated.append(None)
            return
        self.estimated.append(self.clusterer.center(label))
        isa = _IsaOverlay(self.base_isa, prev.isa, self.signal, self.classifier,
                          self._window(i))
        if is_new_state(isa):
            self.entries.append(None)
            return
        hmm = _ModelOverlay(self.base_hmm, prev.hmm)
        next_hmm(hmm, isa, self.signal, self.sigma, self.rho, self.clusterer)
        self.entries.append(FrontierEntry(isa, hmm))

    def forecast(self, horizon: int | None = None) -> Forecast:
        """Forecast from the newest frontier model; dummy when poisoned."""
        h = self.h if horizon is None else horizon
        entry = self.entries[-1] if self.entries else None
        if entry is None:
            return Forecast.dummy(h)
        return model_forecast(entry.hmm, h)

    def fingerprint(self) -> dict:
        """Canonical structure for exact equality comparisons; O(n) per entry.

        Each automaton/model pair is its model document plus the automaton
        and model fields the document leaves out.
        """
        def pair_doc(isa, hmm) -> dict:
            return {
                **model_document(hmm, self.params, isa),
                "isa": [sorted(isa.states), isa.current, isa.n,
                        list(isa.new_state_instants)],
                "model": [hmm.n, hmm.current_is_new],
            }

        return {
            "n": self.n,
            "h": self.h,
            "estimated": [list(e) if e is not None else None for e in self.estimated],
            "base": pair_doc(self.base_isa, self.base_hmm),
            "entries": [
                pair_doc(e.isa, e.hmm) if e is not None else None
                for e in self.entries
            ],
        }


def lookahead_build(signal, params: PluginParams, seed=0) -> LookaheadFrontier:
    """Build the frontier over a signal with at least h + 1 observations.

    Instants 0 .. n - h run the plain pipeline with genuine future windows;
    the remaining instants are extended one by one, each sampling the next
    estimated observation from the previous frontier model.
    """
    h = params.horizon
    classifier = LookaheadWordClassifier(params)  # refuses h < 1
    src = Signal(list(signal))
    n = src.last_instant
    if n < h:
        raise InsufficientHistoryError(
            f"lookahead with horizon {h} needs more than {h} observations, got {n + 1}"
        )
    clusterer = Clusterer(params.grid_width)
    frontier = LookaheadFrontier(
        params, seed, src, classifier, clusterer, sigma_fn(params), rho_fn(params)
    )
    isa = init_isa(src[0], classifier, future=src[1 : 1 + h])
    hmm = isa_to_hmm(isa, src, frontier.sigma, frontier.rho, clusterer)
    for i in range(1, n - h + 1):
        next_isa(isa, src, classifier, future=src[i + 1 : i + h + 1])
        next_hmm(hmm, isa, src, frontier.sigma, frontier.rho, clusterer)
    frontier.base_isa = isa
    frontier.base_hmm = hmm
    for i in range(n - h + 1, n + 1):
        frontier._extend(i)
    return frontier


def lookahead_advance(frontier: LookaheadFrontier, r_new) -> LookaheadFrontier:
    """Absorb one genuine observation, re-anchoring the frontier.

    The oldest frontier entry's window is now fully genuine.  If its stored
    word matches the genuine word, the entry's one-step delta is written into
    the base in place and all deeper entries are kept, minus what the base
    now holds; otherwise the base takes the genuine step and the suffix is
    rebuilt by the same induction (and identical per-instant seeds) as a
    fresh build.  Always computes the newest entry.
    """
    h = frontier.h
    frontier.signal.append(r_new)
    n_new = frontier.signal.last_instant
    i0 = n_new - h
    genuine_window = frontier.signal[i0 + 1 : i0 + h + 1]
    genuine_word = frontier.classifier.step(frontier.signal[i0], genuine_window)
    old_first = frontier.entries[0] if frontier.entries else None
    if old_first is not None and old_first.isa.current == genuine_word:
        old_first.isa.commit()
        old_first.hmm.commit()
        frontier.entries = frontier.entries[1:]
        frontier.estimated = frontier.estimated[1:]
        for entry in frontier.entries:
            if entry is not None:
                entry.isa.rebase()
                entry.hmm.rebase()
    else:
        next_isa(frontier.base_isa, frontier.signal, frontier.classifier,
                 future=genuine_window)
        next_hmm(frontier.base_hmm, frontier.base_isa, frontier.signal,
                 frontier.sigma, frontier.rho, frontier.clusterer)
        frontier.entries = []
        frontier.estimated = []
        for i in range(i0 + 1, n_new):
            frontier._extend(i)
    frontier._extend(n_new)
    return frontier
