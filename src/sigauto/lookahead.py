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
other read falls through to the base.

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
from .errors import (
    ConfigError,
    InsufficientHistoryError,
    SigautoError,
    StalenessError,
    UnknownStateError,
)
from .forecasting import (
    Forecast,
    event_distribution,
    forecast as model_forecast,
    sample_event,
    state_occupancies,
)
from .hmm import DUMMY_STATE, Hmm, isa_to_hmm, next_hmm
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


# Accumulator tables of ``Hmm``: per-row cell maps, then per-row sums.
_CELL_TABLES = ("_tcells", "_ecells")
_SUM_TABLES = ("_trow", "_edenom")


class _ModelOverlay:
    """A frontier model over the base ``Hmm``.

    ``over`` maps each accumulator table of ``Hmm`` to its replaced entries;
    reads merge them over the base's (``{**base_row, **overrides}``, the
    order in which a full copy would iterate).  A step replaces accumulators
    by private copies, so neither the base nor an ancestor is ever written,
    and an overlay is never changed after its step except by ``rebase``.
    ``sigma``, ``rho`` and ``clusterer`` are plain attributes, as on ``Hmm``.
    """

    def __init__(self, base: Hmm, parent):
        self.base = base
        self.sigma = parent.sigma
        self.rho = parent.rho
        self.clusterer = parent.clusterer
        self.n = parent.n
        self.current = parent.current
        self.current_is_new = parent.current_is_new
        self.state_order = base.state_order
        if parent is base:
            self.over = {table: {} for table in _CELL_TABLES + _SUM_TABLES}
        else:
            self.over = {table: dict(rows) for table, rows in parent.over.items()}

    # -- read side: the surface ``forecasting`` uses

    def alpha(self) -> dict[str, float]:
        return {self.current: 1.0}

    def transition_row(self, p: str) -> dict[str, float]:
        if p == DUMMY_STATE:
            return {DUMMY_STATE: 1.0}
        return self._row(p, self.sigma, "_tcells", "_trow", DUMMY_STATE)

    def emission_row(self, q: str) -> dict[str, float]:
        if q == DUMMY_STATE:
            return {DUMMY_EVENT: 1.0}
        return self._row(q, self.rho, "_ecells", "_edenom", DUMMY_EVENT)

    def _row(self, p: str, stat: StatFn, cell_table: str, sum_table: str,
             sink: str) -> dict[str, float]:
        """``Hmm.transition_row``/``emission_row`` over the merged tables."""
        if p not in self.state_order:
            raise UnknownStateError(p)
        cells = getattr(self.base, cell_table).get(p)
        replaced = self.over[cell_table].get(p)
        if replaced:
            cells = {**cells, **replaced} if cells else replaced
        if not cells:
            return {sink: 1.0}
        total = self.over[sum_table].get(p)
        if total is None:
            total = getattr(self.base, sum_table)[p]
        denom = stat.read(total, self.n)
        if denom <= 0.0:
            return {sink: 1.0}
        return {c: stat.read(acc, self.n) / denom for c, acc in cells.items()}

    # -- write side: called by ``next_hmm``

    def _apply_transition(self, prev_state: str, state: str, obs, instant: int) -> None:
        """``_TransitionCore._apply_transition`` on private copies.  ``state``
        is already known: a new state poisons its entry before the model step."""
        acc = self._take("_tcells", prev_state, state, self.sigma, instant)
        before = self.sigma.read(acc, instant)
        self.sigma.step(acc, obs, instant)
        after = self.sigma.read(acc, instant)
        row = self._take("_trow", prev_state, None, self.sigma, instant)
        self.sigma.advance(row, instant)
        row.value += after - before
        row.raw_count += 1

    def _apply_emission(self, state: str, cluster: str, obs, instant: int) -> None:
        self.rho.step(self._take("_ecells", state, cluster, self.rho, instant), obs, instant)
        self.rho.step(self._take("_edenom", state, None, self.rho, instant), obs, instant)

    def _take(self, table: str, row: str, col: str | None, stat: StatFn,
              instant: int) -> StatAccumulator:
        """Install and return a private copy of one accumulator (a new one if
        absent).  ``col`` is None for the sum tables."""
        over = self.over[table]
        base = getattr(self.base, table)
        if col is None:
            acc = over.get(row) or base.get(row)
        else:
            acc = over.get(row, {}).get(col) or base.get(row, {}).get(col)
        if acc is None:
            acc = stat.new_acc(now=instant)
        else:
            acc = StatAccumulator(acc.value, acc.last_now, acc.raw_count)
        over[row] = acc if col is None else {**over.get(row, {}), col: acc}
        return acc

    # -- reconciliation

    def commit(self) -> None:
        """Write this overlay into the base, which it is one step past."""
        base = self.base
        for table in _CELL_TABLES:
            rows = getattr(base, table)
            for row, cells in self.over[table].items():
                rows.setdefault(row, {}).update(cells)
        for table in _SUM_TABLES:
            getattr(base, table).update(self.over[table])
        base.n = self.n
        base.current = self.current
        base.current_is_new = self.current_is_new

    def rebase(self) -> None:
        """Drop the accumulators the base has caught up with.  Every replaced
        accumulator was last moved to the instant of the step that wrote it."""
        n = self.base.n
        for table in _SUM_TABLES:
            self.over[table] = {
                row: acc for row, acc in self.over[table].items() if acc.last_now > n
            }
        for table in _CELL_TABLES:
            kept = {}
            for row, cells in self.over[table].items():
                live = {c: acc for c, acc in cells.items() if acc.last_now > n}
                if live:
                    kept[row] = live
            self.over[table] = kept


@dataclass
class FrontierEntry:
    """One lookahead automaton/model pair at a frontier instant."""

    isa: Isa | _IsaOverlay
    hmm: Hmm | _ModelOverlay


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
            if h == 0:
                return Forecast(0, [], False)
            return Forecast(h, [{DUMMY_EVENT: 1.0} for _ in range(h)], True)
        return model_forecast(entry.hmm, h)

    def fingerprint(self) -> dict:
        """Canonical structure for exact equality comparisons; O(n) per entry."""
        return {
            "n": self.n,
            "h": self.h,
            "estimated": [list(e) if e is not None else None for e in self.estimated],
            "base": _pair_doc(self.base_isa, self.base_hmm),
            "entries": [
                _pair_doc(e.isa, e.hmm) if e is not None else None
                for e in self.entries
            ],
        }


def _isa_doc(isa) -> dict:
    return {
        "states": sorted(isa.states),
        "current": isa.current,
        "n": isa.n,
        "new_state_instants": list(isa.new_state_instants),
        "theta": sorted((p, q, list(c)) for p, q, c in isa.theta.cells()),
    }


def _model_doc(hmm) -> dict:
    states = [*hmm.state_order, DUMMY_STATE]
    return {
        "n": hmm.n,
        "current": hmm.current,
        "current_is_new": hmm.current_is_new,
        "states": sorted(hmm.state_order),
        "events": sorted(hmm.clusterer.observed),
        "transitions": sorted(
            (p, q, w) for p in states for q, w in hmm.transition_row(p).items()
        ),
        "emissions": sorted(
            (q, c, w) for q in states for c, w in hmm.emission_row(q).items()
        ),
    }


def _pair_doc(isa, hmm) -> tuple:
    return (_isa_doc(isa), _model_doc(hmm))


def lookahead_build(signal, params: PluginParams, seed=0) -> LookaheadFrontier:
    """Build the frontier over a signal with at least h + 1 observations.

    Instants 0 .. n - h run the plain pipeline with genuine future windows;
    the remaining instants are extended one by one, each sampling the next
    estimated observation from the previous frontier model.
    """
    h = params.horizon
    if h < 1:
        raise ConfigError("lookahead needs horizon >= 1")
    src = Signal(list(signal))
    n = src.last_instant
    if n < h:
        raise InsufficientHistoryError(
            f"lookahead with horizon {h} needs more than {h} observations, got {n + 1}"
        )
    classifier = LookaheadWordClassifier(params)
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
