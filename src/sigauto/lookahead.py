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

The frontier steps one automaton and one model in place.  Because an
unseen word poisons its entry, a live entry never adds a state, so its step
is one ``move`` of the automaton to a known state and the model's
``update``, which writes to two existing rows: the transition row it leaves
and the emission row it enters.  Each entry keeps its word, the state its
step left and the model's journal of the rows it wrote (``Hmm.journal``,
filled by the model's write path while the step runs).  Undoing an entry
hands that journal to ``swap_journal``, newest record first, which puts back
each row's prior cell, total and cached normalization and deletes the cells
the step created, so every table reads, in key order and in value, as it
did before the step, and ``unmove``s the automaton; redoing swaps the
journal forward again and ``move``s the automaton back.  No cached row is
dropped either way.

When a genuine observation arrives, the oldest frontier entry becomes fully
determined.  If its estimated word matches the genuine one, its step is the
genuine step: the entry and its journal are dropped and every deeper entry
is kept.  Otherwise the live entries are undone, newest first, the automaton
and model move with the genuine word, classified once, and the at most h
entries are rebuilt.
Either way an advance costs O(h) accumulator updates plus the frontier's
(h+1)-step sampling forecasts.  Each frontier step samples with the keyed
draw ``keyed_uniform(run seed, absolute instant, LOOKAHEAD_STREAM)``, a
pure function of its key, so a rebuilt suffix draws again what it first
drew and is identical to a fresh build over the extended signal.  The
model is built on the word classifier's own clusterer, which remembers
recent rows, so an advance labels only its new row, once for the word and
the model together.  The build keeps a window of the next h labels and
labels each row once, as it enters the window.  The automaton's own steps
classify one row at a time, so the frontier labels its words itself, with
``LookaheadFrontier._word``, and ``move``s with them.  ``fingerprint``
undoes every live entry and redoes them one by one, reading each
automaton/model pair at its own instant.
"""

from __future__ import annotations

from itertools import islice

from .automaton import Isa, move, unmove
from .errors import InsufficientHistoryError
from .forecasting import (
    LOOKAHEAD_STREAM,
    Forecast,
    event_distribution,
    forecast as model_forecast,
    keyed_uniform,
    pick_event,
    state_occupancies,
)
from .hmm import Hmm, swap_journal
from .plugins import DUMMY_EVENT, LookaheadWordClassifier, PluginParams, rho_fn, sigma_fn
from .signal import Signal


class FrontierEntry:
    """One frontier step and the journal that undoes it.

    ``hmm`` is the frontier's one model and ``isa`` its automaton, both at
    the newest live entry; this step moved from state ``left`` to ``word``
    and wrote the rows of the model's records in ``journal``.
    """

    __slots__ = ("hmm", "word", "left", "journal")

    def __init__(self, hmm: Hmm, word: str, left: str, journal: list):
        self.hmm, self.word, self.left, self.journal = hmm, word, left, journal

    @property
    def isa(self) -> Isa:
        return self.hmm.isa

    def undo(self) -> None:
        """Step the automaton and model back to before this entry."""
        swap_journal(reversed(self.journal))
        unmove(self.isa, self.left)
        self.hmm.current, self.hmm.n = self.left, self.hmm.n - 1

    def redo(self) -> None:
        """Take this entry's step again, after ``undo``."""
        swap_journal(self.journal)
        move(self.isa, self.word, None)
        self.hmm.current, self.hmm.n = self.word, self.hmm.n + 1


class LookaheadFrontier:
    """The family of lookahead objects for instants (n - h, n].

    ``entries[k]`` is the step to instant n - h + 1 + k, or None when
    poisoned; ``estimated[k]`` is the sampled observation for position
    n + 1 + k.  ``base_isa``/``base_hmm`` are the frontier's one automaton
    and model: they stand at the newest live entry, and at instant n - h
    once every live entry is undone, newest first.  Instant i's estimate
    is picked with ``keyed_uniform(seed, i, LOOKAHEAD_STREAM)``, so the
    integer ``seed`` counts mod 2**64.  ``matched`` and ``rebuilt`` count
    the advances that kept the deeper entries and those that rebuilt them;
    ``entries_built`` counts the entries appended, poisoned ones included.

    The frontier builds its own parts: the word classifier, which refuses
    h < 1, then its signal (``signal`` itself if a ``Signal``, which
    ``lookahead_advance`` appends to, else a copy), which refuses a bad row
    and must hold more than h rows.  The model is built on the classifier's
    clusterer; the automaton and model start empty.
    """

    def __init__(self, params: PluginParams, seed, signal):
        self.params, self.h, self.seed = params, params.horizon, seed
        self.classifier = LookaheadWordClassifier(params)
        self.signal = signal if isinstance(signal, Signal) else Signal(signal)
        if self.n < self.h:
            raise InsufficientHistoryError(f"lookahead with horizon {self.h} needs more "
                                           f"than {self.h} observations, got {self.n + 1}")
        self.clusterer = self.classifier.clusterer
        self.sigma, self.rho = sigma_fn(params), rho_fn(params)
        self.base_isa = Isa()
        self.base_hmm = Hmm(self.sigma, self.rho, self.clusterer, self.base_isa)
        self.entries: list[FrontierEntry | None] = []
        self.estimated: list[tuple | None] = []
        self.matched = self.rebuilt = self.entries_built = 0

    @property
    def n(self) -> int:
        return self.signal.last_instant

    def live(self) -> list[FrontierEntry]:
        """The entries that are not poisoned, oldest first: a prefix."""
        return [entry for entry in self.entries if entry is not None]

    def poisoned_from(self) -> int | None:
        """Absolute instant of the first poisoned entry, if any."""
        for k, entry in enumerate(self.entries):
            if entry is None:
                return self.n - self.h + 1 + k
        return None

    def _word(self, i: int) -> str:
        """The word of instant ``i``: the labels of rows i+1 .. i+h, estimates
        past the present."""
        n, label_of = self.n, self.clusterer.label_of
        return self.classifier.word([
            label_of(self.signal[pos] if pos <= n else self.estimated[pos - n - 1])
            for pos in range(i + 1, i + self.h + 1)])

    def _extend(self, i: int) -> None:
        """Append the entry for instant ``i`` (and the estimate for i + h).

        Frontier instants never pass the present, so the step reads genuine
        observations and only its word reads estimates.
        """
        self.entries_built += 1
        isa, hmm = self.base_isa, self.base_hmm
        if self.entries and self.entries[-1] is None:
            self.entries.append(None)
            self.estimated.append(None)
            return
        occupancy = state_occupancies(hmm, self.h + 1)[-1]
        u = keyed_uniform(self.seed, i, LOOKAHEAD_STREAM)
        label = pick_event(event_distribution(hmm, occupancy), u)
        if label == DUMMY_EVENT:
            self.entries.append(None)
            self.estimated.append(None)
            return
        self.estimated.append(self.clusterer.center(label))
        word = self._word(i)
        prev = isa.current
        if not (word == prev or isa.theta.has_outgoing(word)):  # an unseen word
            self.entries.append(None)
            return
        # A live step leaves a state that has outgoing instants for one that
        # has incoming ones, so both rows it writes exist (the journal puts
        # back cells, not rows); only cells may not.
        entry = FrontierEntry(hmm, word, prev, [])
        hmm.journal = entry.journal
        try:
            move(isa, word, self.signal[i], (hmm,))
        finally:
            hmm.journal = None
        self.entries.append(entry)

    def forecast(self) -> Forecast:
        """Forecast from the newest frontier model at the frontier's
        horizon; dummy when poisoned."""
        entry = self.entries[-1] if self.entries else None
        if entry is None:
            return Forecast.dummy(self.h)
        return model_forecast(entry.hmm, self.h)

    def fingerprint(self) -> dict:
        """Canonical structure for exact equality comparisons; O(n) per entry.

        Each automaton/model pair is sorted lists of the parameters, the
        model's states, current state, events and normalized transition and
        emission weights, the automaton's instants matrix, and the automaton
        and model fields those leave out.  The live entries are undone, then
        redone one by one, so each pair is read at its own instant.
        """
        def pair_doc(isa, hmm) -> dict:
            def weights(read):
                return sorted([p, q, w] for p in hmm.states for q, w in read(p).items())

            return {
                "tau": self.params.to_dict(),
                "states": sorted(hmm.states),
                "alpha": hmm.current,
                "transitions": weights(hmm.transition_row),
                "events": sorted([*hmm.clusterer.observed, DUMMY_EVENT]),
                "emissions": weights(hmm.emission_row),
                "instants_matrix": sorted([p, q, list(c)] for p, q, c in isa.theta.cells()),
                "isa": [sorted(isa.states), isa.current, isa.n,
                        list(isa.new_state_instants)],
                "model": [hmm.n, hmm.current_is_new],
            }

        live = self.live()
        for entry in reversed(live):
            entry.undo()
        base = pair_doc(self.base_isa, self.base_hmm)
        entries = []
        for entry in live:
            entry.redo()
            entries.append(pair_doc(entry.isa, entry.hmm))
        return {
            "n": self.n,
            "h": self.h,
            "estimated": [list(e) if e is not None else None for e in self.estimated],
            "base": base,
            "entries": entries + [None] * (len(self.entries) - len(live)),
        }


def lookahead_build(signal, params: PluginParams, seed=0) -> LookaheadFrontier:
    """Build the frontier over a signal with at least h + 1 observations.

    Instants 0 .. n - h each ``move`` with the word of their genuine future
    window, from a window of the next h labels that slides along the
    signal: each row is labelled once, as it enters the window, and the
    model finds that label still in the clusterer's memo.  The remaining
    instants are extended one by one, each sampling the next estimated
    observation from the previous frontier model.
    """
    frontier = LookaheadFrontier(params, seed, signal)
    src, h, isa, models = frontier.signal, frontier.h, frontier.base_isa, (frontier.base_hmm,)
    label_of, word = frontier.clusterer.label_of, frontier.classifier.word
    # Before instant i the window holds the labels of rows i+1 .. i+h-1.
    window = [label_of(row) for row in islice(src, 1, h)]
    for obs, entering in zip(src, islice(src, h, None)):
        window.append(label_of(entering))
        move(isa, word(window), obs, models)
        del window[0]
    for i in range(frontier.n - h + 1, frontier.n + 1):
        frontier._extend(i)
    return frontier


def lookahead_advance(frontier: LookaheadFrontier, r_new) -> LookaheadFrontier:
    """Absorb one genuine observation, re-anchoring the frontier.

    The oldest frontier entry's window is now fully genuine.  If its stored
    word matches the genuine word, its step is the genuine one: the entry
    and its journal are dropped and all deeper entries are kept.  Otherwise
    the live entries are undone, newest first, the automaton and model move
    with the genuine word, and the suffix is rebuilt by the same induction (and
    the same keyed per-instant draws) as a fresh build.  Always computes the
    newest entry.
    """
    h = frontier.h
    frontier.signal.append(r_new)
    n_new = frontier.signal.last_instant
    i0 = n_new - h
    genuine_word = frontier._word(i0)
    old_first = frontier.entries[0] if frontier.entries else None
    if old_first is not None and old_first.word == genuine_word:
        del frontier.entries[0]
        del frontier.estimated[0]
        frontier.matched += 1
    else:
        for entry in reversed(frontier.live()):
            entry.undo()
        move(frontier.base_isa, genuine_word, frontier.signal[i0], (frontier.base_hmm,))
        frontier.entries = []
        frontier.estimated = []
        frontier.rebuilt += 1
        for i in range(i0 + 1, n_new):
            frontier._extend(i)
    frontier._extend(n_new)
    return frontier
