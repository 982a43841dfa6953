"""Incremental signal automaton.

The automaton records every state a classifier has emitted for a growing
signal together with an instants matrix: for each ordered state pair (p, q)
the cell (p, q) holds the instants at which the stream moved from p to q.
Exactly one instant is stored per observation, so the cells partition
{0..n} and the whole structure stays linear in the stream length.

A distinguished BOTTOM_STATE precedes the first observation; classifiers can
never produce it.  An automaton starts empty, at instant -1 on BOTTOM_STATE,
and every observation, the first included, is one move.  A state with no
outgoing cell is called *new*; at most one such state exists at any time and
it is necessarily the current state.

This module alone changes or builds an automaton: ``move`` steps it in
place to a given state and then ``update``s each model, and ``unmove`` is
its exact inverse.  ``step_stream`` classifies the next observation and
moves; ``next_isa`` is that step with no model, and returns the automaton;
``build_isa`` takes that step over a whole signal.  Their classifier maps
one row to one label: ``reset()`` and ``step(row)``.  A lookahead
classifier's label also depends on the next h rows, so the lookahead
frontier labels its words itself and ``move``s with them.  The steps hand
on the rows of a ``Signal``, checked when appended, unchecked.
"""

from __future__ import annotations

from .errors import EmptyInputError, Fields, SigautoError, StalenessError
from .signal import Signal

BOTTOM_STATE = "__bottom__"


class InstantsMatrix:
    """Sparse map from state pairs to strictly increasing instant lists."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[str, dict[str, list[int]]] = {}  # _rows[p][q] -> instants

    def append(self, p: str, q: str, instant: int) -> None:
        row = self._rows.setdefault(p, {})
        cell = row.setdefault(q, [])
        if cell and instant <= cell[-1]:
            raise SigautoError(
                f"instant {instant} not after {cell[-1]} in cell ({p!r}, {q!r})"
            )
        cell.append(instant)

    def pop(self, p: str, q: str) -> int:
        """Remove and return the last instant of cell (p, q): the inverse of
        ``append``, iteration order included.  A cell or row that the
        instant created is removed with it."""
        row = self._rows[p]
        cell = row[q]
        instant = cell.pop()
        if not cell:
            del row[q]
            if not row:
                del self._rows[p]
        return instant

    def cell(self, p: str, q: str) -> tuple[int, ...]:
        return tuple(self._rows.get(p, {}).get(q, ()))

    def row(self, p: str) -> dict[str, list[int]]:
        """Outgoing cells of ``p``; treat as read-only."""
        return self._rows.get(p, {})

    def has_outgoing(self, p: str) -> bool:
        return bool(self._rows.get(p))

    def cells(self):
        """Iterate (p, q, instants) over all stored cells."""
        for p, row in self._rows.items():
            for q, instants in row.items():
                yield p, q, instants

    def incoming_instants(self) -> dict[str, list[int]]:
        """Every state that a cell ends in, mapped to the sorted union of
        those cells' instants; one pass over the cells."""
        merged: dict[str, list[int]] = {}
        for row in self._rows.values():
            for q, instants in row.items():
                merged.setdefault(q, []).extend(instants)
        for incoming in merged.values():
            incoming.sort()
        return merged

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstantsMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        return f"InstantsMatrix(cells={sum(1 for _ in self.cells())})"


class Isa(Fields):
    """Instantaneous signal automaton: states, current state, instants matrix.

    ``states`` is an insertion-ordered set (dict keyed by state label), so the
    first-visit order of states is preserved for deterministic serialization.
    ``Isa()`` is the empty automaton, before the first observation.
    """

    __slots__ = ("states", "current", "theta", "n", "new_state_instants")

    def __init__(self):
        self.states, self.current = {BOTTOM_STATE: None}, BOTTOM_STATE
        self.theta, self.n, self.new_state_instants = InstantsMatrix(), -1, []


def init_isa(r0, classifier) -> Isa:
    """Build the automaton for a one-observation signal: the first step of
    the empty automaton, with ``classifier`` reset."""
    classifier.reset()
    return next_isa(Isa(), Signal([r0]), classifier)


def move(isa: Isa, label: str, obs, models=()) -> None:
    """Move ``isa`` in place to state ``label`` at its next instant, whose
    observation is ``obs``: that instant is appended to cell (current,
    ``label``) and ``label`` added if new.  Then ``update`` each of
    ``models`` with ``obs``.  Amortized O(1) plus the updates."""
    if label == BOTTOM_STATE:
        raise SigautoError("classifier produced the reserved bottom state label")
    i = isa.n + 1
    if label not in isa.states:
        isa.states[label] = None
        isa.new_state_instants.append(i)
    isa.theta.append(isa.current, label, i)
    isa.current = label
    isa.n = i
    for model in models:
        model.update(isa, obs)


def unmove(isa: Isa, previous: str) -> None:
    """Undo ``isa``'s newest move, which left state ``previous``: the exact
    inverse of ``move``, state set, instants matrix and their iteration
    order included.  The models are not touched."""
    i = isa.theta.pop(previous, isa.current)
    if isa.new_state_instants[-1] == i:  # the move added its state
        isa.new_state_instants.pop()
        del isa.states[isa.current]
    isa.current = previous
    isa.n = i - 1


def step_stream(isa: Isa, signal: Signal, classifier, models) -> None:
    """The one step of the automaton and its models, from the first
    observation on: classify observation ``signal[isa.n + 1]`` and ``move``
    ``isa`` and ``models`` to its state.  The classifier and models are read
    at each call, never kept."""
    i = isa.n + 1
    if len(signal) < i + 1:
        raise StalenessError(f"automaton is at instant {isa.n} but signal has only "
                             f"{len(signal)} observations")
    obs = signal[i]
    move(isa, classifier.step(obs), obs, models)


def next_isa(isa: Isa, signal: Signal, classifier) -> Isa:
    """Consume observation ``signal[isa.n + 1]``, mutating ``isa`` in place:
    ``step_stream`` with no model."""
    step_stream(isa, signal, classifier, ())
    return isa


def build_isa(signal: Signal, classifier) -> Isa:
    """Build the automaton for a whole signal from scratch (O(n) steps)."""
    if len(signal) == 0:
        raise EmptyInputError("cannot build an automaton from an empty signal")
    classifier.reset()
    isa = Isa()
    for _ in range(len(signal)):
        step_stream(isa, signal, classifier, ())
    return isa


def is_new_state(isa: Isa) -> bool:
    """True iff the current state has no outgoing cell."""
    return not isa.theta.has_outgoing(isa.current)
