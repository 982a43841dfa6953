"""Incremental signal automaton.

The automaton records every state a classifier has emitted for a growing
signal together with an instants matrix: for each ordered state pair (p, q)
the cell (p, q) holds the instants at which the stream moved from p to q.
Exactly one instant is stored per observation, so the cells partition
{0..n} and the whole structure stays linear in the stream length.

A distinguished BOTTOM_STATE precedes the first observation; classifiers can
never produce it.  A state with no outgoing cell is called *new*; at most one
such state exists at any time and it is necessarily the current state.

Construction is single-writer: ``next_isa`` mutates its argument in place and
returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyInputError, SigautoError, StalenessError
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


@dataclass
class Isa:
    """Instantaneous signal automaton: states, current state, instants matrix.

    ``states`` is an insertion-ordered set (dict keyed by state label), so the
    first-visit order of states is preserved for deterministic serialization.
    """

    states: dict[str, None]
    current: str
    theta: InstantsMatrix
    n: int
    new_state_instants: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class AutomatonStats:
    """Observed growth of the classifier's state set."""

    n: int
    distinct_states: int
    new_state_instants: tuple[int, ...]


def _checked_label(label: str) -> str:
    if label == BOTTOM_STATE:
        raise SigautoError("classifier produced the reserved bottom state label")
    return label


def init_isa(r0, classifier, future=()) -> Isa:
    """Build the automaton for a one-observation signal."""
    classifier.reset()
    label = _checked_label(classifier.step(r0, future))
    theta = InstantsMatrix()
    theta.append(BOTTOM_STATE, label, 0)
    return Isa(
        states={BOTTOM_STATE: None, label: None},
        current=label,
        theta=theta,
        n=0,
        new_state_instants=[0],
    )


def next_isa(isa: Isa, signal: Signal, classifier, future=()) -> Isa:
    """Consume observation ``signal[isa.n + 1]``, mutating ``isa`` in place.

    Whether the emitted state is new or already known, exactly one instant is
    appended: to cell (previous current, new current).  A new state is also
    added to the state set.  Amortized O(1) plus the classifier step.
    """
    i = isa.n + 1
    if len(signal) < i + 1:
        raise StalenessError(
            f"automaton is at instant {isa.n} but signal has only {len(signal)} observations"
        )
    label = _checked_label(classifier.step(signal[i], future))
    if label not in isa.states:
        isa.states[label] = None
        isa.new_state_instants.append(i)
    isa.theta.append(isa.current, label, i)
    isa.current = label
    isa.n = i
    return isa


def build_isa(signal: Signal, classifier) -> Isa:
    """Build the automaton for a whole signal from scratch (O(n) steps)."""
    if len(signal) == 0:
        raise EmptyInputError("cannot build an automaton from an empty signal")
    if getattr(classifier, "lookahead", 0):
        raise SigautoError(
            "build_isa takes a plain classifier; lookahead construction is separate"
        )
    isa = init_isa(signal[0], classifier)
    for _ in range(1, len(signal)):
        next_isa(isa, signal, classifier)
    return isa


def is_new_state(isa: Isa) -> bool:
    """True iff the current state has no outgoing cell."""
    return not isa.theta.has_outgoing(isa.current)


def automaton_stats(isa: Isa) -> AutomatonStats:
    return AutomatonStats(
        n=isa.n,
        distinct_states=len(isa.new_state_instants),
        new_state_instants=tuple(isa.new_state_instants),
    )
