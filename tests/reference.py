"""A reference model of one discrete stream, built from the definitions alone.

It shares nothing with the program's model: no accumulators, no row caches,
no statistic objects and no import of ``sigauto``.

* The automaton is the list of classifier labels: instant i moves from the
  label of i - 1 to the label of i (instant 0 from the pre-initial state).
  With a lookahead of h rows, the label of instant i is the word of the
  cells of rows i + 1 .. i + h, and the last h rows only complete the
  words: the present is instant len(rows) - 1 - h.
* A cell is the list of the instants of its moves.
* Every weight is a ``decimal.Decimal`` at 50 significant digits, with
  delta converted exactly from its float.  A decimal exponent reaches down
  to 1e-999999, so delta**10_000 is a small number and not 0.

A row's weights are its cells' statistics at the present instant n,
divided by their sum.  For delta > 0 the discounted sum's common factor
delta**(n - a), a the row's latest instant, cancels from that ratio.  At
delta = 0 the ratio at n is 0/0 for a row left before n; its limit as delta
goes to 0 is the ratio at a, and that is the row taken here.  A row with no
cells, or whose weights sum to 0, sends all mass to the sink.

The model at an earlier instant i is the same construction over the
instants up to i, with i as the present; ``score`` reads it that way.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

DUMMY_STATE = "__no_state__"
DUMMY_EVENT = "__no_event__"
CONTEXT = Context(prec=50)


def cell_label(coords, width: float) -> str:
    """The grid cell [k*w, (k+1)*w) of each coordinate, as a label."""
    index = [math.floor(x / width) for x in coords]
    return str(index[0]) if len(index) == 1 else "(" + ",".join(map(str, index)) + ")"


def labels(rows, lam: float, width: float) -> list[str]:
    """The state of each instant: the cell of e_i = lam*r_i + (1-lam)*e_(i-1),
    e_0 = r_0.  The average is taken in floats, as the classifier defines it,
    so that a state sits in the same cell as the program's."""
    out, ema = [], None
    for row in rows:
        ema = row if ema is None else tuple(lam * x + (1.0 - lam) * e for x, e in zip(row, ema))
        out.append(cell_label(ema, width))
    return out


def words(rows, h: int, width: float) -> list[str]:
    """The state of each instant with h rows after it: the cells of those
    rows joined by ``"|"``."""
    cells = [cell_label(row, width) for row in rows]
    return ["|".join(cells[i + 1 : i + h + 1]) for i in range(len(rows) - h)]


class Reference:
    """Rows and forecast of one stream ``rows`` (tuples of floats) at its
    last instant, or ``lookahead`` rows before it, for one parameter tuple."""

    def __init__(self, rows, *, lam=1.0, width=1.0, variant="count", delta=0.0,
                 region=None, lookahead=0):
        self.rows = list(rows)
        self.variant = variant
        self.delta = Decimal(delta)
        self.region = region
        self.width = width
        self.states = states = (words(self.rows, lookahead, width) if lookahead
                                else labels(self.rows, lam, width))
        self.n = len(states) - 1
        self.current = states[-1]
        # transition cells by source state, emission cells by entered state
        self.moves: dict[str, dict[str, list[int]]] = {}
        self.entries: dict[str, dict[str, list[int]]] = {}
        for i, state in enumerate(states):
            if i:
                self.moves.setdefault(states[i - 1], {}).setdefault(state, []).append(i)
            cluster = cell_label(self.rows[i], width)
            self.entries.setdefault(state, {}).setdefault(cluster, []).append(i)
        # delta**k for every age k a weight can have, 0**0 being 1
        with localcontext(CONTEXT):
            self.powers = [Decimal(1)]
            for _ in range(self.n):
                self.powers.append(self.powers[-1] * self.delta)

    def _in_region(self, i: int) -> bool:
        return self.region is None or all(
            lo <= x <= hi for x, (lo, hi) in zip(self.rows[i], self.region))

    def _statistic(self, variant: str, instants, now: int) -> Decimal:
        """The statistic of an instant set at instant ``now``."""
        if variant == "count":
            return Decimal(len(instants))
        if variant in ("discounted_sum", "discounted_complement"):
            discounted = sum((self.powers[now - i] for i in instants), Decimal(0))
            return discounted if variant == "discounted_sum" else len(instants) - discounted
        hits = [i for i in instants if self._in_region(i)]
        if variant == "region_count":
            return Decimal(len(hits))
        return Decimal(max(hits)) if hits else Decimal(0)  # latest_occurrence

    def _normalize(self, cells: dict | None, variant: str, sink: str, now: int) -> dict:
        """Each cell's statistic over the sum of the row's, with ``now`` the
        present (the module docstring says at which instant it is read)."""
        if not cells:
            return {sink: Decimal(1)}
        if variant == "discounted_sum" and self.delta == 0:
            now = max(instants[-1] for instants in cells.values())
        with localcontext(CONTEXT):
            weights = {c: self._statistic(variant, js, now) for c, js in cells.items()}
            total = sum(weights.values(), Decimal(0))
            if total == 0:
                return {sink: Decimal(1)}
            return {c: w / total for c, w in weights.items()}

    @property
    def state_set(self) -> set[str]:
        return set(self.entries) | {DUMMY_STATE}

    @property
    def emission_variant(self) -> str:
        """The emission statistic: it counts where the transition one is not
        additive."""
        return "count" if self.variant == "latest_occurrence" else self.variant

    def transition_row(self, p: str) -> dict:
        if p == DUMMY_STATE:
            return {DUMMY_STATE: Decimal(1)}
        return self._normalize(self.moves.get(p), self.variant, DUMMY_STATE, self.n)

    def emission_row(self, q: str) -> dict:
        """Weights of the clusters of the instants that enter ``q``."""
        if q == DUMMY_STATE:
            return {DUMMY_EVENT: Decimal(1)}
        return self._normalize(self.entries[q], self.emission_variant, DUMMY_EVENT, self.n)

    def forecast(self, horizon: int) -> tuple[bool, list[dict]]:
        """``(dummy, steps)``: the event distribution after j = 1..horizon
        transition steps from the present state, by plain propagation; the
        dummy forecast when the present state has never been left."""
        if self.current not in self.moves:
            return True, [{DUMMY_EVENT: Decimal(1)} for _ in range(horizon)]
        occupancy, steps = {self.current: Decimal(1)}, []
        with localcontext(CONTEXT):
            for _ in range(horizon):
                following: dict[str, Decimal] = {}
                for s, w in occupancy.items():
                    for q, t in self.transition_row(s).items():
                        following[q] = following.get(q, Decimal(0)) + w * t
                occupancy = following
                events: dict[str, Decimal] = {}
                for s, w in occupancy.items():
                    for c, e in self.emission_row(s).items():
                        events[c] = events.get(c, Decimal(0)) + w * e
                steps.append(events)
        return False, steps

    def _row_at(self, cells: dict | None, i: int, variant: str, sink: str) -> dict:
        """The row of ``cells`` in the model at instant ``i``."""
        upto = {c: [j for j in js if j <= i] for c, js in (cells or {}).items()}
        return self._normalize({c: js for c, js in upto.items() if js}, variant, sink, i)

    def score(self, start: int, stop: int, floor: float) -> Decimal:
        """The mean over instants i in [start, stop) of ln max(p_i, floor),
        p_i being the probability that the model at instant i gives the
        cluster of row i + 1 one step ahead: 0 when the state of instant i
        has not been left by then (a dummy forecast)."""
        total = Decimal(0)
        with localcontext(CONTEXT):
            for i in range(start, stop):
                cluster = cell_label(self.rows[i + 1], self.width)
                row = self._row_at(self.moves.get(self.states[i]), i, self.variant, DUMMY_STATE)
                p = sum((t * self._row_at(self.entries[q], i, self.emission_variant,
                                          DUMMY_EVENT).get(cluster, 0)
                         for q, t in row.items() if q != DUMMY_STATE), Decimal(0))
                total += max(p, Decimal(floor)).ln()
            return total / (stop - start)
