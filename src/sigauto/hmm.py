"""From automaton to hidden Markov model.

The conversion normalizes statistical weights of the instants-matrix cells
into a sparse row-stochastic transition matrix and, per state, an emission
distribution over observed clusters (discrete) or a uniform kernel mixture
anchored at the incoming instants (continuous).

Two distinguished elements are added: an absorbing DUMMY_STATE that receives
all mass from states with no outgoing instants (the "no forecast possible"
sink) and its unique DUMMY_EVENT emission.

A model keeps one table of ``Row`` records per kind, keyed by state: one
accumulator per cell, the row accumulator and the cached normalized row.  An
update writes one cell and the total of two rows through ``_write``, the one
write path: it creates rows and cells, drops the row's cached normalization
and, while the model's ``journal`` is a list, records the row's prior cell,
total and cached row there for ``swap_journal`` to put back (a lookahead
frontier's undo and redo).  A row is read at the instant its row accumulator
was last written, not at the present: a discounted sum's cells and total then
share the factor delta**(n - that instant), which cancels instead of
underflowing.  Only ``discounted_complement`` rows depend on the present
instant; they are read at ``n`` and normalized on every read.  Rows with no
mass are the shared ``SINK_TRANSITION``/``SINK_EMISSION``.
``next_event_probability``, the one-step score ``fit`` needs, builds no row:
it divides the few cells it needs by their row sums.
A model keeps the automaton it models as ``isa`` and reads its state order
and the newness of its current state from it; it starts at its instant and
current state and, for a continuous model, with its mixture centres (the
incoming instants).  A streaming model is built on the empty automaton.
``update(isa, obs)`` is the one constant-time step for both emission kinds,
from instant 0 on: it reads the arriving observation, not the signal,
mutates the model in place and returns it; at instant 0 it writes only the
emission, since the move out of ``__bottom__`` holds no transition row.
``automaton.move`` calls it after each move of the model's own automaton;
any other automaton is refused.  ``isa_to_hmm`` and
``isa_to_hmm_continuous`` fill the tables of a whole automaton at once: the
scratch path.  ``next_hmm``/``next_hmm_continuous`` are the step for
library callers, after checking their arguments against the model.
"""

from __future__ import annotations

from .automaton import BOTTOM_STATE, Isa, is_new_state
from .errors import ConfigError, StalenessError, UnknownStateError
from .plugins import DUMMY_EVENT, Clusterer, Kernel, StatAccumulator, StatFn, default_bandwidth
from .signal import Signal

DUMMY_STATE = "__no_state__"


SINK_TRANSITION = {DUMMY_STATE: 1.0}
SINK_EMISSION = {DUMMY_EVENT: 1.0}


class Row:
    """One row of a model table: ``cells`` maps each column to its
    accumulator, ``total`` is the row accumulator and ``norm`` the cached
    normalized row, or None until the row is read after its last write."""

    __slots__ = ("cells", "total", "norm")

    def __init__(self, cells: dict[str, StatAccumulator], total: StatAccumulator,
                 norm: dict[str, float] | None = None):
        self.cells, self.total, self.norm = cells, total, norm


def _normalized_row(row: Row | None, stat: StatFn, now: int, sink: dict) -> dict[str, float]:
    """Weights of ``row``'s cells divided by its row accumulator.

    A missing or empty row, or one whose weights sum to zero (possible with
    region-filtered statistics), is the shared ``sink`` row.
    """
    if row is None or not row.cells:
        return sink
    total, read = row.total, stat.read
    if stat.row_ignores_now:
        now = total.last_now
    denom = read(total, now)
    if denom <= 0.0:
        return sink
    return {c: read(acc, now) / denom for c, acc in row.cells.items()}


def next_event_probability(hmm: Hmm, cluster: str) -> float:
    """``forecast(hmm, 1).steps[0].get(cluster, 0.0)`` for a cluster id
    (never ``DUMMY_EVENT``), 0 for a dummy forecast, without building a row.

    It sums T(current, q)·E(q, cluster) over the current row's states q
    with the quotients ``_normalized_row`` would store, in the forecast's
    order, so the value is bit-identical.  It reads the current row's sum,
    and the transition cell, emission cell and emission sum of each q whose
    emission row holds ``cluster``, the only terms the sum adds.  A cell it
    does not read is still refused if a read at the row's instant would be."""
    if hmm.current_is_new:
        return 0.0
    n, sigma, rho, emit = hmm.n, hmm.sigma, hmm.rho, hmm._erows
    row = hmm._trows.get(hmm.current)
    if row is None or not row.cells:  # the sink row: DUMMY_STATE emits DUMMY_EVENT
        return 0.0
    read = sigma.read
    at = row.total.last_now if sigma.row_ignores_now else n
    denom = read(row.total, at)
    if denom <= 0.0:
        return 0.0
    p = 0.0
    for q, acc in row.cells.items():
        emitted = emit.get(q)
        if emitted is None or cluster not in emitted.cells:
            if acc.last_now > at:
                read(acc, at)  # raises the refusal of the read it skips
            continue
        w = read(acc, at) / denom
        if w != 0.0:
            e_total = emitted.total
            e_at = e_total.last_now if rho.row_ignores_now else n
            e_denom = rho.read(e_total, e_at)
            if e_denom > 0.0:  # else q's row is the sink row {DUMMY_EVENT: 1}
                p += w * (rho.read(emitted.cells[cluster], e_at) / e_denom)
    return p


def swap_journal(records) -> None:
    """Exchange each journaled row write, in the order given, with its other
    version: the cell, total and cached row the row had before the write,
    or, for a cell the write created, its absence.  The same call undoes
    (newest record first) and redoes (oldest first); an existing cell keeps
    its key position, a re-created one goes back to the end, where the write
    put it."""
    for record in records:
        row, col, cell, total, norm = record
        cells = row.cells
        record[2:] = cells.get(col), row.total, row.norm
        if cell is None:
            del cells[col]
        else:
            cells[col] = cell
        row.total, row.norm = total, norm


class _TransitionCore:
    """Automaton, initial indicator and transition accumulators shared by the
    discrete and continuous models; each supplies ``_apply_emission(state,
    obs, instant)``, the emission write of ``update``.  The model starts at
    ``isa``'s instant and current state; the tables start empty."""

    def __init__(self, sigma: StatFn, isa: Isa):
        self.sigma = sigma
        self.isa = isa
        self.n = isa.n
        self.current = isa.current
        self._trows: dict[str, Row] = {}
        self.journal: list | None = None

    # -- read side

    @property
    def state_order(self) -> tuple[str, ...]:
        """The automaton's states, ``__bottom__`` (the first) left out."""
        return tuple(self.isa.states)[1:]

    @property
    def current_is_new(self) -> bool:
        return is_new_state(self.isa)

    @property
    def states(self) -> tuple[str, ...]:
        return self.state_order + (DUMMY_STATE,)

    def transition_row(self, p: str) -> dict[str, float]:
        """Dense view of one row; always sums to 1.  States with no outgoing
        instants send all mass to the absorbing dummy state.  The dict is the
        model's cached row, shared and read-only: copy it to change it."""
        row = self._trows.get(p)
        if row is not None and (norm := row.norm) is not None:
            return norm
        return self._read_row(row, p, self.sigma, SINK_TRANSITION)

    def _read_row(self, row: Row | None, p: str, stat: StatFn, sink: dict) -> dict[str, float]:
        """The normalized ``row`` of state ``p`` when it has none cached,
        kept in the row when the statistic ignores the present."""
        if row is None:
            if p == BOTTOM_STATE or (p not in self.isa.states and p != DUMMY_STATE):
                raise UnknownStateError(p)
            return sink
        norm = _normalized_row(row, stat, self.n, sink)
        if stat.row_ignores_now:
            row.norm = norm
        return norm

    # -- write side

    def _next_instant(self, isa: Isa) -> int:
        """The automaton's instant, refused unless the automaton is the
        model's own and the instant the model's next."""
        if isa is not self.isa:
            raise StalenessError("update of a model with an automaton other than its own")
        i = isa.n
        if i != self.n + 1:
            raise StalenessError(
                f"model is at instant {self.n}, automaton at {i}; expected n+1"
            )
        return i

    def _write(self, table: dict[str, Row], key: str, col: str, stat: StatFn,
               instant: int) -> tuple[StatAccumulator, StatAccumulator]:
        """The accumulators of cell ``col`` and of row ``key`` of ``table``,
        for one step to write; each created at ``instant`` if absent.  Every
        update writes through here, so this is also where the row's cached
        normalization is dropped and, while ``journal`` is a list, where the
        row's prior cell, total and cached row are recorded: the written
        accumulators are then copies, and the journal keeps the originals."""
        row = table.get(key)
        if row is None:
            row = table[key] = Row({}, stat.new_acc(now=instant))
        cell = row.cells.get(col)
        if self.journal is not None:
            total = row.total
            self.journal.append([row, col, cell, total, row.norm])
            row.total = StatAccumulator(total.value, total.last_now, total.raw_count)
            if cell is not None:
                cell = StatAccumulator(cell.value, cell.last_now, cell.raw_count)
        row.cells[col] = cell = cell or stat.new_acc(now=instant)
        row.norm = None
        return cell, row.total

    def update(self, isa: Isa, obs) -> _TransitionCore:
        """Constant-time step to the automaton's instant, one after the
        model's, whose observation is ``obs``; mutates and returns the model.

        Writes the (previous current, current) transition cell and that row's
        sum, unless the step leaves ``__bottom__`` (instant 0), then the
        current state's emission: the arriving observation's cluster cell and
        row sum (discrete) or one more mixture center (continuous).  Each
        accumulator is written with one statistic call."""
        i = self._next_instant(isa)
        state = isa.current
        if i:
            sigma = self.sigma
            cell, total = self._write(self._trows, self.current, state, sigma, i)
            gain = sigma.step_gain(cell, obs, i)
            sigma.advance(total, i)
            total.value += gain
            total.raw_count += 1
        self._apply_emission(state, obs, i)
        self.current = state
        self.n = i
        return self


class Hmm(_TransitionCore):
    """Discrete-event model: emission rows over observed clusters."""

    emission_kind = "discrete"

    def __init__(self, sigma: StatFn, rho: StatFn, clusterer: Clusterer, isa: Isa):
        if not rho.additive:
            raise ConfigError(
                f"emission statistic {rho.variant!r} is not additive over the "
                "cluster partition; emission rows would not be stochastic"
            )
        if (sigma.delta, sigma.region) != (rho.delta, rho.region):
            raise ConfigError("sigma and rho were configured from different parameter tuples")
        super().__init__(sigma, isa)
        self.rho = rho
        self.clusterer = clusterer
        self._erows: dict[str, Row] = {}

    def emission_row(self, q: str) -> dict[str, float]:
        """Emission distribution of state ``q``; like ``transition_row``, the
        model's cached row, shared and read-only."""
        row = self._erows.get(q)
        if row is not None and (norm := row.norm) is not None:
            return norm
        return self._read_row(row, q, self.rho, SINK_EMISSION)

    def _apply_emission(self, state: str, obs, instant: int) -> None:
        rho = self.rho
        cluster = self.clusterer.cluster_of(obs)
        cell, total = self._write(self._erows, state, cluster, rho, instant)
        rho.step_gain(cell, obs, instant)
        rho.step_gain(total, obs, instant)


class HmmContinuous(_TransitionCore):
    """Continuous-emission model: per-state uniform kernel mixtures.

    Each real state emits a density obtained by centering the kernel at the
    observations of its incoming instants with uniform weights; the dummy
    state emits a point mass off the observation space and contributes zero
    density at any finite point.  The centres start as ``isa``'s incoming
    instants.  With no explicit ``kernel`` the model uses Scott's rule over
    its signal as it stands when a density is read (``kernel_for``).
    """

    emission_kind = "continuous"

    def __init__(self, sigma: StatFn, signal: Signal, kernel: Kernel | None, isa: Isa):
        super().__init__(sigma, isa)
        self.signal = signal
        self.kernel = self._checked(kernel)
        incoming = isa.theta.incoming_instants()
        self.mixtures = {q: incoming[q] for q in self.state_order if q in incoming}

    def mixture(self, q: str) -> tuple[tuple[int, ...], float]:
        """Center instants of state ``q`` and the shared uniform weight."""
        if q == BOTTOM_STATE or q not in self.isa.states:
            raise UnknownStateError(q)
        centers = self.mixtures.get(q, [])
        return tuple(centers), (1.0 / len(centers) if centers else 0.0)

    def _checked(self, kernel: Kernel | None) -> Kernel | None:
        """``kernel``, refused if its dimension is not the signal's."""
        if kernel is not None and len(self.signal) and kernel.d != self.signal.dim:
            raise ConfigError(
                f"kernel dimension {kernel.d} does not match signal dimension {self.signal.dim}"
            )
        return kernel

    def kernel_for(self, kernel: Kernel | None = None) -> Kernel:
        """``kernel``, checked, else the model's own, else Scott's rule over
        the model's signal as it stands."""
        return self._checked(kernel) or self.kernel or Kernel(default_bandwidth(self.signal))

    def kernel_at(self, x, kernel: Kernel | None = None) -> Kernel:
        """``kernel_for(kernel)``, refused if point ``x`` is not of its
        dimension: every density read checks its point here."""
        kern = self.kernel_for(kernel)
        if len(x) != kern.d:
            raise ConfigError(f"point has dimension {len(x)}, kernel has {kern.d}")
        return kern

    def density(self, q: str, x, kernel: Kernel | None = None) -> float:
        kern = self.kernel_at(x, kernel)
        if q == DUMMY_STATE:
            return 0.0
        centers, _ = self.mixture(q)
        if not centers:
            return 0.0
        return kern.mean_at(x, [self.signal[j] for j in centers])

    def _apply_emission(self, state: str, obs, instant: int) -> None:
        self.mixtures.setdefault(state, []).append(instant)


# ---------------------------------------------------------------------------
# Construction


def _check_stat(given: StatFn, built: StatFn, name: str) -> None:
    if given is not built and given.params_fingerprint() != built.params_fingerprint():
        raise ConfigError(f"{name} statistic differs from the one the model was built with")


def _observation(model: _TransitionCore, isa: Isa, signal: Signal):
    """``signal[isa.n]``, refused as stale unless the automaton is one
    instant ahead of the model and the signal reaches that instant."""
    i = model._next_instant(isa)
    if len(signal) < i + 1:
        raise StalenessError(f"signal has {len(signal)} observations, need {i + 1}")
    return signal[i]


def _build_transitions(model: _TransitionCore, isa: Isa, signal: Signal,
                       sigma: StatFn) -> None:
    """Fill the transition accumulators from the instants matrix.

    Each accumulator is evaluated at its instant set's latest instant, where
    the incremental update leaves it, and each row sum at its row's."""
    for p in model.state_order:
        row = isa.theta.row(p)
        if not row:
            continue
        cells = {q: sigma.eval_acc(signal, instants, instants[-1])
                 for q, instants in row.items()}
        latest = max(acc.last_now for acc in cells.values())
        total_value = 0.0
        for acc in cells.values():
            total_value += sigma.read(acc, latest)
        model._trows[p] = Row(cells, StatAccumulator(
            value=total_value, last_now=latest,
            raw_count=sum(acc.raw_count for acc in cells.values()),
        ))


def isa_to_hmm(isa: Isa, signal: Signal, sigma: StatFn, rho: StatFn,
               clusterer: Clusterer) -> Hmm:
    """From-scratch conversion; linear in the signal length.

    Transition rows normalize the sigma weight of each outgoing cell; real
    states with no outgoing instants map to the dummy state.  Emission rows
    normalize the rho weight of the incoming instants grouped by the cluster
    of their observation; the pre-initial bottom state's single cell counts
    toward emissions (instant 0) but never holds a transition row.
    """
    hmm = Hmm(sigma, rho, clusterer, isa)
    _build_transitions(hmm, isa, signal, sigma)
    incoming_by_state = isa.theta.incoming_instants()
    for q in hmm.state_order:
        incoming = incoming_by_state.get(q)
        if not incoming:
            continue
        groups: dict[str, list[int]] = {}
        for j in incoming:
            groups.setdefault(clusterer.cluster_of(signal[j]), []).append(j)
        hmm._erows[q] = Row({c: rho.eval_acc(signal, js, js[-1]) for c, js in groups.items()},
                            rho.eval_acc(signal, incoming, incoming[-1]))
    return hmm


def next_hmm(hmm: Hmm, isa: Isa, signal: Signal, sigma: StatFn, rho: StatFn,
             clusterer: Clusterer) -> Hmm:
    """``hmm.update(isa, signal[isa.n])`` for a library caller: refused
    unless ``sigma`` and ``rho`` are configured as the model's, the update
    is not stale and ``clusterer`` is the model's own."""
    _check_stat(sigma, hmm.sigma, "sigma")
    _check_stat(rho, hmm.rho, "rho")
    obs = _observation(hmm, isa, signal)
    if clusterer is not hmm.clusterer:
        raise ConfigError("clusterer differs from the one the model was built with")
    return hmm.update(isa, obs)


def isa_to_hmm_continuous(isa: Isa, signal: Signal, sigma: StatFn,
                          kernel: Kernel | None) -> HmmContinuous:
    """Continuous counterpart: transitions as in the discrete case, emissions
    as uniform kernel mixtures over each state's incoming instants."""
    hmm = HmmContinuous(sigma, signal, kernel, isa)
    _build_transitions(hmm, isa, signal, sigma)
    return hmm


def next_hmm_continuous(hmm: HmmContinuous, isa: Isa, signal: Signal,
                        sigma: StatFn, kernel: Kernel | None = None) -> HmmContinuous:
    """Continuous counterpart of ``next_hmm``; ``kernel`` is not read."""
    _check_stat(sigma, hmm.sigma, "sigma")
    return hmm.update(isa, _observation(hmm, isa, signal))


def transition_row(hmm: _TransitionCore, state: str) -> dict[str, float]:
    """Dense view of one transition row; sums to 1."""
    return hmm.transition_row(state)
