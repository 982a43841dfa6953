"""From automaton to hidden Markov model.

The conversion normalizes statistical weights of the instants-matrix cells
into a sparse row-stochastic transition matrix and, per state, an emission
distribution over observed clusters (discrete) or a uniform kernel mixture
anchored at the incoming instants (continuous).

Two distinguished elements are added: an absorbing DUMMY_STATE that receives
all mass from states with no outgoing instants (the "no forecast possible"
sink) and its unique DUMMY_EVENT emission.

Models cache one accumulator per matrix cell plus one per row, so the
incremental update touches a constant number of accumulators per observation.
Rows are normalized on read; ``next_hmm`` mutates in place and returns its
argument, mirroring ``next_isa``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import BOTTOM_STATE, Isa, is_new_state
from .errors import ConfigError, StalenessError, UnknownStateError
from .plugins import DUMMY_EVENT, Clusterer, Kernel, StatAccumulator, StatFn
from .signal import Signal

DUMMY_STATE = "__no_state__"


@dataclass
class SparseStochasticMatrix:
    """Materialized sparse matrix; absent entries read as zero."""

    rows: dict[str, dict[str, float]]

    def weight(self, p: str, q: str) -> float:
        return self.rows.get(p, {}).get(q, 0.0)

    def row(self, p: str) -> dict[str, float]:
        if p not in self.rows:
            raise UnknownStateError(p)
        return dict(self.rows[p])

    def row_sums(self) -> dict[str, float]:
        return {p: sum(row.values()) for p, row in self.rows.items()}

    def sparsity(self) -> set[tuple[str, str]]:
        return {(p, q) for p, row in self.rows.items() for q in row}


class _TransitionCore:
    """State set, initial indicator and transition accumulators shared by the
    discrete and continuous models."""

    def __init__(self, sigma: StatFn, n: int, current: str, current_is_new: bool):
        self.sigma = sigma
        self.n = n
        self.current = current
        self.current_is_new = current_is_new
        self.state_order: dict[str, None] = {}
        self._tcells: dict[str, dict[str, StatAccumulator]] = {}
        self._trow: dict[str, StatAccumulator] = {}

    # -- read side

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(self.state_order) + (DUMMY_STATE,)

    def alpha(self) -> dict[str, float]:
        return {self.current: 1.0}

    def transition_row(self, p: str) -> dict[str, float]:
        """Dense view of one row; always sums to 1.

        States with no outgoing instants, and rows whose weights sum to zero
        (possible with region-filtered statistics), send all mass to the
        absorbing dummy state.
        """
        if p == DUMMY_STATE:
            return {DUMMY_STATE: 1.0}
        if p not in self.state_order:
            raise UnknownStateError(p)
        cells = self._tcells.get(p)
        if not cells:
            return {DUMMY_STATE: 1.0}
        denom = self.sigma.read(self._trow[p], self.n)
        if denom <= 0.0:
            return {DUMMY_STATE: 1.0}
        return {q: self.sigma.read(acc, self.n) / denom for q, acc in cells.items()}

    def transition_matrix(self) -> SparseStochasticMatrix:
        return SparseStochasticMatrix({p: self.transition_row(p) for p in self.states})

    # -- write side

    def _apply_transition(self, prev_state: str, state: str, obs, instant: int) -> None:
        if state not in self.state_order:
            self.state_order[state] = None
        cells = self._tcells.setdefault(prev_state, {})
        acc = cells.get(state)
        if acc is None:
            acc = self.sigma.new_acc(now=instant)
            cells[state] = acc
        before = self.sigma.read(acc, instant)
        self.sigma.step(acc, obs, instant)
        after = self.sigma.read(acc, instant)
        row = self._trow.get(prev_state)
        if row is None:
            row = self.sigma.new_acc(now=instant)
            self._trow[prev_state] = row
        self.sigma.advance(row, instant)
        row.value += after - before
        row.raw_count += 1


class Hmm(_TransitionCore):
    """Discrete-event model: emission rows over observed clusters."""

    emission_kind = "discrete"

    def __init__(self, sigma: StatFn, rho: StatFn, clusterer: Clusterer,
                 n: int, current: str, current_is_new: bool):
        if not rho.additive:
            raise ConfigError(
                f"emission statistic {rho.variant!r} is not additive over the "
                "cluster partition; emission rows would not be stochastic"
            )
        super().__init__(sigma, n, current, current_is_new)
        self.rho = rho
        self.clusterer = clusterer
        self._ecells: dict[str, dict[str, StatAccumulator]] = {}
        self._edenom: dict[str, StatAccumulator] = {}

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(self.clusterer.observed) + (DUMMY_EVENT,)

    def emission_row(self, q: str) -> dict[str, float]:
        if q == DUMMY_STATE:
            return {DUMMY_EVENT: 1.0}
        if q not in self.state_order:
            raise UnknownStateError(q)
        cells = self._ecells.get(q)
        if not cells:
            return {DUMMY_EVENT: 1.0}
        denom = self.rho.read(self._edenom[q], self.n)
        if denom <= 0.0:
            return {DUMMY_EVENT: 1.0}
        return {c: self.rho.read(acc, self.n) / denom for c, acc in cells.items()}

    def emission_matrix(self) -> SparseStochasticMatrix:
        return SparseStochasticMatrix({q: self.emission_row(q) for q in self.states})

    def _apply_emission(self, state: str, cluster: str, obs, instant: int) -> None:
        cells = self._ecells.setdefault(state, {})
        acc = cells.get(cluster)
        if acc is None:
            acc = self.rho.new_acc(now=instant)
            cells[cluster] = acc
        self.rho.step(acc, obs, instant)
        denom = self._edenom.get(state)
        if denom is None:
            denom = self.rho.new_acc(now=instant)
            self._edenom[state] = denom
        self.rho.step(denom, obs, instant)


class HmmContinuous(_TransitionCore):
    """Continuous-emission model: per-state uniform kernel mixtures.

    Each real state emits a density obtained by centering the kernel at the
    observations of its incoming instants with uniform weights; the dummy
    state emits a point mass off the observation space and contributes zero
    density at any finite point.
    """

    emission_kind = "continuous"

    def __init__(self, sigma: StatFn, signal: Signal, kernel: Kernel | None,
                 n: int, current: str, current_is_new: bool):
        super().__init__(sigma, n, current, current_is_new)
        if kernel is not None and len(signal) and kernel.d != signal.dim:
            raise ConfigError(
                f"kernel dimension {kernel.d} does not match signal dimension {signal.dim}"
            )
        self.signal = signal
        self.kernel = kernel
        self.mixtures: dict[str, list[int]] = {}

    def mixture(self, q: str) -> tuple[tuple[int, ...], float]:
        """Center instants of state ``q`` and the shared uniform weight."""
        if q not in self.state_order:
            raise UnknownStateError(q)
        centers = self.mixtures.get(q, [])
        return tuple(centers), (1.0 / len(centers) if centers else 0.0)

    def density(self, q: str, x, kernel: Kernel | None = None) -> float:
        if q == DUMMY_STATE:
            return 0.0
        kern = kernel or self.kernel
        if kern is None:
            raise ConfigError("no kernel configured; pass one explicitly")
        centers, _ = self.mixture(q)
        if not centers:
            return 0.0
        total = 0.0
        for j in centers:
            rj = self.signal[j]
            total += kern(tuple(a - b for a, b in zip(x, rj)))
        return total / len(centers)

    def _apply_emission(self, state: str, instant: int) -> None:
        self.mixtures.setdefault(state, []).append(instant)


# ---------------------------------------------------------------------------
# Construction


def _check_tau(*fns) -> None:
    ids = {fn.tau_id for fn in fns if fn is not None and fn.tau_id is not None}
    if len(ids) > 1:
        raise ConfigError("plugins were configured from different parameter tuples")


def _check_step_preconditions(model: _TransitionCore, isa: Isa, signal: Signal) -> int:
    i = isa.n
    if i != model.n + 1:
        raise StalenessError(
            f"model is at instant {model.n}, automaton at {i}; expected n+1"
        )
    if len(signal) < i + 1:
        raise StalenessError(f"signal has {len(signal)} observations, need {i + 1}")
    return i


def _build_transitions(model: _TransitionCore, isa: Isa, signal: Signal,
                       sigma: StatFn) -> None:
    """Fill the state set and transition accumulators from the instants matrix."""
    for state in isa.states:
        if state != BOTTOM_STATE:
            model.state_order[state] = None
    for p in model.state_order:
        row = isa.theta.row(p)
        if not row:
            continue
        cells: dict[str, StatAccumulator] = {}
        total_value = 0.0
        total_count = 0
        for q, instants in row.items():
            acc = sigma.eval_acc(signal, instants, isa.n)
            cells[q] = acc
            total_value += sigma.read(acc, isa.n)
            total_count += acc.raw_count
        model._tcells[p] = cells
        model._trow[p] = StatAccumulator(
            value=total_value, last_now=isa.n, raw_count=total_count
        )


def isa_to_hmm(isa: Isa, signal: Signal, sigma: StatFn, rho: StatFn,
               clusterer: Clusterer) -> Hmm:
    """From-scratch conversion; linear in the signal length.

    Transition rows normalize the sigma weight of each outgoing cell; real
    states with no outgoing instants map to the dummy state.  Emission rows
    normalize the rho weight of the incoming instants grouped by the cluster
    of their observation; the pre-initial bottom state's single cell counts
    toward emissions (instant 0) but never holds a transition row.
    """
    _check_tau(sigma, rho)
    hmm = Hmm(sigma, rho, clusterer, isa.n, isa.current, is_new_state(isa))
    _build_transitions(hmm, isa, signal, sigma)
    for q in hmm.state_order:
        incoming = isa.theta.incoming_instants(q)
        if not incoming:
            continue
        groups: dict[str, list[int]] = {}
        for j in incoming:
            groups.setdefault(clusterer.cluster_of(signal[j]), []).append(j)
        hmm._ecells[q] = {
            c: rho.eval_acc(signal, js, isa.n) for c, js in groups.items()
        }
        hmm._edenom[q] = rho.eval_acc(signal, incoming, isa.n)
    return hmm


def next_hmm(hmm: Hmm, isa: Isa, signal: Signal, sigma: StatFn, rho: StatFn,
             clusterer: Clusterer) -> Hmm:
    """Constant-time update after one ``next_isa`` step; mutates ``hmm``.

    Touches only the accumulator of the (previous current, current) transition
    cell, that row's cached sum, the current state's emission accumulators for
    the arriving observation's cluster, and the initial indicator.
    """
    if sigma.params_fingerprint() != hmm.sigma.params_fingerprint():
        raise ConfigError("sigma statistic differs from the one the model was built with")
    if rho.params_fingerprint() != hmm.rho.params_fingerprint():
        raise ConfigError("rho statistic differs from the one the model was built with")
    _check_tau(sigma, rho)
    i = _check_step_preconditions(hmm, isa, signal)
    if clusterer is not hmm.clusterer:
        raise ConfigError("clusterer differs from the one the model was built with")
    obs = signal[i]
    prev_state = hmm.current
    hmm._apply_transition(prev_state, isa.current, obs, i)
    hmm._apply_emission(isa.current, clusterer.cluster_of(obs), obs, i)
    hmm.current = isa.current
    hmm.current_is_new = is_new_state(isa)
    hmm.n = i
    return hmm


def isa_to_hmm_continuous(isa: Isa, signal: Signal, sigma: StatFn,
                          kernel: Kernel | None) -> HmmContinuous:
    """Continuous counterpart: transitions as in the discrete case, emissions
    as uniform kernel mixtures over each state's incoming instants."""
    hmm = HmmContinuous(sigma, signal, kernel, isa.n, isa.current, is_new_state(isa))
    _build_transitions(hmm, isa, signal, sigma)
    for q in hmm.state_order:
        incoming = isa.theta.incoming_instants(q)
        if incoming:
            hmm.mixtures[q] = incoming
    return hmm


def next_hmm_continuous(hmm: HmmContinuous, isa: Isa, signal: Signal,
                        sigma: StatFn, kernel: Kernel | None = None) -> HmmContinuous:
    """Constant-time continuous update: one transition cell plus one appended
    mixture center."""
    if sigma.params_fingerprint() != hmm.sigma.params_fingerprint():
        raise ConfigError("sigma statistic differs from the one the model was built with")
    i = _check_step_preconditions(hmm, isa, signal)
    obs = signal[i]
    prev_state = hmm.current
    hmm._apply_transition(prev_state, isa.current, obs, i)
    hmm._apply_emission(isa.current, i)
    hmm.current = isa.current
    hmm.current_is_new = is_new_state(isa)
    hmm.n = i
    return hmm


def transition_row(hmm: _TransitionCore, state: str) -> dict[str, float]:
    """Dense view of one transition row; sums to 1."""
    return hmm.transition_row(state)
