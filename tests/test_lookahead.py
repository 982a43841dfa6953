from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigauto import (
    Clusterer,
    ConfigError,
    InsufficientHistoryError,
    LookaheadWordClassifier,
    PluginParams,
    Signal,
    StatAccumulator,
    classify_lookahead,
    init_isa,
    isa_to_hmm,
    lookahead_advance,
    lookahead_build,
    next_isa,
    rho_fn,
    sigma_fn,
)
from sigauto.bench import random_walk


def period_two(length):
    return Signal([1.0 if k % 2 == 0 else 5.0 for k in range(length)])


@pytest.fixture
def word_params():
    return PluginParams(grid_width=1.0, horizon=1)


class TestBuild:
    def test_period_two_never_poisons(self, word_params):
        frontier = lookahead_build(period_two(10), word_params, seed=4)
        assert frontier.poisoned_from() is None
        assert all(entry is not None for entry in frontier.entries)

    def test_estimate_is_cell_center(self, word_params):
        frontier = lookahead_build(period_two(5), word_params, seed=4)
        # next observation after ...,1 is in cluster "5"; its center is 5.5
        assert frontier.estimated == [(5.5,)]

    def test_one_step_forecast_tracks_the_alternation(self, word_params):
        values = period_two(12)
        frontier = lookahead_build(values[:2], word_params, seed=0)
        for i in range(2, len(values)):
            realized = "1" if values[i][0] == 1.0 else "5"
            fc = frontier.forecast()
            if not fc.is_dummy:
                assert fc.step(1) == {realized: 1.0}
            lookahead_advance(frontier, values[i])

    def test_base_agreement_with_plain_fold(self, word_params):
        """Automaton entries at or before n - h match the plain pipeline run
        with the same lookahead classifier and genuine windows."""
        signal = period_two(9)
        h = word_params.horizon
        n = signal.last_instant
        frontier = lookahead_build(signal, word_params, seed=1)
        classifier = LookaheadWordClassifier(word_params)
        isa = init_isa(signal[0], classifier, future=signal[1 : 1 + h])
        for i in range(1, n - h + 1):
            next_isa(isa, signal, classifier, future=signal[i + 1 : i + h + 1])
        assert frontier.base_isa == isa
        hmm = isa_to_hmm(isa, signal, sigma_fn(word_params), rho_fn(word_params),
                         Clusterer(word_params.grid_width))
        assert (frontier.base_hmm.transition_matrix().rows
                == hmm.transition_matrix().rows)
        assert (frontier.base_hmm.emission_matrix().rows
                == hmm.emission_matrix().rows)

    def test_insufficient_history(self, word_params):
        with pytest.raises(InsufficientHistoryError):
            lookahead_build(Signal([1.0]), word_params, seed=0)

    def test_horizon_zero_rejected(self):
        with pytest.raises(ConfigError):
            lookahead_build(period_two(5), PluginParams(horizon=0), seed=0)

    def test_early_frontier_poisons_on_dummy_sample(self, word_params):
        # with only two observations the base model's state is new, so the
        # frontier can only sample the dummy event
        frontier = lookahead_build(period_two(2), word_params, seed=0)
        assert frontier.entries == [None]
        assert frontier.estimated == [None]

    def test_unseen_word_poisons(self, word_params):
        # cluster "7" only ever appears at instant 0, so it never occurred as
        # a state; sampling it makes the frontier word new
        values = Signal([7.0, 1.0, 5.0, 1.0, 5.0, 1.0])
        frontier = lookahead_build(values, word_params, seed=1)
        assert frontier.poisoned_from() == 5
        assert frontier.entries == [None]
        # the estimate itself was sampled fine; only the word was unseen
        assert frontier.estimated == [(7.5,)]

    def test_poisoning_suffix_rule(self):
        # with horizon 2 a poisoned entry leaves every deeper entry poisoned
        params = PluginParams(grid_width=1.0, horizon=2)
        values = Signal([7.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0])
        frontier = lookahead_build(values, params, seed=1)
        first = frontier.poisoned_from()
        assert first is not None
        k0 = first - (frontier.n - frontier.h + 1)
        assert all(e is None for e in frontier.entries[k0:])


class TestAdvance:
    def test_match_equals_fresh_build(self, word_params):
        values = period_two(14)
        frontier = lookahead_build(values[:8], word_params, seed=42)
        for i in range(8, len(values)):
            lookahead_advance(frontier, values[i])
            fresh = lookahead_build(values[: i + 1], word_params, seed=42)
            assert frontier.fingerprint() == fresh.fingerprint()

    def test_mismatch_recomputes_to_fresh_build(self, word_params):
        # break the alternation: the estimate predicted cluster "5" but the
        # genuine observation lands in cluster "9"
        values = [v[0] for v in period_two(9)]
        frontier = lookahead_build(Signal(values), word_params, seed=7)
        surprise = 9.0
        lookahead_advance(frontier, surprise)
        fresh = lookahead_build(Signal(values + [surprise]), word_params, seed=7)
        assert frontier.fingerprint() == fresh.fingerprint()

    def test_poison_clears_from_genuine_entry_on(self, word_params):
        values = period_two(12)
        frontier = lookahead_build(values[:2], word_params, seed=3)
        assert frontier.poisoned_from() is not None
        for i in range(2, len(values)):
            lookahead_advance(frontier, values[i])
        assert frontier.poisoned_from() is None
        assert frontier.fingerprint() == lookahead_build(
            values, word_params, seed=3
        ).fingerprint()

    def test_seeded_reproducibility(self, word_params):
        values = period_two(12)
        a = lookahead_build(values, word_params, seed=99)
        b = lookahead_build(values, word_params, seed=99)
        assert a.fingerprint() == b.fingerprint()

    def test_does_not_mutate_caller_signal(self, word_params):
        signal = period_two(6)
        frontier = lookahead_build(signal, word_params, seed=0)
        lookahead_advance(frontier, (1.0,))
        assert len(signal) == 6


STAT_VARIANTS = (
    {},
    {"stat_variant": "discounted_sum", "delta": 0.8},
    {"stat_variant": "discounted_complement", "delta": 0.5},
    {"stat_variant": "region_count", "region": ((-1.0, 2.0),)},
)


def forecast_key(frontier):
    """The frontier forecast, with the iteration order of every step."""
    fc = frontier.forecast()
    return fc.is_dummy, [list(dist.items()) for dist in fc.steps]


def advance_against_fresh_builds(values, params, seed):
    """Advance a frontier over ``values`` from its shortest history, checking
    it against a fresh build after every advance.  Returns how many advances
    matched the stored word, mismatched it, or found the oldest entry
    poisoned."""
    h = params.horizon
    frontier = lookahead_build(values[: h + 1], params, seed=seed)
    kinds = {"matched": 0, "mismatched": 0, "poisoned": 0}
    for i in range(h + 1, len(values)):
        first = frontier.entries[0]
        lookahead_advance(frontier, values[i])
        if first is None:
            kinds["poisoned"] += 1
        elif first.isa.current == classify_lookahead(params, None, values[i - h + 1 : i + 1]):
            kinds["matched"] += 1
        else:
            kinds["mismatched"] += 1
        fresh = lookahead_build(values[: i + 1], params, seed=seed)
        assert frontier.fingerprint() == fresh.fingerprint(), f"fingerprint at n={i}"
        assert forecast_key(frontier) == forecast_key(fresh), f"forecast at n={i}"
    return kinds


class TestOverlayEqualsFreshBuild:
    @settings(max_examples=40, deadline=None)
    @given(
        h=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10_000),
        stat=st.sampled_from(STAT_VARIANTS),
        steps=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       min_size=5, max_size=40),
    )
    def test_every_advance(self, h, seed, stat, steps):
        advance_against_fresh_builds(list(accumulate(steps)),
                                     PluginParams(grid_width=1.0, horizon=h, **stat), seed)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_walk_covers_every_kind_of_advance(self, h):
        values = random_walk(150, seed=h, step=0.6)
        kinds = advance_against_fresh_builds(
            values, PluginParams(grid_width=1.0, horizon=h, stat_variant="discounted_sum",
                                 delta=0.9), seed=5)
        assert all(count > 0 for count in kinds.values()), kinds


class TestAdvanceCost:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_accumulators_created_per_advance_do_not_grow_with_n(self, h, monkeypatch):
        """After a random walk of n values (whose states grow with n), an
        alternation far from the walk: a matched advance and a mismatched one
        (a value breaking the alternation) each create at most 4(h + 1)
        accumulators, the same number at n = 1k as at n = 10k."""
        created = []
        init = StatAccumulator.__init__

        def counting_init(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        params = PluginParams(grid_width=1.0, horizon=h)
        counts = {}
        for n in (1_000, 10_000):
            values = random_walk(n, seed=0) + [1000.0 + 5.0 * (k % 2) for k in range(61)]
            frontier = lookahead_build(values[:-1], params, seed=2)
            monkeypatch.setattr(StatAccumulator, "__init__", counting_init)
            per_advance = []
            for value in (values[-1], values[-1]):
                created.clear()
                lookahead_advance(frontier, value)
                per_advance.append(len(created))
            monkeypatch.setattr(StatAccumulator, "__init__", init)
            counts[n] = per_advance
        assert counts[1_000] == counts[10_000]
        assert all(0 < count <= 4 * (h + 1) for count in counts[1_000]), counts
