import hashlib
import json
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigauto import (
    Clusterer,
    ConfigError,
    InsufficientHistoryError,
    Isa,
    LookaheadWordClassifier,
    PluginParams,
    Signal,
    isa_to_hmm,
    lookahead_advance,
    lookahead_build,
    move,
    next_hmm,
    rho_fn,
    sigma_fn,
)
from sigauto import plugins
from sigauto.bench import random_walk

from conftest import EVERY_STAT, assert_row_cache_coherent, model_rows


def period_two(length):
    return Signal([1.0 if k % 2 == 0 else 5.0 for k in range(length)])


# Every statistic, the region ones with a box that holds every value of
# the three-level signals below, so no row is empty and no entry poisoned.
EVERY_STAT_IN_A_BOX = [{**stat, "region": ((0.0, 6.0),)} if "region" in stat else stat
                       for stat in EVERY_STAT]


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

    @pytest.mark.parametrize("stat", EVERY_STAT_IN_A_BOX)
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_base_agreement_with_plain_fold(self, h, stat):
        """With every live entry undone, the frontier's automaton and model
        match the plain pipeline run to n - h with the same lookahead
        classifier and genuine windows (``plain_fold``), at each horizon and
        statistic: the automaton and every accumulator exactly, and each
        row as the scratch conversion of that automaton reads it, exactly
        for the statistics read without discounting, within float tolerance
        for the discounted ones (lazy discounting rounds differently)."""
        params = PluginParams(grid_width=1.0, horizon=h, **stat)
        rng = random.Random(0)
        signal = Signal([rng.choice((1.0, 3.0, 5.0)) for _ in range(64)])
        frontier = lookahead_build(signal, params, seed=1)
        live = frontier.live()
        assert len(live) == h
        for entry in reversed(live):
            entry.undo()
        isa, hmm = plain_fold(signal, params, signal.last_instant - h)
        assert frontier.base_isa == isa
        assert accumulator_tables(frontier.base_hmm) == accumulator_tables(hmm)
        scratch = isa_to_hmm(isa, signal, sigma_fn(params), rho_fn(params),
                             Clusterer(params.grid_width))
        for name in ("transition_row", "emission_row"):
            rows, expected = model_rows(frontier.base_hmm, name), model_rows(scratch, name)
            if not params.stat_variant.startswith("discounted"):
                assert rows == expected, name
                continue
            assert rows.keys() == expected.keys()
            for p in rows:
                assert rows[p] == pytest.approx(expected[p], rel=1e-12, abs=0.0), (name, p)
        for entry in live:
            entry.redo()

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

    def test_negative_horizon_forecast_rejected(self, word_params):
        # a poisoned frontier and a live one refuse a negative horizon alike
        poisoned = lookahead_build(Signal([1.0, 5.0]), word_params)
        assert poisoned.entries == [None]
        live = lookahead_build(period_two(10), word_params, seed=4)
        assert live.entries[-1] is not None
        for frontier in (poisoned, live):
            with pytest.raises(ConfigError):
                frontier.forecast(-1)

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


class TestFingerprint:
    """``fingerprint`` tells frontiers apart by any one part: a frontier
    changed in one transition weight, one emission cell, one instants cell
    or its parameters has another fingerprint, in that part alone."""

    @staticmethod
    def first_row_of_two(table):
        return next(row for row in table.values() if len(row.cells) > 1)

    @classmethod
    def change_transitions(cls, frontier):
        row = cls.first_row_of_two(frontier.base_hmm._trows)
        cell = next(iter(row.cells.values()))
        cell.raw_count += 1
        cell.value += 1.0
        row.norm = None

    @classmethod
    def change_emissions(cls, frontier):
        row = cls.first_row_of_two(frontier.base_hmm._erows)
        cell = next(iter(row.cells.values()))
        cell.raw_count += 1
        cell.value += 1.0
        row.norm = None

    @staticmethod
    def change_instants_matrix(frontier):
        instants = next(c for _, _, c in frontier.base_isa.theta.cells() if len(c) > 1)
        instants[0] = -1

    @staticmethod
    def change_tau(frontier):
        frontier.params = PluginParams.from_dict({**frontier.params.to_dict(), "delta": 0.5})

    @staticmethod
    def changed_parts(a, b):
        def pairs(fingerprint):
            return [fingerprint["base"], *(e for e in fingerprint["entries"] if e is not None)]
        assert len(pairs(a)) == len(pairs(b))
        return {key for x, y in zip(pairs(a), pairs(b)) for key in x if x[key] != y[key]}

    @pytest.mark.parametrize("part", ["transitions", "emissions", "instants_matrix", "tau"])
    def test_one_changed_part_changes_the_fingerprint(self, part):
        frontier = lookahead_build(random_walk(200, seed=5),
                                   PluginParams(lam=0.5, grid_width=0.5, horizon=2), seed=1)
        assert frontier.live()
        before = frontier.fingerprint()
        getattr(self, f"change_{part}")(frontier)
        after = frontier.fingerprint()
        assert after != before
        assert self.changed_parts(before, after) == {part}

    # sha256 of the sorted-key JSON of the fingerprint below, recorded
    # before the model's matrix views were deleted.
    DIGESTS = {
        2: "169513f311fad9448faf174af3a4d9769482ca5836c58036e988b4bed8c9ab94",
        3: "a9ab1e0c9b5d4fce393c4358cf2517819d82a49a6cd3c2e9d9296b1c6353b930",
    }

    @pytest.mark.parametrize("h", [2, 3])
    def test_digest_of_a_built_and_advanced_frontier(self, h):
        """Every entry is live at the end, after matched and rebuilt advances."""
        walk = random_walk(300, seed=13)
        params = PluginParams(lam=0.5, grid_width=0.5, stat_variant="discounted_sum",
                              delta=0.8, horizon=h)
        frontier = lookahead_build(walk[:200], params, seed=3)
        for x in walk[200:]:
            lookahead_advance(frontier, x)
        assert len(frontier.live()) == h and frontier.matched and frontier.rebuilt
        text = json.dumps(frontier.fingerprint(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[h]


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

    def test_a_signal_argument_becomes_the_frontiers_own(self, word_params):
        """A ``Signal`` is taken, not copied, and an advance appends to it;
        any other iterable is copied and left as it was."""
        signal = period_two(6)
        frontier = lookahead_build(signal, word_params, seed=0)
        assert frontier.signal is signal
        lookahead_advance(frontier, (1.0,))
        assert len(signal) == 7
        values = list(signal)
        frontier = lookahead_build(values, word_params, seed=0)
        lookahead_advance(frontier, (5.0,))
        assert len(values) == 7 and len(frontier.signal) == 8


def forecast_key(frontier):
    """The frontier forecast, with the iteration order of every step."""
    fc = frontier.forecast()
    return fc.is_dummy, [list(dist.items()) for dist in fc.steps]


def plain_fold(values, params, upto):
    """The genuine automaton and model at instant ``upto``, stepped one
    instant at a time with genuine windows."""
    h = params.horizon
    signal = Signal(values)
    classifier, isa = LookaheadWordClassifier(params), Isa()
    for i in range(upto + 1):
        move(isa, classifier.step(signal[i], signal[i + 1 : i + h + 1]), signal[i])
        if i == 0:
            hmm = isa_to_hmm(isa, signal, sigma_fn(params), rho_fn(params),
                             Clusterer(params.grid_width))
        else:
            next_hmm(hmm, isa, signal, hmm.sigma, hmm.rho, hmm.clusterer)
    return isa, hmm


def accumulator_tables(hmm):
    """The model's two row tables, keys in iteration order, with each cell
    and row accumulator's fields."""
    def fields(acc):
        return acc.value, acc.last_now, acc.raw_count

    return [[(p, [(c, fields(a)) for c, a in row.cells.items()], fields(row.total))
             for p, row in table.items()] for table in (hmm._trows, hmm._erows)]


def advance_against_fresh_builds(values, params, seed):
    """Advance a frontier over ``values`` from its shortest history, checking
    it against a fresh build, and its row caches against their accumulators,
    after every advance.  After each advance, undoing every live entry must
    leave the automaton and model equal to a plain genuine fold to n - h, in
    key order and in every accumulator field, and redoing them must restore
    the fingerprint.  The frontier's own counters must agree with the kinds
    of advance seen here.  Returns how many advances matched the stored
    word, mismatched it, or found the oldest entry poisoned."""
    h = params.horizon
    frontier = lookahead_build(values[: h + 1], params, seed=seed)
    kinds = {"matched": 0, "mismatched": 0, "poisoned": 0}
    for i in range(h + 1, len(values)):
        first = frontier.entries[0]
        assert_row_cache_coherent(frontier.base_hmm)  # fills every cache first
        lookahead_advance(frontier, values[i])
        assert_row_cache_coherent(frontier.base_hmm)
        if first is None:
            kinds["poisoned"] += 1
        elif first.word == LookaheadWordClassifier(params).step(
                None, frontier.signal[i - h + 1 : i + 1]):
            kinds["matched"] += 1
        else:
            kinds["mismatched"] += 1
        fresh = lookahead_build(values[: i + 1], params, seed=seed)
        fingerprint = frontier.fingerprint()
        assert fingerprint == fresh.fingerprint(), f"fingerprint at n={i}"
        live = frontier.live()
        for entry in reversed(live):
            entry.undo()
        isa, hmm = plain_fold(values[: i + 1], params, i - h)
        assert accumulator_tables(frontier.base_hmm) == accumulator_tables(hmm), f"undo at n={i}"
        assert list(frontier.base_isa.theta.cells()) == list(isa.theta.cells()), f"undo at n={i}"
        assert_row_cache_coherent(frontier.base_hmm)
        for entry in live:
            entry.redo()
        assert frontier.fingerprint() == fingerprint, f"redo at n={i}"
        assert forecast_key(frontier) == forecast_key(fresh), f"forecast at n={i}"
    assert frontier.matched == kinds["matched"]
    assert frontier.rebuilt == kinds["mismatched"] + kinds["poisoned"]
    # h entries at the build, one per matched advance and h per rebuild
    assert frontier.entries_built == h + frontier.matched + h * frontier.rebuilt
    return kinds


class TestOverlayEqualsFreshBuild:
    @settings(max_examples=40, deadline=None)
    @given(
        h=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 10_000),
        stat=st.sampled_from(EVERY_STAT),
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


class TestRowCacheCoherence:
    @pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
    def test_matched_and_rebuilt_advances(self, stat):
        """Both reconciliation paths keep every cache coherent: the matched
        one (the oldest entry dropped) and the rebuild (every live entry
        undone first)."""
        values = random_walk(120, seed=3, step=0.6)
        kinds = advance_against_fresh_builds(
            values, PluginParams(grid_width=1.0, horizon=2, **stat), seed=5)
        assert kinds["matched"] > 0 and kinds["mismatched"] > 0, kinds

    def test_matched_advance_keeps_unwritten_cached_rows(self):
        """After a matched advance the model still serves, as the same dict
        objects, every cached row that the new step did not write."""
        params = PluginParams(grid_width=1.0, horizon=3)
        values = period_two(20)
        frontier = lookahead_build(values[:12], params, seed=0)
        model = frontier.base_hmm
        for value in values[12:]:
            assert_row_cache_coherent(model)  # fills every cache
            tables = {"t": model._trows, "e": model._erows}
            cached = {kind: {p: row.norm for p, row in table.items() if row.norm is not None}
                      for kind, table in tables.items()}
            before = list(frontier.entries)
            lookahead_advance(frontier, value)
            assert frontier.entries[:-1] == before[1:]  # matched
            assert frontier.base_hmm is model
            written = [record[0] for record in frontier.entries[-1].journal]
            kept = [(kind, row) for kind, rows in cached.items() for row in rows
                    if all(tables[kind][row] is not w for w in written)]
            assert kept
            for kind, row in kept:
                read = model.transition_row if kind == "t" else model.emission_row
                assert read(row) is cached[kind][row]
            assert_row_cache_coherent(model)

    @pytest.mark.parametrize("stat", [s for s in EVERY_STAT
                                      if s["stat_variant"] != "discounted_complement"],
                             ids=lambda s: s["stat_variant"])
    def test_undo_and_redo_give_back_cached_rows(self, stat):
        """Undoing every live entry and redoing them serves, at each end,
        every row the model had cached there as the same dict object: the
        journal gives each row back its normalization, so none is
        normalized again.  (Complement rows are never cached.)"""
        params = PluginParams(grid_width=1.0, horizon=3, **stat)
        rng = random.Random(0)  # inside the region, so that no entry is poisoned
        values = [rng.choice((0.2, 0.7, 1.2)) for _ in range(200)]
        frontier = lookahead_build(values, params, seed=5)
        model, live = frontier.base_hmm, frontier.live()
        assert len(live) == 3
        reads = ((model.transition_row, model._trows), (model.emission_row, model._erows))

        def cached_rows():
            assert_row_cache_coherent(model)  # fills every cache
            return [(read, p, row.norm) for read, table in reads for p, row in table.items()]

        def served_as_cached(rows):
            return all(read(p) is norm for read, p, norm in rows)

        at_newest = cached_rows()
        for entry in reversed(live):
            entry.undo()
        at_base = cached_rows()
        for _ in range(2):
            for entry in live:
                entry.redo()
            assert served_as_cached(at_newest)
            for entry in reversed(live):
                entry.undo()
            assert served_as_cached(at_base)
        for entry in live:
            entry.redo()
        assert_row_cache_coherent(model)


def counted_walk(h, monkeypatch):
    """A 300-advance walk at horizon h from the shortest history, with
    ``random.Random`` and ``plugins.cell_index`` counted during the
    advances, which must be of all three kinds.  Returns the seed of each
    generator built and the grid cells computed per advance."""
    values = random_walk(301 + h, seed=h, step=0.6)
    params = PluginParams(grid_width=1.0, horizon=h)
    frontier = lookahead_build(values[: h + 1], params, seed=5)
    seeds, cells = [], []
    real_random, real_cell_index = random.Random, plugins.cell_index

    class Counted(real_random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    def counted_cell_index(coords, widths):
        cells.append(coords)
        return real_cell_index(coords, widths)

    monkeypatch.setattr(random, "Random", Counted)
    monkeypatch.setattr(plugins, "cell_index", counted_cell_index)
    kinds = {"matched": 0, "mismatched": 0, "poisoned": 0}
    for value in values[h + 1:]:
        poisoned, matched = frontier.entries[0] is None, frontier.matched
        lookahead_advance(frontier, value)
        kinds["poisoned" if poisoned else "matched" if frontier.matched > matched
              else "mismatched"] += 1
        assert len(frontier.draws) <= h
    monkeypatch.undo()
    assert all(count > 0 for count in kinds.values()), kinds
    return seeds, len(cells) / (len(values) - h - 1)


class TestAdvanceCost:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_one_generator_per_sampled_instant(self, h, monkeypatch):
        """A rebuild reuses the draws its instants were first sampled with:
        over matched, mismatched and poisoned advances, each instant's
        generator is seeded once."""
        seeds, _ = counted_walk(h, monkeypatch)
        assert seeds and all(seed.startswith("5:") for seed in seeds)
        assert len(seeds) == len(set(seeds)), "an instant was seeded twice"

    def test_grid_cells_per_advance_do_not_grow_with_h(self, monkeypatch):
        """An advance labels its new row once, for the word classifier and
        the model together; the rows and estimates of the h words around it
        are labelled already."""
        per_advance = [counted_walk(h, monkeypatch)[1] for h in (1, 2, 3)]
        assert max(per_advance) <= 3, per_advance
        assert per_advance[2] <= per_advance[0] + 0.5, per_advance

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_accumulators_journaled_per_advance_do_not_grow_with_n(self, h):
        """After a random walk of n values (whose states grow with n), a
        random two-valued tail far from the walk, in which every word occurs:
        a matched advance and a mismatched one each journal at most 4(h + 1)
        accumulators (a cell and a row sum per row record) in the entries
        they build, the same number at n = 1k as at n = 10k."""
        params = PluginParams(grid_width=1.0, horizon=h)
        rng = random.Random(1)
        tail = [rng.choice((1000.0, 1005.0)) for _ in range(200)]
        other = {1000.5: 1005.0, 1005.5: 1000.0}  # estimate -> the other cluster
        counts = {}
        for n in (1_000, 10_000):
            frontier = lookahead_build(random_walk(n, seed=0) + tail, params, seed=2)
            per_advance = []
            for matched in (True, False):
                before = list(frontier.entries)
                assert before[0] is not None
                estimate = frontier.estimated[0][0]
                lookahead_advance(frontier, estimate if matched else other[estimate])
                genuine_word = frontier.classifier.step(None, frontier.signal[-h:])
                assert (before[0].word == genuine_word) == matched
                per_advance.append(sum(2 * len(e.journal) for e in frontier.live()
                                       if all(e is not b for b in before)))
            counts[n] = per_advance
        assert counts[1_000] == counts[10_000]
        assert all(0 < count <= 4 * (h + 1) for count in counts[1_000]), counts


@pytest.mark.parametrize("h", [1, 2, 3])
def test_the_words_and_the_model_label_each_genuine_row_once(h, monkeypatch):
    """The frontier's model is built on the word classifier's clusterer,
    and a row stays in its memo while the h words and the model that read
    it are to come, so a 10k build computes one cell per distinct row it
    labels, not two.  The words only look labels up: the observed alphabet
    is the genuine rows' clusters in first-appearance order, with no
    estimate's."""
    values = random_walk(10_000, seed=1)
    cells = []
    real_cell_index = plugins.cell_index
    monkeypatch.setattr(plugins, "cell_index",
                        lambda coords, widths: cells.append(coords) or real_cell_index(coords, widths))
    frontier = lookahead_build(values, PluginParams(grid_width=0.5, horizon=h), seed=3)
    monkeypatch.undo()
    assert frontier.base_hmm.clusterer is frontier.clusterer is frontier.classifier.clusterer
    assert len(cells) == len(set(cells)) <= len(values) + h
    fresh = Clusterer(0.5)
    genuine = dict.fromkeys(fresh.label_of(row) for row in Signal(values))
    assert list(frontier.clusterer.observed) == list(genuine)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_the_build_labels_each_row_once(h, monkeypatch):
    """The build's genuine instants label rows 1 .. n once each, in order,
    as each enters the window of the next h labels; only the h extended
    instants label their windows, h rows each.  Labelling every window
    afresh would take ~h labels per row."""
    values = random_walk(3_000, seed=4)
    calls = []
    real = Clusterer.label_of
    monkeypatch.setattr(Clusterer, "label_of",
                        lambda clusterer, obs: calls.append(obs) or real(clusterer, obs))
    lookahead_build(values, PluginParams(grid_width=0.5, horizon=h), seed=0)
    n = len(values) - 1
    assert calls[:n] == [(value,) for value in values[1:]]
    assert len(calls) <= n + 1 + h * h, f"{len(calls)} labels for {n + 1} rows"


def test_each_genuine_row_is_classified_once(monkeypatch):
    """An advance classifies its newly genuine row once: a mismatched
    advance moves with the word it compared, and no row is classified twice
    with the same window over 300 advances."""
    values = random_walk(3_300, seed=2)
    frontier = lookahead_build(values[:3_000], PluginParams(grid_width=0.5, horizon=2), seed=0)
    calls = []
    real = LookaheadWordClassifier.step

    def counted(classifier, obs, future=()):
        calls.append((obs, tuple(future)))
        return real(classifier, obs, future)

    monkeypatch.setattr(LookaheadWordClassifier, "step", counted)
    for value in values[3_000:]:
        lookahead_advance(frontier, value)
    assert frontier.rebuilt > 0
    assert len(calls) - len(set(calls)) == 0, f"{len(calls)} calls"
