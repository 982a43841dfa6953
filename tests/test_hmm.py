import math
import os
import tempfile
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigauto import (
    BOTTOM_STATE,
    Clusterer,
    ConfigError,
    DUMMY_EVENT,
    DUMMY_STATE,
    EmaGridClassifier,
    FrontierEntry,
    Kernel,
    PluginParams,
    Signal,
    StalenessError,
    StatFn,
    StreamPipeline,
    UnknownStateError,
    build_isa,
    forecast,
    default_bandwidth,
    forecast_density_at,
    init_isa,
    is_new_state,
    isa_to_hmm,
    isa_to_hmm_continuous,
    load_snapshot,
    lookahead_advance,
    lookahead_build,
    next_hmm,
    next_hmm_continuous,
    next_isa,
    rho_fn,
    sample_observation,
    save_snapshot,
    sigma_fn,
    state_occupancies,
    transition_row,
)
from sigauto import forecasting
from sigauto.forecasting import _scores
from sigauto.hmm import next_event_probability

from conftest import (
    EVERY_STAT,
    E1,
    assert_row_cache_coherent,
    build_plain,
    model_rows,
    random_walk,
)


def fold_pipeline(values, params, emission="discrete", kernel=None):
    """Incremental construction, one next_isa/next_hmm per observation."""
    sig = Signal()
    classifier = EmaGridClassifier(params)
    clusterer = Clusterer(params.grid_width)
    sigma, rho = sigma_fn(params), rho_fn(params)
    isa = hmm = None
    for value in values:
        sig.append(value)
        if isa is None:
            isa = init_isa(sig[0], classifier)
            if emission == "discrete":
                hmm = isa_to_hmm(isa, sig, sigma, rho, clusterer)
            else:
                hmm = isa_to_hmm_continuous(isa, sig, sigma, kernel)
        else:
            next_isa(isa, sig, classifier)
            if emission == "discrete":
                next_hmm(hmm, isa, sig, sigma, rho, clusterer)
            else:
                next_hmm_continuous(hmm, isa, sig, sigma, kernel)
    return sig, isa, hmm


class TestIsaToHmm:
    def test_e1_count_statistics(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        assert hmm.transition_row("1") == {
            "1": pytest.approx(1 / 3, abs=1e-15),
            "5": pytest.approx(2 / 3, abs=1e-15),
        }
        assert hmm.transition_row("5") == {"1": 1.0}
        assert hmm.transition_row(DUMMY_STATE) == {DUMMY_STATE: 1.0}
        assert hmm.emission_row("1") == {"1": 1.0}
        assert hmm.emission_row("5") == {"5": 1.0}
        assert hmm.current == "5"
        assert not hmm.current_is_new

    def test_single_observation(self, count_params):
        sig = Signal([1.0])
        _, hmm = build_plain(sig, count_params)
        assert set(hmm.states) == {"1", DUMMY_STATE}
        assert hmm.transition_row("1") == {DUMMY_STATE: 1.0}
        assert hmm.emission_row("1") == {"1": 1.0}
        assert hmm.current_is_new

    def test_e1_discounted(self, e1_signal):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        _, hmm = build_plain(e1_signal, params)
        denominator = 0.5**3 + 0.5**2 + 1.0
        assert hmm.transition_row("1")["1"] == pytest.approx(0.125 / denominator, rel=1e-12)
        assert hmm.transition_row("1")["5"] == pytest.approx(1.25 / denominator, rel=1e-12)
        assert hmm.transition_row("1")["1"] == pytest.approx(0.0909, abs=1e-4)
        assert hmm.transition_row("1")["5"] == pytest.approx(0.9091, abs=1e-4)

    def test_instant_zero_counts_toward_first_emission(self, count_params):
        # the pre-initial cell {0} contributes instant 0 to the first state's
        # incoming set even though that state has no transition row from it
        sig = Signal([1.0, 5.0, 1.0])
        _, hmm = build_plain(sig, count_params)
        assert hmm._erows["1"].total.raw_count == 2  # instants {0, 2}
        assert hmm.emission_row("1") == {"1": 1.0}

    def test_rho_must_be_additive(self, e1_signal, count_params):
        classifier = EmaGridClassifier(count_params)
        isa = build_isa(e1_signal, classifier)
        latest = StatFn("latest_occurrence")
        with pytest.raises(ConfigError):
            isa_to_hmm(isa, e1_signal, sigma_fn(count_params), latest, Clusterer(1.0))

    def test_tau_mismatch(self, e1_signal, count_params):
        other = PluginParams(delta=0.5, stat_variant="discounted_sum")
        isa = build_isa(e1_signal, EmaGridClassifier(count_params))
        with pytest.raises(ConfigError):
            isa_to_hmm(isa, e1_signal, sigma_fn(count_params), rho_fn(other),
                       Clusterer(1.0))

    def test_equal_parameter_tuples_may_be_distinct_objects(self, e1_signal):
        sigma_params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        rho_params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        assert sigma_params == rho_params and sigma_params is not rho_params
        sigma, rho = sigma_fn(sigma_params), rho_fn(rho_params)
        classifier = EmaGridClassifier(sigma_params)
        clusterer = Clusterer(1.0)
        sig = Signal(E1[:1])
        isa = init_isa(sig[0], classifier)
        hmm = isa_to_hmm(isa, sig, sigma, rho, clusterer)
        for value in E1[1:]:
            sig.append(value)
            next_isa(isa, sig, classifier)
            next_hmm(hmm, isa, sig, sigma, rho, clusterer)
        scratch = isa_to_hmm(build_isa(e1_signal, EmaGridClassifier(sigma_params)),
                             e1_signal, sigma, rho, Clusterer(1.0))
        assert model_rows(hmm, "transition_row") == model_rows(scratch, "transition_row")


class TestNextHmm:
    def test_step_3_to_4_renormalizes_one_row(self, count_params):
        _, _, hmm = fold_pipeline(E1[:4], count_params)
        assert hmm.transition_row("1") == {"1": 0.5, "5": 0.5}
        assert hmm.current == "1"
        _, _, hmm2 = fold_pipeline(E1, count_params)
        assert hmm2.transition_row("1") == {
            "1": pytest.approx(1 / 3, abs=1e-15),
            "5": pytest.approx(2 / 3, abs=1e-15),
        }
        assert hmm2.current == "5"

    def test_new_state_step(self, count_params):
        _, isa, hmm = fold_pipeline((1.0, 1.0, 5.0), count_params)
        assert hmm.current == "5"
        assert hmm.current_is_new
        assert hmm.transition_row("5") == {DUMMY_STATE: 1.0}

    def test_staleness(self, count_params):
        sig, isa, hmm = fold_pipeline(E1, count_params)
        with pytest.raises(StalenessError):
            next_hmm(hmm, isa, sig, sigma_fn(count_params), rho_fn(count_params),
                     Clusterer(1.0))

    def test_plugin_mismatch_detected(self, count_params):
        sig, isa, hmm = fold_pipeline(E1, count_params)
        sig.append(9.0)
        classifier = EmaGridClassifier(count_params)
        for obs in sig[:-1]:
            classifier.step(obs)
        next_isa(isa, sig, classifier)
        other = PluginParams(delta=0.9, stat_variant="discounted_sum")
        with pytest.raises(ConfigError):
            next_hmm(hmm, isa, sig, sigma_fn(other), rho_fn(other), Clusterer(1.0))

    def one_step_behind(self, params, emission="discrete", kernel=None):
        """A model one observation behind its automaton, with the statistics
        it was built with."""
        sig, isa, hmm = fold_pipeline(E1, params, emission, kernel)
        sig.append(9.0)
        classifier = EmaGridClassifier(params)
        for obs in sig[:-1]:
            classifier.step(obs)
        next_isa(isa, sig, classifier)
        return sig, isa, hmm

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_equal_statistics_of_another_object_are_accepted(self, emission):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        kernel = Kernel([[1.0]])
        sig, isa, hmm = self.one_step_behind(params, emission, kernel)
        _, _, want = fold_pipeline(E1 + (9.0,), params, emission, kernel)
        sigma, rho = sigma_fn(params), rho_fn(params)
        assert sigma is not hmm.sigma
        if emission == "discrete":
            assert rho is not hmm.rho
            next_hmm(hmm, isa, sig, sigma, rho, hmm.clusterer)
            assert model_rows(hmm, "emission_row") == model_rows(want, "emission_row")
        else:
            next_hmm_continuous(hmm, isa, sig, sigma, kernel)
            assert hmm.mixtures == want.mixtures
        assert model_rows(hmm, "transition_row") == model_rows(want, "transition_row")

    @pytest.mark.parametrize("which", ["sigma", "rho"])
    def test_different_statistic_is_refused(self, which):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        sig, isa, hmm = self.one_step_behind(params)
        stats = {"sigma": hmm.sigma, "rho": hmm.rho}
        stats[which] = StatFn("discounted_sum", 0.9)
        with pytest.raises(ConfigError, match=f"{which} statistic differs"):
            next_hmm(hmm, isa, sig, stats["sigma"], stats["rho"], hmm.clusterer)

    def test_different_continuous_sigma_is_refused(self):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        sig, isa, hmm = self.one_step_behind(params, "continuous")
        with pytest.raises(ConfigError, match="sigma statistic differs"):
            next_hmm_continuous(hmm, isa, sig, StatFn("discounted_sum", 0.9))


def assert_models_equal(incremental, scratch, exact):
    tol = 0.0 if exact else 1e-9
    reads = ["transition_row"]
    if incremental.emission_kind == "discrete":
        reads.append("emission_row")
    for read in reads:
        got, want = (model_rows(m, read) for m in (incremental, scratch))
        assert got.keys() == want.keys()
        for p, row in got.items():
            assert row.keys() == want[p].keys(), (read, p)
            for q, weight in row.items():
                assert weight == pytest.approx(want[p][q], rel=1e-9, abs=tol)
    assert incremental.current == scratch.current
    assert incremental.current_is_new == scratch.current_is_new


@pytest.mark.parametrize("variant,delta", [("count", 0.0), ("discounted_sum", 0.9)])
@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_incremental_equals_scratch_random_walks(variant, delta, lam):
    params = PluginParams(lam=lam, delta=delta, stat_variant=variant)
    for seed in range(3):
        walk = random_walk(400, seed=seed)
        sig, isa, hmm = fold_pipeline(walk, params)
        scratch_isa, scratch_hmm = build_plain(sig, params)
        assert isa == scratch_isa
        assert_models_equal(hmm, scratch_hmm, exact=(variant == "count"))


def model_bits(model):
    """What the model's steps write, in key order, floats as hex: equal
    exactly when the two models are equal bit for bit."""
    def bits(acc):
        return acc.value.hex(), acc.last_now, acc.raw_count

    def table(rows):
        return [(p, [(c, bits(acc)) for c, acc in row.cells.items()], bits(row.total))
                for p, row in rows.items()]

    out = [model.n, model.current, model.current_is_new, list(model.state_order),
           table(model._trows)]
    if model.emission_kind == "discrete":
        return out + [table(model._erows), list(model.clusterer.observed.items())]
    return out + [list(model.mixtures.items())]


@pytest.mark.parametrize("emission", ["discrete", "continuous"])
@pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
def test_the_first_step_equals_the_scratch_model(stat, emission):
    """The first observation is an ordinary step: the pipeline's model,
    built on the empty automaton and stepped once, is bit for bit the scratch
    model of ``init_isa``'s one-observation automaton, inside the region and
    outside it."""
    params = PluginParams(grid_width=1.0, **stat)
    for value in (0.5, 7.0):
        pipe = StreamPipeline(params, emission=emission)
        pipe.advance(value)
        isa = init_isa(pipe.signal[0], EmaGridClassifier(params))
        if emission == "discrete":
            scratch = isa_to_hmm(isa, pipe.signal, pipe.sigma, pipe.rho,
                                 Clusterer(params.grid_width))
        else:
            scratch = isa_to_hmm_continuous(isa, pipe.signal, pipe.sigma, pipe.kernel)
        assert pipe.isa == isa
        assert model_bits(pipe.hmm) == model_bits(scratch)


def test_row_stochasticity_after_every_update(count_params):
    params = PluginParams(delta=0.7, stat_variant="discounted_sum")
    sig = Signal()
    classifier = EmaGridClassifier(params)
    clusterer = Clusterer(params.grid_width)
    sigma, rho = sigma_fn(params), rho_fn(params)
    isa = hmm = None
    for value in random_walk(250, seed=5):
        sig.append(value)
        if isa is None:
            isa = init_isa(sig[0], classifier)
            hmm = isa_to_hmm(isa, sig, sigma, rho, clusterer)
        else:
            next_isa(isa, sig, classifier)
            next_hmm(hmm, isa, sig, sigma, rho, clusterer)
        for state in hmm.states:
            assert sum(hmm.transition_row(state).values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(hmm.emission_row(state).values()) == pytest.approx(1.0, abs=1e-9)


def test_dummy_row_exact(count_params):
    _, _, hmm = fold_pipeline((1.0, 1.0, 5.0), count_params)
    dangling = [s for s in hmm.state_order if hmm.transition_row(s) == {DUMMY_STATE: 1.0}]
    assert dangling == ["5"]
    assert hmm.transition_row(DUMMY_STATE) == {DUMMY_STATE: 1.0}
    assert hmm.emission_row(DUMMY_STATE) == {DUMMY_EVENT: 1.0}


def test_zero_denominator_row_falls_back_to_dummy():
    # region statistics can zero a row even when outgoing instants exist
    params = PluginParams(stat_variant="region_count", region=[[100.0, 200.0]])
    _, _, hmm = fold_pipeline(E1, params)
    assert hmm.transition_row("1") == {DUMMY_STATE: 1.0}


def test_emission_support(count_params):
    _, _, hmm = fold_pipeline(E1, count_params)
    for state in ("1", "5"):
        for cluster, weight in hmm.emission_row(state).items():
            assert weight > 0
            assert cluster in hmm.clusterer.observed


def assert_forecast_equals_scratch(pipe, h):
    """The forecast of the live model equals that of a from-scratch rebuild:
    exactly for the statistics read without discounting, within float
    tolerance for the discounted ones (lazy discounting rounds differently)."""
    live = forecast(pipe.hmm, h)
    scratch = forecast(pipe.rebuild_from_scratch()[1], h)
    assert live.is_dummy == scratch.is_dummy
    if not pipe.sigma.variant.startswith("discounted"):
        assert live.steps == scratch.steps
    else:
        for got, want in zip(live.steps, scratch.steps):
            assert got.keys() == want.keys()
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestRowCache:
    @settings(max_examples=40, deadline=None)
    @given(
        stat=st.sampled_from(EVERY_STAT),
        lam=st.sampled_from([1.0, 0.5]),
        h=st.sampled_from([1, 2, 3]),
        steps=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       min_size=2, max_size=40),
    )
    def test_coherent_after_every_step(self, stat, lam, h, steps):
        pipe = StreamPipeline(PluginParams(lam=lam, grid_width=1.0, **stat))
        for value in accumulate(steps):
            pipe.advance(value)
            assert_row_cache_coherent(pipe.hmm)
            assert_forecast_equals_scratch(pipe, h)

    @pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
    def test_coherent_after_load_snapshot(self, stat):
        """A loaded model starts with an empty cache and fills it anew; both
        the saved pipeline and the loaded one stay coherent as they go on."""
        walk = [v[0] for v in random_walk(120, seed=8, step=0.6)]
        pipe = StreamPipeline(PluginParams(grid_width=1.0, **stat))
        for value in walk[:60]:
            pipe.advance(value)
            assert_row_cache_coherent(pipe.hmm)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.json")
            save_snapshot(pipe, path)
            resumed = load_snapshot(path)
        for value in walk[60:]:
            for live in (pipe, resumed):
                live.advance(value)
                assert_row_cache_coherent(live.hmm)
            assert_forecast_equals_scratch(resumed, 2)
            assert forecast(resumed.hmm, 2) == forecast(pipe.hmm, 2)

    def test_continuous_transition_rows_coherent(self, count_params):
        pipe = StreamPipeline(count_params, emission="continuous")
        for value in random_walk(150, seed=4, step=0.6):
            pipe.advance(value)
            assert_row_cache_coherent(pipe.hmm)

    def test_rows_are_shared_until_written(self, count_params):
        _, _, hmm = fold_pipeline(E1, count_params)
        assert hmm.transition_row("1") is hmm.transition_row("1")
        assert hmm.emission_row("5") is hmm.emission_row("5")

    def test_complement_rows_depend_on_the_read_instant(self):
        """A discounted_complement row normalises to
        (k_c - s_c d^(a+t)) / (K - S d^t), t the instants since the row was
        last written, so it changes while nothing writes it and must stay
        out of the row cache."""
        params = PluginParams(delta=0.5, stat_variant="discounted_complement")
        values = (1.0, 1.0, 5.0, 1.0, 1.0, 9.0)
        _, _, hmm = fold_pipeline(values, params)
        # two more instants in state 9 write row 9, never row 1
        _, _, later = fold_pipeline(values + (9.0, 9.0), params)
        assert hmm.sigma.row_ignores_now is False
        before, after = hmm.transition_row("1"), later.transition_row("1")
        assert list(before) == list(after) == ["1", "5", "9"]
        # instants 1 and 4 go 1 -> 1, 2 goes 1 -> 5, 5 goes 1 -> 9

        def weight(instants, now):
            return len(instants) - sum(0.5 ** (now - i) for i in instants)

        for row, now in ((before, 5), (after, 7)):
            assert row["1"] == pytest.approx(weight((1, 4), now) / weight((1, 2, 4, 5), now))
        assert after["1"] != pytest.approx(before["1"])

    def test_discounted_sum_rows_are_cached(self):
        """A discounted_sum row is read at its last write, where the common
        factor delta**(now - that instant) has cancelled, so it stays the
        same until a write and is shared like a counted row."""
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        _, _, hmm = fold_pipeline(E1, params)
        assert hmm.sigma.row_ignores_now and hmm.rho.row_ignores_now
        assert hmm.transition_row("1") is hmm.transition_row("1")
        assert hmm.emission_row("1") is hmm.emission_row("1")
        # instants in state 9 write rows 5 and 9, never row 1
        _, _, later = fold_pipeline(E1 + (9.0, 9.0, 9.0), params)
        assert later.transition_row("1") == hmm.transition_row("1")


def assert_probabilities_equal_the_forecast(hmm):
    """``next_event_probability`` of each observed cluster, and of a label
    never observed, is bit for bit the probability the one-step forecast
    gives it (0 when the forecast is the dummy one).  Returns that
    forecast."""
    fc = forecast(hmm, 1)
    for cluster in [*hmm.clusterer.observed, "never-observed"]:
        want = 0.0 if fc.is_dummy else fc.steps[0].get(cluster, 0.0)
        assert next_event_probability(hmm, cluster).hex() == want.hex(), cluster
    return fc


class TestNextEventProbability:
    @pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.sampled_from([1.0, 0.5]),
        width=st.sampled_from([1.0, 0.5]),
        steps=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       min_size=2, max_size=60),
    )
    def test_equals_the_forecast_after_every_step(self, stat, lam, width, steps):
        pipe = StreamPipeline(PluginParams(lam=lam, grid_width=width, **stat))
        for value in accumulate(steps):
            pipe.advance(value)
            assert_probabilities_equal_the_forecast(pipe.hmm)

    def test_new_current_state(self, count_params):
        _, _, hmm = fold_pipeline((1.0, 1.0, 5.0), count_params)
        assert hmm.current_is_new
        assert assert_probabilities_equal_the_forecast(hmm).is_dummy

    def test_discounted_row_that_underflows(self):
        """Away from state 1 for 8 000 instants, delta**gap is 0 in floating
        point; read at its last write, state 1's row keeps its weights, and
        the forecast is the one after a gap of 100."""
        params = PluginParams(delta=0.9, stat_variant="discounted_sum")
        forecasts = []
        for gap in (100, 8_000):
            pipe = StreamPipeline(params)
            for value in [1.0] * 3 + [5.0] * gap + [1.0]:
                pipe.advance(value)
            forecasts.append(assert_probabilities_equal_the_forecast(pipe.hmm))
            assert forecast(pipe.rebuild_from_scratch()[1], 1) == forecasts[-1]
        # instants 1 and 2 go 1 -> 1, instant 3 goes 1 -> 5
        share = 1.0 / (1.0 + 0.9 + 0.81)
        assert forecasts[1] == forecasts[0]
        assert not forecasts[1].is_dummy
        assert forecasts[1].steps[0] == pytest.approx({"1": 1.9 * 0.9 * share, "5": share})

    def test_region_count_row_whose_weights_sum_to_zero(self):
        params = PluginParams(stat_variant="region_count", region=[[100.0, 200.0]])
        _, _, hmm = fold_pipeline(E1, params)
        assert hmm._trows[hmm.current].cells and not hmm.current_is_new
        fc = assert_probabilities_equal_the_forecast(hmm)
        assert not fc.is_dummy and fc.steps[0] == {DUMMY_EVENT: 1.0}

    def test_region_count_emission_row_whose_weights_sum_to_zero(self, e1_signal):
        """Counted transitions into a state whose region-counted emission
        cells all read 0: the row's clusters get no mass."""
        region = [[100.0, 200.0]]
        isa = build_isa(e1_signal, EmaGridClassifier(PluginParams()))
        hmm = isa_to_hmm(isa, e1_signal, StatFn("count", region=region),
                         StatFn("region_count", region=region), Clusterer(1.0))
        assert hmm.transition_row(hmm.current) == {"1": 1.0}
        fc = assert_probabilities_equal_the_forecast(hmm)
        assert fc.steps[0] == {DUMMY_EVENT: 1.0}


class TestTransitionRowView:
    def test_e1_row(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        assert transition_row(hmm, "5") == {"1": 1.0}

    def test_dummy_absorbing(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        assert transition_row(hmm, DUMMY_STATE) == {DUMMY_STATE: 1.0}

    def test_unknown_state(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        with pytest.raises(UnknownStateError):
            transition_row(hmm, "no-such-state")


class TestContinuous:
    def test_e1_mixtures(self, e1_signal, count_params):
        classifier = EmaGridClassifier(count_params)
        isa = build_isa(e1_signal, classifier)
        hmm = isa_to_hmm_continuous(isa, e1_signal, sigma_fn(count_params),
                                    Kernel([[1.0]]))
        centers, weight = hmm.mixture("5")
        assert centers == (2, 4)
        assert weight == 0.5
        assert hmm.mixture("1") == ((0, 1, 3), pytest.approx(1 / 3))

    def test_single_observation(self, count_params):
        sig = Signal([1.0])
        isa = build_isa(sig, EmaGridClassifier(count_params))
        hmm = isa_to_hmm_continuous(isa, sig, sigma_fn(count_params), Kernel([[1.0]]))
        assert hmm.mixture("1") == ((0,), 1.0)

    def test_density_collapses_to_single_kernel(self, e1_signal, count_params):
        # state "1" has centers 1.0, 1.0, 1.0: density(x) = phi(x - 1)
        isa = build_isa(e1_signal, EmaGridClassifier(count_params))
        hmm = isa_to_hmm_continuous(isa, e1_signal, sigma_fn(count_params),
                                    Kernel([[1.0]]))
        phi = Kernel([[1.0]])
        for x in (0.0, 1.0, 2.5):
            assert hmm.density("1", (x,)) == pytest.approx(phi((x - 1.0,)), rel=1e-12)

    def test_dimension_mismatch(self, count_params):
        sig = Signal([(1.0, 2.0)])
        isa = build_isa(sig, EmaGridClassifier(count_params))
        with pytest.raises(ConfigError):
            isa_to_hmm_continuous(isa, sig, sigma_fn(count_params), Kernel([[1.0]]))

    def test_incremental_equals_scratch(self, count_params):
        kernel = Kernel([[1.0]])
        for seed in range(3):
            walk = random_walk(300, seed=seed + 20)
            sig, isa, hmm = fold_pipeline(walk, count_params, emission="continuous",
                                          kernel=kernel)
            scratch_isa = build_isa(sig, EmaGridClassifier(count_params))
            scratch = isa_to_hmm_continuous(scratch_isa, sig, sigma_fn(count_params),
                                            kernel)
            assert isa == scratch_isa
            assert hmm.mixtures == scratch.mixtures
            assert_models_equal(hmm, scratch, exact=True)

    @staticmethod
    def loop_density(signal, centers, H, x):
        """Per-centre reference: one normal density evaluation per centre."""
        H = np.asarray(H, dtype=float)
        inv = np.linalg.inv(H)
        norm = (2.0 * math.pi) ** (-len(x) / 2.0) / math.sqrt(np.linalg.det(H))
        total = 0.0
        for j in centers:
            diff = np.asarray(x, dtype=float) - np.asarray(signal[j], dtype=float)
            total += norm * math.exp(-0.5 * float(diff @ inv @ diff))
        return total / len(centers)

    @pytest.mark.parametrize("H", [
        [[0.3]],
        [[0.5, 0.0], [0.0, 0.2]],
        [[0.6, 0.25], [0.25, 0.4]],
        [[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]],
    ])
    def test_density_equals_per_center_loop(self, H, count_params):
        dim = len(H)
        walk = random_walk(400, dim=dim, seed=31)
        kernel = Kernel(H)
        sig, isa, hmm = fold_pipeline(walk, count_params, emission="continuous",
                                      kernel=kernel)
        points = [walk[-1], walk[17], tuple(v + 0.4 for v in walk[200])]
        for q in hmm.state_order:
            centers, _ = hmm.mixture(q)
            for x in points:
                assert hmm.density(q, x) == pytest.approx(
                    self.loop_density(sig, centers, H, x), rel=1e-12)
        for j in (1, 2):
            occupancy = state_occupancies(hmm, j)[-1]
            for x in points:
                expected = sum(
                    w * self.loop_density(sig, hmm.mixture(q)[0], H, x)
                    for q, w in occupancy.items() if q != DUMMY_STATE and w > 0.0)
                assert forecast_density_at(hmm, sig, j, x) == pytest.approx(
                    expected, rel=1e-12)

    def test_scott_density_equals_per_center_loop(self, count_params):
        walk = random_walk(500, dim=2, seed=32)
        sig, isa, hmm = fold_pipeline(walk[:300], count_params, emission="continuous")
        x = walk[300]
        assert hmm.kernel is None
        data = np.asarray(walk[:300])
        H = np.diag(np.maximum(300 ** (-1.0 / 6.0) * data.std(axis=0, ddof=1), 1e-6) ** 2)
        occupancy = state_occupancies(hmm, 1)[-1]
        expected = sum(w * self.loop_density(sig, hmm.mixture(q)[0], H, x)
                       for q, w in occupancy.items() if q != DUMMY_STATE and w > 0.0)
        assert forecast_density_at(hmm, sig, 1, x) == pytest.approx(expected, rel=1e-12)

    def test_updated_state_weights_sum_to_one(self, count_params):
        _, _, hmm = fold_pipeline(E1, count_params, emission="continuous",
                                  kernel=Kernel([[1.0]]))
        centers, weight = hmm.mixture("5")
        assert len(centers) * weight == pytest.approx(1.0, abs=0)


class TestScottKernel:
    """A model with no explicit kernel reads every density and draw with
    Scott's rule over its signal as it stands, as ``forecast_density_at``
    does."""

    @staticmethod
    def scott_pipeline():
        pipe = StreamPipeline(PluginParams(), emission="continuous")
        for value in random_walk(300, dim=2, seed=32):
            pipe.advance(value)
        return pipe

    def test_density_reads_the_scott_kernel(self):
        pipe = self.scott_pipeline()
        hmm, x = pipe.hmm, pipe.signal[-1]
        scott = Kernel(default_bandwidth(pipe.signal))
        total = 0.0
        for q, w in state_occupancies(hmm, 1)[-1].items():
            if q != DUMMY_STATE and w != 0.0:
                assert hmm.density(q, x) == hmm.density(q, x, scott)
                total += w * hmm.density(q, x)
        assert total == forecast_density_at(hmm, pipe.signal, 1, x) > 0.0

    def test_sampling_reads_the_scott_kernel(self):
        pipe = self.scott_pipeline()
        scott = Kernel(default_bandwidth(pipe.signal))
        drawn = [sample_observation(pipe.hmm, 1, seed) for seed in range(5)]
        assert drawn == [sample_observation(pipe.hmm, 1, seed, scott) for seed in range(5)]
        assert any(len(x) == 2 for x in drawn if x is not None)

    def test_scott_model_snapshot_round_trips(self, tmp_path):
        """A snapshot stores no bandwidth for a Scott-rule model: the
        restored model has no kernel and reads Scott's rule over the
        restored signal, so its densities are the original's."""
        pipe = self.scott_pipeline()
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        restored = load_snapshot(path)
        assert restored.hmm.kernel is None
        x = pipe.signal[-1]
        assert (forecast_density_at(restored.hmm, restored.signal, 1, x)
                == forecast_density_at(pipe.hmm, pipe.signal, 1, x))

def assert_model_reads_its_automaton(model, isa):
    assert model.isa is isa
    assert (model.n, model.current) == (isa.n, isa.current)
    assert model.current_is_new == is_new_state(isa)
    assert list(model.state_order) == [s for s in isa.states if s != BOTTOM_STATE]


class TestModelReadsItsAutomaton:
    """A model keeps no copy of its automaton's state set or newness: after
    every step of each path that steps models, and after each undo and redo
    of a lookahead frontier, both read as the automaton's."""

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_pipeline(self, emission):
        pipe = StreamPipeline(PluginParams(grid_width=0.5), emission=emission)
        for value in random_walk(300, dim=2, seed=8):
            pipe.step(value)
            assert_model_reads_its_automaton(pipe.hmm, pipe.isa)

    def test_fit_group(self, monkeypatch):
        grid = [PluginParams(stat_variant="count")] + [
            PluginParams(stat_variant="discounted_sum", delta=d) for d in (0.5, 0.9, 0.99)]
        real, steps = forecasting.step_stream, []

        def checked(isa, signal, classifier, models):
            real(isa, signal, classifier, models)
            for model in models:
                assert_model_reads_its_automaton(model, isa)
            steps.append(len(models))

        monkeypatch.setattr(forecasting, "step_stream", checked)
        signal = Signal(random_walk(300, seed=9))
        _scores(grid, signal, 150, signal.last_instant)
        assert steps == [4] * signal.last_instant

    def test_frontier(self, monkeypatch):
        frontier = lookahead_build(random_walk(200, seed=2, step=0.6),
                                   PluginParams(grid_width=1.0, horizon=2), seed=5)
        model, isa = frontier.base_hmm, frontier.base_isa
        moved = []
        for name in ("undo", "redo"):
            real = getattr(FrontierEntry, name)

            def checked(entry, real=real):
                real(entry)
                assert_model_reads_its_automaton(model, isa)
                moved.append(entry)

            monkeypatch.setattr(FrontierEntry, name, checked)
        for value in random_walk(100, seed=3, step=0.6):
            lookahead_advance(frontier, value)
            assert_model_reads_its_automaton(model, isa)
            frontier.fingerprint()
        assert frontier.matched and frontier.rebuilt and moved

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_update_with_another_automaton_is_refused(self, emission):
        params = PluginParams()
        sig, isa, hmm = fold_pipeline(E1, params, emission, Kernel([[1.0]]))
        sig.append(9.0)
        other = build_isa(sig, EmaGridClassifier(params))
        assert other.n == hmm.n + 1
        with pytest.raises(StalenessError, match="other than its own"):
            hmm.update(other, sig[-1])
