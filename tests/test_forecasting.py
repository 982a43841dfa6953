import json
import math
import os
import signal as signal_module
import threading
import time
from collections import Counter

import numpy as np
import pytest

from sigauto import (
    DUMMY_EVENT,
    DUMMY_STATE,
    ConfigError,
    EmaGridClassifier,
    EmptyInputError,
    Forecast,
    Kernel,
    PluginParams,
    RejectedInputError,
    Signal,
    StreamPipeline,
    build_isa,
    fit,
    forecast,
    forecast_density_at,
    isa_to_hmm_continuous,
    sample_event,
    sample_observation,
    score,
    sigma_fn,
    state_occupancies,
)

from sigauto import cli, forecasting, plugins
from sigauto.forecasting import SCORE_FLOOR, _scores

from conftest import E1, EVERY_STAT, build_plain, random_walk


class TestForecast:
    def test_e1_two_steps(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        fc = forecast(hmm, 2)
        assert not fc.is_dummy
        assert fc.step(1) == {"1": 1.0}
        assert fc.step(2) == {
            "1": pytest.approx(1 / 3, abs=1e-12),
            "5": pytest.approx(2 / 3, abs=1e-12),
        }

    def test_new_state_gives_dummy_point_masses(self, count_params):
        _, hmm = build_plain(Signal([1.0, 1.0, 5.0]), count_params)
        fc = forecast(hmm, 3)
        assert fc.is_dummy
        assert fc.steps == [{DUMMY_EVENT: 1.0}] * 3

    def test_zero_horizon(self, e1_signal, count_params):
        _, hmm = build_plain(e1_signal, count_params)
        fc = forecast(hmm, 0)
        assert fc.steps == [] and not fc.is_dummy

    @pytest.mark.parametrize("dummy", [False, True])
    def test_a_step_outside_one_to_the_horizon_is_refused(self, count_params, dummy):
        """The list index would wrap step 0 to the last step and step -1 to
        step h - 1, and step h + 1 would raise a bare IndexError."""
        _, hmm = build_plain(Signal(random_walk(40, seed=2)), count_params)
        fc = Forecast.dummy(3) if dummy else forecast(hmm, 3)
        assert [fc.step(j) for j in (1, 2, 3)] == fc.steps
        for j in (0, -1):
            with pytest.raises(ConfigError, match=f"forecast step must be >= 1, got {j}$"):
                fc.step(j)
        with pytest.raises(ConfigError, match="must be <= the horizon 3, got 4$"):
            fc.step(4)
        with pytest.raises(ConfigError, match="<= the horizon 0, got 1$"):
            forecast(hmm, 0).step(1)

    def test_period_two_signal_is_deterministic(self, count_params):
        values = [1.0 if k % 2 == 0 else 5.0 for k in range(12)]
        _, hmm = build_plain(Signal(values), count_params)
        assert forecast(hmm, 1).step(1) == {"1": 1.0}

    def test_normalization(self, count_params):
        for seed in range(5):
            _, hmm = build_plain(Signal(random_walk(200, seed=seed)), count_params)
            fc = forecast(hmm, 4)
            for step in fc.steps:
                assert sum(step.values()) == pytest.approx(1.0, abs=1e-9)

    def test_no_phantom_dummy_mass(self, count_params):
        for seed in range(5):
            _, hmm = build_plain(Signal(random_walk(200, seed=seed)), count_params)
            fc = forecast(hmm, 4)
            if not fc.is_dummy:
                for step in fc.steps:
                    assert step.get(DUMMY_EVENT, 0.0) == 0.0

    def test_dummy_iff_new(self, count_params):
        pipe = StreamPipeline(count_params)
        for value in random_walk(300, seed=9):
            pipe.advance(value)
            fc = forecast(pipe.hmm, 2)
            new_now = not pipe.isa.theta.has_outgoing(pipe.isa.current)
            assert fc.is_dummy == new_now


def test_iterative_propagation_equals_matrix_power(count_params):
    """Row-vector iteration agrees with an explicit dense matrix power."""
    for seed in range(6):
        values = random_walk(40, seed=seed, step=0.8)
        _, hmm = build_plain(Signal(values), count_params)
        states = list(hmm.states)
        if len(states) > 6:
            continue
        index = {s: k for k, s in enumerate(states)}
        T = np.zeros((len(states), len(states)))
        for s in states:
            for q, w in hmm.transition_row(s).items():
                T[index[s], index[q]] = w
        alpha = np.zeros(len(states))
        alpha[index[hmm.current]] = 1.0
        for j, occupancy in enumerate(state_occupancies(hmm, 4), start=1):
            dense = alpha @ np.linalg.matrix_power(T, j)
            sparse = np.array([occupancy.get(s, 0.0) for s in states])
            assert np.max(np.abs(dense - sparse)) < 1e-12


def propagated_from_alpha(model, horizon):
    """The occupancies of ``horizon`` steps propagated from the point mass on
    the current state, one sparse product per step."""
    occ, out = {model.current: 1.0}, []
    for _ in range(horizon):
        nxt = {}
        for s, w in occ.items():
            for q, t in model.transition_row(s).items():
                nxt[q] = nxt.get(q, 0.0) + w * t
        occ = nxt
        out.append(occ)
    return out


def hex_items(dist):
    return [(k, v.hex()) for k, v in dist.items()]


@pytest.mark.parametrize("emission", ["discrete", "continuous"])
@pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
def test_the_first_occupancy_is_a_copy_of_the_current_row(stat, emission):
    """Step 1 is the current state's transition row, in its key order and
    bit for bit, but never the model's cached row object; every step equals
    propagating the point mass on the current state."""
    pipe = StreamPipeline(PluginParams(grid_width=0.5, **stat), emission=emission)
    for obs in random_walk(300, seed=4):
        pipe.advance(obs)
        model = pipe.hmm
        occupancies = state_occupancies(model, 3)
        row = model.transition_row(model.current)
        assert hex_items(occupancies[0]) == hex_items(row)
        assert occupancies[0] is not row
        assert ([hex_items(o) for o in occupancies]
                == [hex_items(o) for o in propagated_from_alpha(model, 3)])
        occupancies[0]["changed"] = 1.0  # a caller's copy, not the model's row
        assert "changed" not in model.transition_row(model.current)
    assert state_occupancies(pipe.hmm, 0) == []


class TestForecastDensity:
    def make_continuous(self, values, params, kernel):
        sig = Signal(values)
        isa = build_isa(sig, EmaGridClassifier(params))
        return sig, isa_to_hmm_continuous(isa, sig, sigma_fn(params), kernel)

    def test_e1_density_at_one(self, count_params):
        sig, hmm = self.make_continuous(E1, count_params, Kernel([[1.0]]))
        value = forecast_density_at(hmm, sig, 1, (1.0,))
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_dummy_model_gives_zero_density(self, count_params):
        sig, hmm = self.make_continuous((1.0, 1.0, 5.0), count_params, Kernel([[1.0]]))
        assert hmm.current_is_new
        for x in (-4.0, 0.0, 5.0):
            assert forecast_density_at(hmm, sig, 2, (x,)) == 0.0

    def test_quadrature_matches_real_state_mass(self, count_params):
        sig, hmm = self.make_continuous(random_walk(80, seed=3), count_params,
                                        Kernel([[0.5]]))
        for j in (1, 3):
            occupancy = state_occupancies(hmm, j)[-1]
            real_mass = sum(w for s, w in occupancy.items() if s != DUMMY_STATE)
            lo = min(x[0] for x in sig) - 8.0
            hi = max(x[0] for x in sig) + 8.0
            grid = np.linspace(lo, hi, 3001)
            density = [forecast_density_at(hmm, sig, j, (x,)) for x in grid]
            assert np.trapezoid(density, grid) == pytest.approx(real_mass, abs=1e-3)

    def test_step_must_be_positive(self, count_params):
        sig, hmm = self.make_continuous(random_walk(40, seed=2), count_params,
                                        Kernel([[1.0]]))
        for j in (0, -1):
            message = f"forecast step must be >= 1, got {j}$"
            with pytest.raises(ConfigError, match=message):
                forecast_density_at(hmm, sig, j, (1.0,))
            with pytest.raises(ConfigError, match=message):
                sample_observation(hmm, j, seed=7)

    def test_a_kernel_of_another_dimension_is_refused(self, count_params):
        """A passed kernel is checked as the model's own is: a 1-d kernel on a
        2-d model would flatten each centre into two 1-d ones."""
        sig = Signal(random_walk(60, dim=2, seed=4))
        hmm = isa_to_hmm_continuous(build_isa(sig, EmaGridClassifier(count_params)), sig,
                                    sigma_fn(count_params), None)
        kernel = Kernel([[1.0]])
        message = "kernel dimension 1 does not match signal dimension 2$"
        reads = [lambda: hmm.density(hmm.current, (1.0,), kernel),
                 lambda: forecast_density_at(hmm, sig, 1, (1.0,), kernel=kernel),
                 lambda: sample_observation(hmm, 1, seed=7, kernel=kernel)]
        for read in reads:
            with pytest.raises(ConfigError, match=message):
                read()

    @pytest.mark.parametrize("x", [(1.0,), (1.0, 2.0, 3.0)])
    def test_a_point_of_another_dimension_is_refused(self, count_params, x):
        """The model's density read refuses a point as the forecast does,
        for any state and with either kernel; so does a forecast whose
        occupancy is the dummy state alone, which reads no density."""
        sig = Signal(random_walk(60, dim=2, seed=4))
        hmm = isa_to_hmm_continuous(build_isa(sig, EmaGridClassifier(count_params)), sig,
                                    sigma_fn(count_params), None)
        message = f"point has dimension {len(x)}, kernel has 2$"
        for q in (hmm.current, DUMMY_STATE):
            for kernel in (None, Kernel([[1.0, 0.0], [0.0, 1.0]])):
                with pytest.raises(ConfigError, match=message):
                    hmm.density(q, x, kernel)
                with pytest.raises(ConfigError, match=message):
                    forecast_density_at(hmm, sig, 1, x, kernel=kernel)
        sig, dummy = self.make_continuous((1.0, 1.0, 5.0), count_params, Kernel([[1.0]]))
        assert set(state_occupancies(dummy, 2)[-1]) == {DUMMY_STATE}
        with pytest.raises(ConfigError, match="point has dimension 2, kernel has 1$"):
            forecast_density_at(dummy, sig, 2, (1.0, 2.0))


class TestSampling:
    def test_point_mass(self):
        for seed in range(20):
            assert sample_event({"c1": 1.0}, seed) == "c1"

    def test_same_seed_same_sample(self):
        dist = {"1": 1 / 3, "5": 2 / 3}
        assert sample_event(dist, 123) == sample_event(dist, 123)

    def test_empirical_frequency(self):
        dist = {"1": 1 / 3, "5": 2 / 3}
        counts = Counter(sample_event(dist, seed) for seed in range(5000))
        assert counts["5"] / 5000 == pytest.approx(2 / 3, abs=0.02)

    def test_empty_distribution(self):
        with pytest.raises(EmptyInputError):
            sample_event({}, 0)

    def test_observation_sampling_deterministic(self, count_params):
        sig = Signal(E1)
        isa = build_isa(sig, EmaGridClassifier(count_params))
        hmm = isa_to_hmm_continuous(isa, sig, sigma_fn(count_params), Kernel([[1.0]]))
        a = sample_observation(hmm, 1, seed=42)
        b = sample_observation(hmm, 1, seed=42)
        assert a == b
        assert len(a) == 1


class TestScore:
    def test_period_two_scores_zero_after_warmup(self, count_params):
        values = [1.0 if k % 2 == 0 else 5.0 for k in range(30)]
        assert score(count_params, Signal(values), 4, 29) == pytest.approx(0.0, abs=0)

    def test_all_dummy_window_hits_floor(self, count_params):
        # strictly monotone: every state is new, every forecast dummy
        values = [float(k) for k in range(12)]
        value = score(count_params, Signal(values), 2, 10)
        assert value == pytest.approx(math.log(SCORE_FLOOR), rel=1e-12)

    def test_translation_invariance_of_labels(self, count_params):
        # shifting by a whole number of cells relabels every state but cannot
        # change any probability
        base = [1.0 if k % 2 == 0 else 5.0 for k in range(40)]
        shifted = [v + 100.0 for v in base]
        a = score(count_params, Signal(base), 5, 39)
        b = score(count_params, Signal(shifted), 5, 39)
        assert a == pytest.approx(b, abs=0)

    def test_window_validation(self, count_params):
        with pytest.raises(RejectedInputError):
            score(count_params, Signal(E1), 3, 3)
        with pytest.raises(RejectedInputError):
            score(count_params, Signal(E1), 0, 9)


def two_regime_signal():
    """First half alternates 1/5, second half alternates 1/9."""
    values = []
    for k in range(60):
        values.append(1.0 if k % 2 == 0 else 5.0)
    for k in range(60):
        values.append(1.0 if k % 2 == 0 else 9.0)
    return Signal(values)


def walk_signal():
    return Signal(random_walk(240, seed=5))


def replayed_score(params, signal, start, stop):
    """The per-entry reference: an independent pipeline per entry and a full
    one-step forecast at every scored instant."""
    pipe = StreamPipeline(params)
    total = 0.0
    for i in range(stop):
        pipe.advance(signal[i])
        if i >= start:
            fc = forecast(pipe.hmm, 1)
            p = 0.0 if fc.is_dummy else fc.step(1).get(
                pipe.clusterer.label_of(signal[i + 1]), 0.0)
            total += math.log(max(p, SCORE_FLOOR))
    return total / (stop - start)


# three (lambda, grid_width) groups, one differing from the first in lambda
# alone and one in grid_width alone, interleaved in grid order; the last entry
# differs from the first only in horizon
GROUPS = ({"lam": 1.0, "grid_width": 1.0}, {"lam": 0.5, "grid_width": 1.0},
          {"lam": 1.0, "grid_width": 0.5})
THREE_GROUPS = [PluginParams(**GROUPS[k % 3], **stat) for k, stat in enumerate(EVERY_STAT)]
THREE_GROUPS.append(PluginParams(**GROUPS[0], **EVERY_STAT[0], horizon=3))


class TestFit:
    def test_discounting_wins_after_regime_change(self):
        grid = [
            PluginParams(delta=0.0, stat_variant="count"),
            PluginParams(delta=0.9, stat_variant="discounted_sum"),
        ]
        report = fit(grid, two_regime_signal(), split=80)
        assert report.scores[1] > report.scores[0]
        assert report.best_index == 1
        assert report.best is grid[1]

    def test_single_entry_grid(self, count_params):
        report = fit([count_params], two_regime_signal(), split=40)
        assert report.best_index == 0

    def test_permutation_permutes_scores(self):
        grid = [
            PluginParams(delta=0.0, stat_variant="count"),
            PluginParams(delta=0.9, stat_variant="discounted_sum"),
        ]
        signal = two_regime_signal()
        forward = fit(grid, signal, split=80)
        backward = fit(list(reversed(grid)), signal, split=80)
        assert forward.scores == list(reversed(backward.scores))

    def test_grouped_fit_equals_each_entry_scored_alone(self):
        signal = walk_signal()
        n = signal.last_instant
        grid = THREE_GROUPS
        report = fit(grid, signal, split=n // 2)
        assert report.scores == [score(p, signal, n // 2, n) for p in grid]
        assert report.scores == [replayed_score(p, signal, n // 2, n) for p in grid]
        assert len(set(report.scores)) == len(EVERY_STAT)
        assert report.scores[-1] == report.scores[0]

    def test_ties_break_toward_the_earlier_entry(self):
        signal = walk_signal()
        first = PluginParams(stat_variant="discounted_sum", delta=0.5)
        other = PluginParams(lam=0.5, grid_width=0.5)
        longer = PluginParams.from_dict({**first.to_dict(), "horizon": 2})
        for grid in ([first, longer], [longer, first]):
            assert fit(grid, signal, split=100).best_index == 0
        report = fit([first, other, longer], signal, split=100)
        assert report.scores[0] == report.scores[2]
        assert report.best_index == (0 if report.scores[0] >= report.scores[1] else 1)

    ONE_GROUP = [PluginParams(stat_variant="count")] + [
        PluginParams(stat_variant="discounted_sum", delta=d) for d in (0.5, 0.9, 0.99)]
    TWO_GROUPS = [PluginParams(), PluginParams(lam=0.5),
                  PluginParams(stat_variant="discounted_sum", delta=0.5),
                  PluginParams(lam=0.5, stat_variant="region_count", region=[[-1, 2]])]

    @pytest.mark.parametrize("grid, passes", [(ONE_GROUP, 1), (TWO_GROUPS, 2)])
    def test_one_classifier_pass_per_group(self, monkeypatch, grid, passes):
        steps = []
        real = EmaGridClassifier.step

        def counted(classifier, obs):
            steps.append(obs)
            return real(classifier, obs)

        monkeypatch.setattr(EmaGridClassifier, "step", counted)
        signal = walk_signal()
        _scores(grid, signal, 100, signal.last_instant)
        # a pass consumes instants 0..n-1; observation n is only scored
        assert len(steps) == passes * signal.last_instant

    def test_cell_lookups_do_not_grow_with_the_group(self, monkeypatch):
        """Every model of a group clusters the same stored row, so each
        instant's row is indexed once however many entries the group has."""
        calls = []
        real = plugins.cell_index

        def counted(coords, widths):
            calls.append(coords)
            return real(coords, widths)

        monkeypatch.setattr(plugins, "cell_index", counted)
        signal = walk_signal()
        counts = []
        for k in (1, 2, 4):
            calls.clear()
            _scores(self.ONE_GROUP[:k], signal, 100, signal.last_instant)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]

    def test_empty_grid(self):
        with pytest.raises(EmptyInputError):
            fit([], two_regime_signal(), split=80)

    def test_split_validation(self, count_params):
        with pytest.raises(RejectedInputError):
            fit([count_params], Signal(E1), split=0)


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedFit:
    """``fit`` scores its chunks in forked children, one process per CPU the
    process may use (here set through ``os.sched_getaffinity``), and each
    score, error and exit is the serial one."""

    WIDE_REGION = PluginParams(stat_variant="region_count", region=[[-1, 2], [-1, 2]])

    @pytest.fixture
    def forks(self, monkeypatch):
        """Set the CPU count with ``cpus(k)``; ``calls`` lists each fork."""
        calls = []
        real = os.fork

        def counted():
            calls.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", counted)

        def cpus(k):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        return calls, cpus

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("grid", [THREE_GROUPS, TestFit.TWO_GROUPS],
                             ids=["three_groups", "two_groups"])
    def test_scores_are_the_serial_bits(self, forks, cpus, grid):
        calls, set_cpus = forks
        set_cpus(cpus)
        signal = walk_signal()
        n = signal.last_instant
        report = fit(grid, signal, split=n // 2)
        serial = _scores(grid, signal, n // 2, n)
        assert [s.hex() for s in report.scores] == [s.hex() for s in serial]
        assert calls == [os.getpid()] * (min(cpus, len(grid)) - 1)
        assert no_child_left()

    def test_a_caller_with_threads_forks_nothing(self, forks):
        calls, set_cpus = forks
        set_cpus(4)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            signal = walk_signal()
            report = fit(TestFit.TWO_GROUPS, signal, split=100)
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert calls == []
        assert report.scores == _scores(TestFit.TWO_GROUPS, signal, 100,
                                        signal.last_instant)

    def test_a_platform_without_affinity_forks_nothing(self, forks, monkeypatch):
        calls, _ = forks
        monkeypatch.delattr(os, "sched_getaffinity")
        fit(TestFit.TWO_GROUPS, walk_signal(), split=100)
        assert calls == []

    # With 2 CPUs the caller scores entries 0..2 of five, with 4 entries 0..1.
    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("bad", [{1: WIDE_REGION}, {4: WIDE_REGION},
                                     {1: WIDE_REGION, 4: PluginParams(grid_width=[1.0, 1.0])}],
                             ids=["in_the_callers_chunk", "in_a_childs_chunk",
                                  "serial_order_of_two"])
    def test_an_entry_error_is_the_serial_one(self, forks, cpus, bad):
        _, set_cpus = forks
        set_cpus(cpus)
        grid = list(TestFit.ONE_GROUP)
        for at, params in bad.items():
            grid.insert(at, params)
        signal = walk_signal()
        with pytest.raises(ConfigError) as serial:
            _scores(grid, signal, 100, signal.last_instant)
        with pytest.raises(ConfigError) as forked:
            fit(grid, signal, split=100)
        assert str(forked.value) == str(serial.value)
        assert no_child_left()

    def test_an_entry_error_exits_2_without_a_report(self, forks, tmp_path, capsys):
        _, set_cpus = forks
        set_cpus(2)
        rows, config, out = tmp_path / "in.csv", tmp_path / "grid.json", tmp_path / "fit.json"
        rows.write_text("".join(f"{x!r}\n" for (x,) in random_walk(240, seed=5)))
        config.write_text(json.dumps({"grid": [
            {"stat_variant": "count"}, {"stat_variant": "discounted_sum", "delta": 0.5},
            {"stat_variant": "region_count", "region": [[-1, 2], [-1, 2]]}]}))
        assert cli.main(["fit", "--input", str(rows), "--config", str(config),
                         "--output", str(out)]) == 2
        assert "2 axes" in capsys.readouterr().err
        assert not out.exists()
        assert no_child_left()

    @pytest.mark.parametrize("failing_call", [1, 2])
    def test_a_failed_fork_scores_serially(self, monkeypatch, forks, failing_call):
        _, set_cpus = forks
        set_cpus(4)
        forking = os.fork
        calls = []

        def fork():
            calls.append(1)
            if len(calls) == failing_call:
                raise OSError(11, "Resource temporarily unavailable")
            return forking()

        monkeypatch.setattr(os, "fork", fork)
        signal = walk_signal()
        report = fit(THREE_GROUPS, signal, split=100)
        assert report.scores == _scores(THREE_GROUPS, signal, 100, signal.last_instant)
        assert len(calls) == failing_call
        assert no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "exits_without_a_result", "is_killed"])
    def test_a_failed_child_scores_serially(self, monkeypatch, forks, failure):
        _, set_cpus = forks
        set_cpus(2)
        parent, real = os.getpid(), forecasting._scores

        def scores(*args):
            if os.getpid() != parent:
                if failure == "raises":
                    raise MemoryError
                if failure == "exits_without_a_result":
                    os._exit(0)
                os.kill(os.getpid(), signal_module.SIGKILL)
            return real(*args)

        monkeypatch.setattr(forecasting, "_scores", scores)
        signal = walk_signal()
        report = fit(TestFit.TWO_GROUPS, signal, split=100)
        assert report.scores == real(TestFit.TWO_GROUPS, signal, 100, signal.last_instant)
        assert no_child_left()

    def test_an_interrupt_in_the_caller_kills_every_child(self, monkeypatch, forks):
        """The children would sleep for a minute; ``fit`` kills them instead
        of waiting."""
        _, set_cpus = forks
        set_cpus(4)
        parent = os.getpid()

        def scores(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(forecasting, "_scores", scores)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fit(THREE_GROUPS, walk_signal(), split=100)
        assert time.monotonic() - started < 30
        assert no_child_left()
