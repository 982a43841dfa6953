import copy
import gc
import math
import pickle
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from sigauto import (
    Clusterer,
    ConfigError,
    EmaGridClassifier,
    EmptyInputError,
    Kernel,
    LookaheadWordClassifier,
    PluginParams,
    RejectedInputError,
    Signal,
    StatAccumulator,
    StatFn,
    TemporalOrderError,
    build_isa,
    default_bandwidth,
    sigma_fn,
)

from sigauto import plugins

from conftest import E1


def scratch_label(params, signal):
    """From-scratch classification of a whole prefix: the current state of a
    fresh automaton build."""
    return build_isa(signal, EmaGridClassifier(params)).current


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"delta": 1.0},
        {"delta": -0.1},
        {"lam": 0.0},
        {"lam": 1.5},
        {"grid_width": 0.0},
        {"grid_width": -1.0},
        {"grid_width": "12"},
        {"stat_variant": "nonsense"},
        {"horizon": -1},
        {"region": [[2.0, 1.0]]},
        {"region": [[True, 2]]},
        {"bandwidth": [[True]]},
        {"bandwidth": [["1"]]},
        {"grid_width": ["1", "2"]},
        {"grid_width": math.nan},
        {"grid_width": math.inf},
        {"grid_width": [1.0, math.nan]},
        {"bandwidth": math.inf},
        {"bandwidth": math.nan},
        {"bandwidth": [[math.inf]]},
    ])
    def test_out_of_range_values(self, kwargs):
        with pytest.raises(ConfigError):
            PluginParams(**kwargs)

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            PluginParams.from_dict({"lambda": 1.0, "weird": 3})

    def test_round_trip(self):
        params = PluginParams(lam=0.5, grid_width=(1.0, 2.0), delta=0.9,
                              stat_variant="discounted_sum", horizon=3)
        assert PluginParams.from_dict(params.to_dict()) == params
        for params in (PluginParams(grid_width=0.5),
                       PluginParams(stat_variant="region_count", region=[[0, 1], [-2, 2]]),
                       PluginParams(bandwidth=[[1.0, 0.5], [0.5, 2.0]])):
            assert PluginParams.from_dict(params.to_dict()) == params

    def test_fields_cannot_be_assigned_or_deleted(self):
        params = PluginParams(lam=0.5)
        with pytest.raises(AttributeError):
            params.lam = 1.0
        with pytest.raises(AttributeError):
            params.extra = 1.0
        with pytest.raises(AttributeError):
            del params.horizon
        assert params == PluginParams(lam=0.5)

    def test_hashes_and_compares_by_its_fields(self):
        a = PluginParams(lam=0.5, grid_width=[1, 2], horizon=2)
        b = PluginParams(lam=0.5, grid_width=(1.0, 2.0), horizon=2)
        assert a == b and a is not b and len({a, b}) == 1
        assert hash(a) == hash((0.5, (1.0, 2.0), 0.0, "count", None, "scott", 2))
        assert a != PluginParams(lam=0.5, grid_width=(1.0, 2.0), horizon=3)
        assert a != (0.5, (1.0, 2.0), 0.0, "count", None, "scott", 2)

    def test_repr_names_every_field(self):
        params = PluginParams(lam=0.5, grid_width=[1, 2], region=[[0, 1], [2, 3]])
        assert repr(params) == (
            "PluginParams(lam=0.5, grid_width=(1.0, 2.0), delta=0.0, stat_variant='count', "
            "region=((0.0, 1.0), (2.0, 3.0)), bandwidth='scott', horizon=1)")

    def test_copies_and_pickles_equal(self):
        params = PluginParams(lam=0.5, grid_width=[1, 2], bandwidth=[[1, 0], [0, 1]])
        assert copy.copy(params) == params
        assert copy.deepcopy(params) == params
        assert pickle.loads(pickle.dumps(params)) == params


class TestEmaGridClassifier:
    def test_lam_one_is_quantized_last_value(self):
        params = PluginParams(lam=1.0, grid_width=1.0)
        assert scratch_label(params, Signal([1.0, 1.0, 5.0])) == "5"

    def test_ema_recurrence(self):
        # e = 0.5*3 + 0.5*1 = 2
        params = PluginParams(lam=0.5, grid_width=1.0)
        assert scratch_label(params, Signal([1.0, 3.0])) == "2"

    def test_base_case(self):
        params = PluginParams(lam=0.5, grid_width=1.0)
        assert scratch_label(params, Signal([1.3])) == "1"

    def test_step_sequence_on_e1(self, count_params):
        handle = EmaGridClassifier(count_params)
        labels = [handle.step(obs) for obs in Signal(E1)]
        assert labels == ["1", "1", "5", "1", "5"]

    def test_empty_signal(self, count_params):
        with pytest.raises(EmptyInputError):
            scratch_label(count_params, Signal())


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
    lam=st.floats(min_value=0.05, max_value=1.0),
    width=st.sampled_from([0.5, 1.0, 3.0]),
)
def test_precursor_consistency(values, lam, width):
    """The incremental fold equals the from-scratch classification on every
    prefix."""
    params = PluginParams(lam=lam, grid_width=width)
    handle = EmaGridClassifier(params)
    for k, obs in enumerate(Signal(values)):
        stepped = handle.step(obs)
        assert stepped == scratch_label(params, Signal(values[: k + 1]))


class TestLookaheadWord:
    def test_two_letter_word(self):
        params = PluginParams(grid_width=1.0, horizon=2)
        assert LookaheadWordClassifier(params).step(None, ((5.0,), (1.0,))) == "5|1"

    def test_single_letter_word(self):
        params = PluginParams(grid_width=1.0, horizon=1)
        assert LookaheadWordClassifier(params).step(None, ((5.0,),)) == "5"

    def test_wrong_window_length(self):
        params = PluginParams(grid_width=1.0, horizon=2)
        with pytest.raises(RejectedInputError):
            LookaheadWordClassifier(params).step(None, ((5.0,),))

    def test_reset_forgets_the_dimension(self):
        classifier = LookaheadWordClassifier(PluginParams(grid_width=1.0, horizon=1))
        assert classifier.step(None, ((5.0,),)) == "5"
        classifier.reset()
        assert classifier.step(None, ((5.0, 1.0),)) == "(5,1)"


class TestStatEval:
    def test_count(self, count_params):
        sig = Signal(E1)
        assert sigma_fn(count_params).eval(sig, {2, 4}, now=4) == 2.0

    def test_discounted_sum(self):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        assert sigma_fn(params).eval(Signal(E1), {2, 4}, now=4) == pytest.approx(1.25, abs=0)

    def test_discounted_complement(self):
        # k - sum(delta**(now - i)) = 2 - 1.25
        params = PluginParams(delta=0.5, stat_variant="discounted_complement")
        assert sigma_fn(params).eval(Signal(E1), {2, 4}, now=4) == pytest.approx(0.75, abs=0)

    def test_empty_set(self):
        for variant in ("count", "discounted_sum", "region_count"):
            params = PluginParams(delta=0.5, stat_variant=variant)
            assert sigma_fn(params).eval(Signal(E1), set(), now=4) == 0.0

    def test_latest_occurrence(self):
        params = PluginParams(stat_variant="latest_occurrence", region=[[4.0, 6.0]])
        sig = Signal(E1)  # observations 5.0 at instants 2 and 4
        assert sigma_fn(params).eval(sig, {0, 1, 2, 3, 4}, now=4) == 4.0
        assert sigma_fn(params).eval(sig, {0, 1, 3}, now=4) == 0.0

    def test_region_count(self):
        params = PluginParams(stat_variant="region_count", region=[[0.5, 1.5]])
        assert sigma_fn(params).eval(Signal(E1), {0, 1, 2}, now=4) == 2.0

    def test_future_instant_rejected(self, count_params):
        with pytest.raises(TemporalOrderError):
            sigma_fn(count_params).eval(Signal(E1), {5}, now=4)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown stat variant 'bogus'"):
            StatFn("bogus")


class TestStatAccumulators:
    def test_count_step(self, count_params):
        fn = sigma_fn(count_params)
        acc = StatAccumulator(value=2.0, last_now=3, raw_count=2)
        fn.step(acc, (1.0,), 3)
        assert fn.read(acc, 3) == 3.0

    def test_discounted_step_adds_one(self):
        fn = sigma_fn(PluginParams(delta=0.5, stat_variant="discounted_sum"))
        acc = StatAccumulator(value=1.25, last_now=4, raw_count=2)
        fn.step(acc, (1.0,), 4)
        assert fn.read(acc, 4) == pytest.approx(2.25, abs=0)

    def test_tick_discounts(self):
        params = PluginParams(delta=0.5, stat_variant="discounted_sum")
        acc = StatAccumulator(value=1.25, last_now=4, raw_count=2)
        sigma_fn(params).advance(acc, acc.last_now + 1)
        assert acc.value == pytest.approx(0.625, abs=0)
        assert acc.last_now == 5

    def test_tick_keeps_count(self, count_params):
        fn = sigma_fn(count_params)
        acc = StatAccumulator(value=3.0, last_now=0, raw_count=3)
        fn.advance(acc, acc.last_now + 1)
        assert fn.read(acc, 1) == 3.0

    def test_fold_matches_eval(self):
        fn = sigma_fn(PluginParams(delta=0.5, stat_variant="discounted_sum"))
        sig = Signal(E1)
        acc = StatAccumulator()
        fn.step(acc, sig[2], 2)
        fn.step(acc, sig[4], 4)
        assert fn.read(acc, 4) == pytest.approx(fn.eval(sig, {2, 4}, now=4), rel=1e-12)

    def test_two_ticks_equal_reading_later(self):
        fn = sigma_fn(PluginParams(delta=0.3, stat_variant="discounted_sum"))
        ticked = StatAccumulator(value=1.0, last_now=2, raw_count=1)
        fn.advance(ticked, ticked.last_now + 1)
        fn.advance(ticked, ticked.last_now + 1)
        lazy = StatAccumulator(value=1.0, last_now=2, raw_count=1)
        assert ticked.value == pytest.approx(fn.read(lazy, 4), rel=1e-9)

    def test_out_of_order_instant(self, count_params):
        acc = StatAccumulator(value=1.0, last_now=5, raw_count=1)
        with pytest.raises(TemporalOrderError):
            sigma_fn(count_params).step(acc, (1.0,), 4)

    @pytest.mark.parametrize("variant", plugins.STAT_VARIANTS)
    def test_read_before_the_accumulator_time(self, variant):
        fn = StatFn(variant, delta=0.5, region=[[-1.0, 2.0]])
        acc = StatAccumulator(value=1.0, last_now=5, raw_count=1)
        with pytest.raises(TemporalOrderError, match="read at 4 precedes accumulator time 5$"):
            fn.read(acc, 4)
        assert (acc.value, acc.last_now, acc.raw_count) == (1.0, 5, 1)


@settings(max_examples=60, deadline=None)
@given(
    instants=st.lists(st.integers(min_value=0, max_value=30), min_size=0,
                      max_size=15, unique=True),
    delta=st.floats(min_value=0.0, max_value=0.99),
    variant=st.sampled_from([
        "count", "discounted_sum", "discounted_complement", "region_count",
        "latest_occurrence",
    ]),
    extra_ticks=st.integers(min_value=0, max_value=5),
)
def test_accumulator_fold_equals_eval(instants, delta, variant, extra_ticks):
    """Stepping through a set plus ticking equals direct evaluation, within
    1e-9 relative error."""
    region = [[-10.0, 10.0]] if variant in ("region_count", "latest_occurrence") else None
    fn = StatFn(variant, delta=delta, region=region)
    sig = Signal([float(k % 21 - 10) for k in range(31)])
    instants = sorted(instants)
    acc = fn.new_acc()
    for i in instants:
        fn.step(acc, sig[i], i)
    now = (instants[-1] if instants else 0) + extra_ticks
    for _ in range(extra_ticks):
        fn.advance(acc, acc.last_now + 1)
    expected = fn.eval(sig, instants, now)
    assert fn.read(acc, now) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def step_as_before(fn, acc, obs, instant):
    """The step that ``step_gain`` replaced, kept as the reference: read,
    catch the value up with ``advance``, add the instant, read again."""
    before = fn.read(acc, instant)
    if instant < acc.last_now:
        raise TemporalOrderError(f"instant {instant} precedes accumulator time {acc.last_now}")
    fn.advance(acc, instant)
    acc.raw_count += 1
    if fn.variant == "count":
        acc.value = float(acc.raw_count)
    elif fn.variant == "discounted_sum":
        acc.value += 1.0
    elif fn.variant == "region_count" and fn._in_region(obs):
        acc.value += 1.0
    elif fn.variant == "latest_occurrence" and fn._in_region(obs):
        acc.value = float(instant)
    return fn.read(acc, instant) - before


def bits(acc):
    return (acc.value.hex(), acc.last_now, acc.raw_count)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from([
        "count", "discounted_sum", "discounted_complement", "region_count",
        "latest_occurrence",
    ]),
    delta=st.sampled_from([0.0, 0.5, 0.9]) | st.floats(min_value=0.0, max_value=0.999),
    start=st.integers(min_value=0, max_value=5),
    steps=st.lists(st.tuples(st.sampled_from([0, 0, 1, 2, 7, 400, 8_000]),
                             st.floats(min_value=-3.0, max_value=3.0)),
                   min_size=1, max_size=25),
)
def test_one_call_step_matches_the_old_sequence(variant, delta, start, steps):
    """``step_gain`` leaves the accumulator and returns the gain, bit for
    bit, that read / advance-and-add / read did, over gaps of 0 (a cell
    stepped twice at one instant), underflowing gaps and delta 0; ``step``
    leaves the same accumulator; a step back in time raises the same
    ``TemporalOrderError`` and changes nothing."""
    fn = StatFn(variant, delta=delta, region=[[-1.0, 2.0]])
    acc, ref, stepped = fn.new_acc(now=start), fn.new_acc(now=start), fn.new_acc(now=start)
    instant = start
    for gap, x in steps:
        instant += gap
        obs = (x,)
        assert fn.step_gain(acc, obs, instant).hex() == step_as_before(fn, ref, obs, instant).hex()
        assert fn.step(stepped, obs, instant) is stepped
        assert bits(acc) == bits(ref) == bits(stepped)
    if instant > 0:
        for step in (fn.step_gain, fn.step):
            with pytest.raises(TemporalOrderError) as caught:
                step(acc, (0.0,), instant - 1)
            assert str(caught.value) == f"instant {instant - 1} precedes accumulator time {instant}"
            assert bits(acc) == bits(ref)


class TestClusterer:
    def test_unit_grid(self):
        clusterer = Clusterer(1.0)
        assert clusterer.cluster_of((1.3,)) == "1"
        assert clusterer.cluster_of((-0.2,)) == "-1"

    def test_multidim_half_width(self):
        clusterer = Clusterer(0.5)
        assert clusterer.cluster_of((1.3, 2.0)) == "(2,4)"

    def test_registration_grows_monotonically(self):
        clusterer = Clusterer(1.0)
        clusterer.cluster_of((1.0,))
        clusterer.cluster_of((5.0,))
        clusterer.cluster_of((1.0,))
        assert list(clusterer.observed) == ["1", "5"]

    def test_center_lies_in_its_cell(self):
        clusterer = Clusterer(0.5)
        label = clusterer.cluster_of((1.3, 2.0))
        assert clusterer.label_of(clusterer.center(label)) == label


@settings(max_examples=80, deadline=None)
@given(calls=st.lists(
    st.tuples(st.sampled_from(["label_of", "cluster_of"]),
              st.sampled_from(["same", "twin", "new"]),
              st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3)),
    min_size=1, max_size=30))
def test_last_row_memo_is_coherent(calls):
    """Mixed ``label_of``/``cluster_of`` calls on the same row again, on an
    equal but distinct row and on a new row give the labels and the observed
    alphabet of a clusterer that sees a new object at each call."""
    memo, fresh = Clusterer(0.5), Clusterer(0.5)
    obs = (0.0, 0.0)
    for method, form, x, y in calls:
        if form == "twin":
            obs = tuple(list(obs))
        elif form == "new":
            obs = (x, y)
        # "same" passes the previous object again
        got = getattr(memo, method)(obs)
        assert got == getattr(fresh, method)(tuple(list(obs)))
        assert memo.observed == fresh.observed
        assert list(memo.observed) == list(fresh.observed)


# A coordinate in each form a row may be appended with; each is stored as
# its float (-0.0 included).
COORDS = st.one_of(
    st.floats(min_value=-6, max_value=6),
    st.integers(-6, 6),
    st.floats(min_value=-6, max_value=6).map(np.float64),
    st.integers(-6, 6).map(np.int64),
    st.floats(min_value=-6, max_value=6, width=32).map(np.float32),
)


def rows(dim):
    """Rows of ``dim`` coordinates as a ``Signal`` stores them, appended as
    tuples, lists and, in 1-d, bare numbers."""
    coords = st.lists(COORDS, min_size=dim, max_size=dim)
    bare = st.one_of(st.floats(min_value=-6, max_value=6), st.integers(-6, 6))
    given = st.one_of(coords.map(tuple), coords, *([bare] if dim == 1 else []))
    return given.map(lambda row: Signal([row])[0])


def outcome(call, *args):
    """What ``call`` returns, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (RejectedInputError, ConfigError) as exc:
        return type(exc), str(exc)


def flood(labelled, dim):
    """Label more distinct rows than a clusterer's memo holds (its bound is
    32), so that the rows labelled before must be labelled again."""
    for j in range(100):
        labelled((1000.0 + 0.5 * j,) * dim)


def reachable(obj):
    """Every object reachable from ``obj`` through references, except
    classes and modules."""
    seen, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type) or type(o).__name__ == "module":
            continue
        seen[id(o)] = o
        stack.extend(gc.get_referents(o))
    return list(seen.values())


class TestRowMemo:
    """A clusterer or word classifier that has labelled rows before gives
    the labels, words, observed alphabet and centres of a fresh one."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), width=st.sampled_from([0.5, 1.0, 2.5]))
    def test_warm_clusterer_equals_a_fresh_one(self, data, dim, width):
        pool = data.draw(st.lists(rows(dim), min_size=1, max_size=6))
        calls = data.draw(st.lists(
            st.tuples(st.integers(0, len(pool) - 1),
                      st.sampled_from(["label_of", "cluster_of", "center", "flood"])),
            min_size=1, max_size=25))
        warm, observed = Clusterer(width), {}
        for k, method in calls:
            row = pool[k]
            if method == "flood":
                flood(warm.label_of, dim)
                continue
            label = outcome(Clusterer(width).label_of, row)
            if method != "center":
                assert outcome(getattr(warm, method), row) == label
            elif isinstance(label, str):
                ref = Clusterer(width)
                if label in observed:
                    ref.cluster_of(row)
                assert outcome(warm.center, label) == outcome(ref.center, label)
            if method == "cluster_of" and isinstance(label, str):
                ref = Clusterer(width)
                ref.cluster_of(row)
                observed.setdefault(label, ref.observed[label])
            assert warm.observed == observed
            assert list(warm.observed) == list(observed)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), width=st.sampled_from([0.5, 1.0]),
           h=st.sampled_from([1, 2, 3]))
    def test_warm_word_classifier_equals_a_fresh_one(self, data, dim, width, h):
        params = PluginParams(grid_width=width, horizon=h)
        pool = data.draw(st.lists(rows(dim), min_size=1, max_size=6))
        windows = data.draw(st.lists(
            st.one_of(st.just("flood"), st.lists(st.integers(0, len(pool) - 1),
                                                 min_size=h, max_size=h)),
            min_size=1, max_size=20))
        warm = LookaheadWordClassifier(params)
        for window in windows:
            if window == "flood":
                flood(lambda row: warm.step(None, (row,) * h), dim)
                continue
            future = tuple(pool[k] for k in window)
            fresh = LookaheadWordClassifier(params)
            assert outcome(warm.step, None, future) == outcome(fresh.step, None, future)

    def test_ten_thousand_distinct_rows_leave_at_most_the_bound(self):
        clusterer = Clusterer(1.0)
        fed = {(0.37 * k,) for k in range(10_000)}
        for row in fed:
            clusterer.cluster_of(row)
        held = [o for o in reachable(clusterer)  # not the cells, int tuples
                if type(o) is tuple and type(o[0]) is float and o in fed]
        assert len(held) <= 32  # the memo's bound


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-100, max_value=100, allow_nan=False),
    b=st.floats(min_value=-100, max_value=100, allow_nan=False),
    width=st.sampled_from([0.5, 1.0, 2.5]),
)
def test_cluster_partition(a, b, width):
    """Same cell if and only if same per-coordinate floor indices."""
    clusterer = Clusterer(width)
    same_label = clusterer.cluster_of((a,)) == clusterer.cluster_of((b,))
    same_cell = math.floor(a / width) == math.floor(b / width)
    assert same_label == same_cell


class TestKernel:
    def test_standard_normal_at_origin(self):
        assert Kernel([[1.0]])((0.0,)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_wide_kernel_value(self):
        # 0.398942 * 0.5 * exp(-0.5)
        assert Kernel([[4.0]])((2.0,)) == pytest.approx(0.120985, abs=1e-6)

    def test_matches_normal_pdf(self):
        kernel = Kernel([[4.0]])
        for x in (-3.0, -0.5, 0.0, 1.7, 6.0):
            assert kernel((x,)) == pytest.approx(
                norm.pdf(x, scale=2.0), rel=1e-12
            )

    def test_matches_multivariate_pdf(self):
        H = [[2.0, 0.3], [0.3, 1.0]]
        kernel = Kernel(H)
        oracle = multivariate_normal(mean=[0.0, 0.0], cov=H)
        for x in ((0.0, 0.0), (1.0, -1.0), (0.4, 2.0)):
            assert kernel(x) == pytest.approx(oracle.pdf(x), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_symmetry(self, x):
        kernel = Kernel([[1.5]])
        assert kernel((x,)) == pytest.approx(kernel((-x,)), rel=1e-12)

    def test_normalization_by_quadrature(self):
        for h in (0.25, 1.0, 4.0):
            kernel = Kernel([[h]])
            span = 8.0 * math.sqrt(h)
            grid = np.linspace(-span, span, 4001)
            density = np.array([kernel((x,)) for x in grid])
            assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)

    def test_not_positive_definite(self):
        with pytest.raises(ConfigError):
            Kernel([[-1.0]])
        with pytest.raises(ConfigError):
            Kernel([[1.0, 2.0], [2.0, 1.0]])

    def test_non_finite_refused(self):
        with pytest.raises(ConfigError, match="finite"):
            Kernel([[math.inf]])
        with pytest.raises(ConfigError, match="finite"):
            Kernel([[math.inf, 0.0], [0.0, 1.0]])

    def test_not_symmetric(self):
        with pytest.raises(ConfigError):
            Kernel([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("H, symmetric", [
        ([[1.0, math.nan], [math.nan, 1.0]], False),
        ([[math.nan]], False),
        ([[1.0, 0.3], [0.3 + 2e-12, 1.0]], False),       # just outside
        ([[1.0, 0.3], [0.3 + 0.9e-12, 1.0]], True),      # just inside
        ([[1.0, 0.3], [0.3 - 0.9e-12, 1.0]], True),
        ([[math.inf, 0.0], [0.0, math.inf]], True),      # equal infinities
        ([[1.0, math.inf], [-math.inf, 1.0]], False),
        ([[1.0, math.inf], [0.0, 1.0]], False),
    ])
    def test_symmetry_tolerance_matches_allclose(self, H, symmetric):
        """The entrywise check decides as np.allclose(H, H.T, rtol=0,
        atol=1e-12) does, NaN and infinities included."""
        M = np.asarray(H)
        assert np.allclose(M, M.T, rtol=0.0, atol=1e-12) == symmetric
        if symmetric:
            try:
                Kernel(H)
            except ConfigError as exc:  # refused later, never as asymmetric
                assert "symmetric" not in str(exc)
        else:
            with pytest.raises(ConfigError, match="symmetric"):
                Kernel(H)

    def test_just_inside_tolerance_keeps_the_matrix_as_given(self):
        H = [[1.0, 0.3], [0.3 + 0.9e-12, 1.0]]
        kernel = Kernel(H)
        assert kernel.h_matrix.tolist() == H
        assert kernel((0.2, -0.1)) > 0.0


class TestLabelTables:
    """``cell_label`` builds each cell's label once, in one table that
    ``EmaGridClassifier`` and ``Clusterer`` share, with one entry per
    distinct cell."""

    @staticmethod
    def distinct_rows(count):
        return [(0.037 * k, -0.011 * k) for k in range(count)]

    def test_each_cell_is_labelled_once(self):
        rows = self.distinct_rows(10_000) * 2
        widths = (1.0, 1.0)
        cells = {plugins.cell_index(row, widths) for row in rows}
        assert len(cells) <= plugins.LABEL_CELLS
        raw = plugins.cell_label.__wrapped__
        plugins.cell_label.cache_clear()
        classifier = EmaGridClassifier(PluginParams(grid_width=1.0))
        for row in rows:
            assert classifier.step(row) == raw(plugins.cell_index(row, widths))
        info = plugins.cell_label.cache_info()
        assert info.misses == info.currsize == len(cells)
        clusterer = Clusterer(1.0)
        for row in rows:
            assert clusterer.cluster_of(row) == raw(plugins.cell_index(row, widths))
        assert plugins.cell_label.cache_info().misses == len(cells)
        assert len(clusterer.observed) == len(cells)

    def test_the_ema_labels_the_cell_of_its_summary(self):
        params = PluginParams(lam=0.3, grid_width=(0.5, 2.0))
        classifier, emitted = EmaGridClassifier(params), set()
        plugins.cell_label.cache_clear()
        for k, row in enumerate(self.distinct_rows(10_000)):
            label = classifier.step(row)
            emitted.add(label)
            if k % 997 == 0:
                assert label == scratch_label(params, Signal(self.distinct_rows(k + 1)))
        assert plugins.cell_label.cache_info().currsize == len(emitted)

    def test_a_full_table_keeps_labelling_correctly(self):
        plugins.cell_label.cache_clear()
        count = plugins.LABEL_CELLS + 100
        for k in range(count):
            assert plugins.cell_label((k, -k)) == f"({k},{-k})"
        assert plugins.cell_label.cache_info().currsize == plugins.LABEL_CELLS
        assert plugins.cell_label((0, 0)) == "(0,0)"
        assert plugins.cell_label((7,)) == "7"


class TestDefaultBandwidth:
    def test_constant_signal_hits_floor(self):
        H = default_bandwidth(Signal([2.0] * 10))
        assert H[0, 0] == pytest.approx(1e-12, rel=1e-9)

    def test_scott_rule_arithmetic(self):
        # s = 2, n = 100, d = 1: (100 ** -0.2 * 2) ** 2
        rng = np.random.default_rng(42)
        data = rng.normal(0.0, 2.0, size=100)
        data = (data - data.mean()) / data.std(ddof=1) * 2.0  # force s = 2 exactly
        H = default_bandwidth(Signal(data))
        assert H[0, 0] == pytest.approx((100 ** -0.2 * 2.0) ** 2, rel=1e-9)

    def test_always_positive_definite(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(30, 3))
        H = default_bandwidth(Signal(map(tuple, data)))
        assert np.all(np.linalg.eigvalsh(H) > 0)
        assert np.allclose(H, H.T)

    def test_too_short(self):
        with pytest.raises(EmptyInputError):
            default_bandwidth(Signal([1.0]))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_constant_signal_hits_floor_at_any_offset(self, offset):
        signal = Signal([(offset + 2.0, offset - 3.0)] * 5)
        default_bandwidth(signal)
        for _ in range(5):
            signal.append((offset + 2.0, offset - 3.0))
        assert np.array_equal(default_bandwidth(signal), np.diag([1e-12, 1e-12]))

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3),
        offset=st.sampled_from([0.0, 1e6, 1e8]),
        walk=st.booleans(),
        steps=st.lists(
            st.tuples(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3,
                               max_size=3),
                      st.booleans()),
            min_size=2, max_size=60),
    )
    def test_incremental_equals_exact_scott(self, dim, offset, walk, steps):
        """Any interleaving of appends and bandwidth reads gives Scott's rule on
        the exactly computed sample variance; data far from zero included."""
        signal = Signal()
        rows = []
        position = [offset] * dim
        for noise, read in steps:
            position = [(p if walk else offset) + z for p, z in zip(position, noise)]
            signal.append(position)
            rows.append(signal[-1])
            if read and len(rows) >= 2:
                H = default_bandwidth(signal)
                n = len(rows)
                for j in range(dim):
                    s = math.sqrt(statistics.variance([r[j] for r in rows]))
                    h = max(n ** (-1.0 / (dim + 4)) * s, 1e-6)
                    assert H[j, j] == pytest.approx(h * h, rel=1e-12)
                assert np.count_nonzero(H - np.diag(np.diagonal(H))) == 0


class TestSignalMoments:
    def test_reads_fold_only_new_observations(self):
        signal = Signal([(1.0, 2.0), (3.0, 5.0), (4.0, 4.0)])
        assert signal._folded == 0  # appends never fold
        n, mean, m2 = signal.moments()
        assert (n, signal._folded) == (3, 3)
        shift, folded_mean = signal._shift, signal._mean
        assert signal.moments()[0] == 3
        assert signal._folded == 3
        assert signal._mean is folded_mean and signal._shift is shift
        signal.append((0.0, 0.0))
        assert signal._folded == 3
        n, mean, m2 = signal.moments()
        assert signal._folded == n == 4
        assert mean == pytest.approx([2.0, 2.75], rel=1e-15)
        assert m2 == pytest.approx([10.0, 14.75], rel=1e-15)

    def test_empty_signal_has_no_moments(self):
        with pytest.raises(EmptyInputError):
            Signal().moments()
