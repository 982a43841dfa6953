"""The program's rows, forecasts, lookahead frontier entries and ``fit``
score against the reference model.

``reference.Reference`` computes every row from instant lists in 50-digit
decimals, so it neither shares a defect with the program's accumulators nor
underflows.  The streams wander, leave for a far-away state for up to 10⁴
instants and come back, which is where a discounted row read at the present
instant underflowed to a false "no forecast".
"""

import math
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from sigauto import (
    PluginParams,
    Signal,
    StreamPipeline,
    forecast,
    lookahead_advance,
    lookahead_build,
    score,
)
from sigauto.forecasting import SCORE_FLOOR

from reference import Reference

VARIANTS = ("count", "discounted_sum", "discounted_complement", "region_count",
            "latest_occurrence")
REGION = ((-1.0, 2.0),)
FAR = 100.0


def bound(n: int, h: int, variant: str, delta: float) -> float:
    """The relative error allowed in a weight or a forecast probability of
    an ``n``-instant stream at horizon ``h``.

    A weight is a quotient of two accumulators, each built by at most n
    floating-point steps of relative error 2⁻⁵², none of them cancelling;
    a probability at step j is a sum of positive products of j + 1 weights.
    Hence (h + 1)·n·2⁻⁵², with a factor 4 for the steps an accumulator write
    takes.  The complement k - S cancels digits, and its errors, damped by
    delta at each instant, add up to 1/(1 - delta) times as much."""
    rel = 4 * (h + 1) * n * 2.0**-52
    return rel / (1.0 - delta) if variant == "discounted_complement" else rel


# A weight whose exact value lies below this may read 0 or lose digits in
# the subnormal range; it adds at most this much to a probability.
TINY = 2.0**-1000


def assert_close(got: dict, want: dict, rel: float, what: str) -> None:
    for key in got.keys() | want.keys():
        g, w = got.get(key, 0.0), float(want.get(key, 0))
        assert abs(g - w) <= rel * w + TINY, (what, key, g, w)


def assert_model_equals(hmm, ref: Reference, h: int, rel: float) -> None:
    """Same states, rows within ``rel`` and the same h-step forecast."""
    assert set(hmm.states) == ref.state_set
    for state in hmm.states:
        assert_close(hmm.transition_row(state), ref.transition_row(state), rel,
                     ("transition", state))
        assert_close(hmm.emission_row(state), ref.emission_row(state), rel,
                     ("emission", state))
    fc = forecast(hmm, h)
    dummy, steps_ref = ref.forecast(h)
    assert fc.is_dummy == dummy
    for j, (got, want) in enumerate(zip(fc.steps, steps_ref), 1):
        assert_close(got, want, rel, ("forecast step", j))


def params_for(variant: str, delta: float, lam: float, h: int = 1) -> PluginParams:
    return PluginParams(lam=lam, grid_width=1.0, delta=delta, stat_variant=variant, horizon=h,
                        region=REGION if variant in ("region_count", "latest_occurrence")
                        else None)


def stream(steps, gap):
    """A walk, ``gap`` instants at a far-away value, then the walk again."""
    walk = [(x,) for x in accumulate(steps)]
    return walk + [(FAR,)] * gap + walk


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    delta=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    lam=st.sampled_from([1.0, 0.5]),
    h=st.sampled_from([1, 2, 3]),
    steps=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1, max_size=25),
    gap=st.integers(0, 10_000),
)
@example(variant="discounted_sum", delta=0.9, lam=1.0, h=1,
         steps=[1.0, 0.0, 4.0, -4.0, -1.0, 1.0, 4.0, -4.0], gap=8_000)
@example(variant="discounted_sum", delta=0.5, lam=0.5, h=3,
         steps=[0.5, 0.5, -1.0, 0.0, 1.0], gap=10_000)
@example(variant="discounted_sum", delta=0.0, lam=1.0, h=2,
         steps=[0.0, 1.0, -1.0, 1.0], gap=3)
@example(variant="discounted_complement", delta=0.99, lam=1.0, h=3,
         steps=[0.5, -0.5, 0.5, 1.0, -1.0], gap=10_000)
def test_rows_and_forecast_equal_the_reference(variant, delta, lam, h, steps, gap):
    rows = stream(steps, gap)
    params = params_for(variant, delta, lam)
    pipe = StreamPipeline(params)
    for row in rows:
        pipe.advance(row)
    ref = Reference(rows, lam=lam, width=1.0, variant=variant, delta=delta,
                    region=params.region)
    assert_model_equals(pipe.hmm, ref, h, bound(len(rows), h, variant, delta))


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    delta=st.sampled_from([0.0, 0.5, 0.9, 0.99]),
    lam=st.sampled_from([1.0, 0.5]),
    steps=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=1, max_size=25),
    gap=st.integers(0, 10_000),
)
@example(variant="count", delta=0.0, lam=1.0,
         steps=[1.0, 0.0, -1.0, 0.5, 0.5, -1.0], gap=10_000)
@example(variant="discounted_sum", delta=0.9, lam=1.0,
         steps=[1.0, 0.0, 4.0, -4.0, -1.0, 1.0, 4.0, -4.0], gap=8_000)
@example(variant="discounted_complement", delta=0.99, lam=0.5,
         steps=[0.5, -0.5, 0.5, 1.0, -1.0], gap=10_000)
@example(variant="region_count", delta=0.5, lam=1.0,
         steps=[0.5, 0.5, -0.5, 1.0, -1.0, 0.0], gap=10_000)
@example(variant="latest_occurrence", delta=0.0, lam=0.5,
         steps=[1.0, -0.5, 0.0, 0.5, -1.0], gap=10_000)
def test_score_equals_the_reference(variant, delta, lam, steps, gap):
    """``score`` over the walk's return after the gap (from the last
    far-away instant) against the reference's mean log-likelihood.

    Each term's log is off by at most its probability's relative error
    (``bound`` at h = 1; a probability near 2⁻¹⁰⁰⁰ lies far below the floor,
    which clamps both sides alike), and ``math.log`` and the window's float
    sum add at most (window + 2)·|ln floor|·2⁻⁵² to the mean."""
    rows = stream(steps, gap)
    start, stop = len(rows) - len(steps) - 1, len(rows) - 1
    got = score(params_for(variant, delta, lam), Signal(rows), start, stop)
    want = Reference(rows, lam=lam, width=1.0, variant=variant, delta=delta,
                     region=params_for(variant, delta, lam).region).score(start, stop, SCORE_FLOOR)
    allowed = (bound(len(rows), 1, variant, delta)
               + (stop - start + 2) * -math.log(SCORE_FLOOR) * 2.0**-52)
    assert abs(got - float(want)) <= allowed, (got, want, allowed)


def frontier_models(frontier):
    """Each model of the frontier with the rows it was built from: the base
    model, with every live entry undone, over the genuine rows, then each
    live entry, redone in turn, over the genuine rows followed by the
    estimates its window reached."""
    live = frontier.live()
    for entry in reversed(live):
        entry.undo()
    genuine = list(frontier.signal)
    yield frontier.base_hmm, genuine
    for k, entry in enumerate(live):
        entry.redo()
        yield entry.hmm, genuine + frontier.estimated[: k + 1]


# A walk that keeps to a few cells, so that frontier steps repeat known
# words and stay live, around a visit to a far-away value.
LOOKAHEAD_STEPS = [0.5, 0.5, -1.0, 0.5, -0.5, 1.0, -0.5, -0.5, 0.5, 0.5, -1.0, 0.5,
                   0.0, 0.5, -0.5, -0.5, 1.0, -0.5, 0.5, -0.5]


@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("variant, delta", [
    ("count", 0.0), ("discounted_sum", 0.9), ("discounted_complement", 0.5),
    ("region_count", 0.0), ("latest_occurrence", 0.0),
])
def test_frontier_entries_equal_the_reference(variant, delta, h):
    """After each genuine row, the base model and every live entry of the
    frontier against the reference over the rows each was built from, with
    the lookahead word of the next h rows as the state of an instant."""
    rows = stream(LOOKAHEAD_STEPS * 2, gap=100) + stream(LOOKAHEAD_STEPS, gap=0)
    split = len(rows) - len(LOOKAHEAD_STEPS)
    params = params_for(variant, delta, 1.0, h)
    frontier = lookahead_build(rows[:split], params, seed=5)
    entries = 0
    for row in rows[split:]:
        lookahead_advance(frontier, row)
        for k, (hmm, built_from) in enumerate(frontier_models(frontier)):
            ref = Reference(built_from, width=1.0, variant=variant, delta=delta,
                            region=params.region, lookahead=h)
            assert_model_equals(hmm, ref, h, bound(len(built_from), h, variant, delta))
            entries += k > 0
    assert 2 * entries > len(rows) - split  # most advances leave live entries
