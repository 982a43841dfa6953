import random

import pytest

from sigauto import (
    Clusterer,
    EmaGridClassifier,
    PluginParams,
    Signal,
    build_isa,
    isa_to_hmm,
    rho_fn,
    sigma_fn,
)
from sigauto.hmm import SINK_EMISSION, SINK_TRANSITION, _normalized_row

# Worked example used throughout: unit grid, lam=1, count statistics.
E1 = (1.0, 1.0, 5.0, 1.0, 5.0)


# One parameter tuple per statistic variant; the region spans the middle of
# the small walks the tests use, so region rows both fill and stay empty.
EVERY_STAT = (
    {"stat_variant": "count"},
    {"stat_variant": "discounted_sum", "delta": 0.8},
    {"stat_variant": "discounted_complement", "delta": 0.5},
    {"stat_variant": "region_count", "region": ((-1.0, 2.0),)},
    {"stat_variant": "latest_occurrence", "region": ((-1.0, 2.0),)},
)


@pytest.fixture
def e1_signal():
    return Signal(E1)


@pytest.fixture
def count_params():
    return PluginParams(lam=1.0, grid_width=1.0)


@pytest.fixture
def no_bench(monkeypatch):
    """``run_bench`` replaced by a function that fails the test if called."""
    def measured(**kwargs):
        raise AssertionError("the bench ran")

    monkeypatch.setattr("sigauto.bench.run_bench", measured)


def random_walk(length, dim=1, seed=0, step=0.3):
    """Synthetic random-walk signal; the workload used by the oracle runs."""
    rng = random.Random(seed)
    values = [0.0] * dim
    out = []
    for _ in range(length):
        values = [v + rng.gauss(0.0, step) for v in values]
        out.append(tuple(values))
    return out


def build_plain(signal, params):
    """From-scratch automaton + model with fresh plugins."""
    classifier = EmaGridClassifier(params)
    clusterer = Clusterer(params.grid_width)
    isa = build_isa(signal, classifier)
    hmm = isa_to_hmm(isa, signal, sigma_fn(params), rho_fn(params), clusterer)
    return isa, hmm


def model_rows(model, name):
    """A copy of every row the model's method ``name`` serves
    (``"transition_row"`` or ``"emission_row"``), as ``{state: {column: weight}}``."""
    read = getattr(model, name)
    return {p: dict(read(p)) for p in model.states}


def assert_row_cache_coherent(model):
    """Every transition and emission row the model serves, whether from its
    row cache or not, equals a fresh normalization of the row's accumulators,
    in values and in iteration order.  Reading every row also fills the cache,
    so the next write has every row to invalidate."""
    kinds = [(model.transition_row, model._trows, model.sigma, SINK_TRANSITION)]
    if model.emission_kind == "discrete":
        kinds.append((model.emission_row, model._erows, model.rho, SINK_EMISSION))
    for read, table, stat, sink in kinds:
        for p in model.states:
            fresh = _normalized_row(table.get(p), stat, model.n, sink)
            assert list(read(p).items()) == list(fresh.items()), (read.__name__, p)
