"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with ``pytest -s``
to see them).  Tolerances and runtime budgets are pinned here; the shared
oracle corpus (criteria 2-5) is computed once per module.
"""

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import norm

from sigauto import (
    BOTTOM_STATE,
    DUMMY_EVENT,
    DUMMY_STATE,
    EmaGridClassifier,
    Kernel,
    PluginParams,
    Signal,
    StreamPipeline,
    build_isa,
    forecast,
    isa_to_hmm_continuous,
    kernel_eval,
    lookahead_advance,
    lookahead_build,
    run_bench,
    sample_event,
    save_snapshot,
    load_snapshot,
    sigma_fn,
)

from conftest import E1, build_plain, random_walk


def report(number, name, failures, elapsed):
    status = "FAIL" if failures else "PASS"
    print(f"\n[criterion {number:2d}] {status} {name} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example fidelity


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    failures = []
    params = PluginParams(lam=1.0, grid_width=1.0)
    signal = Signal(E1)
    isa, hmm = build_plain(signal, params)

    expected_cells = {
        (BOTTOM_STATE, "1"): (0,),
        ("1", "1"): (1,),
        ("1", "5"): (2, 4),
        ("5", "1"): (3,),
    }
    actual_cells = {(p, q): tuple(c) for p, q, c in isa.theta.cells()}
    if actual_cells != expected_cells:
        failures.append(f"instants cells {actual_cells} != {expected_cells}")

    checks = [
        (hmm.transition_row("1").get("1"), 1 / 3, "T(A,A)"),
        (hmm.transition_row("1").get("5"), 2 / 3, "T(A,B)"),
        (hmm.transition_row("5").get("1"), 1.0, "T(B,A)"),
    ]
    fc = forecast(hmm, 2)
    checks += [
        (fc.step(1).get("1"), 1.0, "f1(c1)"),
        (fc.step(2).get("1"), 1 / 3, "f2(c1)"),
        (fc.step(2).get("5"), 2 / 3, "f2(c5)"),
    ]
    for actual, expected, label in checks:
        if actual is None or abs(actual - expected) > 1e-12:
            failures.append(f"{label} = {actual}, expected {expected}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "worked-example fidelity", failures, elapsed)


# ---------------------------------------------------------------------------
# Criteria 2-5 share one corpus of oracle runs


@dataclass
class OracleRun:
    label: str
    variant: str
    sparsity_equal: bool
    isa_equal: bool
    max_weight_diff: float
    count_exact: bool
    partition_ok: bool
    stochastic_ok: bool
    dummy_absorbing_ok: bool
    dummy_forecasts: int
    distinct_states: int


def run_oracle_case(seed, dim, variant, delta, lam):
    params = PluginParams(lam=lam, delta=delta, stat_variant=variant)
    walk = random_walk(2000, dim=dim, seed=seed)
    pipe = StreamPipeline(params, seed=seed)
    checkpoints = set(random.Random(seed).sample(range(1, 2000), 20))

    partition_ok = True
    stochastic_ok = True
    dummy_absorbing_ok = True
    dummies = 0
    for k, obs in enumerate(walk):
        previous = pipe.hmm.current if pipe.hmm is not None else None
        pipe.advance(obs)
        if forecast(pipe.hmm, 1).is_dummy:
            dummies += 1
        touched = {pipe.hmm.current}
        if previous is not None:
            touched.add(previous)
        for state in touched:
            if abs(sum(pipe.hmm.transition_row(state).values()) - 1.0) > 1e-9:
                stochastic_ok = False
            if abs(sum(pipe.hmm.emission_row(state).values()) - 1.0) > 1e-9:
                stochastic_ok = False
        if k in checkpoints:
            instants = []
            for _, _, cell in pipe.isa.theta.cells():
                instants.extend(cell)
            if len(instants) != k + 1 or set(instants) != set(range(k + 1)):
                partition_ok = False
            for state in pipe.hmm.states:
                if abs(sum(pipe.hmm.transition_row(state).values()) - 1.0) > 1e-9:
                    stochastic_ok = False
                if abs(sum(pipe.hmm.emission_row(state).values()) - 1.0) > 1e-9:
                    stochastic_ok = False
            if pipe.hmm.transition_row(DUMMY_STATE) != {DUMMY_STATE: 1.0}:
                dummy_absorbing_ok = False
            if pipe.hmm.emission_row(DUMMY_STATE) != {DUMMY_EVENT: 1.0}:
                dummy_absorbing_ok = False

    scratch_isa, scratch_hmm = pipe.rebuild_from_scratch()
    ti, ts = pipe.hmm.transition_matrix(), scratch_hmm.transition_matrix()
    ei, es = pipe.hmm.emission_matrix(), scratch_hmm.emission_matrix()
    sparsity_equal = ti.sparsity() == ts.sparsity() and ei.sparsity() == es.sparsity()
    max_diff = 0.0
    if sparsity_equal:
        for matrix_a, matrix_b in ((ti, ts), (ei, es)):
            for p, q in matrix_a.sparsity():
                max_diff = max(max_diff, abs(matrix_a.weight(p, q) - matrix_b.weight(p, q)))
    count_exact = max_diff == 0.0 if variant == "count" else True

    return OracleRun(
        label=f"seed={seed} d={dim} {variant} lam={lam}",
        variant=variant,
        sparsity_equal=sparsity_equal,
        isa_equal=pipe.isa == scratch_isa,
        max_weight_diff=max_diff,
        count_exact=count_exact,
        partition_ok=partition_ok,
        stochastic_ok=stochastic_ok,
        dummy_absorbing_ok=dummy_absorbing_ok,
        dummy_forecasts=dummies,
        distinct_states=len(pipe.isa.new_state_instants),
    )


@pytest.fixture(scope="module")
def oracle_corpus():
    t0 = time.perf_counter()
    runs = []
    for seed in range(7):
        for dim in (1, 3):
            for variant, delta in (("count", 0.0), ("discounted_sum", 0.9)):
                for lam in (1.0, 0.5):
                    runs.append(run_oracle_case(seed, dim, variant, delta, lam))
    return runs, time.perf_counter() - t0


def test_criterion_02_oracle_equivalence(oracle_corpus):
    runs, corpus_elapsed = oracle_corpus
    t0 = time.perf_counter()
    failures = []
    if len(runs) < 50:
        failures.append(f"only {len(runs)} runs, need >= 50")
    for run in runs:
        if not run.isa_equal:
            failures.append(f"{run.label}: automaton fold != scratch")
        if not run.sparsity_equal:
            failures.append(f"{run.label}: sparsity patterns differ")
        if run.max_weight_diff > 1e-9:
            failures.append(f"{run.label}: weight diff {run.max_weight_diff}")
        if not run.count_exact:
            failures.append(f"{run.label}: count weights not exact")
    elapsed = corpus_elapsed + time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    report(2, f"oracle equivalence over {len(runs)} runs", failures, elapsed)


def test_criterion_03_partition_invariant(oracle_corpus):
    runs, _ = oracle_corpus
    t0 = time.perf_counter()
    failures = [f"{run.label}: partition violated" for run in runs if not run.partition_ok]
    report(3, "instants-matrix partition at sampled instants", failures,
           time.perf_counter() - t0)


def test_criterion_04_stochasticity(oracle_corpus):
    runs, _ = oracle_corpus
    t0 = time.perf_counter()
    failures = []
    for run in runs:
        if not run.stochastic_ok:
            failures.append(f"{run.label}: a row sum strayed from 1")
        if not run.dummy_absorbing_ok:
            failures.append(f"{run.label}: dummy state not absorbing")
    report(4, "row stochasticity and dummy absorption", failures,
           time.perf_counter() - t0)


def test_criterion_05_dummy_forecast_identity(oracle_corpus):
    runs, _ = oracle_corpus
    t0 = time.perf_counter()
    failures = [
        f"{run.label}: {run.dummy_forecasts} dummy forecasts vs "
        f"{run.distinct_states} states"
        for run in runs
        if run.dummy_forecasts != run.distinct_states
    ]
    report(5, "dummy forecasts = distinct states", failures, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Criterion 6: constant-time update, linear build


def test_criterion_06_complexity():
    t0 = time.perf_counter()
    bench = run_bench()
    elapsed = time.perf_counter() - t0
    failures = list(bench.failures())
    if elapsed >= 180.0:
        failures.append(f"bench took {elapsed:.0f}s, budget 180s")
    report(
        6,
        f"update ratio {bench.constancy_ratio:.2f} <= 3, "
        f"build slope {bench.build_slope:.2f} in [0.8, 1.2], "
        f"lookahead ratio {bench.lookahead_ratio:.2f} <= 3",
        failures,
        elapsed,
    )


# ---------------------------------------------------------------------------
# Criterion 7: continuous normalization


def test_criterion_07_continuous_normalization():
    t0 = time.perf_counter()
    failures = []
    bandwidths = (0.25, 0.5, 1.0, 2.0, 0.7)
    for seed, h in enumerate(bandwidths):
        signal = Signal(random_walk(120, seed=seed + 50))
        isa = build_isa(signal, EmaGridClassifier(PluginParams()))
        model = isa_to_hmm_continuous(isa, signal, sigma_fn(PluginParams()),
                                      Kernel([[h]]))
        span = 8.0 * math.sqrt(h)
        for state in model.state_order:
            centers, _ = model.mixture(state)
            points = [signal[j][0] for j in centers]
            grid = np.linspace(min(points) - span, max(points) + span, 2001)
            mass = np.trapezoid([model.density(state, (x,)) for x in grid], grid)
            if abs(mass - 1.0) > 1e-3:
                failures.append(
                    f"seed {seed}: state {state} integrates to {mass:.6f}"
                )
        kernel = Kernel([[h]])
        for x in (-2.0, 0.0, 0.3, 1.7):
            expected = norm.pdf(x, scale=math.sqrt(h))
            if abs(kernel_eval(kernel, (x,)) - expected) > 1e-12:
                failures.append(f"kernel H={h} at {x} off closed form")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    report(7, "continuous emissions integrate to 1", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 8: lookahead coherence


def test_criterion_08_lookahead_coherence():
    t0 = time.perf_counter()
    failures = []
    values = [1.0 if k % 2 == 0 else 5.0 for k in range(16)]
    params = PluginParams(grid_width=1.0, horizon=1)
    frontier = lookahead_build(Signal(values[:4]), params, seed=11)
    for i in range(4, len(values)):
        if frontier.poisoned_from() is not None:
            failures.append(f"frontier poisoned at n={frontier.n}")
        fc = frontier.forecast()
        realized = "1" if values[i] == 1.0 else "5"
        if not fc.is_dummy and fc.step(1) != {realized: 1.0}:
            failures.append(f"n={frontier.n}: f-hat {fc.step(1)} != 1 on {realized}")
        sampled_word = frontier.entries[0].isa.current if frontier.entries[0] else None
        lookahead_advance(frontier, values[i])
        fresh = lookahead_build(Signal(values[: i + 1]), params, seed=11)
        if sampled_word == realized and frontier.fingerprint() != fresh.fingerprint():
            failures.append(f"advance at n={i} differs from fresh build")
    if frontier.poisoned_from() is not None:
        failures.append("final frontier poisoned")
    report(8, "lookahead frontier coherence and replacement", failures,
           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Criterion 9: sampling correctness


def test_criterion_09_sampling():
    t0 = time.perf_counter()
    failures = []
    dist = {"c1": 1 / 3, "c5": 2 / 3}
    counts = Counter(sample_event(dist, seed) for seed in range(30000))
    frequency = counts["c5"] / 30000
    if not (0.65 <= frequency <= 0.67):
        failures.append(f"c5 frequency {frequency:.4f} outside 0.66 +/- 0.01")
    if any(sample_event(dist, 777) != sample_event(dist, 777) for _ in range(5)):
        failures.append("fixed seed not reproducible")
    report(9, f"inverse-CDF sampling (c5 frequency {frequency:.4f})", failures,
           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Criterion 10: snapshot transparency


def test_criterion_10_snapshot_transparency(tmp_path):
    t0 = time.perf_counter()
    failures = []
    for variant, delta, emission in (
        ("count", 0.0, "discrete"),
        ("discounted_sum", 0.9, "discrete"),
        ("count", 0.0, "continuous"),
    ):
        params = PluginParams(lam=0.5, delta=delta, stat_variant=variant, horizon=2)
        walk = random_walk(120, seed=31)
        reference = [
            json.dumps(rec, sort_keys=True)
            for rec in map(StreamPipeline(params, emission=emission, seed=13).step, walk)
        ]
        pipe = StreamPipeline(params, emission=emission, seed=13)
        lines = []
        for k, obs in enumerate(walk):
            lines.append(json.dumps(pipe.step(obs), sort_keys=True))
            if k in (10, 55, 90):
                path = tmp_path / f"{variant}-{emission}-{k}.json"
                save_snapshot(pipe, path)
                pipe = load_snapshot(path)
        if lines != reference:
            first = next(i for i, (a, b) in enumerate(zip(lines, reference)) if a != b)
            failures.append(f"{variant}/{emission}: records diverge at {first}")
    report(10, "snapshot save/load leaves the stream byte-identical", failures,
           time.perf_counter() - t0)
