"""The four benchmark workloads, their output checks and their traced twins.

Each workload is a closed loop: the next observation goes in only after the
previous result is out.  ``run`` measures a workload with tracing off and
returns an ``Outcome``; ``trace`` replays the first repetition's inputs
untraced, then again through the public layer functions that
``StreamPipeline.advance`` and ``forecast_record`` compose, with the
pluggable objects wrapped so that their calls become child spans, checks
that both give the same records, and returns per-layer metrics.

Only public entry points of ``sigauto`` are called: ``cli.main``,
``cli.read_signal``, ``cli.parse_config``, ``StreamPipeline``, the layer
functions, ``forecast``, ``lookahead_build``/``lookahead_advance``,
``forecast_density_at`` and ``save_snapshot``/``load_snapshot``.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass, field
from hashlib import sha256
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

from sigauto import (
    DUMMY_STATE,
    PluginParams,
    StreamPipeline,
    cli,
    default_bandwidth,
    forecast,
    forecast_density_at,
    init_isa,
    isa_to_hmm,
    isa_to_hmm_continuous,
    Kernel,
    load_snapshot,
    lookahead_advance,
    lookahead_build,
    next_hmm,
    next_hmm_continuous,
    next_isa,
    save_snapshot,
    state_occupancies,
    transition_row,
)

from calibration import Meter
from inputs import MALFORMED, csv_rows, rng_for, walk, write_csv
from tracing import Traced, Tracer

# Default sizes; the tests shrink them.  One repetition of each takes about
# 0.5-3 s on a 2-core x86 container, so a run holds several: every run mixes
# several seeded inputs, which keeps input-to-input variation out of its figures.
SIZES = {
    "run_h3_resume": {"rows": 20_000, "malformed": 200},
    "fit_grid4": {"rows": 6_000},
    "lookahead_h2": {"history": 10_000, "advances": 200, "traced_advances": 300},
    "continuous_mixed": {"obs": 40_000, "query_every": 400, "check_every": 5},
}
SETUP_REPS = 5
REL_TOL = 1e-9

RUN_CONFIG = {"lambda": 1.0, "grid_width": 1.0, "stat_variant": "count"}
FIT_CONFIG = {
    "lambda": 1.0,
    "grid_width": 1.0,
    "grid": [
        {"stat_variant": "count"},
        {"stat_variant": "discounted_sum", "delta": 0.5},
        {"stat_variant": "discounted_sum", "delta": 0.9},
        {"stat_variant": "discounted_sum", "delta": 0.99},
    ],
}
LOOKAHEAD_PARAMS = PluginParams(lam=1.0, grid_width=1.0, horizon=2)
CONTINUOUS_PARAMS = PluginParams(lam=1.0, grid_width=1.0, horizon=1)


@dataclass
class Outcome:
    """What one untraced run measured.

    The meter holds the busy time of the timed operations and the samples
    "setup" (one per set-up), "result" (one per result: a forecast record, a
    fit report, an advance with its forecast, a step) and "query" (density
    queries).
    """

    meter: Meter = field(default_factory=Meter)
    obs: int = 0  # genuine observations consumed
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)  # workload-specific figures
    final_checks: list = field(default_factory=list)  # run after peak RSS is read

    def check(self, ok: bool, problem: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(problem)
        return ok


@dataclass
class Traces:
    """What one traced run measured."""

    metrics: dict
    attempted: int
    problems: list


def _setup(meter: Meter, build, reps: int = SETUP_REPS):
    """Time ``reps`` set-ups as "setup" samples; returns the last one built."""
    meter.calibrate(force=True)
    for _ in range(reps):
        t0 = perf_counter_ns()
        built = build()
        meter.sample("setup", perf_counter_ns() - t0)
        meter.calibrate(force=True)
    return built


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def distinct_cells(values) -> int:
    """Distinct unit-grid cells among ``values``: the state count at lambda=1."""
    return len({tuple(math.floor(x) for x in obs) for obs in values})


# ---------------------------------------------------------------------------
# Stream plumbing for cli.main: stamp each line as it is read and each record
# as it is written, so the latency of one row is measured end to end.


class StampedLines:
    """Input lines; the meter calibrates between rows, outside any latency."""

    def __init__(self, handle, meter: Meter):
        self._handle = handle
        self._meter = meter
        self.ns = array("q")  # read stamp of each line
        self.chunks = array("l")  # its calibration chunk

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._handle)
        self._meter.calibrate()
        self.ns.append(perf_counter_ns())
        self.chunks.append(len(self._meter.refs))
        return line


class CheckedSink:
    """Standard output of ``cli.main``: stamps each record as its newline is
    written and hands it to ``check(index, text, stamp)`` at once, so the
    output is never held in memory that would count in the peak RSS."""

    def __init__(self, check):
        self._check = check
        self._pending: list[str] = []
        self.count = 0

    def write(self, text: str) -> int:
        if text != "\n":
            self._pending.append(text)
            return len(text)
        stamp = perf_counter_ns()
        record, self._pending = "".join(self._pending), []
        self._check(self.count, record, stamp)
        self.count += 1
        return 1

    def flush(self) -> None:
        pass


def _cli_stream(meter: Meter, argv: list[str], in_path: str, records):
    """``cli.main(argv)`` with stdin read from ``in_path`` into
    ``records.source`` and stdout checked by ``records.check`` record by
    record; returns the exit code and the sink."""
    sink = CheckedSink(records.check)
    with open(in_path, "r", encoding="utf-8") as handle:
        records.source = StampedLines(handle, meter)
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = records.source, sink
        try:
            meter.calibrate()
            meter.begin()
            code = cli.main(argv)
            meter.end()
        finally:
            sys.stdin, sys.stdout = saved
    return code, sink


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


# ---------------------------------------------------------------------------
# Tracing helpers shared by the traced twins


def _wrap_plugins(tracer: Tracer, owner) -> None:
    """Replace the owner's classifier, clusterer, sigma and rho by span proxies.

    A model built before wrapping keeps references to the originals; point
    them at the proxies too, since ``next_hmm`` checks the clusterer by
    identity.
    """
    owner.classifier = Traced(tracer, owner.classifier, "plugins.classify", ["step"])
    owner.clusterer = Traced(tracer, owner.clusterer, "plugins.cluster",
                             ["cluster_of", "label_of", "center"])
    stat_methods = ["read", "step", "advance", "new_acc", "eval_acc"]
    owner.sigma = Traced(tracer, owner.sigma, "plugins.stat", stat_methods)
    owner.rho = Traced(tracer, owner.rho, "plugins.stat", stat_methods)


def _rebind_model(owner, model) -> None:
    model.sigma = owner.sigma
    if hasattr(model, "rho"):
        model.rho = owner.rho
        model.clusterer = owner.clusterer


def _traced_advance(tracer: Tracer, pipe: StreamPipeline, obs) -> None:
    """``StreamPipeline.advance`` composed from its layer functions."""
    tracer.call("signal.append", pipe.signal.append, obs)
    discrete = pipe.emission == "discrete"
    if pipe.isa is None:
        pipe.isa = tracer.call("automaton.next_isa", init_isa, pipe.signal[0], pipe.classifier)
        if discrete:
            pipe.hmm = tracer.call("hmm.next_hmm", isa_to_hmm, pipe.isa, pipe.signal,
                                   pipe.sigma, pipe.rho, pipe.clusterer)
        else:
            pipe.hmm = tracer.call("hmm.next_hmm_continuous", isa_to_hmm_continuous,
                                   pipe.isa, pipe.signal, pipe.sigma, pipe.kernel)
        return
    tracer.call("automaton.next_isa", next_isa, pipe.isa, pipe.signal, pipe.classifier)
    if discrete:
        tracer.call("hmm.next_hmm", next_hmm, pipe.hmm, pipe.isa, pipe.signal,
                    pipe.sigma, pipe.rho, pipe.clusterer)
    else:
        tracer.call("hmm.next_hmm_continuous", next_hmm_continuous, pipe.hmm, pipe.isa,
                    pipe.signal, pipe.sigma, pipe.kernel)


def _support(model, horizon: int) -> tuple[int, int]:
    """(sum of occupancy support sizes, number of steps) of one forecast."""
    occ = state_occupancies(model, horizon)
    return sum(len(o) for o in occ), len(occ)


def _underflowed_rows(isa, model) -> int:
    """States with outgoing instants whose transition row reads as no-forecast."""
    return sum(
        1 for p in model.state_order
        if isa.theta.has_outgoing(p) and transition_row(model, p) == {DUMMY_STATE: 1.0}
    )


def layer_metrics(tracer: Tracer, obs: int, untraced_ns: float) -> dict[str, float]:
    """Per-layer figures every workload shares; absent layers read 0."""
    spans = tracer.summary()

    def total(name, key="ns"):
        return spans.get(name, {}).get(key, 0.0)

    def count(name):
        return spans.get(name, {}).get("count", 0)

    per_obs_us = 1e-3 / obs
    return {
        "cli.parse_us_per_obs": total("cli.parse") * per_obs_us,
        "cli.serialize_us_per_obs": total("cli.serialize") * per_obs_us,
        "signal.append_us_per_obs": total("signal.append") * per_obs_us,
        "plugins.classify_us_per_obs": total("plugins.classify") * per_obs_us,
        "plugins.classify_calls_per_obs": count("plugins.classify") / obs,
        "plugins.cluster_us_per_obs": total("plugins.cluster") * per_obs_us,
        "plugins.stat_us_per_obs": total("plugins.stat") * per_obs_us,
        "plugins.stat_calls_per_obs": count("plugins.stat") / obs,
        "automaton.next_isa_self_us_per_obs": total("automaton.next_isa", "self_ns") * per_obs_us,
        "hmm.next_hmm_self_us_per_obs": total("hmm.next_hmm", "self_ns") * per_obs_us,
        "hmm.next_hmm_continuous_self_us_per_obs":
            total("hmm.next_hmm_continuous", "self_ns") * per_obs_us,
        "forecasting.forecast_us_per_obs": total("forecasting.forecast") * per_obs_us,
        "pipeline.step_us_per_obs": total("pipeline.step") * per_obs_us,
        "lookahead.advance_self_ms": total("lookahead.advance", "self_ns") * 1e-6
        / max(count("lookahead.advance"), 1),
        "lookahead.forecast_us": total("lookahead.forecast") * 1e-3
        / max(count("lookahead.forecast"), 1),
        "snapshot.save_ms": total("snapshot.save") * 1e-6,
        "snapshot.load_ms": total("snapshot.load") * 1e-6,
        "forecasting.score_s_per_entry": total("forecasting.score") * 1e-9
        / max(count("forecasting.score"), 1),
        "plugins.bandwidth_ms_per_query": total("plugins.bandwidth") * 1e-6
        / max(count("plugins.bandwidth"), 1),
        "hmm.density_ms_per_query": total("hmm.density") * 1e-6 / max(count("hmm.density"), 1),
        "trace.overhead_share": tracer.top_level_ns() / untraced_ns - 1.0,
        # counted by the workloads that have them
        "forecasting.occupancy_support_mean": 0.0,
        "hmm.underflowed_rows": 0,
        "hmm.centers_per_query": 0.0,
        "snapshot.bytes": 0,
        "lookahead.reuse_share": 0.0,
        "lookahead.entries_built_per_advance": 0.0,
        "lookahead.poisoned_share": 0.0,
    }


# ---------------------------------------------------------------------------
# run_h3_resume: `sigauto run` over CSV with malformed rows, split by a
# snapshot and a resume, horizon 3.


class RunRecords:
    """Checks the records of one ``run_h3_resume`` repetition as they are
    written, with the meter paused, and keeps only running counts and the
    last forecast record.  ``part`` and ``source`` are the rows and the
    stamped input of the ``cli.main`` call in progress."""

    def __init__(self, out: Outcome, rep: int, horizon: int, digest=None):
        self.out, self.rep, self.horizon, self.digest = out, rep, horizon, digest
        self.part: list[str] = []
        self.source: StampedLines | None = None
        self.next_i = self.dummies = self.errors = 0
        self.last = "{}"

    def check(self, j: int, text: str, stamp: int) -> None:
        out = self.out
        out.meter.pause()
        try:
            self._check(j, text, stamp)
        except (ValueError, TypeError, AttributeError, IndexError) as exc:
            out.failed += 1
            out.check(False, f"rep {self.rep} record {j}: {exc!r} on {text[:80]}")
        finally:
            out.meter.resume()

    def _check(self, j: int, text: str, stamp: int) -> None:
        out, rep = self.out, self.rep
        record = json.loads(text)
        self.errors += "error" in record
        row = self.part[j]
        if row in MALFORMED:
            ok = record.get("line") == j + 2 and "error" in record
            out.failed += not out.check(ok, f"rep {rep} row {j}: {text[:80]}")
            return
        out.meter.sample("result", stamp - self.source.ns[j + 1], self.source.chunks[j + 1])
        steps = record.get("steps", ())
        ok = record.get("i") == self.next_i and len(steps) == self.horizon and all(
            abs(sum(step["dist"].values()) - 1.0) <= REL_TOL for step in steps)
        out.failed += not out.check(ok, f"rep {rep} record {self.next_i}: {text[:80]}")
        self.dummies += record.get("dummy") is True
        self.last = text
        if self.digest is not None:
            self.digest.update(text.encode())
        self.next_i += 1


class RunH3Resume:
    name = "run_h3_resume"
    horizon = 3

    def __init__(self, workdir: str):
        self.size = SIZES[self.name]
        self.workdir = workdir
        self.config = os.path.join(workdir, "run_config.json")
        self.snapshot = os.path.join(workdir, "run_snapshot.json")
        _write_json(self.config, RUN_CONFIG)

    def inputs(self, seed: int, rep: int) -> tuple[list, list[list[str]], list[str]]:
        """Valid values, the two halves of CSV rows, and the two file paths."""
        rng = rng_for(seed, self.name, rep)
        values = walk(rng, self.size["rows"], 1)
        rows = csv_rows(values, rng, self.size["malformed"])
        half = len(rows) // 2
        parts = [rows[:half], rows[half:]]
        paths = [os.path.join(self.workdir, f"run_part{k}.csv") for k in range(2)]
        for path, part in zip(paths, parts):
            write_csv(path, "x", part)
        return values, parts, paths

    def argv(self, k: int) -> list[str]:
        argv = ["run", "--config", self.config, "--input", "-", "--output", "-",
                "--horizon", str(self.horizon)]
        return argv + (["--snapshot", self.snapshot] if k == 0 else ["--resume", self.snapshot])

    def setup(self, meter: Meter) -> None:
        def build():
            config = cli.parse_config(self.config, {"horizon": self.horizon})
            return StreamPipeline(config.params, emission=config.emission,
                                  seed=config.seed, score_floor=config.score_floor)
        _setup(meter, build)

    def stream(self, out: Outcome, seed: int, rep: int, digest=None) -> tuple[list, RunRecords]:
        """One repetition; returns the values and its checked records.

        ``digest``, if given, is updated with every forecast record text.
        """
        values, parts, paths = self.inputs(seed, rep)
        if os.path.exists(self.snapshot):
            os.remove(self.snapshot)
        records = RunRecords(out, rep, self.horizon, digest)
        for k, (part, path) in enumerate(zip(parts, paths)):
            records.part = part
            code, sink = _cli_stream(out.meter, self.argv(k), path, records)
            out.attempted += len(part)
            if not out.check(code == 0 and sink.count == len(part),
                             f"rep {rep} part {k}: exit {code}, {sink.count} records "
                             f"for {len(part)} rows"):
                out.failed += max(len(part) - sink.count, 1)
        out.check(records.next_i == len(values),
                  f"rep {rep}: {records.next_i} forecasts for {len(values)} rows")
        out.check(records.dummies == distinct_cells(values),
                  f"rep {rep}: {records.dummies} dummy records, {distinct_cells(values)} states")
        return values, records

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        self.setup(out.meter)
        deadline = perf_counter() + seconds
        rep = errors = 0
        while rep == 0 or perf_counter() < deadline:
            values, records = self.stream(out, seed, rep)
            out.obs += len(values)
            errors += records.errors
            rep += 1
        out.meter.calibrate(force=True)
        out.detail = {"failed_share": errors / out.attempted, "repetitions": rep,
                      "snapshot_bytes": os.path.getsize(self.snapshot)}
        out.final_checks.append(lambda: self.check_against_scratch(out, values, records.last))
        return out

    def check_against_scratch(self, out: Outcome, values, last_text: str) -> None:
        """The last record equals the forecast of a from-scratch rebuild."""
        config = cli.parse_config(self.config, {"horizon": self.horizon})
        pipe = StreamPipeline(config.params)
        for obs in values:
            pipe.signal.append(obs)
        _isa, model = pipe.rebuild_from_scratch()
        fc = forecast(model, self.horizon)
        last = json.loads(last_text)
        same = last.get("dummy") == fc.is_dummy and len(last.get("steps", ())) == len(fc.steps)
        for step, dist in zip(last.get("steps", ()), fc.steps):
            same = same and step["dist"].keys() == dist.keys() and all(
                _close(step["dist"][c], p) for c, p in dist.items())
        out.check(same, "last record differs from the forecast of a scratch rebuild")

    def trace(self, seed: int) -> Traces:
        out = Outcome()
        digest = sha256()
        values, _records = self.stream(out, seed, 0, digest)
        untraced_ns = out.meter.raw_busy_ns()
        rows_first = sum(row not in MALFORMED for row in self.inputs(seed, 0)[1][0])
        clean = os.path.join(self.workdir, "run_clean.csv")
        write_csv(clean, "x", [repr(obs[0]) for obs in values])

        tracer = Tracer()
        tracer.obs = 0
        signal = tracer.call("cli.parse", cli.read_signal, clean)
        config = cli.parse_config(self.config, {"horizon": self.horizon})
        pipe = StreamPipeline(config.params, emission=config.emission, seed=config.seed,
                              score_floor=config.score_floor)
        _wrap_plugins(tracer, pipe)
        traced = sha256()
        support = steps = 0
        for i in range(len(signal)):
            tracer.obs = i
            if i == rows_first:
                tracer.call("snapshot.save", save_snapshot, pipe, self.snapshot)
                pipe = tracer.call("snapshot.load", load_snapshot, self.snapshot)
                _wrap_plugins(tracer, pipe)
                _rebind_model(pipe, pipe.hmm)
            span = tracer.begin("pipeline.step")
            _traced_advance(tracer, pipe, signal[i])
            fc = tracer.call("forecasting.forecast", forecast, pipe.hmm, self.horizon)
            record = {"i": pipe.n, "dummy": fc.is_dummy,
                      "steps": [{"j": j + 1, "dist": d} for j, d in enumerate(fc.steps)],
                      "seed": pipe.seed}
            text = tracer.call("cli.serialize", json.dumps, record, sort_keys=True)
            traced.update(text.encode())
            tracer.end(span)
            tracer.obs = -1
            s, k = _support(pipe.hmm, self.horizon)
            support, steps = support + s, steps + k
        tracer.obs = -1
        out.check(traced.digest() == digest.digest(), "traced records differ from the untraced run")
        metrics = layer_metrics(tracer, len(values), untraced_ns)
        metrics["forecasting.occupancy_support_mean"] = support / steps
        metrics["hmm.underflowed_rows"] = _underflowed_rows(pipe.isa, pipe.hmm)
        metrics["snapshot.bytes"] = os.path.getsize(self.snapshot)
        return Traces(metrics, out.attempted, out.problems)


# ---------------------------------------------------------------------------
# fit_grid4: `sigauto fit` over a four-entry grid that shares (lambda,
# grid_width), split at half.


class FitGrid4:
    name = "fit_grid4"

    def __init__(self, workdir: str):
        self.size = SIZES[self.name]
        self.workdir = workdir
        self.config = os.path.join(workdir, "fit_config.json")
        self.input = os.path.join(workdir, "fit_input.csv")
        self.output = os.path.join(workdir, "fit_report.json")
        _write_json(self.config, FIT_CONFIG)

    def write_input(self, seed: int, rep: int) -> None:
        values = walk(rng_for(seed, self.name, rep), self.size["rows"], 1)
        write_csv(self.input, "x", [repr(obs[0]) for obs in values])

    def grid(self, config) -> list[PluginParams]:
        """The grid `fit` evaluates: base parameters updated by each entry."""
        base = config.params.to_dict()
        return [
            PluginParams.from_dict({k: v for k, v in {**base, **entry}.items() if v is not None})
            for entry in config.grid
        ]

    def setup(self, meter: Meter) -> None:
        def build():
            config = cli.parse_config(self.config, {})
            return [StreamPipeline(p, score_floor=config.score_floor) for p in self.grid(config)]
        _setup(meter, build)

    def fit_once(self, out: Outcome, rep: int) -> dict:
        if os.path.exists(self.output):
            os.remove(self.output)
        code = out.meter.timed("result", cli.main, [
            "fit", "--config", self.config, "--input", self.input, "--output", self.output])
        out.attempted += 1
        report = {}
        if code == 0:
            with open(self.output, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        scores = report.get("scores", [])
        ok = (
            code == 0
            and len(scores) == len(FIT_CONFIG["grid"])
            and all(math.isfinite(s) and s <= 0.0 for s in scores)
            and report["best_index"] == max(range(len(scores)), key=lambda k: (scores[k], -k))
            and report["split"] == (self.size["rows"] - 1) // 2
        )
        out.failed += not out.check(ok, f"rep {rep}: exit {code}, report {str(report)[:120]}")
        return report

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        self.setup(out.meter)
        deadline = perf_counter() + seconds
        rep = 0
        while rep == 0 or perf_counter() < deadline:
            self.write_input(seed, rep)
            self.fit_once(out, rep)
            out.obs += self.size["rows"]
            rep += 1
        out.meter.calibrate(force=True)
        out.detail = {"fit_s": median(out.meter.normalized("result")) * 1e-9,
                      "failed_share": 0.0, "fits": rep}
        return out

    def trace(self, seed: int) -> Traces:
        out = Outcome()
        self.write_input(seed, 0)
        report = self.fit_once(out, 0)
        untraced_ns = out.meter.raw_busy_ns()
        config = cli.parse_config(self.config, {})

        tracer = Tracer()
        tracer.obs = 0
        signal = tracer.call("cli.parse", cli.read_signal, self.input)
        n = signal.last_instant
        split = n // 2
        scores, underflowed, support, steps = [], 0, 0, 0
        grid = self.grid(config)
        for e, params in enumerate(grid):
            tracer.obs = e * n
            entry = tracer.begin("forecasting.score")
            # `score` composed from the layers: warm up on [0, split), then
            # score the one-step forecast of every later observation.
            pipe = StreamPipeline(params, seed=0, score_floor=config.score_floor)
            _wrap_plugins(tracer, pipe)
            total, scored = 0.0, 0
            for i in range(n):
                tracer.obs = e * n + i
                span = tracer.begin("pipeline.step")
                _traced_advance(tracer, pipe, signal[i])
                if i >= split:
                    fc = tracer.call("forecasting.forecast", forecast, pipe.hmm, 1)
                    if fc.is_dummy:
                        p = 0.0
                    else:
                        p = fc.steps[0].get(pipe.clusterer.label_of(signal[i + 1]), 0.0)
                    total += math.log(max(p, config.score_floor))
                    scored += 1
                tracer.end(span)
                if i >= split:
                    tracer.obs = -1
                    s, k = _support(pipe.hmm, 1)
                    support, steps = support + s, steps + k
            tracer.end(entry)
            tracer.obs = -1
            scores.append(total / scored)
            underflowed += _underflowed_rows(pipe.isa, pipe.hmm)
        out.check(scores == report.get("scores"), "traced scores differ from `sigauto fit`")
        metrics = layer_metrics(tracer, n * len(grid), untraced_ns)
        metrics["forecasting.occupancy_support_mean"] = support / steps
        metrics["hmm.underflowed_rows"] = underflowed
        return Traces(metrics, out.attempted, out.problems)


# ---------------------------------------------------------------------------
# lookahead_h2: a frontier over a 20k history, then genuine advances, each
# followed by the frontier forecast.


class LookaheadH2:
    name = "lookahead_h2"
    params = LOOKAHEAD_PARAMS
    # The cost of an advance grows with the states a history visited; for a
    # plain random walk that count varies several-fold between seeds, so
    # the histories revert towards the origin (80-100 states each).
    revert = 1e-3

    def __init__(self, workdir: str):
        self.size = SIZES[self.name]
        self.workdir = workdir

    def values(self, seed: int, rep: int, extra: int) -> list[float]:
        history = self.size["history"]
        rng = rng_for(seed, self.name, rep)
        return [obs[0] for obs in walk(rng, history + extra, 1, self.revert)]

    def build(self, values: list[float]):
        return lookahead_build(values[: self.size["history"]], self.params, seed=0)

    @staticmethod
    def advance(frontier, value):
        lookahead_advance(frontier, value)
        return frontier.forecast()

    def advance_all(self, out: Outcome, frontier, values, stop) -> list[str]:
        """Advance over ``values`` until ``stop(k)``; forecasts as JSON texts."""
        texts = []
        for k, value in enumerate(values):
            if stop(k):
                break
            fc = out.meter.timed("result", self.advance, frontier, value)
            ok = len(fc.steps) == self.params.horizon and all(
                abs(sum(d.values()) - 1.0) <= REL_TOL for d in fc.steps)
            out.failed += not out.check(ok, f"advance {k}: forecast {fc}")
            texts.append(json.dumps([fc.is_dummy, fc.steps], sort_keys=True))
        out.attempted += len(texts)
        return texts

    def check_fresh(self, out: Outcome, frontier) -> None:
        """The advanced frontier equals a fresh build over the same signal."""
        fresh = lookahead_build(list(frontier.signal), self.params, seed=0)
        out.check(frontier.fingerprint() == fresh.fingerprint(),
                  f"frontier at n={frontier.n} differs from a fresh build")

    def run(self, seed: int, seconds: float) -> Outcome:
        """Repeatedly: build a frontier over a fresh history (a set-up), then
        advance it over the next observations, until ``seconds`` have passed."""
        out = Outcome()
        deadline = perf_counter() + seconds
        rep = 0
        while rep == 0 or perf_counter() < deadline:
            values = self.values(seed, rep, extra=self.size["advances"])
            frontier = _setup(out.meter, lambda: self.build(values), reps=1)
            texts = self.advance_all(out, frontier, values[self.size["history"]:],
                                     lambda k: k > 0 and perf_counter() >= deadline)
            out.obs += len(texts)
            rep += 1
        out.meter.calibrate(force=True)
        out.detail = {"failed_share": 0.0, "histories": rep,
                      "build_s": median(out.meter.normalized("setup")) * 1e-9}
        out.final_checks.append(lambda: self.check_fresh(out, frontier))
        return out

    def trace(self, seed: int) -> Traces:
        out = Outcome()
        count = self.size["traced_advances"]
        values = self.values(seed, 0, extra=count)
        genuine = values[self.size["history"]:]
        frontier = self.build(values)
        untraced = self.advance_all(out, frontier, genuine, lambda k: False)
        untraced_ns = out.meter.raw_busy_ns()

        tracer = Tracer()
        frontier = self.build(values)
        _wrap_plugins(tracer, frontier)
        for model in [frontier.base_hmm] + [e.hmm for e in frontier.entries if e is not None]:
            _rebind_model(frontier, model)
        traced: list[str] = []
        reused = built = poisoned = support = steps = 0
        for k, value in enumerate(genuine):
            tracer.obs = k
            before = list(frontier.entries)
            tracer.call("lookahead.advance", lookahead_advance, frontier, value)
            fc = tracer.call("lookahead.forecast", frontier.forecast)
            tracer.obs = -1
            traced.append(json.dumps([fc.is_dummy, fc.steps], sort_keys=True))
            reused += bool(before) and before[0] is not None and frontier.base_isa is before[0].isa
            built += sum(1 for e in frontier.entries
                         if e is not None and all(e is not b for b in before))
            newest = frontier.entries[-1] if frontier.entries else None
            poisoned += newest is None
            if newest is not None:
                s, j = _support(newest.hmm, self.params.horizon)
                support, steps = support + s, steps + j
        out.check(traced == untraced, "traced forecasts differ from the untraced run")
        self.check_fresh(out, frontier)
        metrics = layer_metrics(tracer, count, untraced_ns)
        metrics.update({
            "lookahead.reuse_share": reused / count,
            "lookahead.entries_built_per_advance": built / count,
            "lookahead.poisoned_share": poisoned / count,
            "forecasting.occupancy_support_mean": support / max(steps, 1),
            "hmm.underflowed_rows": _underflowed_rows(frontier.base_isa, frontier.base_hmm),
        })
        return Traces(metrics, out.attempted, out.problems)


# ---------------------------------------------------------------------------
# continuous_mixed: continuous-emission steps on a 2-d walk, with a density
# query for the next observation every `query_every` steps.


class ContinuousMixed:
    name = "continuous_mixed"
    params = CONTINUOUS_PARAMS

    def __init__(self, workdir: str):
        self.size = SIZES[self.name]
        self.workdir = workdir

    def setup(self, meter: Meter) -> None:
        _setup(meter, lambda: StreamPipeline(self.params, emission="continuous"))

    def values(self, seed: int, rep: int) -> list[tuple[float, float]]:
        return walk(rng_for(seed, self.name, rep), self.size["obs"], 2)

    def is_query(self, k: int) -> bool:
        return (k + 1) % self.size["query_every"] == 0 and k + 1 < self.size["obs"]

    def stream(self, out: Outcome, seed: int, rep: int, digest=None) -> list[float]:
        """One repetition; returns the density answers."""
        values = self.values(seed, rep)
        pipe = StreamPipeline(self.params, emission="continuous")
        meter = out.meter
        densities, samples = [], []
        dummies = 0
        for k, obs in enumerate(values):
            meter.calibrate()
            t0 = meter.begin()
            record = pipe.step(obs)
            meter.sample("result", meter.end() - t0)
            dummies += record["dummy"]
            mass = sum(record["steps"][0]["states"].values())
            out.failed += not out.check(abs(mass - 1.0) <= REL_TOL,
                                        f"rep {rep} step {k}: occupancy mass {mass}")
            if digest is not None:
                digest.update(json.dumps(record, sort_keys=True).encode())
            if not self.is_query(k):
                continue
            x = values[k + 1]
            density = meter.timed("query", forecast_density_at, pipe.hmm, pipe.signal, 1, x)
            densities.append(density)
            if len(densities) % self.size["check_every"] == 1:
                samples.append((k + 1, x, density, self.mixture_of(pipe)))
        out.attempted += len(values) + len(densities)
        out.obs += len(values)
        out.check(dummies == distinct_cells(values),
                  f"rep {rep}: {dummies} dummy records, {distinct_cells(values)} states")
        for n, x, density, mixture in samples:
            ref = reference_density(values[:n], x, mixture)
            out.failed += not out.check(_close(density, ref),
                                        f"rep {rep} n={n}: density {density} != {ref}")
        return densities

    @staticmethod
    def mixture_of(pipe) -> list[tuple[float, tuple[int, ...]]]:
        """(weight, center instants) of every real state reachable in one step."""
        occupancy = state_occupancies(pipe.hmm, 1)[-1]
        return [(w, pipe.hmm.mixture(q)[0]) for q, w in occupancy.items()
                if q != DUMMY_STATE and w > 0.0]

    def run(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        self.setup(out.meter)
        deadline = perf_counter() + seconds
        rep = 0
        while rep == 0 or perf_counter() < deadline:
            self.stream(out, seed, rep)
            rep += 1
        out.meter.calibrate(force=True)
        queries = out.meter.normalized("query")
        p50, tail, label = latency_summary(queries)
        out.detail = {"density_query_p50_ms": p50 * 1e-6, "density_query_tail_ms": tail * 1e-6,
                      "density_query_tail_percentile": label, "density_queries": len(queries),
                      "failed_share": 0.0, "repetitions": rep}
        return out

    def trace(self, seed: int) -> Traces:
        out = Outcome()
        digest = sha256()
        untraced_densities = self.stream(out, seed, 0, digest)
        untraced_ns = out.meter.raw_busy_ns()

        tracer = Tracer()
        traced_digest = sha256()
        values = self.values(seed, 0)
        pipe = StreamPipeline(self.params, emission="continuous")
        _wrap_plugins(tracer, pipe)
        densities, centers, support = [], 0, 0
        for k, obs in enumerate(values):
            tracer.obs = k
            span = tracer.begin("pipeline.step")
            _traced_advance(tracer, pipe, obs)
            occupancy = tracer.call("forecasting.forecast", state_occupancies,
                                    pipe.hmm, self.params.horizon)
            record = {"i": pipe.n, "dummy": pipe.hmm.current_is_new,
                      "steps": [{"j": j + 1, "states": o} for j, o in enumerate(occupancy)],
                      "seed": pipe.seed}
            tracer.end(span)
            tracer.obs = -1
            support += len(occupancy[0])
            traced_digest.update(json.dumps(record, sort_keys=True).encode())
            if not self.is_query(k):
                continue
            tracer.obs = k
            kernel = tracer.call("plugins.bandwidth",
                                 lambda: Kernel(default_bandwidth(pipe.signal)))
            densities.append(tracer.call("hmm.density", forecast_density_at,
                                         pipe.hmm, pipe.signal, 1, values[k + 1], kernel))
            tracer.obs = -1
            centers += sum(len(c) for _w, c in self.mixture_of(pipe))
        out.check(traced_digest.digest() == digest.digest(),
                  "traced records differ from the untraced run")
        out.check(densities == untraced_densities, "traced densities differ from the untraced run")
        metrics = layer_metrics(tracer, len(values), untraced_ns)
        metrics["hmm.centers_per_query"] = centers / max(len(densities), 1)
        metrics["forecasting.occupancy_support_mean"] = support / len(values)
        metrics["hmm.underflowed_rows"] = _underflowed_rows(pipe.isa, pipe.hmm)
        return Traces(metrics, out.attempted, out.problems)


def reference_density(prefix, x, mixture) -> float:
    """Uniform normal mixture density at ``x`` with Scott's diagonal bandwidth,
    evaluated independently of sigauto with numpy."""
    data = np.asarray(prefix, dtype=float)
    n, d = data.shape
    h2 = np.maximum(n ** (-1.0 / (d + 4)) * data.std(axis=0, ddof=1), 1e-6) ** 2
    norm = (2.0 * math.pi) ** (-d / 2.0) / math.sqrt(float(np.prod(h2)))
    total = 0.0
    for weight, instants in mixture:
        diff = np.asarray(x, dtype=float) - data[list(instants)]
        total += weight * float(np.mean(norm * np.exp(-0.5 * np.sum(diff * diff / h2, axis=1))))
    return total


# ---------------------------------------------------------------------------
# Summary statistics


TAIL_CAP = 0.995


def latency_summary(samples) -> tuple[float, float, str]:
    """(median, tail, tail label) of a latency sample.

    The tail is the sample with ten samples beyond it, the highest
    percentile the sample supports, but never beyond p99.5: past that point
    single stalls of the shared host and of the garbage collector decide
    the figure, and it moved by 10-15% between seeds.  With ten samples or
    fewer the tail is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n if n <= 10 else min(n - 10, math.ceil(TAIL_CAP * n))
    return median(ordered), float(ordered[rank - 1]), f"p{100.0 * rank / n:.4g} of {n}"


def known_defects(workdir: str) -> list[tuple[str, str]]:
    """Known program defects, probed on every run and never timed.

    Each status reads "present" until the program is fixed, then "fixed".
    """
    path = os.path.join(workdir, "probe.csv")
    output = os.path.join(workdir, "probe.jsonl")
    write_csv(path, "x", ["1.0", "3.0,4.0", "2.0"])
    saved = sys.stderr
    sys.stderr = io.StringIO()
    try:
        code = cli.main(["run", "--input", path, "--output", output])
    finally:
        sys.stderr = saved
    with open(output, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    if code == 0 and len(records) == 3 and records[1].get("line") == 3:
        status = "fixed (the 2-column row in a 1-d stream became an error record)"
    else:
        status = (f"present (non-strict `run` exits {code} after {len(records)} of 3 records "
                  "instead of writing an error record for the 2-column row on line 3)")
    return [("wrong-width-row-aborts-run", status)]


WORKLOADS = {cls.name: cls for cls in (RunH3Resume, FitGrid4, LookaheadH2, ContinuousMixed)}
