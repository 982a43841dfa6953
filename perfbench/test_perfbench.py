"""Structure-only tests of the benchmark: no wall-clock asserts.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  The
workloads run here with tiny sizes; the figures they print are not checked,
only that every declared metric is reported, that outputs are checked and
that the seed decides the inputs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import worker

sys.path.insert(0, worker.SRC)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "run_h3_resume": {"rows": 600, "malformed": 6},
    "fit_grid4": {"rows": 400},
    "lookahead_h2": {"history": 300, "advances": 20, "traced_advances": 20},
    "continuous_mixed": {"obs": 1_200, "query_every": 100, "check_every": 2},
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def tiny(monkeypatch):
    for name, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, size)


def run_worker(capsys, tmp_path, name: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    code = worker.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                        "--trace", str(trace), "--workdir", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1])


def test_benchmark_json_follows_the_contract():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"][0] == "python3" and len(doc["command"]) <= 32
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = names + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(every) == len(set(every)) and all(NAME.match(n) for n in every)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported(capsys, tmp_path, tiny, name, trace):
    code, result = run_worker(capsys, tmp_path, name, trace)
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs_other_seed_other_inputs():
    def run_inputs(seed):
        rng = inputs.rng_for(seed, "run_h3_resume", 0)
        return inputs.csv_rows(inputs.walk(rng, 500, 1), rng, 10)

    assert run_inputs(7) == run_inputs(7)
    assert run_inputs(7) != run_inputs(8)
    assert inputs.walk(inputs.rng_for(7, "a", 0), 50, 2) != inputs.walk(
        inputs.rng_for(7, "a", 1), 50, 2)
    rows = run_inputs(7)
    assert len(rows) == 510 and sum(r in inputs.MALFORMED for r in rows) == 10


def test_seed_decides_the_outputs(tmp_path, tiny):
    fit = workloads.FitGrid4(str(tmp_path))
    reports = []
    for seed in (5, 5, 6):
        fit.write_input(seed, 0)
        report = fit.fit_once(workloads.Outcome(), 0)
        reports.append(report["scores"])
    assert reports[0] == reports[1] != reports[2]


def test_run_check_catches_a_wrong_forecast(tmp_path, tiny, monkeypatch):
    import sigauto.pipeline

    real = sigauto.pipeline.forecast

    def skewed(hmm, horizon):
        fc = real(hmm, horizon)
        fc.steps[-1] = {k: 0.9 * v for k, v in fc.steps[-1].items()}
        return fc

    monkeypatch.setattr(sigauto.pipeline, "forecast", skewed)
    out = workloads.RunH3Resume(str(tmp_path)).run(seed=1, seconds=0)
    assert out.failed > 0 and out.problems


def test_run_counts_refused_valid_rows(tmp_path, tiny, monkeypatch):
    import sigauto.cli

    out = workloads.RunH3Resume(str(tmp_path)).run(seed=1, seconds=0)
    size = TINY["run_h3_resume"]
    assert not out.problems
    assert out.detail["failed_share"] == size["malformed"] / (size["rows"] + size["malformed"])

    real = sigauto.cli._parse_row

    def refuse_some(raw):
        if raw.endswith("7"):
            raise sigauto.RejectedInputError("refused")
        return real(raw)

    monkeypatch.setattr(sigauto.cli, "_parse_row", refuse_some)
    out = workloads.RunH3Resume(str(tmp_path)).run(seed=1, seconds=0)
    assert out.failed > 0 and out.problems
    assert out.detail["failed_share"] > size["malformed"] / (size["rows"] + size["malformed"])


def test_fit_check_catches_a_wrong_best_index(tmp_path, tiny, monkeypatch):
    import sigauto.cli

    real = sigauto.cli.fit

    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        report.best_index = (report.best_index + 1) % len(report.scores)
        return report

    monkeypatch.setattr(sigauto.cli, "fit", wrong)
    out = workloads.FitGrid4(str(tmp_path)).run(seed=1, seconds=0)
    assert out.failed == 1 and out.problems


def test_lookahead_check_catches_a_diverged_frontier(tmp_path, tiny, monkeypatch):
    real = workloads.lookahead_advance

    def diverge(frontier, value):
        real(frontier, value)
        frontier.base_isa.new_state_instants.append(-1)
        return frontier

    monkeypatch.setattr(workloads, "lookahead_advance", diverge)
    out = workloads.LookaheadH2(str(tmp_path)).run(seed=1, seconds=0)
    for check in out.final_checks:
        check()
    assert out.problems


def test_continuous_check_catches_a_wrong_density(tmp_path, tiny, monkeypatch):
    real = workloads.forecast_density_at
    monkeypatch.setattr(workloads, "forecast_density_at",
                        lambda *args: real(*args) * (1.0 + 1e-6))
    out = workloads.ContinuousMixed(str(tmp_path)).run(seed=1, seconds=0)
    assert out.failed > 0 and out.problems


def test_known_defect_probe_reports_a_status(tmp_path):
    [(name, status)] = workloads.known_defects(str(tmp_path))
    assert name == "wrong-width-row-aborts-run"
    assert status.startswith(("present", "fixed"))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.latency_summary(range(1, 1001)) == (500.5, 990.0, "p99 of 1000")
    assert workloads.latency_summary(range(1, 41)) == (20.5, 30.0, "p75 of 40")
    assert workloads.latency_summary(range(1, 20_001))[1:] == (19_900.0, "p99.5 of 20000")
    assert workloads.latency_summary(range(1, 8)) == (4, 7.0, "p100 of 7")


def test_self_time_excludes_children_and_bookkeeping():
    tracer = tracing.Tracer()
    tracer.obs = 0
    outer = tracer.begin("outer")
    tracer.call("inner", sum, range(1000))
    tracer.call("inner", sum, range(1000))
    tracer.end(outer)
    tracer.obs = -1
    tracer.call("inner", sum, range(1000))
    spans = tracer.summary()
    assert spans["inner"]["count"] == 2
    assert spans["outer"]["self_ns"] + spans["inner"]["ns"] == spans["outer"]["ns"]
    assert tracer.top_level_ns() == spans["outer"]["ns"]


def test_traced_proxy_forwards_state():
    tracer = tracing.Tracer()

    class Counter:
        def __init__(self):
            self.n = 0

        def bump(self):
            self.n += 1
            return self.n

    target = Counter()
    proxy = tracing.Traced(tracer, target, "counter", ["bump"])
    tracer.obs = 0
    assert proxy.bump() == 1 and proxy.n == 1
    proxy.n = 5
    assert target.n == 5 and tracer.summary()["counter"]["count"] == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_grid4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".perfbench-")]
