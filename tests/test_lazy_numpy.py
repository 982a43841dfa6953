"""numpy is loaded by the first kernel, bandwidth or sampler call, not by
``import sigauto`` or a discrete subcommand.

Checked in a fresh interpreter, because this test process has imported numpy
long before.  The checks are on which modules are loaded, never on timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sigauto import PluginParams, StreamPipeline, default_bandwidth, forecast_density_at

from conftest import random_walk

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each subcommand that needs no kernel, then one call that does; prints
# where numpy was first seen loaded, and the call's result.
SCRIPT = r"""
import json, os, sys
from sigauto import cli

work, call = sys.argv[1], sys.argv[2]
path = lambda name: os.path.join(work, name)
commands = {
    "run --snapshot": ["run", "--input", path("a.csv"), "--output", path("a.jsonl"),
                       "--horizon", "2", "--snapshot", path("snap.json")],
    "run --resume": ["run", "--input", path("b.csv"), "--output", path("b.jsonl"),
                     "--resume", path("snap.json")],
    "fit": ["fit", "--input", path("a.csv"), "--config", path("grid.json"),
            "--output", path("fit.json")],
    "lookahead": ["lookahead", "--input", path("a.csv"), "--output", path("ahead.jsonl"),
                  "--horizon", "2"],
    "continuous run": ["run", "--mode", "continuous", "--input", path("c.csv"),
                       "--output", path("c.jsonl"), "--horizon", "2"],
}
loaded = ["import sigauto.cli"] if "numpy" in sys.modules else []
for name, argv in commands.items():
    assert cli.main(argv) == 0, name
    if "numpy" in sys.modules and not loaded:
        loaded.append(name)

import sigauto
rows = [tuple(row) for row in json.load(open(path("c.json")))]
if call == "bandwidth":
    result = sigauto.default_bandwidth(sigauto.Signal(rows)).tolist()
else:
    pipe = sigauto.StreamPipeline(sigauto.PluginParams(horizon=2), emission="continuous")
    for row in rows:
        pipe.advance(row)
    if "numpy" in sys.modules and not loaded:
        loaded.append("continuous pipeline")
    result = sigauto.forecast_density_at(pipe.hmm, pipe.signal, 2, rows[-1])
print(json.dumps({"loaded_before": loaded, "loaded_after": "numpy" in sys.modules,
                  "result": result}))
"""


def write_csv(path, rows):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("lazy")
    walk = random_walk(80, seed=21)
    write_csv(work / "a.csv", walk[:50])
    write_csv(work / "b.csv", walk[50:])
    plane = random_walk(60, dim=2, seed=22)
    write_csv(work / "c.csv", plane)
    (work / "c.json").write_text(json.dumps(plane))
    (work / "grid.json").write_text(json.dumps({"grid": [
        {"stat_variant": "count"}, {"stat_variant": "discounted_sum", "delta": 0.5}]}))
    return work, plane


def run_fresh(work, call) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(work), call], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bandwidth_call_loads_numpy_after_numpy_free_subcommands(inputs):
    work, plane = inputs
    out = run_fresh(work, "bandwidth")
    assert out["loaded_before"] == []
    assert out["loaded_after"]
    assert out["result"] == default_bandwidth(plane).tolist()


def test_density_call_loads_numpy_after_a_scott_pipeline(inputs):
    work, plane = inputs
    out = run_fresh(work, "density")
    assert out["loaded_before"] == []
    assert out["loaded_after"]
    pipe = StreamPipeline(PluginParams(horizon=2), emission="continuous")
    for row in plane:
        pipe.advance(row)
    assert out["result"] == forecast_density_at(pipe.hmm, pipe.signal, 2, plane[-1])
