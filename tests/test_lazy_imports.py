"""``import sigauto`` loads no stage, and ``import sigauto.cli`` loads only
the stages that ``run`` and ``fit`` use: neither ``dataclasses`` (with the
``inspect`` it imports) nor ``bench`` or ``lookahead``.  A subcommand
imports the stages it runs when it runs them; ``snapshot`` only for
``--snapshot`` or ``--resume``.  ``logging`` is loaded only when
``SIGAUTO_LOG`` is ``info`` or ``debug``: with it unset, neither the import
nor any command loads it.

Checked in a fresh interpreter, because this test process has imported every
module long before.  The checks are on which modules are loaded, never on
timings.  The package's names resolve through its module ``__getattr__``
and are listed by its ``__dir__``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigauto

from conftest import random_walk

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("dataclasses", "inspect", "logging", "sigauto.bench", "sigauto.lookahead",
           "sigauto.snapshot")

# Prints, after ``import sigauto``, ``import sigauto.cli`` and each command
# in turn, the package modules and the watched modules loaded so far.
SCRIPT = r"""
import json, os, sys

work = sys.argv[1]
path = lambda name: os.path.join(work, name)
commands = {
    "run": ["run", "--input", path("a.csv"), "--output", path("a.jsonl"), "--horizon", "2"],
    "fit": ["fit", "--input", path("a.csv"), "--config", path("grid.json"),
            "--output", path("fit.json")],
    "run --snapshot": ["run", "--input", path("a.csv"), "--output", path("s.jsonl"),
                       "--snapshot", path("snap.json")],
    "run --resume": ["run", "--input", path("b.csv"), "--output", path("b.jsonl"),
                     "--resume", path("snap.json")],
    "lookahead": ["lookahead", "--input", path("a.csv"), "--output", path("ahead.jsonl"),
                  "--horizon", "2"],
}
watched = %r
loaded = {}
snap = lambda: sorted(m for m in sys.modules if m.startswith("sigauto") or m in watched)

import sigauto
loaded["import sigauto"] = snap()
import sigauto.cli
loaded["import sigauto.cli"] = snap()
for name, argv in commands.items():
    assert sigauto.cli.main(argv) == 0, name
    loaded[name] = snap()
print(json.dumps(loaded))
""" % (WATCHED,)


def write_csv(path, rows):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("imports")
    walk = random_walk(80, seed=23)
    write_csv(work / "a.csv", walk[:50])
    write_csv(work / "b.csv", walk[50:])
    (work / "grid.json").write_text(json.dumps({"grid": [
        {"stat_variant": "count"}, {"stat_variant": "discounted_sum", "delta": 0.5}]}))
    return work


def run_script(work, log_level=None):
    """What ``SCRIPT`` prints, with ``SIGAUTO_LOG`` set to ``log_level`` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "SIGAUTO_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if log_level is not None:
        env["SIGAUTO_LOG"] = log_level
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name: set(modules) for name, modules in
            json.loads(proc.stdout.splitlines()[-1]).items()}


@pytest.fixture(scope="module")
def loaded(work):
    return run_script(work)


def test_import_sigauto_loads_no_stage(loaded):
    assert loaded["import sigauto"] == {"sigauto"}


def test_import_cli_loads_the_run_and_fit_stages_only(loaded):
    assert loaded["import sigauto.cli"] == {
        "sigauto", "sigauto.cli", "sigauto.errors", "sigauto.signal",
        "sigauto.automaton", "sigauto.plugins", "sigauto.hmm", "sigauto.forecasting",
        "sigauto.pipeline"}


def test_run_and_fit_add_no_module(loaded):
    assert loaded["run"] == loaded["fit"] == loaded["import sigauto.cli"]


def test_snapshot_flags_load_the_snapshot_module_only(loaded):
    assert loaded["run --snapshot"] == loaded["import sigauto.cli"] | {"sigauto.snapshot"}
    assert loaded["run --resume"] == loaded["run --snapshot"]


def test_lookahead_loads_its_stage_but_no_bench_or_dataclasses(loaded):
    assert loaded["lookahead"] == loaded["run --resume"] | {"sigauto.lookahead"}
    assert not {"sigauto.bench", "dataclasses", "inspect"} & loaded["lookahead"]


def test_logging_is_loaded_only_when_sigauto_log_asks_for_output(work, loaded):
    assert all("logging" not in modules for modules in loaded.values()), loaded
    for name, modules in run_script(work, "info").items():  # main() configures it
        assert ("logging" in modules) == (not name.startswith("import ")), name


def test_every_public_name_resolves_to_its_modules_object():
    for name in sigauto.__all__:
        module = importlib.import_module(f"sigauto.{sigauto._MODULE_OF[name]}")
        assert getattr(sigauto, name) is getattr(module, name), name
    assert set(sigauto.__all__) <= set(dir(sigauto))
    assert "__version__" in dir(sigauto)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sigauto.no_such_name
