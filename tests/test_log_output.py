"""What ``SIGAUTO_LOG`` prints on stderr.

Unset, ``error`` or a value sigauto does not know (``warning``) prints
nothing: no subcommand writes a line to stderr, not even the notice that a
non-additive ``latest_occurrence`` emission statistic falls back to
``count``.  ``info`` prints that notice and the two lines of a ``run`` with
``--snapshot``.

Each case runs the command line in a fresh interpreter, so the logging
configuration of this test process plays no part.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_walk

SRC = Path(__file__).resolve().parent.parent / "src"
MAIN = "import sys; from sigauto.cli import main; sys.exit(main(sys.argv[1:]))"
CONFIG = {"stat_variant": "latest_occurrence", "region": [[0, 2]],
          "grid": [{"lambda": 0.5}, {"lambda": 0.9}]}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("log")
    (work / "in.csv").write_text("".join(f"{x!r}\n" for (x,) in random_walk(40, seed=31)))
    (work / "config.json").write_text(json.dumps(CONFIG))
    return work


def sigauto(work, argv, level):
    """Exit code and stderr of ``sigauto argv`` with ``SIGAUTO_LOG=level``
    (unset for None), reading ``in.csv`` and ``config.json``."""
    env = {k: v for k, v in os.environ.items() if k != "SIGAUTO_LOG"}
    env["PYTHONPATH"] = str(SRC)
    if level is not None:
        env["SIGAUTO_LOG"] = level
    argv = [argv[0], "--input", str(work / "in.csv"), "--config", str(work / "config.json"),
            "--output", str(work / f"{argv[0]}.out"), *argv[1:]]
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


COMMANDS = {
    "run discrete": ["run", "--snapshot", "SNAP"],
    "run continuous": ["run", "--mode", "continuous", "--snapshot", "SNAP"],
    "fit": ["fit"],
    "lookahead": ["lookahead"],
}


@pytest.mark.parametrize("level", [None, "error", "warning"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_the_default_level_prints_nothing(work, command, level):
    argv = [str(work / "snap.json") if a == "SNAP" else a for a in COMMANDS[command]]
    assert sigauto(work, argv, level) == (0, "")


def test_info_prints_the_fallback_and_the_run(work):
    snapshot = work / "info-snap.json"
    assert sigauto(work, ["run", "--snapshot", str(snapshot)], "info") == (0, (
        "WARNING sigauto.plugins: stat variant 'latest_occurrence' is not additive; "
        "emissions use 'count'\n"
        "INFO sigauto: processed 40 observations, stream is at instant 39\n"
        f"INFO sigauto: snapshot written to {snapshot}\n"))
