"""What ``SIGAUTO_LOG`` prints on stderr.

Unset, ``error`` or a value sigauto does not know (``warning``) prints
nothing: no subcommand writes a line to stderr, not even the notice that a
non-additive ``latest_occurrence`` emission statistic falls back to
``count``.  ``info`` prints that notice once for each discrete model a
subcommand builds (none for a continuous ``run``) and the two lines of a
``run`` with ``--snapshot``.

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


FALLBACK = ("WARNING sigauto.plugins: stat variant 'latest_occurrence' is not additive; "
            "emissions use 'count'\n")


@pytest.mark.parametrize("command, fallbacks, run", [
    ("run discrete", 1, True),
    ("run continuous", 0, True),  # a continuous model has no emission statistic
    ("fit", 2, False),  # one discrete model per grid entry
    ("lookahead", 1, False),
])
def test_info_prints_the_fallback_and_the_run(work, command, fallbacks, run):
    snapshot = work / "info-snap.json"
    argv = [str(snapshot) if a == "SNAP" else a for a in COMMANDS[command]]
    lines = FALLBACK * fallbacks
    if run:
        lines += ("INFO sigauto: processed 40 observations, stream is at instant 39\n"
                  f"INFO sigauto: snapshot written to {snapshot}\n")
    assert sigauto(work, argv, "info") == (0, lines)
