"""``tools/reach.py``: a traced run's report of the statements it never ran."""

import subprocess
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def reach(*args):
    proc = subprocess.run([sys.executable, str(REACH), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def signal_spans(report):
    """The enclosing names of the unreached spans reported for signal.py."""
    lines = report.splitlines()
    start = lines.index("src/sigauto/signal.py") + 1
    spans = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        spans.append(line.split()[1])
    return spans


def test_a_traced_script_reaches_what_it_calls(tmp_path):
    script, out = tmp_path / "append.py", tmp_path / "lines.json"
    script.write_text("from sigauto import Signal\n"
                      "signal = Signal()\n"
                      "signal.append(1.0)\n")
    reach("trace", out, "--", script)
    spans = signal_spans(reach("report", out))
    assert "Signal.__repr__" in spans
    assert "Signal.append" not in spans
    # a second run merges into the same file
    script.write_text("from sigauto import Signal\nrepr(Signal([1.0]))\n")
    reach("trace", out, "--", script)
    assert "Signal.__repr__" not in signal_spans(reach("report", out))
