"""Benchmark command: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload run_h3_resume --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process (``worker.py``).  With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced replay.  The last line
of standard output is the result object; ``--workload all`` runs every
workload in turn and ends with one object whose metric names are prefixed
by the workload.  Scratch files live in a temporary directory inside the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("run_h3_resume", "fit_grid4", "lookahead_h2", "continuous_mixed")


def child_timeout_s(seconds: int) -> int:
    """A worker measures for ``seconds``, then checks its outputs and probes
    the known defects (well under a minute at the default sizes)."""
    return 2 * seconds + 130


def run_worker(name: str, args, workdir: str) -> dict | None:
    """Run one workload in a child process; relay its report, return its result."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    timeout = child_timeout_s(args.seconds)
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"benchmark: {name} did not finish within {timeout} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"benchmark: {name} exited {proc.returncode} without a result", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        results = {}
        for name in names:
            result = run_worker(name, args, workdir)
            if result is None:
                return 1
            results[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
