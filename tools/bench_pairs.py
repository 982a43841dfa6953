"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent REV

The parent's committed files are exported (``git archive``) into a
temporary directory, which is removed on every exit path.  For each of
``PAIRS`` pairs k and each workload in BENCHMARK.json,
``perfbench/run.py --trace 0`` runs once in each checkout
with seed ``SEED_BASE + k`` and BENCHMARK.json's ``run_seconds``; the parent
runs first when k is even.  A run that fails or reports ``correct: false``
is kept in the record.

Per workload and end-to-end metric the report gives the parent's median and
interquartile range (IQR), the change's median, the pairs the change wins,
ties and loses by the metric's ``better``, whether the gain rule holds (at
least ten pairs, at least 9 in 10 of them won, and a median gap larger than
the parent's IQR), whether the change is worse than the parent by more than
the metric's ``bound``, and whether the metric is unresolved: the parent's
IQR is wider than the bound and not every change run beats every parent
run, so the runs spread too widely to call it unchanged.  A pair with a
failed side counts as no win, tie or loss, so it counts against a gain.
Per workload it also gives each side's share of failed operations, and
whether the change's share is larger than the parent's.  The report also
records the environment the runs shared (``environment()``): ``setup_s``
includes importing sigauto, which compiles its sources when no bytecode is
cached.  The last line is the JSON record of every run and verdict, for a
``BENCH_<pr>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 101
PAIRS = 10


def failed(run: dict | None) -> bool:
    """A run with no result, or one whose output checks failed."""
    return run is None or not run.get("correct", False)


def verdict(pairs: list[tuple[dict | None, dict | None]], metric: str, better: str,
            bound: float) -> dict:
    """The verdict on one metric over ``pairs`` of (parent, change) results.

    Medians and the parent's IQR are over the runs that did not fail; a
    pair is won, tied or lost only when neither side failed."""
    sign = 1.0 if better == "higher" else -1.0

    def value(run: dict) -> float:
        return run["metrics"][metric]["value"]

    parent = [value(p) for p, _ in pairs if not failed(p)]
    change = [value(c) for _, c in pairs if not failed(c)]
    wins = ties = losses = 0
    for p, c in pairs:
        if failed(p) or failed(c):
            continue
        gap = sign * (value(c) - value(p))
        wins, ties, losses = wins + (gap > 0), ties + (gap == 0), losses + (gap < 0)
    out = {"parent_median": None, "parent_iqr": None, "change_median": None,
           "wins": wins, "ties": ties, "losses": losses,
           "failed_pairs": len(pairs) - wins - ties - losses, "gain": False, "worse": None,
           "unresolved": None}
    if not parent or not change:
        return out
    p_med, c_med = median(parent), median(change)
    q1, _, q3 = quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
    gap = sign * (c_med - p_med)
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    out.update(parent_median=p_med, parent_iqr=q3 - q1, change_median=c_med,
               gain=len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs) and gap > q3 - q1,
               worse=-gap > bound * abs(p_med),
               unresolved=q3 - q1 > bound * abs(p_med) and not beats_all)
    return out


def failed_share(runs: list[dict | None]) -> float | None:
    """Failed operations over attempted ones, across the runs with a result."""
    attempted = sum(r["attempted"] for r in runs if r is not None)
    return sum(r["failed"] for r in runs if r is not None) / attempted if attempted else None


def summary(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> dict:
    """The record of one workload over ``pairs``: each side's failed share,
    whether the change's is larger (None when a side has no result), the
    verdict on each of ``metrics`` (BENCHMARK.json's ``end_to_end``) and
    the runs."""
    shares = {side: failed_share([pair[i] for pair in pairs])
              for i, side in enumerate(("parent", "change"))}
    return {"failed_share": shares,
            "failed_share_worse": (None if None in shares.values()
                                   else shares["change"] > shares["parent"]),
            "verdicts": {m["name"]: verdict(pairs, m["name"], m["better"], m["bound"])
                         for m in metrics},
            "runs": [{"seed": SEED_BASE + k, "parent": p, "change": c}
                     for k, (p, c) in enumerate(pairs)]}


def environment() -> dict:
    """The Python version, whether PYTHONDONTWRITEBYTECODE is set (no
    bytecode is written, so each import of a fresh checkout compiles its
    sources), and the CPUs this process may run on."""
    return {"python": sys.version.split()[0],
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "cpus": len(os.sched_getaffinity(0))}


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict | None:
    """One ``perfbench/run.py --trace 0`` in ``checkout``; its result, or None."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench_pairs: {workload} seed {seed} in {checkout} exited "
              f"{proc.returncode} without a result", file=sys.stderr)
        return None


def export(rev: str, into: str) -> None:
    """The committed files of ``rev``, written under ``into``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    # SIGTERM ends the run through the ``finally`` below, like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        export(args.parent, scratch)
        checkouts = {"parent": scratch, "change": ROOT}
        runs = {name: [] for name in names}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name in names:
                pair = {side: run_once(checkouts[side], name, SEED_BASE + k, seconds)
                        for side in order}
                runs[name].append((pair["parent"], pair["change"]))
                print(f"pair {k} {name}: " + ", ".join(
                    f"{side} {'failed' if failed(pair[side]) else 'ok'}" for side in order),
                    file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {"parent": args.parent, "pairs": PAIRS, "seconds": seconds,
              "seeds": [SEED_BASE, SEED_BASE + PAIRS - 1], "environment": environment(),
              "workloads": {}}
    for name in names:
        record = report["workloads"][name] = summary(runs[name], spec["end_to_end"])
        shares = record["failed_share"]
        print(f"{name}: failed share parent {shares['parent']}, change {shares['change']}; "
              f"failed share worse {record['failed_share_worse']}")
        for metric, v in record["verdicts"].items():
            print(f"  {metric}: parent {v['parent_median']} (IQR {v['parent_iqr']}), "
                  f"change {v['change_median']}; {v['wins']}/{v['ties']}/{v['losses']} "
                  f"won/tied/lost, {v['failed_pairs']} failed; gain {v['gain']}, "
                  f"worse beyond bound {v['worse']}, unresolved {v['unresolved']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
