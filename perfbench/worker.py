"""Run one benchmark workload in this process and print its result.

Started by ``run.py`` as a child process per workload, so the import time in
``setup_s`` is that of a fresh interpreter and ``peak_rss_mb`` belongs to the
workload alone.  The last line printed is the result object; the lines
before it are for people.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigauto", "__init__.py")):
        print(f"benchmark: no sigauto sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import calibration

    refs = [calibration.kernel_ns() for _ in range(3)]
    t0 = perf_counter()
    import sigauto.cli  # the import is part of set-up time
    import_s = perf_counter() - t0
    refs += [calibration.kernel_ns() for _ in range(2)]
    import_s *= calibration.NOMINAL_NS / calibration.median(refs)

    if not os.path.abspath(sigauto.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported sigauto from {sigauto.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    units = declared_metrics(bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.workdir)
    if args.trace:
        traces = workload.trace(args.seed)
        values, problems, attempted = traces.metrics, traces.problems, traces.attempted
        failed = len(problems)
        notes = {}
    else:
        out = workload.run(args.seed, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for check in out.final_checks:
            check()
        meter = out.meter
        p50, tail, label = workloads.latency_summary(meter.normalized("result"))
        values = {
            "setup_s": import_s + calibration.median(meter.normalized("setup")) * 1e-9,
            "throughput_obs_per_s": out.obs / (meter.busy_ns() * 1e-9),
            "latency_p50_ms": p50 * 1e-6,
            "latency_tail_ms": tail * 1e-6,
            "peak_rss_mb": peak_mb,
        }
        problems, attempted, failed = out.problems, out.attempted, out.failed
        notes = {"import_s": import_s, "latency_tail_percentile": label,
                 "observations": out.obs,
                 "raw_throughput_obs_per_s": out.obs / (meter.raw_busy_ns() * 1e-9),
                 "machine_slowness": calibration.median(meter.refs) / calibration.NOMINAL_NS,
                 **out.detail}

    if set(values) != set(units):
        print(f"benchmark: measured {sorted(values)}, declared {sorted(units)}", file=sys.stderr)
        return 2
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:<44} {value:14.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  ({name} = {value:.6g})" if isinstance(value, float) else f"  ({name} = {value})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    for name, status in workloads.known_defects(args.workdir):
        print(f"  known-defect {name}: {status}")
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
