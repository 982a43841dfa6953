"""Command-line front end.

Subcommands: ``run`` (stream observations, emit one forecast record per
line), ``fit`` (grid search over parameter tuples on a held-out window),
``bench`` (timing harness for the complexity contract) and ``lookahead``
(frontier forecasting with estimated futures).

Exit codes: 0 ok, 1 input error, 2 configuration error, 3 check failure.
Set SIGAUTO_LOG to error|info|debug to control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field

from .bench import run_bench
from .errors import ConfigError, EmptyInputError, RejectedInputError, SigautoError
from .forecasting import fit
from .lookahead import lookahead_advance, lookahead_build
from .pipeline import EMISSION_MODES, StreamPipeline
from .plugins import PluginParams
from .signal import Signal, as_observation
from .snapshot import load_snapshot, save_snapshot

log = logging.getLogger("sigauto")

PARAM_KEYS = ("lambda", "grid_width", "delta", "stat_variant", "region",
              "bandwidth", "horizon")
RUN_KEYS = ("mode", "seed", "score_floor", "strict", "split", "grid")


@dataclass
class RunConfig:
    params: PluginParams
    command: str = "run"
    emission: str = "discrete"
    input_path: str | None = None
    output_path: str | None = None
    snapshot_path: str | None = None
    resume_path: str | None = None
    seed: int = 0
    strict: bool = False
    check: bool = False
    score_floor: float = 1e-12
    split: int | None = None
    grid: list[dict] = field(default_factory=list)


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Merge a flat JSON config file with command-line overrides (CLI wins)."""
    data: dict = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    for key in data:
        if key not in PARAM_KEYS and key not in RUN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    tau = {k: merged[k] for k in PARAM_KEYS if k in merged and merged[k] is not None}
    params = PluginParams.from_dict(tau)

    emission = merged.get("mode", "discrete")
    if emission not in EMISSION_MODES:
        raise ConfigError(f"mode must be one of {EMISSION_MODES}, got {emission!r}")
    seed = merged.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    floor = merged.get("score_floor", 1e-12)
    if not (isinstance(floor, (int, float)) and floor > 0):
        raise ConfigError(f"score_floor must be positive, got {floor!r}")
    grid = merged.get("grid", [])
    if grid and not all(isinstance(g, dict) for g in grid):
        raise ConfigError("grid must be a list of parameter-override objects")

    return RunConfig(
        params=params,
        emission=emission,
        seed=seed,
        strict=bool(merged.get("strict", False)),
        score_floor=float(floor),
        split=merged.get("split"),
        grid=list(grid),
    )


# ---------------------------------------------------------------------------
# Input handling


def _iter_rows(handle):
    """Yield (line_number, raw_line) for non-empty lines."""
    for lineno, line in enumerate(handle, start=1):
        stripped = line.strip()
        if stripped:
            yield lineno, stripped


def _parse_row(raw: str):
    """One observation from a CSV row or a JSONL record {"r": [...]}."""
    if raw.startswith("{"):
        record = json.loads(raw)
        if not isinstance(record, dict) or "r" not in record:
            raise RejectedInputError(f"JSON record lacks an 'r' field: {raw[:80]}")
        return as_observation(record["r"])
    return as_observation([field.strip() for field in raw.split(",")])


def _looks_like_header(raw: str) -> bool:
    if raw.startswith("{"):
        return False
    tokens = [t.strip() for t in raw.split(",")]
    for token in tokens:
        try:
            float(token)
            return False
        except ValueError:
            continue
    return True


def _open_input(path: str | None):
    if path in (None, "-"):
        return sys.stdin, False
    return open(path, "r", encoding="utf-8"), True


def _open_output(path: str | None):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _write_record(out, record: dict) -> None:
    out.write(json.dumps(record, sort_keys=True))
    out.write("\n")


def read_signal(path: str | None) -> Signal:
    """Strict batch read of a whole input file."""
    handle, owned = _open_input(path)
    try:
        signal = Signal()
        first = True
        for lineno, raw in _iter_rows(handle):
            if first and _looks_like_header(raw):
                first = False
                continue
            first = False
            try:
                signal.append(_parse_row(raw))
            except (RejectedInputError, json.JSONDecodeError) as exc:
                raise RejectedInputError(f"line {lineno}: {exc}") from exc
        if len(signal) == 0:
            raise EmptyInputError("input contains no observations")
        return signal
    finally:
        if owned:
            handle.close()


# ---------------------------------------------------------------------------
# Subcommands


def run_stream(config: RunConfig) -> int:
    if config.resume_path:
        pipe = load_snapshot(config.resume_path)
    else:
        pipe = StreamPipeline(
            config.params,
            emission=config.emission,
            seed=config.seed,
            score_floor=config.score_floor,
        )
    in_handle, in_owned = _open_input(config.input_path)
    out_handle, out_owned = _open_output(config.output_path)
    consumed = 0
    # A resumed pipeline knows its dimension; a fresh one takes it from its
    # first observation.  Rows of another width are rejected before they
    # reach the pipeline.
    dim = pipe.signal.dim if len(pipe.signal) else None
    try:
        first = True
        for lineno, raw in _iter_rows(in_handle):
            if first and _looks_like_header(raw):
                first = False
                continue
            first = False
            try:
                obs = _parse_row(raw)
                if dim is not None and len(obs) != dim:
                    raise RejectedInputError(
                        f"observation has {len(obs)} coordinates, expected {dim}"
                    )
            except (RejectedInputError, json.JSONDecodeError) as exc:
                if config.strict:
                    raise RejectedInputError(f"line {lineno}: {exc}") from exc
                _write_record(out_handle, {"line": lineno, "error": str(exc)})
                continue
            _write_record(out_handle, pipe.step(obs))
            dim = len(obs)
            consumed += 1
        if consumed == 0 and pipe.n < 0:
            raise EmptyInputError("input contains no observations")
        log.info("processed %d observations, stream is at instant %d", consumed, pipe.n)
        if config.snapshot_path:
            save_snapshot(pipe, config.snapshot_path)
            log.info("snapshot written to %s", config.snapshot_path)
    finally:
        if in_owned:
            in_handle.close()
        if out_owned:
            out_handle.close()
    return 0


def run_fit(config: RunConfig) -> int:
    if not config.grid:
        raise ConfigError("fit needs a non-empty 'grid' of parameter overrides")
    signal = read_signal(config.input_path)
    base_tau = config.params.to_dict()
    grid = []
    for overrides in config.grid:
        for key in overrides:
            if key not in PARAM_KEYS:
                raise ConfigError(f"unknown parameter key {key!r} in grid entry")
        tau = dict(base_tau)
        tau.update(overrides)
        grid.append(PluginParams.from_dict({k: v for k, v in tau.items() if v is not None}))
    split = config.split if config.split is not None else signal.last_instant // 2
    report = fit(grid, signal, split, floor=config.score_floor)
    out_handle, owned = _open_output(config.output_path)
    try:
        _write_record(out_handle, {
            "split": report.split,
            "scores": report.scores,
            "best_index": report.best_index,
            "best": report.best.to_dict(),
            "grid": [p.to_dict() for p in report.grid],
        })
    finally:
        if owned:
            out_handle.close()
    return 0


def run_bench_command(config: RunConfig, update_sizes=None, build_sizes=None,
                      samples=None) -> int:
    kwargs = {"seed": config.seed, "params": config.params}
    if update_sizes:
        kwargs["update_sizes"] = tuple(update_sizes)
    if build_sizes:
        kwargs["build_sizes"] = tuple(build_sizes)
    if samples:
        kwargs["update_samples"] = max(samples, 30)
        kwargs["build_samples"] = max(samples, 30)
    report = run_bench(**kwargs)
    out_handle, owned = _open_output(config.output_path)
    try:
        _write_record(out_handle, report.to_dict())
    finally:
        if owned:
            out_handle.close()
    if config.check:
        failures = report.failures()
        if failures:
            for problem in failures:
                print(f"check failed: {problem}", file=sys.stderr)
            return 3
    return 0


def run_lookahead(config: RunConfig) -> int:
    if config.params.horizon < 1:
        raise ConfigError("lookahead mode needs horizon >= 1")
    signal = read_signal(config.input_path)
    h = config.params.horizon
    if signal.last_instant < h:
        raise EmptyInputError(
            f"lookahead with horizon {h} needs at least {h + 1} observations"
        )
    out_handle, owned = _open_output(config.output_path)
    try:
        frontier = lookahead_build(signal[: h + 1], config.params, seed=config.seed)
        _emit_frontier_record(out_handle, frontier, config.seed)
        for i in range(h + 1, len(signal)):
            lookahead_advance(frontier, signal[i])
            _emit_frontier_record(out_handle, frontier, config.seed)
    finally:
        if owned:
            out_handle.close()
    return 0


def _emit_frontier_record(out_handle, frontier, seed) -> None:
    fc = frontier.forecast()
    record = {
        "i": frontier.n,
        "dummy": fc.is_dummy,
        "steps": [{"j": j + 1, "dist": dist} for j, dist in enumerate(fc.steps)],
        "seed": seed,
    }
    _write_record(out_handle, record)


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigauto",
        description="Online hidden Markov model inference from a streaming time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "stream observations and emit forecast records"),
        ("fit", "grid-search parameters on a train/test split"),
        ("bench", "measure update and build time complexity"),
        ("lookahead", "frontier forecasting with estimated futures"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--input", help="CSV or JSONL input path, '-' for stdin")
        p.add_argument("--output", help="output path, '-' for stdout")
        p.add_argument("--horizon", type=int, help="forecast/lookahead length")
        p.add_argument("--mode", choices=EMISSION_MODES, help="emission mode")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--strict", action="store_true", default=None,
                       help="abort on the first malformed row")
        p.add_argument("--snapshot", help="write a pipeline snapshot on exit")
        p.add_argument("--resume", help="resume from a pipeline snapshot")
        p.add_argument("--check", action="store_true",
                       help="bench: exit 3 when a complexity bound is violated")
        if name == "fit":
            p.add_argument("--split", type=int, help="train/test boundary instant")
        if name == "bench":
            p.add_argument("--update-sizes", help="comma-separated stream sizes")
            p.add_argument("--build-sizes", help="comma-separated build sizes")
            p.add_argument("--samples", type=int, help="timing samples per point")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("SIGAUTO_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level_name, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _sizes(raw: str | None):
    if not raw:
        return None
    return tuple(int(x) for x in raw.split(","))


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        overrides = {
            "horizon": args.horizon,
            "mode": args.mode,
            "seed": args.seed,
            "strict": args.strict,
        }
        if getattr(args, "split", None) is not None:
            overrides["split"] = args.split
        config = parse_config(args.config, overrides)
        config.command = args.command
        config.input_path = args.input
        config.output_path = args.output
        config.snapshot_path = args.snapshot
        config.resume_path = args.resume
        config.check = bool(args.check)
        real_paths = [
            os.path.abspath(p)
            for p in (config.input_path, config.output_path, config.snapshot_path)
            if p and p != "-"
        ]
        if len(real_paths) != len(set(real_paths)):
            raise ConfigError("input, output and snapshot paths must be distinct")
        if args.command == "run":
            return run_stream(config)
        if args.command == "fit":
            return run_fit(config)
        if args.command == "bench":
            return run_bench_command(
                config,
                update_sizes=_sizes(getattr(args, "update_sizes", None)),
                build_sizes=_sizes(getattr(args, "build_sizes", None)),
                samples=getattr(args, "samples", None),
            )
        return run_lookahead(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SigautoError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
