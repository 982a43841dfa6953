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
from contextlib import contextmanager
from dataclasses import dataclass, field

from .bench import run_bench
from .errors import ConfigError, EmptyInputError, RejectedInputError, SigautoError
from .forecasting import fit
from .lookahead import lookahead_advance, lookahead_build
from .pipeline import EMISSION_MODES, StreamPipeline
from .plugins import PluginParams, is_number
from .signal import Signal, as_observation
from .snapshot import load_snapshot, save_snapshot

log = logging.getLogger("sigauto")

PARAM_KEYS = ("lambda", "grid_width", "delta", "stat_variant", "region",
              "bandwidth", "horizon")
RUN_KEYS = ("mode", "seed", "score_floor", "strict", "split", "grid")


@dataclass
class RunConfig:
    params: PluginParams
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
    # Keys given in the config file or by a flag, with their raw values.
    given: dict = field(default_factory=dict)


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
    if not is_number(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    floor = merged.get("score_floor", 1e-12)
    if not (is_number(floor) and floor > 0):
        raise ConfigError(f"score_floor must be positive, got {floor!r}")
    split = merged.get("split")
    if split is not None and not is_number(split, int):
        raise ConfigError(f"split must be an integer, got {split!r}")
    grid = merged.get("grid", [])
    if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
        raise ConfigError("grid must be a list of parameter-override objects")

    return RunConfig(
        params=params,
        emission=emission,
        seed=seed,
        strict=bool(merged.get("strict", False)),
        score_floor=float(floor),
        split=split,
        grid=list(grid),
        given={k: v for k, v in merged.items() if v is not None},
    )


# ---------------------------------------------------------------------------
# Input handling


def _iter_rows(handle):
    """Yield (line_number, raw_line) for non-empty lines, skipping the first
    one if it is a header."""
    first = True
    for lineno, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if first:
            first = False
            if _looks_like_header(stripped):
                continue
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


@contextmanager
def _opened(path: str | None, mode: str):
    """The file at ``path``, or stdin/stdout (by ``mode``) for None or '-';
    the standard streams are left open."""
    if path in (None, "-"):
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle


def _write_record(out, record: dict) -> None:
    out.write(json.dumps(record, sort_keys=True))
    out.write("\n")


def read_signal(path: str | None) -> Signal:
    """Strict batch read of a whole input file."""
    signal = Signal()
    with _opened(path, "r") as handle:
        for lineno, raw in _iter_rows(handle):
            try:
                signal.append(_parse_row(raw))
            except (RejectedInputError, json.JSONDecodeError) as exc:
                raise RejectedInputError(f"line {lineno}: {exc}") from exc
    if len(signal) == 0:
        raise EmptyInputError("input contains no observations")
    return signal


# ---------------------------------------------------------------------------
# Subcommands


def _check_resume(pipe: StreamPipeline, given: dict) -> None:
    """Refuse a given value that differs from the resumed snapshot's, so a
    resumed run cannot silently drift from its configuration.  Parameters are
    compared after normalisation through ``PluginParams``; values not given
    are not compared."""
    stored = pipe.params.to_dict()
    tau = {k: given[k] for k in PARAM_KEYS if k in given}
    merged = {k: v for k, v in {**stored, **tau}.items() if v is not None}
    wanted = PluginParams.from_dict(merged).to_dict()
    conflicts = [(k, wanted[k], stored[k]) for k in tau if wanted[k] != stored[k]]
    run_values = {"mode": pipe.emission, "seed": pipe.seed, "score_floor": pipe.score_floor}
    conflicts += [(k, given[k], v) for k, v in run_values.items()
                  if k in given and given[k] != v]
    if conflicts:
        raise ConfigError("resumed snapshot conflicts with the configuration: " + "; ".join(
            f"{k} is {value!r}, snapshot has {snap!r}" for k, value, snap in conflicts))


def run_stream(config: RunConfig) -> int:
    if config.resume_path:
        pipe = load_snapshot(config.resume_path)
        _check_resume(pipe, config.given)
    else:
        pipe = StreamPipeline(
            config.params,
            emission=config.emission,
            seed=config.seed,
            score_floor=config.score_floor,
        )
    consumed = 0
    # A resumed pipeline knows its dimension; a fresh one takes it from its
    # first observation.  Rows of another width are rejected before they
    # reach the pipeline.
    dim = pipe.signal.dim if len(pipe.signal) else None
    with _opened(config.input_path, "r") as in_handle, \
            _opened(config.output_path, "w") as out_handle:
        for lineno, raw in _iter_rows(in_handle):
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
    with _opened(config.output_path, "w") as out_handle:
        _write_record(out_handle, {
            "split": report.split,
            "scores": report.scores,
            "best_index": report.best_index,
            "best": report.best.to_dict(),
            "grid": [p.to_dict() for p in report.grid],
        })
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
    with _opened(config.output_path, "w") as out_handle:
        _write_record(out_handle, report.to_dict())
    if config.check:
        failures = report.failures()
        if failures:
            for problem in failures:
                print(f"check failed: {problem}", file=sys.stderr)
            return 3
    return 0


def run_lookahead(config: RunConfig) -> int:
    signal = read_signal(config.input_path)
    h = config.params.horizon
    # Built before the output is opened, so a refused horizon or history
    # leaves no output file behind.
    frontier = lookahead_build(signal[: h + 1], config.params, seed=config.seed)
    with _opened(config.output_path, "w") as out_handle:
        _write_record(out_handle, frontier.forecast().record(frontier.n, config.seed))
        for obs in signal[h + 1:]:
            lookahead_advance(frontier, obs)
            _write_record(out_handle, frontier.forecast().record(frontier.n, config.seed))
    return 0


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
