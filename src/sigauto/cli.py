"""Command-line front end.

Subcommands: ``run`` (stream observations, emit one forecast record per
line), ``fit`` (grid search over parameter tuples on a held-out window),
``bench`` (timing harness for the complexity contract) and ``lookahead``
(frontier forecasting with estimated futures).  ``FLAGS`` declares each
flag once with the subcommands that read it; a subcommand refuses every
other flag.  Flags that name a config key override the config file.

Exit codes: 0 ok, 1 input error, 2 configuration error, 3 check failure.
SIGAUTO_LOG=info or debug logs to stderr; unset, ``error`` or any other
value logs nothing and leaves ``logging`` unimported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import combinations

from .errors import ConfigError, EmptyInputError, Fields, RejectedInputError, SigautoError
from .forecasting import SCORE_FLOOR, fit
from .pipeline import EMISSION_MODES, StreamPipeline
from .plugins import PluginParams, is_number
from .signal import Signal

log = None  # the "sigauto" logger, set by ``_configure_logging``

PARAM_KEYS = tuple(PluginParams.FIELDS)
CONFIG_KEYS = PARAM_KEYS + ("mode", "seed", "strict", "split", "grid")


class RunConfig(Fields):
    """A subcommand's checked configuration; ``given`` holds the keys given
    in the config file or by a flag, with their raw values.  ``score_floor``
    is always ``SCORE_FLOOR``."""

    __slots__ = ("params", "emission", "seed", "strict", "split", "grid", "given")
    score_floor = SCORE_FLOOR

    def __init__(self, params: PluginParams, emission: str, seed: int, strict: bool,
                 split: int | None, grid: list[dict], given: dict):
        self.params, self.emission, self.seed, self.strict = params, emission, seed, strict
        self.split, self.grid, self.given = split, grid, given


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
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    merged = dict(data)
    merged.update((k, v) for k, v in (overrides or {}).items() if v is not None)

    params = PluginParams.from_dict({k: merged[k] for k in PARAM_KEYS if k in merged})
    emission = merged.get("mode", "discrete")
    if emission not in EMISSION_MODES:
        raise ConfigError(f"mode must be one of {EMISSION_MODES}, got {emission!r}")
    seed = merged.get("seed", 0)
    if not is_number(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    strict = merged.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"strict must be true or false, got {strict!r}")
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
        strict=strict,
        split=split,
        grid=list(grid),
        given={k: v for k, v in merged.items() if v is not None},
    )


# ---------------------------------------------------------------------------
# Input handling


def _parse_row(raw: str):
    """The unchecked row of a CSV line or a JSONL record {"r": [...]}: a CSV
    row with a field ``float`` refuses is handed on with its fields stripped,
    since ``float`` also refuses some edges that they lose (``"\x1c2.5"``)."""
    if raw.startswith("{"):
        record = json.loads(raw)
        if not isinstance(record, dict) or "r" not in record:
            raise RejectedInputError(f"JSON record lacks an 'r' field: {raw[:80]}")
        return record["r"]
    fields = raw.split(",")
    try:
        return tuple(map(float, fields))
    except ValueError:
        return [field.strip() for field in fields]


def _is_header(raw: str) -> bool:
    """Every stripped field of ``raw``, less one pair of enclosing double
    quotes (``"x","y"``), is an identifier and none is a number ``float``
    reads (``nan``, ``inf``)."""
    for field in raw.split(","):
        field = field.strip()
        if len(field) > 1 and field[0] == field[-1] == '"':
            field = field[1:-1]
        if not field.isidentifier():
            return False
        try:
            float(field)
        except ValueError:
            continue
        return False
    return True


def _observations(handle, take, rejected=None):
    """Hand the row of each line of a CSV or JSONL stream to ``take``, which
    appends it to a ``Signal`` first, and yield what it returns; blank lines
    are skipped, and so are a byte-order mark opening the first non-blank
    line (``encoding="utf-8"`` keeps it) and that line when it is a header
    (``_is_header``).  Every other line is a row: one that does not parse,
    or that the append refuses, raises ``RejectedInputError`` with a
    ``line N:`` prefix, or, when ``rejected`` is given, is passed to it with
    its line number and the message and skipped.
    """
    first = True
    for lineno, line in enumerate(handle, start=1):
        raw = line.strip()
        if first:
            raw = raw.removeprefix("\ufeff").lstrip()
            if not raw:
                continue
            first = False
            if _is_header(raw):
                continue
        elif not raw:
            continue
        try:
            taken = take(_parse_row(raw))
        except (RejectedInputError, json.JSONDecodeError) as exc:
            if rejected is None:
                raise RejectedInputError(f"line {lineno}: {exc}") from exc
            rejected(lineno, str(exc))
            continue
        yield taken


@contextmanager
def _opened(path: str | None, mode: str):
    """The file at ``path``, or stdin/stdout (by ``mode``) for None or '-';
    the standard streams are left open.  A configuration error raised while
    a regular file is open for writing removes that file, so a configuration
    that fails only against the input (a ``grid_width`` or ``region`` of
    another dimension, found at the first rows) leaves no output behind; a
    device or pipe is left alone."""
    if path in (None, "-"):
        yield sys.stdin if mode == "r" else sys.stdout
        return
    with open(path, mode, encoding="utf-8") as handle:
        try:
            yield handle
        except ConfigError:
            if mode == "w" and os.path.isfile(path):
                handle.close()
                os.remove(path)
            raise


# Every record's text, as the chunks of one encoder built here once: the
# standard library's ``dumps`` with ``sort_keys=True`` builds a new encoder
# on every call.  The settings are that call's, so the bytes are too; a
# record is a tree, so no circular-reference markers are kept.
if json.encoder.c_make_encoder is None:
    _record_chunks = json.JSONEncoder(sort_keys=True, check_circular=False).iterencode
else:
    _record_chunks = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ", ", True, False, True)  # indent, separators, sort_keys, skipkeys, allow_nan


def _write_record(out, record: dict) -> None:
    out.write("".join(_record_chunks(record, 0)))
    out.write("\n")


def read_signal(path: str | None) -> Signal:
    """Strict batch read of a whole input file."""
    signal = Signal()
    with _opened(path, "r") as handle:
        for _ in _observations(handle, signal.append):
            pass
    if len(signal) == 0:
        raise EmptyInputError("input contains no observations")
    return signal


# ---------------------------------------------------------------------------
# Subcommands


def _check_resume(pipe: StreamPipeline, config: RunConfig) -> None:
    """Refuse a given value that differs from the resumed snapshot's, so a
    resumed run cannot silently drift from its configuration.  Parameters are
    compared as ``PluginParams`` normalised them; values not given are not
    compared."""
    given, stored, wanted = config.given, pipe.params.to_dict(), config.params.to_dict()
    conflicts = [(k, wanted[k], stored[k]) for k in PARAM_KEYS
                 if k in given and wanted[k] != stored[k]]
    run_values = {"mode": pipe.emission, "seed": pipe.seed}
    conflicts += [(k, given[k], v) for k, v in run_values.items()
                  if k in given and given[k] != v]
    if conflicts:
        raise ConfigError("resumed snapshot conflicts with the configuration: " + "; ".join(
            f"{k} is {value!r}, snapshot has {snap!r}" for k, value, snap in conflicts))


def run_stream(config: RunConfig, args) -> int:
    if args.resume:
        from .snapshot import load_snapshot
        pipe = load_snapshot(args.resume)
        _check_resume(pipe, config)
    else:
        pipe = StreamPipeline(config.params, emission=config.emission, seed=config.seed)
    consumed = 0
    with _opened(args.input, "r") as in_handle, _opened(args.output, "w") as out_handle:
        def rejected(lineno, message):
            _write_record(out_handle, {"line": lineno, "error": message})

        for record in _observations(in_handle, pipe.step,
                                    None if config.strict else rejected):
            _write_record(out_handle, record)
            consumed += 1
        if consumed == 0 and pipe.n < 0:
            raise EmptyInputError("input contains no observations")
        if log is not None:
            log.info("processed %d observations, stream is at instant %d", consumed, pipe.n)
        if args.snapshot:
            from .snapshot import save_snapshot
            save_snapshot(pipe, args.snapshot)
            if log is not None:
                log.info("snapshot written to %s", args.snapshot)
    return 0


def run_fit(config: RunConfig, args) -> int:
    if not config.grid:
        raise ConfigError("fit needs a non-empty 'grid' of parameter overrides")
    signal = read_signal(args.input)
    base_tau = config.params.to_dict()
    grid = [PluginParams.from_dict({**base_tau, **overrides}) for overrides in config.grid]
    split = config.split if config.split is not None else signal.last_instant // 2
    report = fit(grid, signal, split)
    with _opened(args.output, "w") as out_handle:
        _write_record(out_handle, {
            "split": report.split,
            "scores": report.scores,
            "best_index": report.best_index,
            "best": report.best.to_dict(),
            "grid": [p.to_dict() for p in report.grid],
        })
    return 0


def run_bench_command(config: RunConfig, args) -> int:
    from .bench import run_bench
    report = run_bench(seed=config.seed, params=config.params)
    with _opened(args.output, "w") as out_handle:
        _write_record(out_handle, report.to_dict())
    if args.check:
        failures = report.failures()
        if failures:
            for problem in failures:
                print(f"check failed: {problem}", file=sys.stderr)
            return 3
    return 0


def run_lookahead(config: RunConfig, args) -> int:
    from .lookahead import lookahead_advance, lookahead_build
    h = config.params.horizon
    history, frontier = Signal(), None

    def take(obs):  # the first h + 1 rows build the frontier, each later one advances it
        return history.append(obs) if frontier is None else lookahead_advance(frontier, obs)

    with _opened(args.input, "r") as in_handle:
        rows = _observations(in_handle, take)
        for _ in zip(range(h + 1), rows):
            pass
        if len(history) == 0:
            raise EmptyInputError("input contains no observations")
        # Built before the output is opened, so a refused horizon or history
        # leaves no output file behind.
        frontier = lookahead_build(history, config.params, seed=config.seed)
        with _opened(args.output, "w") as out_handle:
            _write_record(out_handle, frontier.forecast().record(frontier.n, config.seed))
            for _ in rows:
                _write_record(out_handle, frontier.forecast().record(frontier.n, config.seed))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

COMMANDS = {
    "run": (run_stream, "stream observations and emit forecast records"),
    "fit": (run_fit, "grid-search parameters on a train/test split"),
    "bench": (run_bench_command, "measure update and build time complexity"),
    "lookahead": (run_lookahead, "frontier forecasting with estimated futures"),
}

# Every flag once: the subcommands that read it, and its argparse keywords.
# A subcommand takes only the flags whose value changes its output or exit
# status.  An absent flag that names a config key is None, so the config
# file's value stands.
FLAGS = (
    ("--config", "run fit bench lookahead", {"help": "flat JSON config file"}),
    ("--input", "run fit lookahead", {"help": "CSV or JSONL input path, '-' for stdin"}),
    ("--output", "run fit bench lookahead", {"help": "output path, '-' for stdout"}),
    ("--horizon", "run fit lookahead", {"type": int, "help": "forecast/lookahead length"}),
    ("--mode", "run", {"choices": EMISSION_MODES, "help": "emission mode"}),
    ("--seed", "run lookahead", {"type": int, "help": "random seed"}),
    ("--strict", "run", {"action": "store_true", "default": None,
                         "help": "abort on the first malformed row"}),
    ("--snapshot", "run", {"help": "write a pipeline snapshot on exit"}),
    ("--resume", "run", {"help": "resume from a pipeline snapshot"}),
    ("--split", "fit", {"type": int, "help": "train/test boundary instant"}),
    ("--check", "bench", {"action": "store_true",
                          "help": "exit 3 when a complexity bound is violated"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigauto",
        description="Online hidden Markov model inference from a streaming time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, parser=p)
        for flag, commands, kwargs in FLAGS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
    return parser


def _configure_logging() -> None:
    """Set ``log`` for SIGAUTO_LOG=info or debug, importing ``logging``; any
    other value, or none, leaves it None and ``logging`` unloaded."""
    global log
    level = os.environ.get("SIGAUTO_LOG", "error").lower()
    log = None
    if level in ("info", "debug"):
        import logging
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s")
        log = logging.getLogger("sigauto")


def main(argv=None) -> int:
    _configure_logging()
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:  # reported with the subcommand's usage, which lists its flags
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    flags = vars(args)
    try:
        config = parse_config(args.config, {k: v for k, v in flags.items() if k in CONFIG_KEYS})
        # A written path differs from every other given path and from any
        # link to one, except that a snapshot may replace the one it resumes
        # from; the written ones come last.
        paths = [(k, os.path.realpath(flags[k]))
                 for k in ("input", "config", "resume", "output", "snapshot")
                 if flags.get(k) not in (None, "-")]
        for (flag, path), (written, other) in combinations(paths, 2):
            if (written in ("output", "snapshot") and (flag, written) != ("resume", "snapshot")
                    and (path == other or os.path.exists(path) and os.path.exists(other)
                         and os.path.samefile(path, other))):
                raise ConfigError(f"--{flag} and --{written} name the same file {path}")
        return args.handler(config, args)
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
