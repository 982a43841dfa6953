"""Persistence: pipeline snapshots.

A pipeline is a function of its configuration and its signal, so a snapshot
stores those and nothing else: ``tau``, ``emission``, ``seed`` and the
signal's rows.  Restore builds a pipeline from the configuration and streams
the rows through ``StreamPipeline.advance``, the code the live run executed,
so the classifier, automaton, model and clusterer come back as they were,
bit for bit.  A row the append or the configuration refuses is a
``SnapshotError``.
"""

from __future__ import annotations

import json
import os

from .errors import SnapshotError
from .pipeline import StreamPipeline
from .plugins import PluginParams, is_number

SNAPSHOT_VERSION = 5
KEYS = {"version", "tau", "emission", "seed", "signal"}
# ``save_snapshot`` encodes the signal this many rows at a time.
CHUNK_ROWS = 1024


def _configuration(pipe) -> dict:
    """Every key of a snapshot but the signal, in the file's order."""
    return {
        "version": SNAPSHOT_VERSION,
        "tau": pipe.params.to_dict(),
        "emission": pipe.emission,
        "seed": pipe.seed,
    }


def pipeline_state(pipe) -> dict:
    """Serializable state of a live pipeline: its configuration and signal."""
    return {**_configuration(pipe), "signal": [list(obs) for obs in pipe.signal]}


def restore_pipeline(doc: dict):
    """Rebuild a pipeline from :func:`pipeline_state` output by streaming its
    signal again."""
    try:
        version = doc["version"]
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version} not supported (expected {SNAPSHOT_VERSION})"
            )
        if doc.keys() != KEYS:
            raise SnapshotError(f"snapshot holds {sorted(doc)}, not {sorted(KEYS)}")
        if not isinstance(doc["tau"], dict):
            raise SnapshotError(f"snapshot tau must be an object, got {doc['tau']!r}")
        if not isinstance(doc["signal"], list):
            raise SnapshotError(f"snapshot signal must be a list, got {doc['signal']!r}")
        params = PluginParams.from_dict(doc["tau"])
        if not is_number(doc["seed"], int):
            raise SnapshotError(f"snapshot seed must be an integer, got {doc['seed']!r}")
        pipe = StreamPipeline(params, emission=doc["emission"], seed=doc["seed"])
        for obs in doc["signal"]:
            pipe.advance(obs)
        return pipe
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc


def save_snapshot(pipe, path) -> None:
    """Write the snapshot next to ``path``, then move it into place, so a
    write that fails midway leaves the previous snapshot intact.

    The bytes are ``JSONEncoder(separators=(",", ":")).encode`` of
    ``pipeline_state(pipe)`` and a newline, written ``CHUNK_ROWS`` rows at a
    time, each chunk one string from the C encoder (``json.dump`` would take
    the pure-Python one), so the memory a save takes is bounded by a chunk."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            # The configuration's object without its closing brace, then
            # the signal as its last key.
            handle.write(encode(_configuration(pipe))[:-1])
            handle.write(',"signal":[')
            signal = pipe.signal
            for start in range(0, len(signal), CHUNK_ROWS):
                if start:
                    handle.write(",")
                rows = signal[start : start + CHUNK_ROWS]
                handle.write(encode([list(obs) for obs in rows])[1:-1])
            handle.write("]}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_snapshot(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError("snapshot root must be an object")
    return restore_pipeline(doc)

