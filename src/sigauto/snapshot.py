"""Persistence: pipeline snapshots.

A pipeline snapshot stores what its signal does not determine: the
configuration, the signal, the clusterer and every model accumulator, in
live iteration order so that restored dictionaries replay float arithmetic
in the same order.  Restore classifies the signal again with ``build_isa``,
which leaves the pipeline's classifier at its live summary bit for bit and
gives the automaton, and checks the model's row tables (``trans``, and
``emit`` for a discrete model) against it.  A snapshot no stream could
write is a ``SnapshotError``.
"""

from __future__ import annotations

import json
import math
import os

from .automaton import build_isa
from .errors import SnapshotError
from .hmm import Row
from .pipeline import StreamPipeline
from .plugins import PluginParams, StatAccumulator, StatFn, cell_label, is_number

SNAPSHOT_VERSION = 4
KEYS = {"version", "tau", "emission", "seed", "score_floor", "signal", "clusterer", "model"}


def _acc_doc(acc: StatAccumulator) -> dict:
    return {"value": acc.value, "last_now": acc.last_now, "count": acc.raw_count}


def _acc_from(doc: dict, stat: StatFn) -> StatAccumulator:
    """The accumulator of ``_acc_doc``, refused unless steps of ``stat``
    could have written it: its ``last_now`` an instant, its ``count`` an
    integer and its ``value`` a finite number >= 0, the count itself under
    ``count``."""
    value, last_now, count = doc["value"], doc["last_now"], doc["count"]
    if not (is_number(last_now, int) and is_number(count, int) and last_now >= 0
            and 0 <= value < math.inf and (value == count or not stat.value_is_count)):
        raise SnapshotError(f"snapshot accumulator {doc!r} is not one a stream writes")
    return StatAccumulator(float(value), last_now, count)


def _rows_doc(table: dict[str, Row]) -> list:
    """A model's row table as ``[state, [[column, cell], ...], total]`` rows."""
    return [
        [p, [[c, _acc_doc(acc)] for c, acc in row.cells.items()], _acc_doc(row.total)]
        for p, row in table.items()
    ]


def _rows_from(doc: list, stat: StatFn, rows: list) -> dict[str, Row]:
    """The table of ``_rows_doc``, refused unless its rows are ``rows``, in
    order, and each row total is what ``update`` writes beside the cells:
    their counts' sum, at their latest ``last_now``."""
    table = {p: Row({c: _acc_from(acc, stat) for c, acc in cells}, _acc_from(total, stat))
             for p, cells, total in doc}
    if [*table] != rows:
        raise SnapshotError(f"snapshot rows {[*table]} are not the model's {rows}")
    for p, row in table.items():
        cells = row.cells.values()
        if (sum(acc.raw_count for acc in cells) != row.total.raw_count
                or max(acc.last_now for acc in cells) != row.total.last_now):
            raise SnapshotError(f"snapshot row {p!r} has a total other than its cells'")
    return table


def _trows_from(doc: list, hmm) -> dict[str, Row]:
    """The transition table ``update`` writes for ``hmm``'s automaton: a row
    for each state with outgoing cells, in the automaton's order, whose
    cells are those cells, in order, each with their count and last instant."""
    theta = hmm.isa.theta
    outgoing = {p: theta.row(p) for p in hmm.state_order if theta.has_outgoing(p)}
    table = _rows_from(doc, hmm.sigma, [*outgoing])
    for p, row in table.items():
        if ([(q, acc.raw_count, acc.last_now) for q, acc in row.cells.items()]
                != [(q, len(js), js[-1]) for q, js in outgoing[p].items()]):
            raise SnapshotError(f"snapshot transition row {p!r} is not its automaton's cells")
    return table


def _erows_from(doc: list, hmm, signal) -> dict[str, Row]:
    """The emission table ``update`` writes for ``hmm``'s automaton: a row
    for each state, in order, whose total counts the state's incoming
    instants at the latest of them, and whose cells are clusters, each
    holding the observation at its last instant."""
    incoming: dict[str, list[int]] = {}  # state -> [instants, latest instant]
    for _, q, js in hmm.isa.theta.cells():
        seen = incoming.setdefault(q, [0, -1])
        seen[0] += len(js)
        seen[1] = max(seen[1], js[-1])
    clusterer = hmm.clusterer
    table = _rows_from(doc, hmm.rho, [*hmm.state_order])
    for q, row in table.items():
        if ([row.total.raw_count, row.total.last_now] != incoming[q]
                or any(clusterer.label_of(signal[acc.last_now]) != c
                       for c, acc in row.cells.items())):
            raise SnapshotError(f"snapshot emission row {q!r} is not its automaton's "
                                "incoming instants in their clusters")
    return table


def _model_state(hmm) -> dict:
    doc = {"trans": _rows_doc(hmm._trows)}
    if hmm.emission_kind == "discrete":
        doc["emit"] = _rows_doc(hmm._erows)
    return doc


def _observed_from(doc: list, erows: dict[str, Row]) -> dict[str, tuple[int, ...]]:
    """The clusterer's observed cells, refused unless each label is listed
    once with its own cell index and the labels are exactly the clusters
    the emission table ``erows`` names."""
    observed = {label: tuple(idx) for label, idx in doc}
    named = {c for row in erows.values() for c in row.cells}
    if (len(observed) != len(doc) or observed.keys() != named
            or any(not all(is_number(k, int) for k in idx) or cell_label(idx) != label
                   for label, idx in observed.items())):
        raise SnapshotError("snapshot clusterer is not the cells of the clusters its "
                            "model emits")
    return observed


def pipeline_state(pipe) -> dict:
    """Serializable state of a live pipeline: what its signal does not determine."""
    return {
        "version": SNAPSHOT_VERSION,
        "tau": pipe.params.to_dict(),
        "emission": pipe.emission,
        "seed": pipe.seed,
        "score_floor": pipe.score_floor,
        "signal": [list(obs) for obs in pipe.signal],
        "clusterer": [[label, list(idx)] for label, idx in pipe.clusterer.observed.items()],
        "model": _model_state(pipe.hmm) if pipe.hmm is not None else None,
    }


def restore_pipeline(doc: dict):
    """Rebuild a pipeline from :func:`pipeline_state` output."""
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
        params = PluginParams.from_dict(doc["tau"])
        if not is_number(doc["seed"], int):
            raise SnapshotError(f"snapshot seed must be an integer, got {doc['seed']!r}")
        pipe = StreamPipeline(
            params,
            emission=doc["emission"],
            seed=doc["seed"],
            score_floor=doc["score_floor"],
        )
        for obs in doc["signal"]:
            pipe.signal.append(obs)
        model_doc = doc["model"]
        if (model_doc is None) is not (len(pipe.signal) == 0):
            raise SnapshotError("snapshot must hold a model exactly when its signal is "
                                "not empty")
        if model_doc is not None:
            tables = {"trans", "emit"} if pipe.emission == "discrete" else {"trans"}
            if set(model_doc) != tables:
                raise SnapshotError(f"snapshot model holds {sorted(model_doc)}, not the "
                                    f"{sorted(tables)} of a {pipe.emission} model")
            pipe.isa = build_isa(pipe.signal, pipe.classifier)
            hmm = pipe._model_on(pipe.isa)
            if pipe.emission == "discrete":
                hmm._erows = _erows_from(model_doc["emit"], hmm, pipe.signal)
            hmm._trows = _trows_from(model_doc["trans"], hmm)
            pipe.hmm = hmm
        # A continuous model, like an empty pipeline, emits no cluster.
        pipe.clusterer.observed = _observed_from(doc["clusterer"],
                                                 getattr(pipe.hmm, "_erows", {}))
        return pipe
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc


def save_snapshot(pipe, path) -> None:
    """Write the snapshot next to ``path``, then move it into place, so a
    write that fails midway leaves the previous snapshot intact."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            # One string from the C encoder: ``json.dump`` would stream the
            # same bytes through the pure-Python one.
            handle.write(json.dumps(pipeline_state(pipe), separators=(",", ":")))
            handle.write("\n")
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

