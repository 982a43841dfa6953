"""Persistence: pipeline snapshots.

Pipeline snapshots capture everything the streaming loop needs to continue
bit-identically after a restart: the signal, the classifier summary, the
automaton, and every model accumulator, all in live iteration order so that
restored dictionaries replay float arithmetic in the same order.  A model is
rebuilt on the automaton its cells ``replay`` to, which gives it its instant,
current state, state order and, for a continuous model, its mixture centres,
so the model part holds only its row tables: ``trans``, and ``emit`` for a
discrete model.  A snapshot no stream could write is a ``SnapshotError``.
"""

from __future__ import annotations

import json
import math
import os

from .automaton import Isa, replay
from .errors import SnapshotError
from .hmm import Row
from .pipeline import StreamPipeline
from .plugins import PluginParams, StatAccumulator, StatFn, is_number

SNAPSHOT_VERSION = 3


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
    instants at the latest of them, and whose cells are observed clusters,
    each holding the observation at its last instant."""
    incoming: dict[str, list[int]] = {}  # state -> [instants, latest instant]
    for _, q, js in hmm.isa.theta.cells():
        seen = incoming.setdefault(q, [0, -1])
        seen[0] += len(js)
        seen[1] = max(seen[1], js[-1])
    clusterer = hmm.clusterer
    table = _rows_from(doc, hmm.rho, [*hmm.state_order])
    for q, row in table.items():
        if ([row.total.raw_count, row.total.last_now] != incoming[q]
                or not row.cells.keys() <= clusterer.observed.keys()
                or any(clusterer.label_of(signal[acc.last_now]) != c
                       for c, acc in row.cells.items())):
            raise SnapshotError(f"snapshot emission row {q!r} is not its automaton's "
                                "incoming instants in observed clusters")
    return table


def _isa_state(isa: Isa) -> dict:
    return {
        "states": list(isa.states),
        "current": isa.current,
        "n": isa.n,
        "new_state_instants": list(isa.new_state_instants),
        "theta": [[p, q, list(c)] for p, q, c in isa.theta.cells()],
    }


def _isa_from(doc: dict, n: int) -> Isa:
    """The automaton of ``_isa_state``: its cells' ``replay`` to the
    signal's instant ``n``, refused unless its ``states``,
    ``new_state_instants`` and ``current`` are the replay's."""
    if not is_number(doc["n"], int) or doc["n"] != n:
        raise SnapshotError(f"snapshot automaton is not at its signal's instant {n}")
    isa = replay(doc["theta"], n)
    if (doc["states"] != [*isa.states] or doc["new_state_instants"] != isa.new_state_instants
            or doc["current"] != isa.current):
        raise SnapshotError("snapshot automaton's states, new-state instants or current "
                            "state are not those its cells replay to")
    return isa


def _model_state(hmm) -> dict:
    doc = {"trans": _rows_doc(hmm._trows)}
    if hmm.emission_kind == "discrete":
        doc["emit"] = _rows_doc(hmm._erows)
    return doc


def pipeline_state(pipe) -> dict:
    """Serializable state of a live pipeline."""
    doc = {
        "version": SNAPSHOT_VERSION,
        "kind": "pipeline",
        "tau": pipe.params.to_dict(),
        "emission": pipe.emission,
        "seed": pipe.seed,
        "score_floor": pipe.score_floor,
        "signal": [list(obs) for obs in pipe.signal],
        "classifier": {"kind": pipe.classifier.kind, "summary": pipe.classifier.summary()},
        "clusterer": [[label, list(idx)] for label, idx in pipe.clusterer.observed.items()],
        "isa": _isa_state(pipe.isa) if pipe.isa is not None else None,
        "model": _model_state(pipe.hmm) if pipe.hmm is not None else None,
    }
    return doc


def restore_pipeline(doc: dict):
    """Rebuild a pipeline from :func:`pipeline_state` output."""
    try:
        version = doc["version"]
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version} not supported (expected {SNAPSHOT_VERSION})"
            )
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
        summary, model_doc = doc["classifier"]["summary"], doc["model"]
        empty = len(pipe.signal) == 0
        if any((part is None) is not empty for part in (summary, doc["isa"], model_doc)):
            raise SnapshotError("snapshot must hold a classifier summary, an automaton and "
                                "a model exactly when its signal is not empty")
        if summary is not None and not (
                len(summary) == pipe.signal.dim
                and all(is_number(x) and math.isfinite(x) for x in summary)):
            raise SnapshotError(f"snapshot classifier summary {summary!r} is not "
                                f"{pipe.signal.dim} finite numbers")
        pipe.classifier.restore(summary)
        pipe.clusterer.observed = {label: tuple(idx) for label, idx in doc["clusterer"]}
        if model_doc is not None:
            tables = {"trans", "emit"} if pipe.emission == "discrete" else {"trans"}
            if set(model_doc) != tables:
                raise SnapshotError(f"snapshot model holds {sorted(model_doc)}, not the "
                                    f"{sorted(tables)} of a {pipe.emission} model")
            pipe.isa = _isa_from(doc["isa"], pipe.n)
            hmm = pipe._model_on(pipe.isa)
            if pipe.emission == "discrete":
                hmm._erows = _erows_from(model_doc["emit"], hmm, pipe.signal)
            hmm._trows = _trows_from(model_doc["trans"], hmm)
            pipe.hmm = hmm
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

