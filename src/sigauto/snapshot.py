"""Persistence: pipeline snapshots and model documents.

Pipeline snapshots capture everything the streaming loop needs to continue
bit-identically after a restart: the signal, the classifier summary, the
automaton, and every model accumulator, all in live iteration order so that
restored dictionaries replay float arithmetic in the same order.  A model is
rebuilt on the restored automaton, which gives it its instant, current state,
state order and, for a continuous model, its mixture centres, so the model
part holds only its row tables: ``trans``, and ``emit`` for a discrete model.

Model documents are a canonical (sorted) export of one model: states, events,
initial state, materialized transition and emission weights, and the instants
matrix.  Integer fields round-trip exactly; weights are written as shortest
round-trip decimals (at most 17 significant digits), so parsing returns the
identical double.
"""

from __future__ import annotations

import json
import os

from .automaton import BOTTOM_STATE, Isa, InstantsMatrix
from .errors import SnapshotError
from .hmm import (
    Hmm,
    HmmContinuous,
    Row,
    isa_to_hmm,
    isa_to_hmm_continuous,
)
from .pipeline import StreamPipeline
from .plugins import (
    Clusterer,
    Kernel,
    PluginParams,
    StatAccumulator,
    is_number,
    rho_fn,
    sigma_fn,
)
from .signal import Signal

SNAPSHOT_VERSION = 3
MODEL_DOCUMENT_VERSION = 2


def _acc_doc(acc: StatAccumulator) -> dict:
    return {"value": acc.value, "last_now": acc.last_now, "count": acc.raw_count}


def _acc_from(doc: dict) -> StatAccumulator:
    return StatAccumulator(
        value=float(doc["value"]), last_now=int(doc["last_now"]), raw_count=int(doc["count"])
    )


def _rows_doc(table: dict[str, Row]) -> list:
    """A model's row table as ``[state, [[column, cell], ...], total]`` rows."""
    return [
        [p, [[c, _acc_doc(acc)] for c, acc in row.cells.items()], _acc_doc(row.total)]
        for p, row in table.items()
    ]


def _rows_from(doc: list, states: dict, columns: dict) -> dict[str, Row]:
    """The table of ``_rows_doc``, refused unless each row is one of
    ``states`` and each of its cells one of ``columns``."""
    table = {p: Row({c: _acc_from(acc) for c, acc in cells}, _acc_from(total))
             for p, cells, total in doc}
    for p, row in table.items():
        if p not in states or not row.cells.keys() <= columns.keys():
            raise SnapshotError(f"snapshot row {p!r} names a state or column the model "
                                "does not have")
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
    """The automaton of ``_isa_state``, refused unless it is the one its
    cells replay to at the signal's instant ``n``: each instant 0..n is in
    one cell, instant 0 leaves ``__bottom__`` and each later one the state
    the one before entered, no cell enters ``__bottom__``, and ``states``,
    ``new_state_instants`` and ``current`` are the replay's first-visit
    order, first-visit instants and last state.  A model built on it reads
    all of these."""
    if int(doc["n"]) != n:
        raise SnapshotError(f"snapshot automaton is not at its signal's instant {n}")
    moves: list = [None] * (n + 1)  # moves[i]: the (p, q) cell holding instant i
    for p, q, instants in doc["theta"]:
        move = (p, q)
        for i in instants:
            i = int(i)
            if not 0 <= i <= n or moves[i] is not None:
                raise SnapshotError(f"snapshot automaton holds instant {i} outside 0..{n} "
                                    "or in two cells")
            moves[i] = move
    # Appending in instant order rebuilds the cells in the order the live
    # automaton first wrote them, which is the order the snapshot stores.
    theta = InstantsMatrix()
    states, new_state_instants, current = {BOTTOM_STATE: None}, [], BOTTOM_STATE
    for i, move in enumerate(moves):
        if move is None or move[0] != current or move[1] == BOTTOM_STATE:
            raise SnapshotError(f"snapshot automaton's instant {i} is in no cell, or its "
                                "cells do not chain from __bottom__")
        theta.append(current, move[1], i)
        current = move[1]
        if current not in states:
            states[current] = None
            new_state_instants.append(i)
    if (doc["states"] != [*states] or doc["new_state_instants"] != new_state_instants
            or doc["current"] != current):
        raise SnapshotError("snapshot automaton's states, new-state instants or current "
                            "state are not those its cells replay to")
    return Isa(states=states, current=current, theta=theta, n=n,
               new_state_instants=new_state_instants)


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
        pipe.classifier.restore(doc["classifier"]["summary"])
        pipe.clusterer.observed = {label: tuple(idx) for label, idx in doc["clusterer"]}
        model_doc = doc["model"]
        empty = len(pipe.signal) == 0
        if any((part is None) is not empty
               for part in (doc["classifier"]["summary"], doc["isa"], model_doc)):
            raise SnapshotError("snapshot must hold a classifier summary, an automaton and "
                                "a model exactly when its signal is not empty")
        if model_doc is not None:
            tables = {"trans", "emit"} if pipe.emission == "discrete" else {"trans"}
            if set(model_doc) != tables:
                raise SnapshotError(f"snapshot model holds {sorted(model_doc)}, not the "
                                    f"{sorted(tables)} of a {pipe.emission} model")
            pipe.isa = _isa_from(doc["isa"], pipe.n)
            if pipe.emission == "discrete":
                hmm = Hmm(pipe.sigma, pipe.rho, pipe.clusterer, pipe.isa)
                hmm._erows = _rows_from(model_doc["emit"], hmm.state_order,
                                        pipe.clusterer.observed)
            else:
                hmm = HmmContinuous(pipe.sigma, pipe.signal, pipe.kernel, pipe.isa)
            hmm._trows = _rows_from(model_doc["trans"], hmm.state_order, hmm.state_order)
            pipe.hmm = hmm
        return pipe
    except (KeyError, TypeError, ValueError) as exc:
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


# ---------------------------------------------------------------------------
# Model documents (canonical export of one model)


def model_document(hmm, params: PluginParams, isa: Isa) -> dict:
    """Canonical versioned export of a model snapshot.

    Weight lists are sorted, so two structurally equal models produce
    identical documents regardless of construction order.  The instants
    matrix of the automaton the model was derived from is embedded, which is
    what makes the document reconstructible.
    """
    transitions = hmm.transition_matrix()
    doc = {
        "version": MODEL_DOCUMENT_VERSION,
        "tau": params.to_dict(),
        "states": sorted(hmm.states),
        "alpha": hmm.current,
        "transitions": sorted(
            [p, q, w] for p, row in transitions.rows.items() for q, w in row.items()
        ),
        "instants_matrix": sorted(
            [p, q, list(c)] for p, q, c in isa.theta.cells()
        ),
    }
    if hmm.emission_kind == "discrete":
        emissions = hmm.emission_matrix()
        doc["events"] = sorted(hmm.events)
        doc["emissions"] = sorted(
            [q, c, w] for q, row in emissions.rows.items() for c, w in row.items()
        )
    else:
        bandwidth = hmm.kernel.h_matrix.tolist() if hmm.kernel is not None else None
        doc["events"] = None
        doc["mixtures"] = sorted(
            [q, list(c), bandwidth] for q, c in hmm.mixtures.items()
        )
    return doc


def save_model_document(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        handle.write("\n")


def load_model_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read model document {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError("model document root must be an object")
    version = doc.get("version")
    if version != MODEL_DOCUMENT_VERSION:
        raise SnapshotError(f"model document version {version} not supported "
                            f"(expected {MODEL_DOCUMENT_VERSION})")
    for key in ("tau", "states", "alpha", "transitions", "instants_matrix"):
        if key not in doc:
            raise SnapshotError(f"model document misses key {key!r}")
    return doc


def hmm_from_document(doc: dict, signal: Signal):
    """Rebuild a live model from a document plus the originating signal.

    The automaton is reconstructed from the instants matrix, then converted
    with plugins configured from the stored parameters.  Weights agree with
    the document within float tolerance (exactly, for counting statistics).
    """
    if doc.get("instants_matrix") is None:
        raise SnapshotError("model document carries no instants matrix")
    params = PluginParams.from_dict(doc["tau"])
    theta = InstantsMatrix()
    first_seen: dict[str, int] = {}
    total = 0
    for p, q, instants in doc["instants_matrix"]:
        if not instants:
            raise SnapshotError(f"model document cell ({p!r}, {q!r}) has no instants")
    for p, q, instants in sorted(doc["instants_matrix"], key=lambda c: min(c[2])):
        for i in instants:
            theta.append(p, q, int(i))
        total += len(instants)
        first = min(instants)
        if q not in first_seen or first < first_seen[q]:
            first_seen[q] = int(first)
    order = sorted(first_seen, key=first_seen.get)
    isa = Isa(
        states={BOTTOM_STATE: None, **{s: None for s in order}},
        current=doc["alpha"],
        theta=theta,
        n=total - 1,
        new_state_instants=sorted(first_seen.values()),
    )
    if doc.get("mixtures") is not None:
        bandwidths = [m[2] for m in doc["mixtures"] if m[2] is not None]
        kernel = Kernel(bandwidths[0]) if bandwidths else None
        return isa_to_hmm_continuous(isa, signal, sigma_fn(params), kernel)
    clusterer = Clusterer(params.grid_width)
    return isa_to_hmm(isa, signal, sigma_fn(params), rho_fn(params), clusterer)
