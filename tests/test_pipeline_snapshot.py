import copy
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigauto import (
    ConfigError,
    PluginParams,
    Signal,
    SnapshotError,
    StreamPipeline,
    forecast,
    load_snapshot,
    save_snapshot,
)
from sigauto import snapshot
from sigauto.cli import main
from sigauto.plugins import is_number
from sigauto.snapshot import pipeline_state, restore_pipeline

from conftest import E1, EVERY_STAT, build_plain, random_walk


def record_lines(pipe, values):
    return [json.dumps(pipe.step(v), sort_keys=True) for v in values]


class TestStreamPipeline:
    def test_e1_dummy_instants(self, count_params):
        pipe = StreamPipeline(count_params)
        records = [pipe.step(v) for v in E1]
        assert [r["dummy"] for r in records] == [True, False, True, False, False]
        assert [r["i"] for r in records] == list(range(5))

    def test_unknown_emission_mode(self, count_params):
        with pytest.raises(ConfigError):
            StreamPipeline(count_params, emission="fuzzy")

    def test_stream_equals_batch_at_random_instants(self, count_params):
        walk = random_walk(300, seed=2)
        pipe = StreamPipeline(count_params)
        picked = set(random.Random(0).sample(range(300), 20))
        for k, value in enumerate(walk):
            pipe.advance(value)
            if k in picked:
                _, scratch = build_plain(pipe.signal, count_params)
                assert forecast(pipe.hmm, 2).steps == forecast(scratch, 2).steps

    def test_continuous_records_carry_occupancies(self, count_params):
        pipe = StreamPipeline(count_params, emission="continuous")
        last = None
        for value in E1:
            last = pipe.step(value)
        assert last["steps"][0]["states"] == {"1": 1.0}


class TestPipelineSnapshot:
    @pytest.mark.parametrize("horizon", [1, 2, 3])
    @pytest.mark.parametrize("split", [1, 40])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    @pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda stat: stat["stat_variant"])
    def test_mid_stream_round_trip_is_byte_identical(self, tmp_path, stat, emission, dim,
                                                     split, horizon):
        """A resumed stream writes the uninterrupted stream's records, and
        its snapshot at the end is the uninterrupted pipeline's, byte for
        byte."""
        if dim == 2 and "region" in stat:
            stat = {**stat, "region": stat["region"] * 2}
        params = PluginParams(lam=0.5, horizon=horizon, **stat)
        walk = random_walk(80, dim=dim, seed=5)
        uninterrupted = StreamPipeline(params, emission=emission, seed=7)
        reference = record_lines(uninterrupted, walk)

        pipe = StreamPipeline(params, emission=emission, seed=7)
        lines = record_lines(pipe, walk[:split])
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        resumed = load_snapshot(path)
        lines += record_lines(resumed, walk[split:])
        assert lines == reference
        save_snapshot(resumed, path)
        save_snapshot(uninterrupted, tmp_path / "uninterrupted.json")
        assert path.read_bytes() == (tmp_path / "uninterrupted.json").read_bytes()

    def test_repeated_save_load_cycles(self, tmp_path, count_params):
        walk = random_walk(60, seed=11)
        reference = record_lines(StreamPipeline(count_params, seed=1), walk)
        pipe = StreamPipeline(count_params, seed=1)
        lines = []
        for k, value in enumerate(walk):
            lines.append(json.dumps(pipe.step(value), sort_keys=True))
            if k % 17 == 0:
                path = tmp_path / f"snap{k}.json"
                save_snapshot(pipe, path)
                pipe = load_snapshot(path)
        assert lines == reference

    def test_restore_derives_the_automaton_and_classifier_from_the_signal(self, count_params):
        """The snapshot stores neither the automaton nor the classifier's
        running summary; restore classifies the signal, which gives back
        both, the instants cell (1, 5) and the live EMA bit for bit."""
        pipe = StreamPipeline(PluginParams(lam=0.3))
        for value in random_walk(200, seed=8):
            pipe.advance(value)
        doc = pipeline_state(pipe)
        assert list(doc) == ["version", "tau", "emission", "seed", "score_floor", "signal",
                             "clusterer", "model"]
        restored = restore_pipeline(doc)
        assert restored.isa == pipe.isa
        assert list(restored.isa.theta.cells()) == list(pipe.isa.theta.cells())
        assert restored.classifier._ema == pipe.classifier._ema
        e1 = StreamPipeline(count_params)
        for value in E1:
            e1.advance(value)
        assert restore_pipeline(pipeline_state(e1)).isa.theta.cell("1", "5") == (2, 4)

    def test_version_mismatch(self, tmp_path, count_params):
        pipe = StreamPipeline(count_params)
        pipe.advance(1.0)
        doc = pipeline_state(pipe)
        doc["version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_truncated_file(self, tmp_path, count_params):
        pipe = StreamPipeline(count_params)
        pipe.advance(1.0)
        path = tmp_path / "trunc.json"
        save_snapshot(pipe, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_failed_write_keeps_the_previous_snapshot(self, tmp_path, monkeypatch,
                                                      count_params):
        pipe = StreamPipeline(count_params)
        for value in E1:
            pipe.advance(value)
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        previous = path.read_bytes()
        pipe.advance(2.0)
        real_state = snapshot.pipeline_state

        def unserializable_tail(p):
            # json.dump writes every key before this one, then fails
            return {**real_state(p), "tail": object()}

        monkeypatch.setattr(snapshot, "pipeline_state", unserializable_tail)
        with pytest.raises(TypeError):
            save_snapshot(pipe, path)
        assert path.read_bytes() == previous
        assert load_snapshot(path).n == 4
        assert [f.name for f in tmp_path.iterdir()] == ["snap.json"]

    def test_loaded_clusterer_centers(self, tmp_path):
        params = PluginParams(grid_width=(0.5, 2.0))
        pipe = StreamPipeline(params)
        for value in random_walk(50, dim=2, seed=3):
            pipe.advance(value)
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        loaded = load_snapshot(path).clusterer
        assert list(loaded.observed) == list(pipe.clusterer.observed)
        for label in pipe.clusterer.observed:
            assert loaded.center(label) == pipe.clusterer.center(label)

    @staticmethod
    def assert_refused(doc, tmp_path, capsys):
        """``SnapshotError`` from the loader, and exit 1 with a one-line
        message from ``run --resume``, not a traceback or a run that goes on
        from a state the snapshot does not hold."""
        with pytest.raises(SnapshotError):
            restore_pipeline(doc)
        snap, rows = tmp_path / "snap.json", tmp_path / "more.csv"
        snap.write_text(json.dumps(doc))
        rows.write_text("1.0\n")
        assert main(["run", "--input", str(rows), "--output", str(tmp_path / "out.jsonl"),
                     "--resume", str(snap)]) == 1
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "out.jsonl").exists()

    @staticmethod
    def e1_state(params, emission="discrete"):
        pipe = StreamPipeline(params, emission=emission)
        for v in E1:
            pipe.advance(v)
        return pipeline_state(pipe)

    @pytest.mark.parametrize("path, value", [
        (("emission",), "continuous"),
        (("seed",), "x"),
        (("score_floor",), "x"),
        (("score_floor",), 0),
        # E1's model has states and clusters "1" and "5"; the second row of
        # each table is state "5"'s, and its first cell is column "1".
        (("model", "trans", 1, 0), "qq"),
        (("model", "emit", 1, 0), "qq"),
        (("model", "trans", 1, 1, 0, 0), "qq"),
        (("model", "emit", 1, 1, 0, 0), "9"),
    ], ids=["model_of_another_kind", "seed_not_an_integer",
            "score_floor_not_a_number", "score_floor_zero",
            "transition_row_of_no_state", "emission_row_of_no_state",
            "transition_to_no_state", "emission_of_no_cluster"])
    def test_malformed_snapshot_is_refused(self, tmp_path, capsys, count_params, path, value):
        doc = self.e1_state(count_params)
        part = doc
        for key in path[:-1]:
            part = part[key]
        part[path[-1]] = value
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("key", ["model", "signal"])
    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_a_model_without_a_signal_or_a_signal_without_one_is_refused(
            self, tmp_path, capsys, count_params, emission, key):
        """A pipeline has a model exactly when it has consumed a row."""
        doc = self.e1_state(count_params, emission)
        doc[key] = None if key == "model" else []
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("row", [[True], [False], "5", {"5": 1}, [math.nan], [1.0, 5.0]],
                             ids=repr)
    def test_a_signal_row_a_stream_refuses_is_refused(self, tmp_path, capsys, count_params,
                                                      row):
        """A snapshot's rows are checked as ``Signal.append`` checks a row."""
        doc = self.e1_state(count_params)
        doc["signal"][2] = row
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("key, value", [
        ("mixtures", [["qq", [99]]]),
        ("emit", [["1", [["1", {"value": 1.0, "last_now": 0, "count": 1}]],
                  {"value": 1.0, "last_now": 0, "count": 1}]]),
    ], ids=["mixtures", "emission_rows"])
    def test_continuous_model_with_another_part_is_refused(self, tmp_path, capsys,
                                                           count_params, key, value):
        """A continuous model part is its transition rows alone: its centres
        are the automaton's incoming instants, and it has no emission rows.
        A snapshot that stores either, here centres of a state the model
        does not have at an instant past the signal, describes no pipeline."""
        doc = self.e1_state(count_params, "continuous")
        doc["model"][key] = value
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_version_3_snapshot_is_refused(self, tmp_path, capsys, count_params, emission):
        """A snapshot as version 3 wrote it: beside the version 4 keys, a
        ``kind``, the classifier's summary and the automaton, which version
        4 derives from the signal."""
        pipe = StreamPipeline(count_params, emission=emission)
        for v in E1:
            pipe.advance(v)
        isa = pipe.isa
        doc = pipeline_state(pipe)
        doc.update(version=3, kind="pipeline",
                   classifier={"kind": "ema_grid", "summary": list(pipe.classifier._ema)},
                   isa={"states": [*isa.states], "current": isa.current, "n": isa.n,
                        "new_state_instants": isa.new_state_instants,
                        "theta": [[p, q, list(js)] for p, q, js in isa.theta.cells()]})
        with pytest.raises(SnapshotError, match=r"version 3 not supported \(expected 4\)"):
            restore_pipeline(copy.deepcopy(doc))
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("key", [*sorted(snapshot.KEYS), "kind"])
    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_a_key_missing_or_added_is_refused(self, tmp_path, capsys, count_params,
                                              emission, key):
        """The file holds no dead key: a snapshot without any one of its
        keys is refused, and so is one that also holds version 3's ``kind``."""
        doc = self.e1_state(count_params, emission)
        if key == "kind":
            doc["kind"] = "pipeline"
        else:
            del doc[key]
        self.assert_refused(doc, tmp_path, capsys)

    def test_schema_violation(self, count_params):
        with pytest.raises(SnapshotError):
            restore_pipeline({"version": 1, "tau": {}})

    def test_missing_file(self):
        with pytest.raises(SnapshotError):
            load_snapshot("/nonexistent/snapshot.json")



def walk_snapshot(params, emission, length, dim=1, seed=0):
    """The state of a pipeline after the first ``length`` rows of a walk,
    and the walk's next 50 rows."""
    walk = random_walk(length + 50, dim=dim, seed=seed)
    pipe = StreamPipeline(params, emission=emission)
    for value in walk[:length]:
        pipe.advance(value)
    return pipeline_state(pipe), walk[length:]


def resumed_records(doc, values):
    return record_lines(restore_pipeline(copy.deepcopy(doc)), values)


DELETE = object()


def edited(doc, table, path, value):
    """A copy of ``doc`` with the item at ``path`` in model table ``table``
    set to ``value``, or deleted for ``DELETE``."""
    doc = copy.deepcopy(doc)
    parent, node = doc["model"], table
    for key in path:
        parent, node = parent[node], key
    if value is DELETE:
        del parent[node]
    else:
        parent[node] = value
    return doc


# A 300-row walk at h=2, by default parameters otherwise.  Its first
# transition row, state "0"'s, has two cells, the first with 4 instants, the
# last at 147, and its first emission row's total counts 17 instants.
WALK_STATE = walk_snapshot(PluginParams(horizon=2), "discrete", 300)[0]


@pytest.mark.parametrize("table, path, value", [
    ("trans", (0, 1, 0, 1, "count"), -1),
    ("trans", (0, 1, 0, 1, "count"), 10**9),
    ("trans", (0, 1, 0, 1, "last_now"), 10**9),
    ("trans", (0, 1, 0), DELETE),
    ("trans", (0,), DELETE),
    ("emit", (0, 2, "count"), 7),
    ("trans", (0, 1, 0, 1, "value"), math.nan),
    ("trans", (0, 1, 0, 1, "value"), 5.0),
    ("trans", (0, 1, 0, 1, "count"), 4.0),
    ("trans", (0, 1, 0, 1, "last_now"), 147.0),
    ("emit", (0, 1, 0, 1, "last_now"), 10**9),
], ids=["cell_count_minus_one", "cell_count_huge", "cell_last_now_huge", "cell_dropped",
        "first_row_deleted", "emission_total_count_seven", "cell_value_nan",
        "count_value_other_than_count", "cell_count_as_float", "cell_last_now_as_float",
        "emission_cell_last_now_huge"])
def test_model_row_its_automaton_contradicts_is_refused(tmp_path, capsys, table, path, value):
    """A snapshot's model rows are those ``update`` writes for its own
    automaton: a transition row per state with outgoing cells, in order,
    whose cells are that state's cells with their instant counts and last
    instants; an emission row per state whose total counts its incoming
    instants at the latest of them; every total its cells' count sum at
    their latest instant; and every value a finite number >= 0, the count
    itself under ``count``."""
    TestPipelineSnapshot.assert_refused(edited(WALK_STATE, table, path, value),
                                        tmp_path, capsys)


# With lambda 1 a state is the cluster it emits; at 0.5 its rows spread.
SPREAD_STATE = walk_snapshot(PluginParams(lam=0.5, horizon=2), "discrete", 300)[0]


def emission_cells(doc):
    """``(row, column, cell)`` for each emission cell before its row's
    latest instant."""
    return [(row, c, acc) for row in doc["model"]["emit"] for c, acc in row[1]
            if acc["last_now"] < row[2]["last_now"]]


def count_one_more(*accs):
    for acc in accs:
        acc["count"] += 1
        acc["value"] += 1.0


def cell_counts_one_more(doc):
    count_one_more(emission_cells(doc)[0][2])


def row_counts_one_more(doc):
    row, _, acc = emission_cells(doc)[0]
    count_one_more(acc, row[2])


def cell_relabelled(doc):
    row, column, _ = emission_cells(doc)[0]
    other = next(c for c, _ in doc["clusterer"] if c not in {c for c, _ in row[1]})
    next(cell for cell in row[1] if cell[0] == column)[0] = other


def cell_last_now_wrapped(doc):
    emission_cells(doc)[0][2]["last_now"] -= len(doc["signal"])


def cluster_unobserved(doc):
    column = emission_cells(doc)[0][1]
    doc["clusterer"] = [entry for entry in doc["clusterer"] if entry[0] != column]


@pytest.mark.parametrize("edit", [cell_counts_one_more, row_counts_one_more, cell_relabelled,
                                  cell_last_now_wrapped, cluster_unobserved],
                         ids=lambda edit: edit.__name__)
def test_emission_row_its_automaton_or_signal_contradicts_is_refused(tmp_path, capsys, edit):
    """Edits that keep every field in range and the row's own counts
    consistent: an emission cell's counts are its row total's share, the
    total counts its state's incoming instants, and each cell holds the
    observation at its last instant, an instant of the signal, in a
    cluster the clusterer holds."""
    doc = copy.deepcopy(SPREAD_STATE)
    edit(doc)
    TestPipelineSnapshot.assert_refused(doc, tmp_path, capsys)


def state_renamed(doc):
    """The first state renamed, to a label no state has, in each row and
    transition column that names it: tables that agree with each other."""
    old, new = doc["model"]["trans"][0][0], "1000"
    for table in ("trans", "emit"):
        for row in doc["model"][table]:
            row[0] = new if row[0] == old else row[0]
            for cell in row[1] if table == "trans" else ():
                cell[0] = new if cell[0] == old else cell[0]


def signal_row_relabelled(doc):
    doc["signal"][150][0] += 100.0


@pytest.mark.parametrize("edit", [state_renamed, signal_row_relabelled],
                         ids=lambda edit: edit.__name__)
def test_model_its_signal_contradicts_is_refused(tmp_path, capsys, edit):
    """The automaton is the signal's, classified again on restore: model
    tables that name a state the signal never enters, or a signal row
    moved so that its state changes, describe no stream."""
    doc = copy.deepcopy(SPREAD_STATE)
    edit(doc)
    TestPipelineSnapshot.assert_refused(doc, tmp_path, capsys)


@pytest.mark.parametrize("emission, index, entry", [
    ("discrete", 0, ["1", [99]]),
    ("discrete", 0, ["1", ["1"]]),
    ("discrete", 0, ["1", [1.0]]),
    ("discrete", 0, ["1", [1, 0]]),
    ("discrete", 2, ["1", [1]]),
    ("discrete", 2, ["9", [9]]),
    ("continuous", 0, ["1", [1]]),
], ids=["index_of_another_cell", "index_a_string", "index_fractional", "index_too_wide",
        "label_twice", "cluster_never_emitted", "cluster_in_continuous_mode"])
def test_clusterer_other_than_its_model_emits_is_refused(tmp_path, capsys, count_params,
                                                         emission, index, entry):
    """The clusterer is each cluster the emission table names, once, with
    its label's cell index, and is empty in continuous mode; E1's
    clusters are "1" and "5"."""
    doc = TestPipelineSnapshot.e1_state(count_params, emission)
    doc["clusterer"][index:index + 1] = [entry]
    TestPipelineSnapshot.assert_refused(doc, tmp_path, capsys)


# Values no stream writes into a model field: wrong types, and numbers out
# of every field's range (a fraction is in range for a discounted value).
WRONG_VALUES = ("x", "1", None, [], {}, True, 1.5, -1, 10**9, math.nan, math.inf, -math.inf)


def field_edits(doc):
    """Every single-field edit inside the model's row tables: delete a key
    or list item, or set it to one of ``WRONG_VALUES``, as
    ``(table, path, value)``."""
    def walk(node, path):
        if isinstance(node, (list, dict)):
            for key in (node if isinstance(node, dict) else range(len(node))):
                yield path + (key,)
                yield from walk(node[key], path + (key,))

    for table in doc["model"]:
        yield table, (), DELETE
        for path in walk(doc["model"][table], ()):
            for value in (DELETE, *WRONG_VALUES):
                yield table, path, value


def is_trusted(doc, path, value):
    """The one edit class restore cannot see in O(cells): a discounted
    ``value`` set to another finite number >= 0.  A discounted value
    depends on every instant's distance to the present, so only running
    the updates over the signal again could check it; restore trusts it."""
    return (path[-1:] == ("value",) and doc["tau"]["stat_variant"].startswith("discounted")
            and is_number(value) and 0 <= value < math.inf)


SMALL_SNAPSHOTS = {
    "discrete": walk_snapshot(
        PluginParams(lam=0.5, grid_width=0.5, delta=0.9, stat_variant="discounted_sum",
                     horizon=2), "discrete", 30, seed=3),
    "continuous": walk_snapshot(
        PluginParams(lam=0.5, grid_width=0.5, horizon=2), "continuous", 30, dim=2, seed=4),
}
EDITS = [(kind, *edit) for kind, (doc, _) in SMALL_SNAPSHOTS.items()
         for edit in field_edits(doc)]


@settings(max_examples=400, deadline=None)
@given(edit=st.sampled_from(EDITS))
# A value out of range in a row the next records read, under a statistic
# whose values are not their counts: only the range check refuses it.
@example(edit=("discrete", "emit", (5, 2, "value"), math.nan))
def test_every_model_field_edit_is_refused_or_changes_no_record(edit):
    """An edit of one field of a small snapshot's model is refused
    (``SnapshotError``, and exit 1 with no output file through ``run
    --resume``) or resumes to the same next 50 records as the unedited
    snapshot, unless it is the trusted class of ``is_trusted``."""
    kind, table, path, value = edit
    doc, values = SMALL_SNAPSHOTS[kind]
    bad = edited(doc, table, path, value)
    try:
        records = resumed_records(bad, values)
    except SnapshotError:
        with tempfile.TemporaryDirectory() as tmp:
            snap, rows, out = (os.path.join(tmp, name)
                               for name in ("snap.json", "more.csv", "out.jsonl"))
            with open(snap, "w", encoding="utf-8") as handle:
                json.dump(bad, handle)
            with open(rows, "w", encoding="utf-8") as handle:
                handle.write("1.0\n")
            assert main(["run", "--input", rows, "--output", out, "--resume", snap]) == 1
            assert not os.path.exists(out)
        return
    if not is_trusted(doc, path, value):
        assert records == resumed_records(doc, values)
