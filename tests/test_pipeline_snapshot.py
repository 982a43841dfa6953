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
    RejectedInputError,
    SnapshotError,
    StreamPipeline,
    forecast,
    load_snapshot,
    save_snapshot,
)
from sigauto import snapshot
from sigauto.cli import main
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

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_restore_streams_the_signal_to_the_live_pipeline(self, count_params, emission):
        """The snapshot stores the configuration and the signal; restore
        streams the signal again, which gives back the live automaton, row
        tables, clusterer order and EMA bit for bit."""
        params = PluginParams(lam=0.3, grid_width=0.5, stat_variant="discounted_sum",
                              delta=0.9)
        pipe = StreamPipeline(params, emission=emission)
        for value in random_walk(200, seed=8):
            pipe.step(value)
        doc = pipeline_state(pipe)
        assert list(doc) == ["version", "tau", "emission", "seed", "signal"]
        restored = restore_pipeline(doc)
        assert restored.isa == pipe.isa
        assert list(restored.isa.theta.cells()) == list(pipe.isa.theta.cells())
        for table in ("_trows", "_erows") if emission == "discrete" else ("_trows",):
            assert rows(getattr(restored.hmm, table)) == rows(getattr(pipe.hmm, table))
        assert list(restored.clusterer.observed.items()) == list(
            pipe.clusterer.observed.items())
        assert restored.classifier._ema == pipe.classifier._ema
        e1 = StreamPipeline(count_params)
        for value in E1:
            e1.advance(value)
        assert restore_pipeline(pipeline_state(e1)).isa.theta.cell("1", "5") == (2, 4)

    def test_an_empty_signal_restores_a_pipeline_that_consumed_nothing(self, count_params):
        restored = restore_pipeline(pipeline_state(StreamPipeline(count_params, seed=3)))
        assert restored.isa is None and restored.hmm is None
        assert record_lines(restored, E1) == record_lines(
            StreamPipeline(count_params, seed=3), E1)

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
        # An unencodable last row, stored past the append's check: the save
        # writes the configuration and the first chunks, then fails.
        pipe.signal._obs.append((object(),))
        monkeypatch.setattr(snapshot, "CHUNK_ROWS", 2)
        with pytest.raises(TypeError):
            save_snapshot(pipe, path)
        assert path.read_bytes() == previous
        assert load_snapshot(path).n == 4
        assert [f.name for f in tmp_path.iterdir()] == ["snap.json"]

    @pytest.mark.parametrize("length", [0, 1, snapshot.CHUNK_ROWS, snapshot.CHUNK_ROWS + 1,
                                        3 * snapshot.CHUNK_ROWS + 17])
    def test_a_chunked_save_writes_the_bytes_of_one_encoding(self, tmp_path, length):
        """The rows go out in chunks, and the file holds the bytes of one
        C-encoder string of the whole document, for an empty signal, one
        row, a signal that ends at a chunk boundary or just past it, and
        many chunks."""
        pipe = StreamPipeline(PluginParams(grid_width=(0.5, 2.0)))
        for value in random_walk(length, dim=2, seed=4):
            pipe.advance(value)
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        expected = json.dumps(pipeline_state(pipe), separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_a_save_takes_memory_bounded_by_a_chunk(self, tmp_path):
        """Saving a 20 000-row pipeline (a ~415 KB file) allocates at most
        1 MB at its peak; one string of the whole document took ~4.1 MB."""
        import tracemalloc

        pipe = StreamPipeline(PluginParams(grid_width=0.5))
        for value in random_walk(20_000, seed=5):
            pipe.advance(value)
        tracemalloc.start()
        try:
            save_snapshot(pipe, tmp_path / "snap.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert os.path.getsize(tmp_path / "snap.json") > 400_000
        assert peak <= 1_000_000, peak

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

    @pytest.mark.parametrize("key, value", [
        ("emission", "fuzzy"),
        ("seed", "x"),
        ("seed", 1.5),
        ("tau", [1.0]),
        ("tau", {"lambda": 1.0, "grid_width": 1.0, "delta": 0.0, "stat_variant": "count",
                 "region": None, "bandwidth": "scott", "horizon": 1, "wobble": 1}),
        # E1's rows are 1-d: the first row's step refuses either of these.
        ("tau", {"lambda": 1.0, "grid_width": [1.0, 1.0]}),
        ("tau", {"stat_variant": "region_count", "region": [[0.0, 2.0], [0.0, 2.0]]}),
        ("signal", {}),
        ("signal", "1.0"),
    ], ids=["unknown_emission", "seed_not_an_integer", "seed_fractional", "tau_not_an_object",
            "tau_unknown_key", "grid_width_of_another_dimension",
            "region_of_another_dimension", "signal_an_object", "signal_a_string"])
    def test_malformed_snapshot_is_refused(self, tmp_path, capsys, count_params, key, value):
        doc = self.e1_state(count_params)
        doc[key] = value
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("row", [[True], [False], "5", {"5": 1}, [math.nan], [1.0, 5.0]],
                             ids=repr)
    def test_a_signal_row_a_stream_refuses_is_refused(self, tmp_path, capsys, count_params,
                                                      row):
        """A snapshot's rows are checked as ``Signal.append`` checks a row."""
        doc = self.e1_state(count_params)
        doc["signal"][2] = row
        self.assert_refused(doc, tmp_path, capsys)

    # E1 under ``count_params``, as version 4 wrote it: beside the version 5
    # keys, the unread ``score_floor``, the clusterer's cells and the model's
    # row tables, which version 5 derives from the signal.
    VERSION_4_FILES = {
        "discrete": (
            '{"version":4,"tau":{"lambda":1.0,"grid_width":1.0,"delta":0.0,'
            '"stat_variant":"count","region":null,"bandwidth":"scott","horizon":1},'
            '"emission":"discrete","seed":0,"score_floor":1e-12,'
            '"signal":[[1.0],[1.0],[5.0],[1.0],[5.0]],"clusterer":[["1",[1]],["5",[5]]],'
            '"model":{"trans":[["1",[["1",{"value":1.0,"last_now":1,"count":1}],'
            '["5",{"value":2.0,"last_now":4,"count":2}]],{"value":3.0,"last_now":4,"count":3}],'
            '["5",[["1",{"value":1.0,"last_now":3,"count":1}]],'
            '{"value":1.0,"last_now":3,"count":1}]],'
            '"emit":[["1",[["1",{"value":3.0,"last_now":3,"count":3}]],'
            '{"value":3.0,"last_now":3,"count":3}],'
            '["5",[["5",{"value":2.0,"last_now":4,"count":2}]],'
            '{"value":2.0,"last_now":4,"count":2}]]}}'),
        "continuous": (
            '{"version":4,"tau":{"lambda":1.0,"grid_width":1.0,"delta":0.0,'
            '"stat_variant":"count","region":null,"bandwidth":"scott","horizon":1},'
            '"emission":"continuous","seed":0,"score_floor":1e-12,'
            '"signal":[[1.0],[1.0],[5.0],[1.0],[5.0]],"clusterer":[],'
            '"model":{"trans":[["1",[["1",{"value":1.0,"last_now":1,"count":1}],'
            '["5",{"value":2.0,"last_now":4,"count":2}]],{"value":3.0,"last_now":4,"count":3}],'
            '["5",[["1",{"value":1.0,"last_now":3,"count":1}]],'
            '{"value":1.0,"last_now":3,"count":1}]]}}'),
    }

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_version_4_snapshot_is_refused(self, tmp_path, capsys, emission):
        doc = json.loads(self.VERSION_4_FILES[emission])
        with pytest.raises(SnapshotError, match=r"version 4 not supported \(expected 5\)"):
            restore_pipeline(copy.deepcopy(doc))
        self.assert_refused(doc, tmp_path, capsys)

    @pytest.mark.parametrize("key", [*sorted(snapshot.KEYS), "kind", "score_floor",
                                     "clusterer", "model"])
    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_a_key_missing_or_added_is_refused(self, tmp_path, capsys, count_params,
                                              emission, key):
        """The file holds no dead key: a snapshot without any one of its
        keys is refused, and so is one that also holds a key an earlier
        version wrote (version 3's ``kind``, version 4's ``score_floor``,
        ``clusterer`` and ``model``)."""
        doc = self.e1_state(count_params, emission)
        if key in snapshot.KEYS:
            del doc[key]
        else:
            doc[key] = None
        self.assert_refused(doc, tmp_path, capsys)

    def test_schema_violation(self, count_params):
        with pytest.raises(SnapshotError):
            restore_pipeline({"version": 1, "tau": {}})

    def test_missing_file(self):
        with pytest.raises(SnapshotError):
            load_snapshot("/nonexistent/snapshot.json")



def rows(table):
    """A model's row table as comparable values: each row's state, cells
    and total, in order."""
    return [(p, list(row.cells.items()), row.total) for p, row in table.items()]


def walk_snapshot(params, emission, length, dim=1, seed=0):
    """The state of a pipeline after the first ``length`` rows of a walk,
    and the walk's next 50 rows."""
    walk = random_walk(length + 50, dim=dim, seed=seed)
    pipe = StreamPipeline(params, emission=emission, seed=seed)
    for value in walk[:length]:
        pipe.advance(value)
    return pipeline_state(pipe), walk[length:]


SMALL_SNAPSHOTS = {
    "discrete": walk_snapshot(
        PluginParams(lam=0.5, grid_width=0.5, delta=0.9, stat_variant="discounted_sum",
                     horizon=2), "discrete", 30, seed=3),
    "continuous": walk_snapshot(
        PluginParams(lam=0.5, grid_width=0.5, horizon=2), "continuous", 30, dim=2, seed=4),
}
# What an edit writes in place of a row or of one coordinate: a boolean, a
# string (one that ``float`` reads, one it refuses) or NaN.
FOREIGN = (True, False, "1.5", "x", math.nan)


@st.composite
def signal_edits(draw):
    """``(kind, rows)``: the stored signal of ``SMALL_SNAPSHOTS[kind]`` with
    one row edited: a coordinate changed, the row deleted, a row inserted
    before it, or the row or one of its coordinates made a ``FOREIGN`` value."""
    kind = draw(st.sampled_from(sorted(SMALL_SNAPSHOTS)))
    signal = copy.deepcopy(SMALL_SNAPSHOTS[kind][0]["signal"])
    k = draw(st.integers(0, len(signal) - 1))
    dim = len(signal[k])
    number = st.floats(-10.0, 10.0)
    edit = draw(st.sampled_from(["value", "delete", "insert", "row", "coordinate"]))
    if edit == "value":
        signal[k][draw(st.integers(0, dim - 1))] = draw(number)
    elif edit == "delete":
        del signal[k]
    elif edit == "insert":
        signal.insert(k, [draw(number) for _ in range(dim)])
    elif edit == "row":
        signal[k] = draw(st.sampled_from(FOREIGN))
    else:
        signal[k][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(FOREIGN))
    return kind, signal


def fresh_records(doc, signal, values):
    """The records a new pipeline of ``doc``'s configuration writes for
    ``values`` after it is fed ``signal``."""
    pipe = StreamPipeline(PluginParams.from_dict(doc["tau"]), emission=doc["emission"],
                          seed=doc["seed"])
    for row in signal:
        pipe.advance(row)
    return record_lines(pipe, values)


@settings(max_examples=200, deadline=None)
@given(edit=signal_edits())
@example(edit=("discrete", [[1.0]] * 30))
@example(edit=("continuous", [[1.0, 2.0]] * 29 + [[1.0, "x"]]))
def test_every_signal_row_edit_is_refused_or_resumes_as_a_fresh_stream(edit):
    """A snapshot whose signal has one row edited is refused (``SnapshotError``,
    and exit 1 with no output file through ``run --resume``) exactly when a
    new pipeline fed the same rows refuses one; otherwise it resumes to the
    records that pipeline writes next, whatever the rows say."""
    kind, signal = edit
    doc, values = SMALL_SNAPSHOTS[kind]
    bad = {**doc, "signal": signal}
    try:
        expected = fresh_records(doc, signal, values)
    except RejectedInputError:
        expected = None
    try:
        resumed = restore_pipeline(copy.deepcopy(bad))
    except SnapshotError:
        assert expected is None
        with tempfile.TemporaryDirectory() as tmp:
            snap, more, out = (os.path.join(tmp, name)
                               for name in ("snap.json", "more.csv", "out.jsonl"))
            with open(snap, "w", encoding="utf-8") as handle:
                json.dump(bad, handle)
            with open(more, "w", encoding="utf-8") as handle:
                handle.write("1.0\n")
            assert main(["run", "--input", more, "--output", out, "--resume", snap]) == 1
            assert not os.path.exists(out)
        return
    assert record_lines(resumed, values) == expected
