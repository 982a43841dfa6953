import json
import random

import pytest

from sigauto import (
    ConfigError,
    PluginParams,
    Signal,
    SnapshotError,
    StreamPipeline,
    forecast,
    hmm_from_document,
    load_model_document,
    load_snapshot,
    model_document,
    save_model_document,
    save_snapshot,
)
from sigauto import snapshot
from sigauto.cli import main
from sigauto.snapshot import pipeline_state, restore_pipeline

from conftest import E1, build_plain, random_walk


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
    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    @pytest.mark.parametrize("variant,delta", [("count", 0.0), ("discounted_sum", 0.9)])
    def test_mid_stream_round_trip_is_byte_identical(self, tmp_path, emission,
                                                     variant, delta):
        params = PluginParams(lam=0.5, delta=delta, stat_variant=variant, horizon=2)
        walk = random_walk(80, seed=5)
        reference = record_lines(StreamPipeline(params, emission=emission, seed=7), walk)

        pipe = StreamPipeline(params, emission=emission, seed=7)
        lines = record_lines(pipe, walk[:40])
        path = tmp_path / "snap.json"
        save_snapshot(pipe, path)
        resumed = load_snapshot(path)
        lines += record_lines(resumed, walk[40:])
        assert lines == reference

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

    def test_snapshot_contains_the_instants_cell(self, tmp_path, count_params):
        pipe = StreamPipeline(count_params)
        for value in E1:
            pipe.advance(value)
        doc = pipeline_state(pipe)
        assert ["1", "5", [2, 4]] in doc["isa"]["theta"]

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
        (("isa",), None),
        (("model",), None),
        (("classifier", "summary"), None),
        (("emission",), "continuous"),
        (("seed",), "x"),
        (("score_floor",), "x"),
        (("score_floor",), 0),
        (("isa", "current"), "9"),
        (("isa", "current"), "__bottom__"),
        (("isa", "n"), 9),
        (("isa", "theta", 2, 2), [2, 4, 99]),
        (("isa", "theta", 2, 2), [2, 3]),
        # E1's model has states and clusters "1" and "5"; the second row of
        # each table is state "5"'s, and its first cell is column "1".
        (("model", "trans", 1, 0), "qq"),
        (("model", "emit", 1, 0), "qq"),
        (("model", "trans", 1, 1, 0, 0), "qq"),
        (("model", "emit", 1, 1, 0, 0), "9"),
    ], ids=["no_automaton", "no_model", "no_classifier_summary", "model_of_another_kind",
            "seed_not_an_integer", "score_floor_not_a_number", "score_floor_zero",
            "current_not_a_state", "current_is_bottom", "automaton_ahead",
            "instant_past_the_signal", "instant_twice",
            "transition_row_of_no_state", "emission_row_of_no_state",
            "transition_to_no_state", "emission_of_no_cluster"])
    def test_malformed_snapshot_is_refused(self, tmp_path, capsys, count_params, path, value):
        doc = self.e1_state(count_params)
        part = doc
        for key in path[:-1]:
            part = part[key]
        part[path[-1]] = value
        self.assert_refused(doc, tmp_path, capsys)

    # E1's automaton: instants 0..4 go __bottom__->1, 1->1, 1->5, 5->1, 1->5,
    # so "1" is first entered at 0, "5" at 2, and the current state is "5".
    @pytest.mark.parametrize("edits", [
        {"states": ["__bottom__", "1", "5", "zz"], "new_state_instants": [0, 77]},
        {"states": ["__bottom__", "1", "5", "zz"]},
        {"states": ["__bottom__", "5", "1"]},
        {"new_state_instants": [0, 3]},
        {"current": "1"},
        {"theta": [["__bottom__", "1", [0]], ["1", "1", [3]], ["1", "5", [2, 4]],
                   ["5", "1", [1]]]},
        {"theta": [["__bottom__", "1", [0, 2]], ["1", "__bottom__", [1]], ["1", "5", [3]],
                   ["5", "1", [4]]],
         "current": "1", "new_state_instants": [0, 3]},
        {"theta": [["__bottom__", "1", [0]], ["1", "1", [1.5]], ["1", "5", [2, 4]],
                   ["5", "1", [3]]]},
    ], ids=["state_and_instant_added", "state_never_entered", "states_reordered",
            "new_state_instant_moved", "current_another_state", "cells_do_not_chain",
            "bottom_entered", "fractional_instant"])
    def test_automaton_its_cells_do_not_replay_to_is_refused(self, tmp_path, capsys,
                                                             count_params, edits):
        """The automaton's states, new-state instants and current state are
        those its cells replay to from ``__bottom__``, and the cells chain:
        each instant leaves the state the one before entered.  A snapshot
        edited in any of these describes an automaton no stream built."""
        doc = self.e1_state(count_params)
        doc["isa"].update(edits)
        self.assert_refused(doc, tmp_path, capsys)

    def test_cells_are_rebuilt_in_instant_order(self, count_params):
        """The cells replay to one automaton whatever order a cell lists its
        instants in, or the cells are listed in; it is stored in live order."""
        doc = self.e1_state(count_params)
        edited = json.loads(json.dumps(doc))
        edited["isa"]["theta"][2][2] = [4, 2]
        edited["isa"]["theta"].reverse()
        assert pipeline_state(restore_pipeline(edited)) == doc

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
    def test_version_2_snapshot_is_refused(self, tmp_path, capsys, count_params, emission):
        """A snapshot as version 2 wrote it: the model part repeats the
        automaton's instant, current state, newness and states, and a
        continuous model its mixture centres."""
        doc = self.e1_state(count_params, emission)
        isa = doc["isa"]
        doc["version"] = 2
        doc["model"].update(kind=emission, n=isa["n"], current=isa["current"],
                            current_is_new=False, states=isa["states"][1:])
        if emission == "continuous":
            doc["model"]["mixtures"] = [["1", [0, 1, 3]], ["5", [2, 4]]]
        self.assert_refused(doc, tmp_path, capsys)

    def test_schema_violation(self, count_params):
        with pytest.raises(SnapshotError):
            restore_pipeline({"version": 1, "tau": {}})

    def test_missing_file(self):
        with pytest.raises(SnapshotError):
            load_snapshot("/nonexistent/snapshot.json")


class TestModelDocument:
    def test_round_trip_is_identity(self, tmp_path, e1_signal, count_params):
        isa, hmm = build_plain(e1_signal, count_params)
        doc = model_document(hmm, count_params, isa)
        path = tmp_path / "model.json"
        save_model_document(doc, path)
        loaded = load_model_document(path)
        assert loaded == doc
        save_model_document(loaded, tmp_path / "model2.json")
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "model2.json").read_bytes()

    def test_document_lists_expected_weights(self, e1_signal, count_params):
        isa, hmm = build_plain(e1_signal, count_params)
        doc = model_document(hmm, count_params, isa)
        assert ["1", "5", [2, 4]] in doc["instants_matrix"]
        weights = {(p, q): w for p, q, w in doc["transitions"]}
        assert weights[("1", "5")] == pytest.approx(2 / 3, abs=1e-15)
        assert doc["alpha"] == "5"

    def test_rebuild_from_document(self, e1_signal, count_params):
        isa, hmm = build_plain(e1_signal, count_params)
        doc = model_document(hmm, count_params, isa)
        rebuilt = hmm_from_document(doc, e1_signal)
        assert model_document(rebuilt, count_params, isa) == doc

    def test_rebuild_random_walk_counts_exact(self, count_params):
        from sigauto import Signal

        signal = Signal(random_walk(150, seed=21))
        isa, hmm = build_plain(signal, count_params)
        doc = model_document(hmm, count_params, isa)
        rebuilt = hmm_from_document(doc, signal)
        assert rebuilt.transition_matrix().rows == hmm.transition_matrix().rows
        assert rebuilt.emission_matrix().rows == hmm.emission_matrix().rows

    def test_version_check(self, tmp_path, e1_signal, count_params):
        isa, hmm = build_plain(e1_signal, count_params)
        doc = model_document(hmm, count_params, isa)
        doc["version"] = 999
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError):
            load_model_document(path)

    def test_non_object_root_is_refused(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(SnapshotError, match="root must be an object"):
            load_model_document(path)

    @staticmethod
    def walk_document(emission="discrete"):
        """A 200-row walk's pipeline and the document of its model."""
        pipe = StreamPipeline(PluginParams(grid_width=0.5), emission=emission)
        for value in random_walk(200, seed=6):
            pipe.advance(value)
        return pipe, model_document(pipe.hmm, pipe.params, pipe.isa)

    def test_document_missing_a_cell_is_refused(self):
        """Without one of its cells the matrix leaves an instant in no cell:
        it replays to no automaton, here one at n = 192 against a 200-row
        signal."""
        pipe, doc = self.walk_document()
        cells = doc["instants_matrix"]
        del cells[next(k for k, cell in enumerate(cells) if len(cell[2]) == 7)]
        with pytest.raises(SnapshotError, match="not an instant 0..192"):
            hmm_from_document(doc, pipe.signal)

    @pytest.mark.parametrize("alpha", ["other", "zz"])
    def test_alpha_other_than_the_replayed_state_is_refused(self, alpha):
        """``alpha`` is the state the instants matrix ends in; another
        known state, or one the model does not have, describes no model."""
        pipe, doc = self.walk_document()
        doc["alpha"] = (next(s for s in pipe.hmm.state_order if s != pipe.isa.current)
                        if alpha == "other" else alpha)
        with pytest.raises(SnapshotError, match="alpha"):
            hmm_from_document(doc, pipe.signal)

    @pytest.mark.parametrize("emission", ["discrete", "continuous"])
    def test_signal_shorter_than_the_document_is_refused(self, emission):
        pipe, doc = self.walk_document(emission)
        with pytest.raises(SnapshotError, match="has 199 observations"):
            hmm_from_document(doc, Signal(list(pipe.signal)[:-1]))

    def test_cell_without_instants_is_refused(self, e1_signal, count_params):
        isa, hmm = build_plain(e1_signal, count_params)
        doc = model_document(hmm, count_params, isa)
        doc["instants_matrix"].append(["1", "9", []])
        with pytest.raises(SnapshotError, match="no instants"):
            hmm_from_document(doc, e1_signal)
