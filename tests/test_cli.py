import json

import pytest

from sigauto import BenchPoint, BenchReport
from sigauto.cli import main, parse_config

from conftest import E1


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(x) for x in row) for row in rows) + "\n")


@pytest.fixture
def e1_csv(tmp_path):
    path = tmp_path / "e1.csv"
    path.write_text("\n".join(str(v) for v in E1) + "\n")
    return path


def read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(None)
        assert config.params.lam == 1.0
        assert config.params.grid_width == 1.0
        assert config.params.delta == 0.0
        assert config.params.stat_variant == "count"
        assert config.params.horizon == 1
        assert config.params.bandwidth == "scott"
        assert config.emission == "discrete"

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"horizon": 2}))
        config = parse_config(str(path), {"horizon": 4})
        assert config.params.horizon == 4

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"horizn": 2}))
        with pytest.raises(Exception):
            parse_config(str(path))

    def test_delta_range(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"delta": 1.0}))
        with pytest.raises(Exception):
            parse_config(str(path))


class TestRun:
    def test_e1_emits_five_records(self, tmp_path, e1_csv):
        out = tmp_path / "out.jsonl"
        code = main(["run", "--input", str(e1_csv), "--output", str(out),
                     "--horizon", "1", "--seed", "5"])
        assert code == 0
        records = read_records(out)
        assert len(records) == 5
        assert [r["dummy"] for r in records] == [True, False, True, False, False]
        assert all(r["seed"] == 5 for r in records)

    def test_jsonl_input(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(json.dumps({"r": [v]}) for v in E1) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        assert len(read_records(out)) == 5

    def test_header_row_is_skipped(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("value\n1.0\n2.0\n")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        assert len(read_records(out)) == 2

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["run", "--input", str(src)]) == 1

    def test_malformed_row_non_strict(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1.0\n1.0,abc\n2.0\n")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        records = read_records(out)
        assert len(records) == 3
        assert records[1]["line"] == 2 and "error" in records[1]
        assert records[2]["i"] == 1

    def test_malformed_row_strict(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1.0\n1.0,abc\n2.0\n")
        assert main(["run", "--input", str(src), "--strict",
                     "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_wrong_width_row_non_strict(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text('1.0\n3.0,4.0\n{"r": [1.0, 2.0]}\n2.0\n')
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        records = read_records(out)
        assert [r.get("line") for r in records] == [None, 2, 3, None]
        assert all("expected 1" in r["error"] for r in records[1:3])
        # the rejected rows left the stream as if they were never there
        clean = tmp_path / "clean.csv"
        clean.write_text("1.0\n2.0\n")
        expected = tmp_path / "expected.jsonl"
        assert main(["run", "--input", str(clean), "--output", str(expected)]) == 0
        assert [records[0], records[3]] == read_records(expected)

    def test_wrong_width_row_strict(self, tmp_path):
        src = tmp_path / "wide.csv"
        src.write_text("1.0\n3.0,4.0\n2.0\n")
        assert main(["run", "--input", str(src), "--strict",
                     "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_resumed_run_takes_width_from_snapshot(self, tmp_path):
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, [[1.0], [5.0], [1.0]])
        second.write_text("3.0,4.0\n5.0\n")
        snap = tmp_path / "snap.json"
        assert main(["run", "--input", str(first), "--output", str(tmp_path / "a.jsonl"),
                     "--snapshot", str(snap)]) == 0
        out = tmp_path / "b.jsonl"
        assert main(["run", "--input", str(second), "--output", str(out),
                     "--resume", str(snap)]) == 0
        records = read_records(out)
        assert records[0]["line"] == 1 and "error" in records[0]
        assert records[1]["i"] == 3

    def test_config_error_exit_code(self, tmp_path, e1_csv):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 1.0}))
        assert main(["run", "--input", str(e1_csv), "--config", str(config)]) == 2

    def test_missing_input_file(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_output_and_snapshot_paths_must_differ(self, tmp_path, e1_csv):
        clash = tmp_path / "same.json"
        assert main(["run", "--input", str(e1_csv), "--output", str(clash),
                     "--snapshot", str(clash)]) == 2

    def test_snapshot_resume_keeps_stream_identical(self, tmp_path):
        rows = [[1.0 if k % 2 == 0 else 5.0] for k in range(40)]
        whole = tmp_path / "whole.csv"
        write_csv(whole, rows)
        out_a = tmp_path / "a.jsonl"
        assert main(["run", "--input", str(whole), "--output", str(out_a),
                     "--seed", "3"]) == 0

        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, rows[:17])
        write_csv(second, rows[17:])
        snap = tmp_path / "snap.json"
        out_b1, out_b2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        assert main(["run", "--input", str(first), "--output", str(out_b1),
                     "--seed", "3", "--snapshot", str(snap)]) == 0
        assert main(["run", "--input", str(second), "--output", str(out_b2),
                     "--resume", str(snap)]) == 0
        assert out_a.read_bytes() == out_b1.read_bytes() + out_b2.read_bytes()


class TestFitCommand:
    def test_two_regime_grid(self, tmp_path):
        rows = []
        for k in range(60):
            rows.append([1.0 if k % 2 == 0 else 5.0])
        for k in range(60):
            rows.append([1.0 if k % 2 == 0 else 9.0])
        src = tmp_path / "two.csv"
        write_csv(src, rows)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "grid": [{"delta": 0.0},
                     {"delta": 0.9, "stat_variant": "discounted_sum"}],
        }))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(src), "--config", str(config),
                     "--split", "80", "--output", str(out)]) == 0
        report = read_records(out)[0]
        assert report["best_index"] == 1
        assert report["scores"][1] > report["scores"][0]

    def test_fit_without_grid(self, tmp_path, e1_csv):
        assert main(["fit", "--input", str(e1_csv)]) == 2


class TestLookaheadCommand:
    def test_period_two_records(self, tmp_path):
        rows = [[1.0 if k % 2 == 0 else 5.0] for k in range(8)]
        src = tmp_path / "p2.csv"
        write_csv(src, rows)
        out = tmp_path / "out.jsonl"
        assert main(["lookahead", "--input", str(src), "--horizon", "1",
                     "--output", str(out)]) == 0
        records = read_records(out)
        assert records[-1]["dummy"] is False
        realized = "1" if rows[-1][0] == 1.0 else "5"
        # the final record forecasts the (unseen) next observation; the one
        # before it must have predicted the final observation's cluster
        assert records[-2]["steps"][0]["dist"] == {realized: 1.0}


class TestBenchCommand:
    def test_tiny_bench_runs(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--update-sizes", "500,1000",
                     "--build-sizes", "200,400", "--samples", "40",
                     "--output", str(out)]) == 0
        report = read_records(out)[0]
        assert {"update", "build", "build_slope", "constancy_ratio"} <= set(report)
        assert all(point["samples"] >= 30 for point in report["update"])

    def test_check_failure_exit_code(self, monkeypatch, tmp_path):
        bad = BenchReport(
            update=[BenchPoint(2_000, 30, 100.0, 200.0),
                    BenchPoint(200_000, 30, 1_000.0, 2_000.0)],
            build=[BenchPoint(1_000, 30, 1e6, 2e6),
                   BenchPoint(100_000, 30, 1e9, 2e9)],
            build_slope=1.5,
            constancy_ratio=10.0,
            lookahead=[BenchPoint(1_000, 30, 100.0, 200.0),
                       BenchPoint(100_000, 30, 1_000.0, 2_000.0)],
            lookahead_ratio=10.0,
        )
        monkeypatch.setattr("sigauto.cli.run_bench", lambda **kwargs: bad)
        assert main(["bench", "--check", "--output", str(tmp_path / "b.json")]) == 3
