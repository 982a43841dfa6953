import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigauto import (BenchPoint, BenchReport, RejectedInputError, Signal, as_observation,
                     run_bench)
from sigauto.cli import _build_parser, _parse_row, _write_record, main, parse_config, read_signal

from conftest import E1, EVERY_STAT, random_walk

README = Path(__file__).resolve().parent.parent / "README.md"


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

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_horizon_zero_forecasts_nothing_and_no_dummy(self, tmp_path, mode):
        """A forecast with no steps is not a dummy, in either mode, even at
        an instant whose state is new."""
        src, out = tmp_path / "in.csv", tmp_path / "out.jsonl"
        src.write_text("x\n1.0\n2.0\n1.0\n")
        assert main(["run", "--mode", mode, "--horizon", "0", "--input", str(src),
                     "--output", str(out)]) == 0
        assert read_records(out) == [{"i": i, "dummy": False, "steps": [], "seed": 0}
                                     for i in range(3)]

    def test_jsonl_input(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(json.dumps({"r": [v]}) for v in E1) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        assert len(read_records(out)) == 5

    def test_jsonl_values_that_are_not_numbers_are_refused(self, tmp_path, capsys):
        """A boolean value or coordinate, a string and an object are not
        observations: a lenient run writes an error record for each, and a
        strict one stops at the first."""
        src = tmp_path / "in.jsonl"
        src.write_text('{"r": [1.0]}\n{"r": true}\n{"r": [false]}\n{"r": "12"}\n'
                       '{"r": {"1": 2}}\n{"r": [2.0]}\n')
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        records = read_records(out)
        assert [r.get("i") for r in records] == [0, None, None, None, None, 1]
        assert [r["error"] for r in records[1:5]] == [
            f"observation is not numeric: {value}"
            for value in ("True", "[False]", "'12'", "{'1': 2}")]
        assert main(["run", "--strict", "--input", str(src), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "input error: line 2: observation is not numeric: True\n"

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    @pytest.mark.parametrize("text", [
        "value\n1.0\n2.0\n",
        "x,y\n1,2\n3,4\n",
        " x , y \n1,2\n3,4\n",
        "\n\nvalue\n1.0\n2.0\n",
        "\ufeffvalue\n1.0\n2.0\n",
        "\ufeff1.0\n2.0\n",
        '"value"\n1.0\n2.0\n',
        '"x", "y"\n1,2\n3,4\n',
        "1.0\n\n \n2.0\n",  # blank lines between rows
    ])
    def test_a_header_or_byte_order_mark_is_skipped(self, tmp_path, text, strict):
        src = tmp_path / "in.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["run", *strict, "--input", str(src), "--output", str(out)]) == 0
        assert [r["i"] for r in read_records(out)] == [0, 1]

    @pytest.mark.parametrize("first, message", [
        ("n/a", "observation is not numeric: ['n/a']"),
        ("0x1p3", "observation is not numeric: ['0x1p3']"),
        (",", "observation is not numeric: ['', '']"),
        ("km/h", "observation is not numeric: ['km/h']"),
        ("value,2", "observation is not numeric: ['value', '2']"),
        ("sensor value", "observation is not numeric: ['sensor value']"),
        ("time (s)", "observation is not numeric: ['time (s)']"),
        ('"nan"', "observation is not numeric: ['\"nan\"']"),
        ('"value', "observation is not numeric: ['\"value']"),
        ("nan", "observation contains a non-finite value: (nan,)"),
        ("\ufeffinf", "observation contains a non-finite value: (inf,)"),
    ])
    def test_a_first_line_that_is_not_a_header_is_a_row(self, tmp_path, capsys, first,
                                                         message):
        """Only identifiers that are not numbers make a header; any other
        first line is refused like a bad row elsewhere, fresh or resumed."""
        src = tmp_path / "in.csv"
        src.write_text(first + "\n1.0\n2.0\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["run", "--strict", "--input", str(src), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"input error: line 1: {message}\n"
        assert main(["run", "--input", str(src), "--output", str(out),
                     "--snapshot", str(tmp_path / "snap")]) == 0
        records = read_records(out)
        assert records[0] == {"line": 1, "error": message}
        assert [r["i"] for r in records[1:]] == [0, 1]
        assert main(["run", "--input", str(src), "--output", str(out),
                     "--resume", str(tmp_path / "snap")]) == 0
        records = read_records(out)
        assert records[0] == {"line": 1, "error": message}
        assert [r["i"] for r in records[1:]] == [2, 3]

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert main(["run", "--input", str(src)]) == 1

    @pytest.mark.parametrize("command", ["fit", "lookahead"])
    def test_an_input_of_only_a_header_exits_1_without_output(self, tmp_path, capsys,
                                                               command):
        src, config, out = tmp_path / "in.csv", tmp_path / "c.json", tmp_path / "out.jsonl"
        src.write_text("x\n")
        config.write_text(json.dumps({"grid": [{"delta": 0.0}]} if command == "fit" else {}))
        assert main([command, "--input", str(src), "--config", str(config),
                     "--output", str(out)]) == 1
        assert capsys.readouterr().err == "input error: input contains no observations\n"
        assert not out.exists()

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

    def test_strict_from_config(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1.0\n1.0,abc\n2.0\n")
        config = tmp_path / "c.json"
        for strict, code in ((True, 1), (False, 0)):
            config.write_text(json.dumps({"strict": strict}))
            assert main(["run", "--input", str(src), "--config", str(config),
                         "--output", str(tmp_path / "o.jsonl")]) == code

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

    @pytest.fixture
    def resumable(self, tmp_path):
        """A snapshot written at h=2 with delta 0.5, a config file holding
        the same parameters, and a second half to resume with."""
        rows = [[float(k % 3)] for k in range(30)]
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, rows[:15])
        write_csv(second, rows[15:])
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"delta": 0.5, "stat_variant": "discounted_sum"}))
        snap = tmp_path / "snap.json"
        assert main(["run", "--input", str(first), "--output", str(tmp_path / "a.jsonl"),
                     "--config", str(config), "--horizon", "2", "--seed", "4",
                     "--snapshot", str(snap)]) == 0
        return second, config, snap

    @pytest.mark.parametrize("conflict", [
        ["--horizon", "3"],
        ["--mode", "continuous"],
        ["--seed", "5"],
        {"delta": 0.25},
        {"grid_width": [2.0]},
    ])
    def test_resume_refuses_a_conflicting_value(self, tmp_path, resumable, conflict):
        second, config, snap = resumable
        before = snap.read_bytes()
        argv = ["run", "--input", str(second), "--output", str(tmp_path / "b.jsonl"),
                "--resume", str(snap), "--snapshot", str(snap)]
        if isinstance(conflict, dict):
            config.write_text(json.dumps(conflict))
            argv += ["--config", str(config)]
        else:
            argv += conflict
        assert main(argv) == 2
        assert snap.read_bytes() == before
        assert not (tmp_path / "b.jsonl").exists()

    def test_resume_accepts_matching_values(self, tmp_path, resumable):
        second, config, snap = resumable
        config.write_text(json.dumps({"lambda": 1, "grid_width": 1, "delta": 0.5,
                                      "stat_variant": "discounted_sum",
                                      "bandwidth": "scott", "mode": "discrete"}))
        assert main(["run", "--input", str(second), "--output", str(tmp_path / "b.jsonl"),
                     "--resume", str(snap), "--config", str(config),
                     "--horizon", "2", "--seed", "4"]) == 0
        assert read_records(tmp_path / "b.jsonl")[0]["i"] == 15

    @pytest.mark.parametrize("tau", [[], [["lambda", 1.0]], "count", 3, None])
    def test_resume_refuses_a_tau_that_is_not_an_object(self, tmp_path, capsys, resumable, tau):
        second, _, snap = resumable
        doc = json.loads(snap.read_text())
        doc["tau"] = tau
        snap.write_text(json.dumps(doc))
        out = tmp_path / "b.jsonl"
        assert main(["run", "--input", str(second), "--output", str(out),
                     "--resume", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: snapshot tau must be an object"), err
        assert not out.exists()

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

    @pytest.mark.parametrize("command, given, written", [
        ("run", "--resume", "--output"),
        ("run", "--config", "--output"),
        ("run", "--config", "--snapshot"),
        ("run", "--input", "--snapshot"),
        ("fit", "--config", "--output"),
        ("fit", "--input", "--output"),
        ("lookahead", "--config", "--output"),
        ("lookahead", "--input", "--output"),
        ("bench", "--config", "--output"),
    ])
    def test_a_written_path_naming_another_file_exits_2(self, no_bench, tmp_path, e1_csv,
                                                        capsys, command, given, written):
        config, snap = tmp_path / "c.json", tmp_path / "s.json"
        config.write_text(json.dumps({"grid": [{"delta": 0.0}]}))
        assert main(["run", "--input", str(e1_csv), "--output", str(tmp_path / "a.jsonl"),
                     "--snapshot", str(snap)]) == 0
        files = {"--input": e1_csv, "--config": config, "--resume": snap}
        before = {path: path.read_bytes() for path in files.values()}
        argv = [command, given, str(files[given]), written, str(files[given])]
        if command != "bench" and given != "--input":
            argv += ["--input", str(e1_csv)]
        assert main(argv) == 2
        assert "name the same file" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in files.values()} == before

    def test_a_link_to_another_given_file_is_that_file(self, tmp_path, e1_csv, capsys):
        config, link = tmp_path / "c.json", tmp_path / "link.json"
        config.write_text(json.dumps({"lambda": 0.5}))
        link.symlink_to(config)
        assert main(["run", "--input", str(e1_csv), "--config", str(config),
                     "--output", str(link)]) == 2
        assert "name the same file" in capsys.readouterr().err
        assert json.loads(config.read_text()) == {"lambda": 0.5}

    @pytest.mark.parametrize("given", ["--config", "--input", "--resume"])
    def test_a_hard_link_to_another_given_file_is_that_file(self, tmp_path, e1_csv, capsys,
                                                            given):
        """A hard link shares the file's inode under another name, which no
        path resolution reveals."""
        config, snap = tmp_path / "c.json", tmp_path / "s.json"
        config.write_text(json.dumps({"lambda": 0.5}))
        assert main(["run", "--input", str(e1_csv), "--output", str(tmp_path / "a.jsonl"),
                     "--snapshot", str(snap)]) == 0
        files = {"--input": e1_csv, "--config": config, "--resume": snap}
        before = {path: path.read_bytes() for path in files.values()}
        link = tmp_path / "hard"
        os.link(files[given], link)
        argv = ["run", given, str(files[given]), "--output", str(link)]
        if given != "--input":
            argv += ["--input", str(e1_csv)]
        assert main(argv) == 2
        assert "name the same file" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in files.values()} == before
        assert link.read_bytes() == before[files[given]]

    def test_a_snapshot_may_replace_the_one_it_resumes(self, tmp_path):
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, [[1.0], [5.0], [1.0]])
        write_csv(second, [[5.0], [1.0]])
        snap = tmp_path / "snap.json"
        assert main(["run", "--input", str(first), "--output", str(tmp_path / "a.jsonl"),
                     "--snapshot", str(snap)]) == 0
        assert main(["run", "--input", str(second), "--output", str(tmp_path / "b.jsonl"),
                     "--resume", str(snap), "--snapshot", str(snap)]) == 0
        assert len(json.loads(snap.read_text())["signal"]) == 5

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


def stripping_parse(raw):
    """The CSV row reader that ``_parse_row`` replaced, kept as its oracle:
    every field stripped, then read by ``as_observation``."""
    return as_observation([field.strip() for field in raw.split(",")])


def outcome(parse, raw):
    """What ``parse(raw)`` returns, each float by its repr (so -0.0 is not
    0.0) and type, or the type and message of what it raises."""
    try:
        return [(repr(x), type(x)) for x in parse(raw)]
    except Exception as exc:
        return type(exc), str(exc)


# Rows a CSV reader meets: numbers in every spelling `float` takes, the
# malformed rows the byte-identity checks plant (non-numeric, non-finite,
# wrong widths, an edge `float` refuses but `str.strip` removes, underscores,
# hex, empty fields, non-ASCII digits, padding), and 2-d rows of each kind.
ROWS = [
    "1.5", "-0.0", "-0", "0", "+1", "1e3", "1E-3", ".5", "5.", "1_000", "1__0", "_1",
    "0x1p3", "0x10", "n/a", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999",
    "-1e999", "", " ", "\t", "1,2", "1,2,3", "1,", ",1", "1,,2", ",", " nan , 1",
    "1, inf", "\x1c2.5", "2.5\x1d", "\x1c2.5,\x1f1", "1\x1c2", "\x1e,1",
    "\u0661\u0662\u0663", "\uff11\uff12.\uff15", "\u00b2", "\u0661,\u0662",
    " 1.5 ", "\t1.5\t", "\xa01.5\xa0", "\u30003", "1 2", " 1 , 2 ", "\t-0.0 ,\t0.25",
    " 1_000 , 2 ", "1.5, -0", "a,1", "1,b",
]


def refusal_in_a_1d_file(raw):
    """The message for line ``raw`` of a 1-d file, None if it is read; the
    reader strips the line first."""
    got = outcome(stripping_parse, raw.strip())
    if not isinstance(got, list):
        return got[1]
    return f"observation has {len(got)} coordinates, expected 1" if len(got) > 1 else None


def appended_row(raw):
    """The row ``_parse_row`` reads from ``raw``, as ``Signal.append``
    stores it."""
    signal = Signal()
    signal.append(_parse_row(raw))
    return signal[0]


class TestParseRow:
    """``_parse_row`` followed by ``Signal.append`` reads a CSV row as the
    stripping reader did: the same floats, or the same refusal."""

    @pytest.mark.parametrize("raw", ROWS, ids=repr)
    def test_reads_a_row_as_the_stripping_reader(self, raw):
        assert outcome(appended_row, raw) == outcome(stripping_parse, raw)

    @settings(max_examples=300, deadline=None)
    @given(fields=st.lists(st.one_of(
        st.floats().map(repr),
        st.text(alphabet=" \t\x1c\x1f\xa0\u3000+-.e_0123456789\u0661\uff15infa", max_size=6),
    ), min_size=1, max_size=3))
    def test_reads_any_row_as_the_stripping_reader(self, fields):
        raw = ",".join(fields)
        assert outcome(appended_row, raw) == outcome(stripping_parse, raw)

    @pytest.mark.parametrize("raw", [r for r in ROWS if r.strip() and refusal_in_a_1d_file(r)],
                             ids=repr)
    def test_a_refused_row_keeps_its_line_number(self, tmp_path, raw):
        """``read_signal`` refuses the row with its ``line N:`` prefix, and
        a lenient ``run`` writes the same message as the row's error record."""
        src = tmp_path / "in.csv"
        src.write_text(f"x\n1.0\n{raw}\n2.0\n", encoding="utf-8")
        message = refusal_in_a_1d_file(raw)
        with pytest.raises(RejectedInputError) as exc:
            read_signal(str(src))
        assert str(exc.value) == f"line 3: {message}"
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--output", str(out)]) == 0
        records = read_records(out)
        assert records[1] == {"line": 3, "error": message}
        assert [r["i"] for r in records if "i" in r] == [0, 1]


@pytest.fixture
def checks(monkeypatch):
    """The rows ``as_observation`` is called with from here on, wherever a
    module of the package holds it."""
    import sigauto.lookahead
    import sigauto.signal
    import sigauto.snapshot

    real, calls = sigauto.signal.as_observation, []

    def counted(value, dim=None):
        calls.append(value)
        return real(value, dim)

    for module in (sigauto.signal, sigauto.cli, sigauto.plugins, sigauto.automaton,
                   sigauto.snapshot, sigauto.lookahead):
        if hasattr(module, "as_observation"):
            monkeypatch.setattr(module, "as_observation", counted)
    return calls


class TestOneCheckPerRow:
    """Each input row is checked once, by the ``Signal.append`` that stores
    it: every stage behind the signal takes the stored row as it is.  The
    checks are counted as calls, with no timing."""

    def test_run_fresh_and_resumed(self, tmp_path, checks):
        rows = random_walk(200, seed=21)
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, rows[:120])
        write_csv(second, rows[120:])
        snap = tmp_path / "snap.json"
        assert main(["run", "--horizon", "3", "--input", str(first), "--output",
                     str(tmp_path / "a.jsonl"), "--snapshot", str(snap)]) == 0
        assert len(checks) == 120
        del checks[:]
        assert main(["run", "--input", str(second), "--output", str(tmp_path / "b.jsonl"),
                     "--resume", str(snap)]) == 0
        assert len(checks) == 120 + 80  # the snapshot's rows, then the input's

    def test_snapshot_load(self, tmp_path, checks):
        from sigauto.snapshot import load_snapshot
        snap = tmp_path / "snap.json"
        write_csv(tmp_path / "in.csv", random_walk(150, dim=2, seed=22))
        assert main(["run", "--input", str(tmp_path / "in.csv"), "--output",
                     str(tmp_path / "out.jsonl"), "--snapshot", str(snap)]) == 0
        del checks[:]
        load_snapshot(snap)
        assert len(checks) == 150

    def test_fit_read(self, tmp_path, checks):
        write_csv(tmp_path / "in.csv", random_walk(150, seed=23))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"grid": [{"delta": 0.0}, {"delta": 0.5}]}))
        assert main(["fit", "--input", str(tmp_path / "in.csv"), "--config", str(config),
                     "--output", str(tmp_path / "fit.json")]) == 0
        assert len(checks) == 150

    @pytest.mark.parametrize("h", [1, 3])
    def test_lookahead(self, tmp_path, checks, h):
        """The frontier takes the reader's history as its own signal, so the
        first h + 1 rows are checked once, like every later row."""
        write_csv(tmp_path / "in.csv", random_walk(150, seed=24))
        assert main(["lookahead", "--horizon", str(h), "--input", str(tmp_path / "in.csv"),
                     "--output", str(tmp_path / "out.jsonl")]) == 0
        assert len(checks) == 150


JSON_KEYS = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "퟿", "\U0001f600"])
JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | JSON_FLOATS | st.text(max_size=6)
    | st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) + 2),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=20,
)


class TestRecordEncoder:
    """Every JSONL line comes from ``cli``'s one record encoder, built when
    ``cli`` is imported, and reads as ``json.dumps(record, sort_keys=True)``."""

    @settings(max_examples=400, deadline=None)
    @given(record=st.dictionaries(JSON_KEYS, JSON_TREES, max_size=5))
    def test_writes_the_bytes_of_dumps(self, record):
        out = io.StringIO()
        _write_record(out, record)
        assert out.getvalue() == json.dumps(record, sort_keys=True) + "\n"

    def test_an_unencodable_value_is_refused_as_dumps_refuses_it(self):
        with pytest.raises(TypeError) as ours:
            _write_record(io.StringIO(), {"x": {1, 2}})
        with pytest.raises(TypeError) as theirs:
            json.dumps({"x": {1, 2}}, sort_keys=True)
        assert str(ours.value) == str(theirs.value)

    def test_a_run_builds_no_encoder_per_record(self, tmp_path, monkeypatch):
        """Counted as calls of ``JSONEncoder.__init__``, with no timing:
        ``json.dumps(record, sort_keys=True)`` would build one per record."""
        built = []
        real = json.JSONEncoder.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs)
            real(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", counted)
        write_csv(tmp_path / "in.csv", random_walk(1_000, seed=25))
        out = tmp_path / "out.jsonl"
        assert main(["run", "--horizon", "2", "--input", str(tmp_path / "in.csv"),
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1_000
        assert built == []

    def test_without_the_c_encoder_the_bytes_are_the_same(self, tmp_path):
        """Where ``json`` has no C encoder, the pure-Python one is bound
        with the same settings."""
        record = {"é": [1.5, -0.0, 2**64, None, True], "a\n": {"z": 1e-7, "b": "\x00"}}
        script = (
            "import io, json, json.encoder, sys\n"
            "json.encoder.c_make_encoder = None\n"
            "from sigauto import cli\n"
            "out = io.StringIO()\n"
            "cli._write_record(out, json.loads(sys.argv[1]))\n"
            "sys.stdout.write(out.getvalue())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", script, json.dumps(record)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == json.dumps(record, sort_keys=True) + "\n"


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

    def test_best_is_the_grid_entry_at_best_index(self, tmp_path, e1_csv, monkeypatch):
        """The record's ``best`` is read from ``best_index`` as the report
        holds it when written, so it follows a changed index."""
        import sigauto.cli

        real = sigauto.cli.fit

        def shifted(*args, **kwargs):
            report = real(*args, **kwargs)
            report.best_index = (report.best_index + 1) % len(report.grid)
            return report

        monkeypatch.setattr(sigauto.cli, "fit", shifted)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"grid": [{"delta": 0.0}, {"delta": 0.5}]}))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(e1_csv), "--config", str(config),
                     "--output", str(out)]) == 0
        report = read_records(out)[0]
        assert report["best"] == report["grid"][report["best_index"]]

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


    def test_horizon_zero_exits_2_without_output(self, tmp_path, e1_csv):
        out = tmp_path / "out.jsonl"
        assert main(["lookahead", "--input", str(e1_csv), "--horizon", "0",
                     "--output", str(out)]) == 2
        assert not out.exists()

    def test_short_history_exits_1_without_output(self, tmp_path):
        src = tmp_path / "short.csv"
        write_csv(src, [[1.0], [5.0]])
        out = tmp_path / "out.jsonl"
        assert main(["lookahead", "--input", str(src), "--horizon", "2",
                     "--output", str(out)]) == 1
        assert not out.exists()

    def test_a_refused_row_ends_the_stream_where_it_is_read(self, tmp_path, capsys):
        """Rows are read as the frontier advances: a row refused among the
        first h + 1 leaves no output file, and one refused later keeps the
        records written before it."""
        src, out = tmp_path / "in.csv", tmp_path / "out.jsonl"
        src.write_text("1.0\nn/a\n5.0\n1.0\n")
        assert main(["lookahead", "--input", str(src), "--horizon", "2",
                     "--output", str(out)]) == 1
        assert not out.exists()
        src.write_text("1.0\n5.0\n1.0\n5.0\nn/a\n1.0\n")
        assert main(["lookahead", "--input", str(src), "--horizon", "1",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "input error: line 5: observation is not numeric: ['n/a']"
        assert [r["i"] for r in read_records(out)] == [1, 2, 3]


class TestMalformedConfigValues:
    @pytest.mark.parametrize("command, config", [
        ("run", {"horizon": "3"}),
        ("run", {"horizon": 2.5}),
        ("run", {"lambda": "abc"}),
        ("run", {"grid_width": "wide"}),
        ("run", {"bandwidth": [[1, 2], [3]]}),
        ("fit", {"split": "5", "grid": [{"delta": 0.5}]}),
        ("fit", {"grid": 5}),
        ("run", {"lambda": True}),
        ("run", {"delta": False}),
        ("run", {"horizon": True}),
        ("run", {"grid_width": True}),
        ("run", {"grid_width": [True]}),
        ("run", {"bandwidth": True}),
        ("run", {"seed": False}),
        ("run", {"score_floor": 1e-12}),  # no longer a key, even at its old default
        ("fit", {"split": True, "grid": [{"delta": 0.5}]}),
        ("fit", {"grid": [{"horizon": True}]}),
        ("run", {"region": [[True, 2]]}),
        ("run", {"bandwidth": [[True]]}),
        ("run", {"bandwidth": [["1"]]}),
        ("run", {"grid_width": ["1"]}),
        ("run", {"strict": "no"}),
        ("run", {"strict": 1}),
        ("run", {"region": [], "stat_variant": "region_count"}),
        ("run", {"region": "", "stat_variant": "region_count"}),
        ("run", {"grid_width": math.nan}),
        ("run", {"grid_width": [math.nan]}),
        ("run", {"grid_width": math.inf}),
        ("fit", {"grid": [{"grid_width": math.nan}]}),
        ("run", {"bandwidth": math.inf}),
        ("run", {"bandwidth": [[math.inf]]}),
        ("fit", {"score_floor": 1e-12, "grid": [{"delta": 0.5}]}),
    ])
    def test_wrong_type_exits_2(self, tmp_path, e1_csv, capsys, command, config):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main([command, "--input", str(e1_csv), "--config", str(path),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "is not valid JSON: "),
        ("[1, 2]", "config root must be a JSON object"),
    ])
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, e1_csv, capsys,
                                                      text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", "--input", str(e1_csv), "--config", str(path),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["run", "fit", "lookahead"])
    @pytest.mark.parametrize("config, message", [
        ({"grid_width": [1, 2]}, "grid_width has 2 entries for 1-d observations"),
        ({"region": [[0, 1], [0, 1]], "stat_variant": "region_count"},
         "region has 2 axes for 1-d observations"),
        # read first by the transition step at instant 1, after `run` wrote
        # the record of instant 0
        ({"region": [[0, 1], [0, 1]], "stat_variant": "latest_occurrence"},
         "region has 2 axes for 1-d observations"),
    ])
    def test_config_of_another_dimension_exits_2_without_output(
            self, tmp_path, capsys, command, config, message):
        """Found wrong only at the first rows, after `run` has opened its
        output and written the record of its malformed first row."""
        src = tmp_path / "in.csv"
        malformed = "n/a\n" if command == "run" else ""  # `fit` and `lookahead` read strictly
        src.write_text("x\n" + malformed + "\n".join(str(v) for v in E1) + "\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**config, "grid": [{"delta": 0.0}]}))
        out = tmp_path / "out.jsonl"
        assert main([command, "--input", str(src), "--config", str(path),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_bandwidth_of_another_dimension_exits_2_without_output(self, tmp_path, capsys):
        """A continuous `run` refuses a kernel of another dimension when it
        builds its model, at the first row; `fit` and `lookahead` build no
        continuous model."""
        src = tmp_path / "in.csv"
        src.write_text("x\nn/a\n" + "\n".join(str(v) for v in E1) + "\n")
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mode": "continuous", "bandwidth": [[1, 0], [0, 1]]}))
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(src), "--config", str(path),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: kernel dimension 2 does not match signal dimension 1\n")
        assert not out.exists()

    def test_region_of_another_dimension_is_unread_by_count(self, tmp_path, e1_csv):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"region": [[0, 1], [0, 1]], "stat_variant": "count"}))
        out = tmp_path / "out.jsonl"
        assert main(["run", "--input", str(e1_csv), "--config", str(path),
                     "--output", str(out)]) == 0
        assert len(read_records(out)) == len(E1)


class TestBenchCommand:
    def test_tiny_bench_runs(self, monkeypatch, tmp_path):
        monkeypatch.setattr("sigauto.bench.run_bench", partial(
            run_bench, update_sizes=(500, 1000), build_sizes=(200, 400),
            update_samples=40, build_samples=40))
        out = tmp_path / "bench.json"
        assert main(["bench", "--output", str(out)]) == 0
        report = read_records(out)[0]
        assert {"update", "build", "build_slope", "constancy_ratio", "forecast",
                "forecast_ratio", "bandwidth", "bandwidth_ratio"} <= set(report)
        assert [point["samples"] for point in report["update"]] == [40, 40]

    @staticmethod
    def report(update, build, forecast, lookahead, bandwidth):
        """A report whose every series runs from its first median to its
        second, at the default sizes."""
        def points(sizes, first, last):
            return [BenchPoint(sizes[0], 30, first, 2 * first),
                    BenchPoint(sizes[1], 30, last, 2 * last)]

        streams, builds = (2_000, 200_000), (1_000, 100_000)
        return BenchReport(update=points(streams, *update), build=points(builds, *build),
                           forecast=points(streams, *forecast),
                           lookahead=points(builds, *lookahead),
                           bandwidth=points(streams, *bandwidth))

    def test_check_failure_exit_code(self, monkeypatch, tmp_path):
        bad = self.report(update=(100.0, 1_000.0), build=(1e6, 1e9), forecast=(10.0, 100.0),
                          lookahead=(100.0, 1_000.0), bandwidth=(20.0, 2_000.0))
        assert len(bad.failures()) == 5
        monkeypatch.setattr("sigauto.bench.run_bench", lambda **kwargs: bad)
        assert main(["bench", "--check", "--output", str(tmp_path / "b.json")]) == 3
        # the bandwidth gate alone fails the check
        only_bandwidth = self.report(update=(100.0, 110.0), build=(1e6, 1e8),
                                     forecast=(10.0, 11.0), lookahead=(100.0, 90.0),
                                     bandwidth=(20.0, 2_000.0))
        problems = only_bandwidth.failures()
        assert len(problems) == 1 and "bandwidth" in problems[0]
        monkeypatch.setattr("sigauto.bench.run_bench", lambda **kwargs: only_bandwidth)
        assert main(["bench", "--check", "--output", str(tmp_path / "c.json")]) == 3


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    # (subcommand, flag) pairs the subcommand does not read
    REFUSED = [
        ("run", "--check"),
        ("fit", "--mode"), ("fit", "--seed"), ("fit", "--strict"),
        ("fit", "--snapshot"), ("fit", "--resume"), ("fit", "--check"),
        ("bench", "--input"), ("bench", "--horizon"), ("bench", "--mode"),
        ("bench", "--strict"), ("bench", "--snapshot"), ("bench", "--resume"),
        ("bench", "--seed"), ("bench", "--update-sizes"), ("bench", "--build-sizes"),
        ("bench", "--samples"),
        ("lookahead", "--mode"), ("lookahead", "--strict"), ("lookahead", "--snapshot"),
        ("lookahead", "--resume"), ("lookahead", "--check"),
    ]

    @pytest.mark.parametrize("command, flag", REFUSED)
    def test_unread_flag_exits_2_without_output(self, no_bench, tmp_path, e1_csv, capsys,
                                                command, flag):
        # with a grid, a fit that accepted the flag would write its report
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"grid": [{"delta": 0.0}]}))
        out, snap = tmp_path / "out.jsonl", tmp_path / "snap.json"
        values = {"--input": str(e1_csv), "--horizon": "2", "--mode": "continuous",
                  "--seed": "9", "--snapshot": str(snap), "--update-sizes": "5",
                  "--build-sizes": "5", "--samples": "40",
                  "--resume": str(tmp_path / "missing.json")}
        argv = [command, "--config", str(config), "--output", str(out)]
        if command != "bench":
            argv += ["--input", str(e1_csv)]
        argv += [flag] + ([values[flag]] if flag in values else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the subcommand's usage line, which lists the flags it does take
        assert err.startswith(f"usage: sigauto {command} [-h]")
        assert f"unrecognized arguments: {flag}" in err
        assert not out.exists() and not snap.exists()

    def test_readme_lists_each_subcommands_flags(self):
        parser = _build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        declared = {
            name: [flag for action in sub._actions for flag in action.option_strings
                   if flag not in ("-h", "--help")]
            for name, sub in commands.items()
        }
        synopsis = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
        listed, command = {}, None
        for line in synopsis.splitlines():
            if line.startswith("sigauto "):
                command = line.split()[1]
                listed[command] = []
            if command:
                listed[command] += re.findall(r"--[a-z-]+", line)
        assert listed == declared


class TestGoldenOutputs:
    """Byte-identity of the command outputs and snapshot files.

    The digests were recorded before the model overlay refactor; a change
    that alters any of these bytes on purpose must bump the snapshot or
    output version and say so in CHANGES.md.
    """

    GOLDEN = {
        "run": "cfd6d5f494886efebdaf1eb866a895fd2e2ff8e399665648e497c8b8e1beb754",
        "resumed_run": "55a73d729e52a149ad501534248caca537a54659fa4ecf374377104806fdc4cc",
        "snapshot": "6579a06b7f7733453331d6a40dfe525f4b5a91abd890d157476b4c38c42f74a1",
        "resumed_snapshot": "a418c5d7e312549b687cc040ba0181c85e5704c1a152520174d237b0fa132178",
        "continuous_run": "09f86da97b4118269a5353480f1db1bd2e3041eea1c4687f42a2af5e6b186d09",
        "lookahead": "15fe3584f5a762a1621870256138c62e4665417adf9f7e6542e3c8cf6cbd2308",
        "fit": "37991ed740d5d87c2c2ce34d92067fd0ed664035f4eac9e18a88aff85b0c63c7",
        "fit_every_stat_1d": "948bfcd0b952950db55d9fc00fe3c3820d67805e159aa1f706288e3163ac31cb",
        "fit_every_stat_2d": "2600c4f7c67c4f5edae3a04ee2fe396729d3c30c94856a8a638765ec9674b084",
        "run_count": "ae6e98f8848095a79488cefabc4639eec36b68ab23a0cad111ef62b3c1447a75",
        "run_discounted_sum": "1cff12e75846a9c5f323b79bd79d086f27d22a6a6fd91c657e36fa1037001be9",
        "run_discounted_complement": "e72ca4c7006ff715411c49f4aafa7ccfb1a98eff7861ef9d941e917cf65d5eb2",
        "run_region_count": "41ac11079389777a55938f5072851b3a2388b7c839f4f31b2f1e0af5f29e03d3",
        "run_latest_occurrence": "4002c00a78b4f0e209e1033e1f625014e350af6a1cda2d2ce7a4faf4efd54667",
    }

    # Boxes that the second half of each `fit_every_stat` walk enters and
    # leaves, so the region statistics score more than the floor.
    REGIONS = {1: [[-6.0, 0.0]], 2: [[0.0, 5.0], [-5.0, 0.0]]}

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_run_with_snapshot_and_resume(self, tmp_path):
        rows = random_walk(500, seed=11)
        first, second = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_csv(first, rows[:300])
        write_csv(second, rows[300:])
        snap, resumed = tmp_path / "snap.json", tmp_path / "resumed.json"
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", "--input", str(first), "--output", str(out1),
                     "--horizon", "3", "--seed", "7", "--snapshot", str(snap)]) == 0
        assert main(["run", "--input", str(second), "--output", str(out2),
                     "--resume", str(snap), "--snapshot", str(resumed)]) == 0
        digests = {name: self.digest(path) for name, path in
                   (("run", out1), ("resumed_run", out2),
                    ("snapshot", snap), ("resumed_snapshot", resumed))}
        assert digests == {k: self.GOLDEN[k] for k in digests}

    def test_continuous_run(self, tmp_path):
        src = tmp_path / "walk2.csv"
        write_csv(src, random_walk(400, dim=2, seed=12))
        out = tmp_path / "out.jsonl"
        assert main(["run", "--mode", "continuous", "--horizon", "2",
                     "--input", str(src), "--output", str(out)]) == 0
        assert self.digest(out) == self.GOLDEN["continuous_run"]

    def test_lookahead(self, tmp_path):
        src = tmp_path / "walk.csv"
        write_csv(src, random_walk(300, seed=13))
        out = tmp_path / "out.jsonl"
        assert main(["lookahead", "--horizon", "2", "--seed", "4",
                     "--input", str(src), "--output", str(out)]) == 0
        assert self.digest(out) == self.GOLDEN["lookahead"]

    def test_fit(self, tmp_path):
        src = tmp_path / "walk.csv"
        write_csv(src, random_walk(600, seed=14))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"grid": [
            {"stat_variant": "count"},
            {"stat_variant": "discounted_sum", "delta": 0.5},
            {"stat_variant": "discounted_sum", "delta": 0.9},
            {"stat_variant": "discounted_sum", "delta": 0.99},
        ]}))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(src), "--config", str(config),
                     "--output", str(out)]) == 0
        assert self.digest(out) == self.GOLDEN["fit"]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_fit_every_stat(self, tmp_path, dim):
        src = tmp_path / "walk.csv"
        write_csv(src, random_walk(500, dim=dim, seed=15))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"region": self.REGIONS[dim], "grid": [
            {"stat_variant": "count"},
            {"stat_variant": "discounted_sum", "delta": 0.9},
            {"stat_variant": "discounted_complement", "delta": 0.9},
            {"stat_variant": "region_count"},
            {"stat_variant": "latest_occurrence"},
        ]}))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(src), "--config", str(config),
                     "--output", str(out)]) == 0
        assert self.digest(out) == self.GOLDEN[f"fit_every_stat_{dim}d"]

    @pytest.mark.parametrize("stat", EVERY_STAT, ids=lambda s: s["stat_variant"])
    def test_run_every_stat(self, tmp_path, stat):
        src = tmp_path / "walk.csv"
        write_csv(src, random_walk(300, seed=16))
        config = tmp_path / "c.json"
        config.write_text(json.dumps(stat))
        out = tmp_path / "out.jsonl"
        assert main(["run", "--horizon", "2", "--config", str(config),
                     "--input", str(src), "--output", str(out)]) == 0
        assert self.digest(out) == self.GOLDEN["run_" + stat["stat_variant"]]
