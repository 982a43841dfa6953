"""Byte identity of the command outputs over inputs with malformed rows.

Each input is generated under ``tmp_path`` from fixed ``bench.random_walk``
seeds, with malformed rows planted at fixed lines: text ``float`` refuses,
non-finite values, wrong widths, an edge that stripping a field removes
(``\\x1c2.5``), underscores, hex, empty fields, non-ASCII digits and padded
numbers.  The JSONL input holds no boolean, string or mapping row.

``DIGESTS`` pins one sha256 per output: the records and snapshots of a
lenient ``run`` split by ``--snapshot``/``--resume``, at h = 1 and 3, and
the exit code and stderr of a strict ``run``, of ``fit`` and of
``lookahead`` at the first refused row.  A change that alters any of these
bytes on purpose updates the table and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from sigauto.bench import random_walk
from sigauto.cli import main

# Rows planted among the valid ones, by input kind; some are read (padded
# numbers, non-ASCII digits, underscores, stripped edges) and the rest are
# refused.
MALFORMED = {
    "1d": ["n/a", "nan", "inf", "-inf", "1.0,2.0", "1,2,3", "\x1c2.5", "1_000", "0x1p3",
           "1.0,", ",", "\u0661\u0662", "\uff11.\uff15", " 1.5 ", "\t-0.25\t", " nan , 1",
           "2.5\x1d", "1e999"],
    "2d": ["n/a,1.0", "nan,0.5", "1.0,inf", "1.0", "1.0,2.0,3.0", "\x1c2.5,\x1f1",
           "1_000,2", "0x1p3,1", "1.0,", ",", "1,,2", "\u0661,\u0662", " 1.5 , -0.5 ",
           "1.5, -0", "a,1"],
    "jsonl": ['{"r": [NaN]}', '{"r": [1e999]}', '{"x": [1.0]}', '{"r": []}',
              '{"r": [1.0, 2.0]}', '{"r": null}', '{"r": 1.5}', '{"r": [1.0}', "[1.0]",
              '{"r": [null]}', '{"r": [[1.0]]}', "{}", '{"r": [-0.0]}', "5",
              '{"r": [Infinity, 1.0]}'],
}
ROWS = {"1d": 400, "2d": 300, "jsonl": 300}
PARAMS = {"lambda": 0.5, "grid_width": 0.5}
GRID = [{"stat_variant": "count"}, {"stat_variant": "discounted_sum", "delta": 0.5}]

DIGESTS = {
    "1d/fit": [1, "e897513f3bc679026193463e2b34210f3895d18747e9abdc117b44281f0037b5"],
    "1d/h1/first.jsonl": "6e0f28a6c5adfa39156941b7a1008ee377fc6857980fc521a724dd4d2b0225d4",
    "1d/h1/first.snap": "404c103b76c853409252251bcd6a52a24ef664c78bde23455d95659af81f777e",
    "1d/h1/second.jsonl": "623aaccf2835ac877e85c4260b393134ab1a70a75e0f5e53d858839ca749e8ef",
    "1d/h1/second.snap": "2629b93f00283cd996ad4a290dede8735041d4f1c536cd13b98261298a8fb92f",
    "1d/h3/first.jsonl": "3f1b82caa3e2a8bc829ac3931405bda67a82be9d871d7dec3a963fd04c8c0c6e",
    "1d/h3/first.snap": "0a200df40bf21fa8fda760547391c5d99a738f8fbc7a50943ef676587a74ee10",
    "1d/h3/second.jsonl": "5b568e75ba9abb964b72acbb37c7ba775225ead15cf4245a466f7baea408d9f6",
    "1d/h3/second.snap": "e8ce9eb3ef41f9299a9876cced2047fe2c9029c098a19dd01136cd441fec4abe",
    "1d/lookahead": [1, "e897513f3bc679026193463e2b34210f3895d18747e9abdc117b44281f0037b5"],
    "1d/run": [1, "e897513f3bc679026193463e2b34210f3895d18747e9abdc117b44281f0037b5"],
    "2d/fit": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "2d/h1/first.jsonl": "98df7389edeb20341b041d2fd56076e613f156444f55b1b6f39c219e6a95f0f5",
    "2d/h1/first.snap": "f42e6d131a064055f01866188fb48275d10be1acb8865c37bac77995b94988ff",
    "2d/h1/second.jsonl": "61b767f3aa39a4e05cd7f7b6cef841ea9d2623c14e5ea6f159f0b2d47bbaee0a",
    "2d/h1/second.snap": "a4e0633edc76ab3ef556fa3daede5e47ca64393727b71263af8f2a1c2ce7a72f",
    "2d/h3/first.jsonl": "224186450793d6df26e300ef46c0b66ff45505461860cb1c187732225e38c094",
    "2d/h3/first.snap": "a4a4f57adf6a0392db9cdfc256bfef8baba60acdd83cb5e80d5becef970a63a7",
    "2d/h3/second.jsonl": "e408127da2f2a91f8f9cb3efb7ad21dff50b9c795c41e5eb0553665627f36997",
    "2d/h3/second.snap": "f98dff0d257f8c387ba5f97e93d0dd73e530d944663a22c5ea65cc23674ffa0f",
    "2d/lookahead": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "2d/run": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "jsonl/fit": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
    "jsonl/h1/first.jsonl": "5cc866ae2ce6da7e355bdf9e8203b102a8538011101138ce4c09b20e290ca0c5",
    "jsonl/h1/first.snap": "f300ac7053b6f23528b5e393ed3a0d881b4d07018f6c9bbfd6e7409fa6e94e43",
    "jsonl/h1/second.jsonl": "111c44aa6726e74fad8c3680d8c3d6f27196d2a76f0995be94b02218ff3e2bb6",
    "jsonl/h1/second.snap": "c2aba7f155bd937632846f6ee3211da9955a0d22def410c9fda714db6d51f806",
    "jsonl/h3/first.jsonl": "43ac77c758b5c7498c31340d3b98f4999deec99aff94ce3eff5300f0fe1a7ca0",
    "jsonl/h3/first.snap": "1447a1b681c37af6b364b7057d2abbdbf3b032699f31279909c08d438309b000",
    "jsonl/h3/second.jsonl": "1d7c0db60fae35b4fd53de652448f1206bc0767d0d024bf4f6b13d540a2df49d",
    "jsonl/h3/second.snap": "462b6e7fe9dc37cab93e14627829c505a1ac3a10d35aaab293cec3f6c94c2b8a",
    "jsonl/lookahead": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
    "jsonl/run": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
}


def input_lines(kind):
    """The lines of input ``kind``: a walk with ``MALFORMED[kind]`` planted
    at every 17th line from the 6th on; the 1-d CSV starts with a header."""
    n = ROWS[kind]
    xs = random_walk(n, seed=31)
    if kind == "2d":
        valid = [f"{x!r},{y!r}" for x, y in zip(xs, random_walk(n, seed=32, step=0.4))]
    elif kind == "jsonl":
        valid = [json.dumps({"r": [x]}) for x in xs]
    else:
        valid = [repr(x) for x in xs]
    lines = list(valid)
    for k, bad in enumerate(MALFORMED[kind]):
        lines.insert(5 + 17 * k, bad)
    return (["value"] if kind == "1d" else []) + lines


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def config(tmp_path, doc):
    return write(tmp_path / "config.json", [json.dumps(doc)])


@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_a_lenient_run_split_by_snapshot(tmp_path, kind, h):
    lines = input_lines(kind)
    split = len(lines) * 3 // 5
    first = write(tmp_path / "first.in", lines[:split])
    second = write(tmp_path / "second.in", lines[split:])
    out1, out2 = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    snap1, snap2 = tmp_path / "first.snap", tmp_path / "second.snap"
    assert main(["run", "--input", first, "--output", str(out1), "--config",
                 config(tmp_path, PARAMS), "--horizon", str(h), "--seed", "7",
                 "--snapshot", str(snap1)]) == 0
    assert main(["run", "--input", second, "--output", str(out2), "--resume", str(snap1),
                 "--snapshot", str(snap2)]) == 0
    got = {f"{kind}/h{h}/{path.name}": digest(path.read_bytes())
           for path in (out1, snap1, out2, snap2)}
    assert got == {key: DIGESTS.get(key) for key in got}


COMMANDS = {
    "run": (["run", "--strict"], PARAMS),
    "fit": (["fit"], {**PARAMS, "grid": GRID}),
    "lookahead": (["lookahead", "--horizon", "2"], PARAMS),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_a_strict_command_at_the_first_refused_row(tmp_path, capsys, kind, command):
    argv, doc = COMMANDS[command]
    source = write(tmp_path / "in", input_lines(kind))
    code = main([*argv, "--input", source, "--output", str(tmp_path / "out"),
                 "--config", config(tmp_path, doc)])
    key = f"{kind}/{command}"
    assert {key: [code, digest(capsys.readouterr().err)]} == {key: DIGESTS.get(key)}
