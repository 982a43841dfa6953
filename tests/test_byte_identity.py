"""Byte identity of the command outputs over inputs with malformed rows.

Each input is generated under ``tmp_path`` from fixed ``bench.random_walk``
seeds, with malformed rows planted at fixed lines: text ``float`` refuses,
non-finite values, wrong widths, an edge that stripping a field removes
(``\\x1c2.5``), underscores, hex, empty fields, non-ASCII digits and padded
numbers.  The JSONL input holds no boolean, string or mapping row.

``DIGESTS`` pins one sha256 per output: the records and snapshots of a
lenient ``run`` split by ``--snapshot``/``--resume``, at h = 1 and 3, and
the exit code and stderr of a strict ``run``, of ``fit`` and of
``lookahead`` at the first refused row.  ``RECORD_DIGESTS`` pins the two
record files of the same split ``run`` for every statistic, both emission
modes and h = 1 and 3; it holds no snapshot, so a new snapshot format
leaves it as it is.  ``LOOKAHEAD_DIGESTS`` pins the records of
``lookahead`` over the 1-d and 2-d inputs with no malformed row planted,
for every statistic and h = 2 and 3, and ``FIT_DIGESTS`` the report of
``fit`` over the same inputs for every statistic with a 4-entry grid.  A
change that alters any of these bytes on purpose updates the table and says
so in CHANGES.md.
"""

import hashlib
import json

import pytest

from sigauto.bench import random_walk
from sigauto.cli import main
from sigauto.plugins import STAT_VARIANTS

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
    "1d/h1/first.snap": "58255af7837caccd601218ec19b226a6a1ae03827293533e2a80551787bc97d8",
    "1d/h1/second.jsonl": "623aaccf2835ac877e85c4260b393134ab1a70a75e0f5e53d858839ca749e8ef",
    "1d/h1/second.snap": "f3aeb9755bbfa371571820c51f67bb9fb0afa628b7cab7d9da12131cba03aea1",
    "1d/h3/first.jsonl": "3f1b82caa3e2a8bc829ac3931405bda67a82be9d871d7dec3a963fd04c8c0c6e",
    "1d/h3/first.snap": "ac48331282d2daffe58f0a60209c316703d69355f48aeeab6cff0d63ab971fa2",
    "1d/h3/second.jsonl": "5b568e75ba9abb964b72acbb37c7ba775225ead15cf4245a466f7baea408d9f6",
    "1d/h3/second.snap": "87509743cac861969401384531e05b87e7b60f1861893d76ea2c364a898af80b",
    "1d/lookahead": [1, "e897513f3bc679026193463e2b34210f3895d18747e9abdc117b44281f0037b5"],
    "1d/run": [1, "e897513f3bc679026193463e2b34210f3895d18747e9abdc117b44281f0037b5"],
    "2d/fit": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "2d/h1/first.jsonl": "98df7389edeb20341b041d2fd56076e613f156444f55b1b6f39c219e6a95f0f5",
    "2d/h1/first.snap": "a970c83e5041dbeed04a45928b0e7b8d15961f1baaeb99f217bf2dc3763f272e",
    "2d/h1/second.jsonl": "61b767f3aa39a4e05cd7f7b6cef841ea9d2623c14e5ea6f159f0b2d47bbaee0a",
    "2d/h1/second.snap": "5641d87167d5fe82552f6d09f4c719c752d7e6739f5fd6bdb4dc8bc1a9dcc541",
    "2d/h3/first.jsonl": "224186450793d6df26e300ef46c0b66ff45505461860cb1c187732225e38c094",
    "2d/h3/first.snap": "0fd5374447184bf4dfce78a0c8caddf30aa336ab907493bea41761f62a475620",
    "2d/h3/second.jsonl": "e408127da2f2a91f8f9cb3efb7ad21dff50b9c795c41e5eb0553665627f36997",
    "2d/h3/second.snap": "5bfd7c9c7ab5ef5fb417604a24924190d21b0f31b95e1a6f688aaed13b5e56ec",
    "2d/lookahead": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "2d/run": [1, "194e42db828ec39748279996bf263a15ecd8a0b918d1108160f6a09d5c3cf249"],
    "jsonl/fit": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
    "jsonl/h1/first.jsonl": "5cc866ae2ce6da7e355bdf9e8203b102a8538011101138ce4c09b20e290ca0c5",
    "jsonl/h1/first.snap": "4414371ac922188c250a0eb2a61ddaec16dd8882a10d314a07643b9a5f6af397",
    "jsonl/h1/second.jsonl": "111c44aa6726e74fad8c3680d8c3d6f27196d2a76f0995be94b02218ff3e2bb6",
    "jsonl/h1/second.snap": "00f18aec9a9bd0b591e421693b6646939196bca8a068f093196afe1c79fc98fa",
    "jsonl/h3/first.jsonl": "43ac77c758b5c7498c31340d3b98f4999deec99aff94ce3eff5300f0fe1a7ca0",
    "jsonl/h3/first.snap": "2009c9961a43e8a016b9db073e3f09983ef716c42686b57340e1529ff6b5ea5d",
    "jsonl/h3/second.jsonl": "1d7c0db60fae35b4fd53de652448f1206bc0767d0d024bf4f6b13d540a2df49d",
    "jsonl/h3/second.snap": "9deda6bc9eacd82285bf7bb82012627212b33fce80b29bb6a73b1aa0a4373d84",
    "jsonl/lookahead": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
    "jsonl/run": [1, "d47ed4fb086f544416398131fc17ccd7b59da31f14ae6b555ec79031cb36b080"],
}


def input_lines(kind, planted=True):
    """The lines of input ``kind``: a walk with ``MALFORMED[kind]`` planted
    at every 17th line from the 6th on, unless ``planted`` is false; the
    1-d CSV starts with a header."""
    n = ROWS[kind]
    xs = random_walk(n, seed=31)
    if kind == "2d":
        valid = [f"{x!r},{y!r}" for x, y in zip(xs, random_walk(n, seed=32, step=0.4))]
    elif kind == "jsonl":
        valid = [json.dumps({"r": [x]}) for x in xs]
    else:
        valid = [repr(x) for x in xs]
    lines = list(valid)
    for k, bad in enumerate(MALFORMED[kind] if planted else ()):
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


def split_run(tmp_path, kind, doc, h):
    """The paths of the records and snapshot of a lenient ``run`` over the
    first three fifths of input ``kind``, then of the ``run`` resumed from
    that snapshot over the rest."""
    lines = input_lines(kind)
    split = len(lines) * 3 // 5
    first = write(tmp_path / "first.in", lines[:split])
    second = write(tmp_path / "second.in", lines[split:])
    out1, out2 = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    snap1, snap2 = tmp_path / "first.snap", tmp_path / "second.snap"
    assert main(["run", "--input", first, "--output", str(out1), "--config",
                 config(tmp_path, doc), "--horizon", str(h), "--seed", "7",
                 "--snapshot", str(snap1)]) == 0
    assert main(["run", "--input", second, "--output", str(out2), "--resume", str(snap1),
                 "--snapshot", str(snap2)]) == 0
    return out1, snap1, out2, snap2


@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_a_lenient_run_split_by_snapshot(tmp_path, kind, h):
    got = {f"{kind}/h{h}/{path.name}": digest(path.read_bytes())
           for path in split_run(tmp_path, kind, PARAMS, h)}
    assert got == {key: DIGESTS.get(key) for key in got}


# Each statistic's parameters beside ``PARAMS``; a region statistic gets the
# box [0, 2] on each axis, which every input enters and leaves.
STAT_PARAMS = {
    "count": {},
    "discounted_sum": {"delta": 0.8},
    "discounted_complement": {"delta": 0.5},
    "region_count": {"region": [[0.0, 2.0]]},
    "latest_occurrence": {"region": [[0.0, 2.0]]},
}


def stat_doc(kind, stat):
    """``PARAMS`` with statistic ``stat``, its region given once per axis."""
    doc = {**PARAMS, **STAT_PARAMS[stat], "stat_variant": stat}
    if "region" in doc and kind == "2d":
        doc["region"] = doc["region"] * 2
    return doc


RECORD_DIGESTS = {
    "1d/count/discrete/h1": [
        "6e0f28a6c5adfa39156941b7a1008ee377fc6857980fc521a724dd4d2b0225d4",
        "623aaccf2835ac877e85c4260b393134ab1a70a75e0f5e53d858839ca749e8ef"],
    "1d/count/discrete/h3": [
        "3f1b82caa3e2a8bc829ac3931405bda67a82be9d871d7dec3a963fd04c8c0c6e",
        "5b568e75ba9abb964b72acbb37c7ba775225ead15cf4245a466f7baea408d9f6"],
    "1d/count/continuous/h1": [
        "57205fe64f5735431a6ea920ffd646fff582d97af82030c76ead6776cfe5f327",
        "853bf4d63c6ca9c112c19679bcae546bec34ed1500ea768fbc77e4fb13564dd6"],
    "1d/count/continuous/h3": [
        "467b4d20599d9fd05b3763610419c4dcd7cb6639af40b77689659db4a1b137b2",
        "2f447a1bcbd5fb7ccb77bcbfd9bef5ec6292acb8d51b846c2b67a27226856ee8"],
    "1d/discounted_sum/discrete/h1": [
        "32f721a6b84b8b124008437c00c7ba3afef3c7c07b0fe927f78e0dcf63660442",
        "671aff70e9c06e7719676eaaf605b643dace8e64a26bf97fe43941a9e1c735b3"],
    "1d/discounted_sum/discrete/h3": [
        "4d56d4e59ba85c33949ccc75fd550a5168c22a0dcd81621d645ab08c3c86477e",
        "64514ed3961f2a6337905dbd3cc31fbdcdb97e76a692971fc089edda65e1b92f"],
    "1d/discounted_sum/continuous/h1": [
        "a085d3ca956f456d25eb3e0fd138cde4a274c1c06af97b7b90022ef1942bc61a",
        "ba4f81486fcbd9744f94e619c46230fae7403afbe363918f034766249105089d"],
    "1d/discounted_sum/continuous/h3": [
        "9ea4046e0d8c064b633265b55a045aa0fa9ebf5556ebae5d27d671b2f21f740f",
        "2dae2239b444ffaf278d09af5b6e7350210fda8febaaea5ed0440548501730e3"],
    "1d/discounted_complement/discrete/h1": [
        "df2049b01b35c6f6218aa6994d0200d3688a6e5203e26e425ae6c369a06ff8c0",
        "2db855d462ce7bb97187ecc3bb67b0987e0f77d0d49ff05d99b4ea0aa87869dd"],
    "1d/discounted_complement/discrete/h3": [
        "e4fc70cd17500397e54f93839ef3f21fdf7f493336be826e886597f9b28bdc95",
        "2e2083bbfaaca482766c3947982f834225c65040e396f3915a8f670d577d0e21"],
    "1d/discounted_complement/continuous/h1": [
        "bb30d70ef96b4ce5ed48877b618356c2801e7c736e045ee275a592643281f798",
        "1e967957bfff7d18f91db05b353ae46130775deefcb03386afc39ff9351d2357"],
    "1d/discounted_complement/continuous/h3": [
        "3b4596a6bb0be38257761e83ba0559b6519f095a0fd245fe294f1e1085fa3860",
        "e31b93fc872da63dd2bd4da2a5d10c42f6c5c78df924ea0283746c28b65f595c"],
    "1d/region_count/discrete/h1": [
        "3df9ba131b38051d840a9bdee81ca80a67c814918b3db2a9c91a940cf8d2dc6d",
        "35cd0990dc340ed79533bdd0d1c2cf41fd6a9336d86acca1c204d21107fe8e82"],
    "1d/region_count/discrete/h3": [
        "f53d26a15feff2d7f57fbc066dc1f552ecb0a0ed3f4896df7bf14b37673ea09d",
        "f7196258e83d1d7a129cad358220a52839489ae66c51f7ab8106178b15342f1b"],
    "1d/region_count/continuous/h1": [
        "2eea35304dd840070c77b9055619045b43627703eb3c1f5ad96761d119e7ffad",
        "8566b8147582fafee52e2a9d527b0451609bda98085a75d44a6e5ec8a32796fb"],
    "1d/region_count/continuous/h3": [
        "6c902921fe839abc92b74d81ac81e4db8b7da02867d9d9db587e3143f3748989",
        "2ee21158f6a34bba157fce842240fc491815df21eba4d669b73290a32f50d3d9"],
    "1d/latest_occurrence/discrete/h1": [
        "cabcd787b3fe3fea4183c09c858288555db4e23d15d2a7503c64357bb03f6b27",
        "0c65b5bf1d879e4257e71d7e6b8388e0a8e5c67e2958fe604b768aaa3c7fdc6e"],
    "1d/latest_occurrence/discrete/h3": [
        "77e4715783e85f0e7aef404e18e3e37d7b6f7723a1858bc7357fe70e07d87e78",
        "a3399074d8c0f267e8698a57af4667028d2d3cdf8915e67d5c8aece01749ea0c"],
    "1d/latest_occurrence/continuous/h1": [
        "8f1af4dcf5765f59fad1a65e839de7c514983f2749f116ae2cafc1433a2dc7ad",
        "c16f16d2c8c6383f278a884f9ae0d1a6a360757e9d27f2b48c66c80bc3a7ba07"],
    "1d/latest_occurrence/continuous/h3": [
        "2607381996d55773352a17113d611271a64c1e29ffc67b69786618215453202a",
        "bd680007612fe5be69119931af5a31d3235bab7ec878801120cb3d24fbb44787"],
    "2d/count/discrete/h1": [
        "98df7389edeb20341b041d2fd56076e613f156444f55b1b6f39c219e6a95f0f5",
        "61b767f3aa39a4e05cd7f7b6cef841ea9d2623c14e5ea6f159f0b2d47bbaee0a"],
    "2d/count/discrete/h3": [
        "224186450793d6df26e300ef46c0b66ff45505461860cb1c187732225e38c094",
        "e408127da2f2a91f8f9cb3efb7ad21dff50b9c795c41e5eb0553665627f36997"],
    "2d/count/continuous/h1": [
        "ebddb1e109794cb9b6d87af117c5437b434a9e342569dd170ecd1cc909917333",
        "467bff1598b5cf54a46dceef374aff2a80a84d5fc84292618331bbf1b0758a49"],
    "2d/count/continuous/h3": [
        "865c9ed9678359dd167f6cc486a5214292a60a29ef3a47f56b103c45dbaad2dd",
        "4828de873cfa3bbf6ee5f2702a2a3f063a8cb061edc9db2d5219377f9c11a19f"],
    "2d/discounted_sum/discrete/h1": [
        "f333a2367ae0ceb5d1ecfe9bb56da6b75cf4e828edf1eb926a0ecfe614e7e978",
        "9c050c69f63d87d59165c64ce55b14350825a07795ba98f08388ca3897858ba3"],
    "2d/discounted_sum/discrete/h3": [
        "aef47439fccb7dc0b3d6ee6164d0ad298e1a754a4a514b6c71ff04eb9480cf22",
        "c83a155c223e25fd26613323bdff993e33baf0bf6daa1c723022f5f37d91460e"],
    "2d/discounted_sum/continuous/h1": [
        "1a205c9712e8c47fbfefc3c65fedc7a7f81b71375f76901ee95f39428d5617db",
        "7c2b65769697cca90dfe3c24ba9c132ef7752685f5f40ac40fd761bb1e7b62aa"],
    "2d/discounted_sum/continuous/h3": [
        "8f13a86de43a39155e05b0d47846ddfc2d327e92e0f5b7f7b6559140c65cf819",
        "e9a3221052630cf0e93918f8a266379666ed64919b95d79b8508f464c7ece1dc"],
    "2d/discounted_complement/discrete/h1": [
        "100dd4ed9ba8f4dd3ef1bfcd4923e795159424a78236cd0473871d19f2664086",
        "43172e9c142f64bbfa61f9379def62a9f03e1673ac3d3a05155b61f9b0a196cf"],
    "2d/discounted_complement/discrete/h3": [
        "30c191aa120a3ac44d4f49d29d4d69b5c401e671af34da61c60e354a86963578",
        "23dec18dc9814be3ca945e9b3c2be4160fcc5f49df2a38cbe9ad1b6d9b4e1beb"],
    "2d/discounted_complement/continuous/h1": [
        "9cba90babd822c1a408ee9395580b8caa66b0aac9de8128e111de19361757d94",
        "d7abff2adf46845860a98a9eaa241e125e5d5ec4fc4fab21c6d57ca679a68330"],
    "2d/discounted_complement/continuous/h3": [
        "775691d8f95fd33218fcc2d6ece6eb5c6dd3fe8e916f1450608c035430193951",
        "28fafb8346bc6f565b57af3c8656506e087b5ffa52d5405019503631a3e90f3c"],
    "2d/region_count/discrete/h1": [
        "7ffc0531fcd3931da825ae46abbe7e2217dabc625f50183c0e285312c49e21e0",
        "89b49c942136233863e7df321a93fb53222cc7e1456a7e64113ebc7d295d0591"],
    "2d/region_count/discrete/h3": [
        "035e4d2cb1c9ad237ee132c4485f5663f35a7fb9d989ea89009e756263b6d77e",
        "e5202c5f250a41f37bb1b1393bf9e0150ea9d75ccbe536c2725ba21c9d3f4064"],
    "2d/region_count/continuous/h1": [
        "eba16112ecd84312316530e80e30bc89c55e49ee1bc697bd174851ed393f1fd2",
        "e73c998fcda17fa1bf5c02dff7eca341460859ab44fac03b4bc39065cb7d40a8"],
    "2d/region_count/continuous/h3": [
        "daf5cec6b5ea3ac68209d49ece5d99960a29d702b4187ccaa59d09b4238910ae",
        "dfd2a7d1f6fba3e9dfe4b891a5a995c2ccc12a8f7a79e4c883d866cbcbb954f5"],
    "2d/latest_occurrence/discrete/h1": [
        "7ab31fb514cda6f4b616cfe96b03ad2ce2a701f5bdb6902e75ff0df5b6ba67c2",
        "5ba21cfa7efb97c16d7890ff4308a827eb76966b0f9c2b4a55b6829391111d31"],
    "2d/latest_occurrence/discrete/h3": [
        "fd436edac7597a8ddeda1046617d1b4aca1cbe4cd1f9c673e8d37a6a91ef2716",
        "79a90c0f0a4066bc8544a80196a9686db129b2b751cfe122340bfb007baac322"],
    "2d/latest_occurrence/continuous/h1": [
        "ef0d68f6d3666023c27c47e93c3313cbc6f68fbd58d10f74542263de45c09760",
        "c01eaa10ca36bd23a2ff85142a17d04e5b28dea28231fc0ee9fba2ac591831db"],
    "2d/latest_occurrence/continuous/h3": [
        "016ef5c94c8cef781b63b5e2d32a6173b689638a4dbe2ee15a2f2e4811b89849",
        "9759128942c8d66c72f5cfcb7f57ab3fb7224ccc085b20a0553a47bacf949468"],
    "jsonl/count/discrete/h1": [
        "5cc866ae2ce6da7e355bdf9e8203b102a8538011101138ce4c09b20e290ca0c5",
        "111c44aa6726e74fad8c3680d8c3d6f27196d2a76f0995be94b02218ff3e2bb6"],
    "jsonl/count/discrete/h3": [
        "43ac77c758b5c7498c31340d3b98f4999deec99aff94ce3eff5300f0fe1a7ca0",
        "1d7c0db60fae35b4fd53de652448f1206bc0767d0d024bf4f6b13d540a2df49d"],
    "jsonl/count/continuous/h1": [
        "7dc57e438d47dc06e1e95303132304659bb3596e3dd2219256df1933dd11d381",
        "d37421fc0522000f132ae12661267d755569a9a71c1ff8c8cdc0b0be13b8fd37"],
    "jsonl/count/continuous/h3": [
        "55304d01949e2cce69823b22651a6d2b7ba02c6a1d2513ee4699734f186c08e8",
        "69e9a8a4c706ac791659160e83e6fb67486934d13bd787c11614b8cc4084c0f1"],
    "jsonl/discounted_sum/discrete/h1": [
        "d9175fa433df30c9166887a0a127c4afab5dbd73b07cac9e84d276083f049d6f",
        "f41b82b937ed095225083fa7c783fcb9d03ec0017fa0053d4cbea06a73e2167e"],
    "jsonl/discounted_sum/discrete/h3": [
        "c1012a8ac11df8901f7368d9091ac7e60bc5a3eaccfa64222155141b227eecc7",
        "25aa199fe24419d84e13387c1398230b0eebf1b9f133a5f0938d9e199d8ff6ae"],
    "jsonl/discounted_sum/continuous/h1": [
        "a9b545e3aceb60ade30ff2f4ec41053892fae4caf757cc7a9c6d9868ffcad9db",
        "a3c771f5a6dc4546c379d4f878b9616fe562e89ae1cfcc31d8736773936547cb"],
    "jsonl/discounted_sum/continuous/h3": [
        "6da4f5c1709a7b3d39684676e87227772b4fb1d207ebb718ee21b2a84ef81bac",
        "3d02cf6d97bbe8ab2d20215c5fc440545d69c9c911bea57bd4d3dc7758dc85ee"],
    "jsonl/discounted_complement/discrete/h1": [
        "5d2a99eb4ee258db35e53950e9d5b6292802b5203d7e1df630d5fe26b1c01366",
        "fa9e3085f31226b89b56162c125ba680ed5a92eb7c76288f38dcb4520b9db511"],
    "jsonl/discounted_complement/discrete/h3": [
        "20b58842c003fc664b192c35ac629279b8b2a55172321c1ed15d753819366b83",
        "cc280b986b175c687166e7df427f0994e3540b56233dac78af5a05ec5cc14f4d"],
    "jsonl/discounted_complement/continuous/h1": [
        "ad2594ee08f11ac5a28d20925dca27e109527daa5d946ce8f83f8573246a0fe7",
        "8d049fba1c9c4df12387635af1e590d6708655cbf81e8268edd779f469a72e4f"],
    "jsonl/discounted_complement/continuous/h3": [
        "b4bbb70ebb07fcbeebefe99a6b6d6a51cfd37d54c8330c97116c5549c3697c9f",
        "e9a682bd8047756741d68851c3afae45b5c7bf58b2cce9a6c4a5ddac6501ede4"],
    "jsonl/region_count/discrete/h1": [
        "474a032b4eff716f44332a93df3c38d1592edaa577b0150fa789f2b54efce186",
        "943be109296a5ef766e2c2f7039eb7189d87d1184313a9bbfd35c65b62b70c6c"],
    "jsonl/region_count/discrete/h3": [
        "b5e9086c53b2ebb6e3a400f136312568d16ac6b298965c08661abf173e11b28c",
        "68b7f664726b760edb5fe89268a7903f64fc379f9ab176f528afba5c9ed7e587"],
    "jsonl/region_count/continuous/h1": [
        "cf2d4309f834e29501842b85e370459e1a3a7048635f46a1211f18fb4e9de9c0",
        "e2a9e23bd276e5dcf275e9902c90ad444ea86721b5831176d17d54ed4c0cb0aa"],
    "jsonl/region_count/continuous/h3": [
        "5298058d70632cfa177331881c1cab1d6fec19953c1d9918ea3cc65bd8648178",
        "0e4a810b493ec889ef782e35f3646d52fbd252fa9e1a1c8ca3f147ec6e4fbd41"],
    "jsonl/latest_occurrence/discrete/h1": [
        "ea16d7d3ba91a7270ab7a86614fd8e8ef977d68c5be37506112e14e8439771b4",
        "618234b4d1533ff07b9da7959897c873a7eac5e83d8dcd47a2319d0f3ee4b093"],
    "jsonl/latest_occurrence/discrete/h3": [
        "5b08719f71f962ab553b4baa63f932bf218811a1256e52e759d3604e2aca87ee",
        "74cce685ed1c48e3cebe039edb454a244bf4727fff32a78c36032dfdc559c3c3"],
    "jsonl/latest_occurrence/continuous/h1": [
        "ccfe5c6de8424eb3a13661b69894758b8d4b390aee1daa93f6ce71f1335312ef",
        "7ac09281054a7c4c0e1f9c4ac63c4acd8f307496d3548bad98a6f45bb873dc8d"],
    "jsonl/latest_occurrence/continuous/h3": [
        "29e1c20a8bd92c1a0acdbfc9d8256c9043d62ab72bc8590a8864f218e9d438b7",
        "25da647b9ace1b16066da3968e57760efc83622fe9795cba2d16648351c1d11e"],
}


@pytest.mark.parametrize("h", [1, 3])
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("stat", STAT_VARIANTS)
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_every_statistic_and_mode_split_by_snapshot(tmp_path, kind, stat, mode, h):
    """The records of the split ``run`` under each statistic and emission
    mode; the snapshots between them are not pinned."""
    doc = {**stat_doc(kind, stat), "mode": mode}
    out1, _, out2, _ = split_run(tmp_path, kind, doc, h)
    key = f"{kind}/{stat}/{mode}/h{h}"
    assert {key: [digest(out1.read_bytes()), digest(out2.read_bytes())]} == {
        key: RECORD_DIGESTS.get(key)}


LOOKAHEAD_DIGESTS = {
    "1d/count/h2": "90beb8708658089228631631d8e78010dece4de4ef66f11a8ea6aca6bc9b393a",
    "1d/count/h3": "3e95d31014b0204403141a238f927bd4fcfba8429dfe23e2662e0a7c830cdd92",
    "1d/discounted_sum/h2": "66f303315e49364df65d2bc9b443c8b5668231bab367408399ea1b9545b52d76",
    "1d/discounted_sum/h3": "680db5f9d5a9e53a4b96520e4e15eae858b5868eefd4c5a98d0a157da2690561",
    "1d/discounted_complement/h2": "71cb76e2bbd836f82b0371212ae8ddb24f009cbd809a889acf964b01091638ad",
    "1d/discounted_complement/h3": "55bcbf2211bb2297346d19c9d165290b99e8abb810c657599f1e3a0d9f8a123c",
    "1d/region_count/h2": "d921a8b526b54a0b7ce10e8c923a74851d752fe6b314d925a5115ea68aa49cc1",
    "1d/region_count/h3": "18906ace63717e354c310fc418428d0b07de4ad646ec310a62dac9f944d49106",
    "1d/latest_occurrence/h2": "8a0eab95586c43c4e5aef7d87d8738ec2a28765757f7fb577426b59212ae1483",
    "1d/latest_occurrence/h3": "ddeebd4f05e3de771b56db186d32fbd299293f6a98a80ac6ef6faa3f89d0fe6d",
    "2d/count/h2": "5134585e303185557bf89141095e8fbd3a7b7ff11674e00eb42c7f09b439cd1a",
    "2d/count/h3": "aa1b7a6fa817602440c29e46debb9bd8313effd18312aaa9063a26786204bb92",
    "2d/discounted_sum/h2": "ba936e02155432d58d4f095bfd071e21a4a5ce0cba59b055a657ffa8cb27e3ff",
    "2d/discounted_sum/h3": "c79ad13f3d9a3ae0d1d4069d32a8ce2a84b7f51ee5e59693e23662a6a08ae5c6",
    "2d/discounted_complement/h2": "eb7c3767600729e097fc5423405af77a0ad1b2616e42b6f9795581bf9452d899",
    "2d/discounted_complement/h3": "aa1b7a6fa817602440c29e46debb9bd8313effd18312aaa9063a26786204bb92",
    "2d/region_count/h2": "b07fe318c04fb7480138dd9a4d0cdc113b4c42ff118e141855d359f093bfc7b6",
    "2d/region_count/h3": "dbbd79e9a748040bb7d1a021f9ca91daf126e1fc13f5176e2bc0789f7a53e322",
    "2d/latest_occurrence/h2": "db17e16b235ad0cd298a50ad0acb53113488f97a072fb1edc0106fe6b3ff66c8",
    "2d/latest_occurrence/h3": "dbbd79e9a748040bb7d1a021f9ca91daf126e1fc13f5176e2bc0789f7a53e322",
}

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


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("stat", STAT_VARIANTS)
@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_lookahead_for_every_statistic(tmp_path, kind, stat, h):
    source = write(tmp_path / "in", input_lines(kind, planted=False))
    out = tmp_path / "out.jsonl"
    assert main(["lookahead", "--input", source, "--output", str(out), "--config",
                 config(tmp_path, stat_doc(kind, stat)), "--horizon", str(h),
                 "--seed", "7"]) == 0
    key = f"{kind}/{stat}/h{h}"
    assert {key: digest(out.read_bytes())} == {key: LOOKAHEAD_DIGESTS.get(key)}


# Four entries per statistic, varying ``delta`` and ``lambda`` beside the
# statistic's own parameters.
FIT_GRID = [{"lambda": lam, "delta": delta} for lam in (0.5, 0.9) for delta in (0.0, 0.8)]

FIT_DIGESTS = {
    "1d/count": "f5898908bd8f128467904fb92ce8f0012680caaa0e634cd6ff7252090535faf9",
    "1d/discounted_sum": "138e2b284944db0227bb8d922a008b4e281dce0f0c1cdfe5f10baa0ee40ec9a6",
    "1d/discounted_complement": "dd5dfbacf95313ec9fad66927a0f12fc9fd8ce76a69a96dd7583951cc440e4f7",
    "1d/region_count": "22d2c9e78b2b77a9c85e8ec86407e92a4d9f639b1dd1d7213d4d570bcd949f16",
    "1d/latest_occurrence": "a2485284ef928eaf94f270041221c79c5fe6efb58114be144c89890cb0e76c7c",
    "2d/count": "5bdc0d9b68d2c49adaecda11145212e06623338ae4d05cd48baf31bd4dee3f83",
    "2d/discounted_sum": "61978c4d65cf4b8b9795dd38e7b95f0a5517f5d7039db73fa022c87cefd0d08e",
    "2d/discounted_complement": "1d38bc5d6a50acca9550bc47522d7a59a7cc01e60852b0c30fbca734d7a54c50",
    "2d/region_count": "b915addf2c5f1384f5dac66378aabe5f72e878b336850e8159d7a80f918acd02",
    "2d/latest_occurrence": "52d487a0aa4000100a17b843d76cf556d2b224f5c560fe9e20cf990083e6a137",
}


@pytest.mark.parametrize("stat", STAT_VARIANTS)
@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_fit_for_every_statistic(tmp_path, kind, stat):
    source = write(tmp_path / "in", input_lines(kind, planted=False))
    out = tmp_path / "report.json"
    assert main(["fit", "--input", source, "--output", str(out), "--config",
                 config(tmp_path, {**stat_doc(kind, stat), "grid": FIT_GRID})]) == 0
    key = f"{kind}/{stat}"
    assert {key: digest(out.read_bytes())} == {key: FIT_DIGESTS.get(key)}
