"""Any config file maps to exit 0, 1 or 2, and an exit 2 writes no output;
a parameter is refused by every subcommand or by none.

Configs hold one to four keys drawn from ``CONFIG_KEYS`` and one unknown
key, with values drawn from numbers (NaN and the infinities among them),
booleans, null, strings, lists, objects, statistic names and ``grid``
entries.  No horizon drawn exceeds 5: the run's cost is linear in it.
Each config is laid over a base that makes its command runnable and runs
in process through ``run`` in both emission modes, ``fit`` and
``lookahead`` on 60-row 1-d and 2-d walks.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigauto.bench import random_walk
from sigauto.cli import CONFIG_KEYS, PARAM_KEYS, main
from sigauto.plugins import STAT_VARIANTS

ROWS = 60
UNKNOWN_KEY = "horizn"

numbers = st.one_of(
    st.integers(-3, 5),
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.5, -1.5, 1e-300, 1e300,
                     float("nan"), float("inf"), float("-inf")]),
)
scalars = st.one_of(numbers, st.booleans(), st.none(), st.text(max_size=4),
                    st.sampled_from([*STAT_VARIANTS, "scott", "discrete", "continuous"]))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6,
)
# Half of the values drawn for a known key are of its own kind, so that the
# checks past the type checks run too, and runs get past parsing.
boxes = st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=3)
own_kind = {
    "lambda": st.sampled_from([0.25, 0.5, 1.0]),
    "grid_width": st.one_of(st.sampled_from([0.5, 1.0]), st.lists(numbers, max_size=3)),
    "delta": st.sampled_from([0.0, 0.5, 0.9]),
    "stat_variant": st.sampled_from(STAT_VARIANTS),
    "region": boxes,
    "bandwidth": st.one_of(st.just("scott"), boxes),
    "horizon": st.integers(0, 5),
    "mode": st.sampled_from(["discrete", "continuous"]),
    "seed": st.integers(0, 5),
    "strict": st.booleans(),
    "split": st.integers(-3, 5).map(lambda k: k * 10),
}


def entry(keys):
    """A (key, value) pair for one of ``keys``."""
    return st.sampled_from(keys).flatmap(lambda key: st.tuples(
        st.just(key), st.one_of(own_kind.get(key, values), values)))


grid = st.lists(st.lists(entry([*PARAM_KEYS, UNKNOWN_KEY]), max_size=3).map(dict),
                max_size=3)
configs = st.lists(
    st.one_of(entry([*CONFIG_KEYS, UNKNOWN_KEY]), st.tuples(st.just("grid"), grid)),
    min_size=1, max_size=4,
).map(dict)

# Each command's arguments, and the config the drawn keys are laid over:
# ``fit`` refuses to run without a grid.
COMMANDS = {
    "run-discrete": (["run"], {"mode": "discrete"}),
    "run-continuous": (["run"], {"mode": "continuous"}),
    "fit": (["fit"], {"grid": [{"delta": 0.5}, {"lambda": 0.5}]}),
    "lookahead": (["lookahead"], {}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 1-d walk under a header and a 2-d walk without one."""
    root = tmp_path_factory.mktemp("walks")
    xs, ys = random_walk(ROWS, seed=41), random_walk(ROWS, seed=42, step=0.4)
    texts = {1: "value\n" + "".join(f"{x!r}\n" for x in xs),
             2: "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))}
    paths = {}
    for dim, text in texts.items():
        paths[dim] = root / f"walk{dim}.csv"
        paths[dim].write_text(text, encoding="utf-8")
    return paths


def exit_code(inputs, command, dim, config):
    """``command`` on the ``dim``-d walk with ``config`` laid over its base:
    the exit code, and whether it left an output file."""
    with tempfile.TemporaryDirectory() as scratch:
        path, out = Path(scratch) / "config.json", Path(scratch) / "out.jsonl"
        argv, base = COMMANDS[command]
        path.write_text(json.dumps({**base, **config}), encoding="utf-8")
        code = main([*argv, "--input", str(inputs[dim]), "--output", str(out),
                     "--config", str(path)])
        return code, out.exists()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_every_config_exits_0_1_or_2(inputs, command, dim, config):
    code, written = exit_code(inputs, command, dim, config)
    assert code in (0, 1, 2)
    if code == 2:
        assert not written


# The parameters alone, with a horizon every subcommand takes: continuous
# ``run`` is left out, since it alone reads the kernel and so also refuses a
# bandwidth whose dimension differs from the rows'.
params_only = st.lists(
    st.one_of(entry([k for k in PARAM_KEYS if k != "horizon"]),
              st.tuples(st.just("horizon"), st.integers(1, 5))),
    min_size=1, max_size=4,
).map(dict)


@settings(max_examples=80, deadline=None)
@given(config=params_only)
@example(config={"bandwidth": [[1, 2], [3, 4]]})
def test_a_parameter_is_refused_by_every_subcommand_or_by_none(inputs, config):
    refused = {command: exit_code(inputs, command, 1, config)[0] == 2
               for command in ("run-discrete", "fit", "lookahead")}
    assert len(set(refused.values())) == 1, refused


@pytest.mark.parametrize("bandwidth, message", [
    ([[1, 2], [3, 4]], "bandwidth matrix must be symmetric"),
    ([[-1]], "bandwidth matrix must be positive definite"),
    ([[1, 0], [0, -1]], "bandwidth matrix must be positive definite"),
], ids=["asymmetric", "negative", "indefinite"])
def test_a_bad_bandwidth_is_refused_alike_by_every_subcommand(inputs, no_bench, capsys,
                                                              bandwidth, message):
    with tempfile.TemporaryDirectory() as scratch:
        config, out = Path(scratch) / "config.json", Path(scratch) / "out.json"
        config.write_text(json.dumps({"bandwidth": bandwidth}), encoding="utf-8")
        assert main(["bench", "--config", str(config), "--output", str(out)]) == 2
        assert not out.exists()
    lines = [capsys.readouterr().err.splitlines()]
    for command in sorted(COMMANDS):
        assert exit_code(inputs, command, 1, {"bandwidth": bandwidth}) == (2, False)
        lines.append(capsys.readouterr().err.splitlines())
    assert lines == [[f"configuration error: {message}"]] * 5
