"""Source hygiene: no top-level name that nothing refers to, no unused import.

Stdlib only (``ast`` and word-boundary counts), so it runs without a linter.
"""

import ast
import re
from pathlib import Path

import pytest

import sigauto

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sigauto"
MODULES = sorted(PACKAGE.glob("*.py"))
CORPUS = "\n".join(
    path.read_text(encoding="utf-8")
    for folder in ("src", "tests", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
)
EXEMPT = {"__version__"}


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_name_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unreferenced = [
        name for name in top_level_names(tree)
        if name not in EXEMPT
        and len(re.findall(rf"\b{re.escape(name)}\b", CORPUS)) < 2
    ]
    assert unreferenced == [], f"{path.name}: nothing refers to {unreferenced}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


ROW_TABLES = re.compile(r"\b(_trows|_erows)\b")


def assigned_attributes(tree):
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute):
                    yield part.attr


def called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "hmm.py"],
                         ids=lambda p: p.name)
def test_only_the_model_knows_its_row_layout(path):
    """``hmm.py`` owns the row layout and what a step writes: no other
    module names ``step_slots``, the emission or transition write, or sets a
    row's cached normalization, the state order or the mixture centres,
    which a model takes from its automaton, or names the row tables.
    Inside the package a model steps with its own ``update``:
    ``next_hmm``/``next_hmm_continuous``, which check a library caller's
    arguments, are called nowhere else."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    assert not re.search(r"\b(step_slots|_apply_emission|_apply_transition)\b", text)
    assert not {"norm", "state_order", "mixtures"} & set(assigned_attributes(tree))
    assert not {"next_hmm", "next_hmm_continuous"} & set(called_names(tree))
    assert not ROW_TABLES.search(text)


def test_no_module_calls_dumps():
    """Each JSON text the package writes comes from an encoder built once:
    ``cli``'s record encoder or the snapshot's chunk encoder.
    ``json.dumps`` with any setting off its defaults builds a new encoder
    on every call."""
    assert [path.name for path in MODULES
            if re.search(r"\bjson\.dumps\b", path.read_text(encoding="utf-8"))] == []


def test_one_function_forks_and_no_process_pool_is_imported():
    """``fit``'s workers are bare forks from one function: ``src/`` calls
    ``os.fork`` nowhere else and imports neither ``multiprocessing`` nor
    ``concurrent``, whose pools start slower and pickle what they send."""
    forking, pools = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                forking += [f"{path.name}:{function.name}" for node in ast.walk(function)
                            if isinstance(node, ast.Call)
                            and ast.unparse(node.func) in {"os.fork", "fork"}]
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            pools += [name for name in names
                      if name.split(".")[0] in {"multiprocessing", "concurrent"}]
    assert forking == ["forecasting.py:_forked_scores"]
    assert pools == []


def nodes_by_function(tree):
    """``(qualified name of the enclosing function or class, node)`` for
    every node of a module; the name is empty at the module's top level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + [child.name])
            else:
                yield ".".join(scope), child
                yield from walk(child, scope)
    return walk(tree, [])


def calls_by_function(tree):
    """``(qualified name of the enclosing function, unparsed callee)`` for
    every call made inside a function or method."""
    return ((scope, ast.unparse(node.func)) for scope, node in nodes_by_function(tree)
            if isinstance(node, ast.Call) and scope)


def test_each_row_is_labelled_and_each_draw_seeded_in_one_place():
    """Grid labels come from ``Clusterer._lookup``, whose memo labels each
    row once, and from the EMA classifier, whose summary is no stored row.
    No function builds a seeded generator but ``bench.py``'s input
    generator: the lookahead frontier, ``sample_event`` and
    ``sample_observation`` draw with ``keyed_uniform`` and nothing else."""
    calls = [(f"{path.name}:{function}", callee) for path in MODULES
             for function, callee in calls_by_function(
                 ast.parse(path.read_text(encoding="utf-8")))]
    labelling = {f for f, callee in calls
                 if callee.split(".")[-1] in {"cell_index", "cell_label"}}
    seeding = {f for f, callee in calls if callee.split(".")[-1] in {"Random", "default_rng"}}
    assert labelling == {"plugins.py:Clusterer._lookup", "plugins.py:EmaGridClassifier.step"}
    assert seeding == {"bench.py:random_walk"}

    def draws(function):
        """The draws ``function`` and the functions nested in it call,
        calls to those nested functions aside."""
        inside = [(f, callee) for f, callee in calls
                  if f == function or f.startswith(function + ".")]
        nested = {f[len(function) + 1:].split(".")[0] for f, _ in inside if f != function}
        return {callee for _, callee in inside
                if callee not in nested and re.search("random|rng|uniform|draw", callee)}

    for function in ("lookahead.py:LookaheadFrontier._extend", "forecasting.py:sample_event",
                     "forecasting.py:sample_observation"):
        assert draws(function) == {"keyed_uniform"}, function


def test_one_stepping_core_and_scratch_builds_only_on_the_scratch_paths():
    """No module but ``automaton.py`` calls ``init_isa`` or ``next_isa``: a
    streaming path steps through ``automaton.step_stream``, or ``move``s
    with a word it labelled itself, as the lookahead build does.  The
    whole-automaton conversions run only on the scratch paths: the
    pipeline's reference rebuild and the build gate of ``bench``; a
    snapshot's pipeline is restored by streaming its signal, not converted."""
    stepping, converting = set(), set()
    for path in MODULES:
        for function, callee in calls_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            name = callee.split(".")[-1]
            if name in {"init_isa", "next_isa"} and path.name != "automaton.py":
                stepping.add(f"{path.name}:{function}")
            if (name in {"isa_to_hmm", "isa_to_hmm_continuous"}
                    and path.name != "bench.py"):
                converting.add(f"{path.name}:{function}")
    assert sorted(stepping) == []
    assert converting <= {"pipeline.py:StreamPipeline.rebuild_from_scratch"}


def test_a_step_takes_one_row_and_only_the_frontier_builds_a_word_classifier():
    """Every classifier step maps one row to a label: no function takes a
    ``future`` window.  Only the lookahead frontier builds a word classifier
    and joins labels into a word: its word reader ``_word`` and the build's
    sliding window are the only calls of ``word``."""
    windowed, building, joining = set(), set(), set()
    for path in MODULES:
        for scope, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arguments) and "future" in {
                    arg.arg for arg in node.posonlyargs + node.args + node.kwonlyargs}:
                windowed.add(f"{path.name}:{scope}")
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func).split(".")[-1]
            if callee == "LookaheadWordClassifier":
                building.add(f"{path.name}:{scope}")
            if callee == "word":
                joining.add(f"{path.name}:{scope}")
    assert windowed == set()
    assert building == {"lookahead.py:LookaheadFrontier.__init__"}
    assert joining == {"lookahead.py:LookaheadFrontier._word", "lookahead.py:lookahead_build"}


def test_only_the_automaton_module_changes_or_rebuilds_an_automaton():
    """``automaton.py`` alone builds an instants matrix, fills an automaton
    field by field, or appends to or pops its cells: every other module
    moves one with ``move``/``unmove``/``step_stream``, builds one from a
    signal with ``build_isa`` or starts one empty with ``Isa()``."""
    found = []
    for path in MODULES:
        if path.name == "automaton.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if (callee.split(".")[-1] == "InstantsMatrix"
                    or (callee.split(".")[-1] == "Isa" and (node.args or node.keywords))
                    or re.search(r"\btheta\.(append|pop)$", callee)):
                found.append(f"{path.name}:{callee}")
    assert found == []


def test_a_row_is_checked_only_where_it_enters_a_signal():
    """``as_observation`` checks a row once, when ``Signal.append`` stores
    it, and every stage behind a signal takes the stored row as it is: no
    module but ``signal.py`` calls it, and none imports it (``__init__.py``
    names it in its export table only)."""
    calling, importing = set(), set()
    for path in MODULES:
        for scope, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "as_observation"):
                calling.add(f"{path.name}:{scope}")
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(alias.name.split(".")[-1] == "as_observation"
                            for alias in node.names)):
                importing.add(path.name)
    assert calling == {"signal.py:Signal.append"}
    assert importing == set()


def test_a_snapshot_restores_a_pipeline_only_by_streaming_its_signal():
    """``snapshot.py`` builds a pipeline only through
    ``StreamPipeline.advance``, the live run's step: it sets no attribute
    and calls no ``build_isa``, ``move``, ``step_stream`` or ``Isa``, so no
    part of a restored pipeline comes from anywhere but its signal."""
    tree = ast.parse((PACKAGE / "snapshot.py").read_text(encoding="utf-8"))
    called = {callee.split(".")[-1] for _, callee in calls_by_function(tree)}
    assert "advance" in called
    assert not {"build_isa", "move", "unmove", "step_stream", "next_isa", "init_isa",
                "update", "Isa"} & called
    assert list(assigned_attributes(tree)) == []


def stat_variants():
    """The names in ``plugins.STAT_VARIANTS``, read from the source."""
    tree = ast.parse((PACKAGE / "plugins.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["STAT_VARIANTS"])


def test_only_a_statistic_being_built_tells_its_variant_by_name():
    """A ``StatFn`` binds its variant's formulas once, when it is built, so
    no accumulator call and no other module compares a variant with a
    variant's name (``==``, ``in`` a literal tuple or a ``case``): only
    ``StatFn.__init__`` does."""
    names = set(stat_variants())

    def names_a_variant(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_variant, node.elts))
        return isinstance(node, ast.Constant) and node.value in names

    found = set()
    for path in MODULES:
        for scope, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                        else [node.value] if isinstance(node, ast.MatchValue) else [])
            if any(map(names_a_variant, operands)):
                found.add(f"{path.name}:{scope}")
    assert found == {"plugins.py:StatFn.__init__"}


def test_readme_entry_points_exist():
    """Every name that README's "Library use" lists as a lower-level entry
    point is an attribute of ``sigauto``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Lower-level entry points mirror the stages:(.*?)\.\s",
                         section, re.S).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) > 10
    assert [name for name in names if not hasattr(sigauto, name)] == []


def imported_modules(node):
    """The modules an import statement names, relative ones without their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] if isinstance(node, ast.ImportFrom) else []


def test_only_bench_imports_dataclasses_and_cli_imports_optional_stages_late():
    """``import sigauto.cli`` compiles no dataclass: ``bench.py``, which only
    ``sigauto bench`` and library callers load, alone imports
    ``dataclasses``.  ``cli.py`` imports ``bench``, ``lookahead`` and
    ``snapshot`` inside the handlers that use them, never at its top level."""
    dataclass_users, eager = [], []
    for path in MODULES:
        for scope, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            modules = imported_modules(node)
            if "dataclasses" in modules:
                dataclass_users.append(path.name)
            if path.name == "cli.py" and not scope:
                eager += [m for m in modules if m in {"bench", "lookahead", "snapshot"}]
    assert dataclass_users == ["bench.py"]
    assert eager == []


def test_the_name_table_lists_each_name_once_where_it_is_defined():
    """``__init__.py``'s ``_EXPORTS`` names each public name once, under a
    module whose top level defines it, so its ``__getattr__`` resolves
    every name in ``__all__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    table = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"])
    listed = [name for names in table.values() for name in names]
    assert len(listed) == len(set(listed))
    undefined = [
        f"{module}.{name}" for module, names in table.items()
        for name in set(names) - set(top_level_names(
            ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))))
    ]
    assert undefined == []


def test_a_bandwidth_is_checked_once_when_the_parameters_are_read():
    """``_as_bandwidth`` builds a ``Kernel`` to check an explicit bandwidth
    by the kernel's own rule, so ``PluginParams`` refuses every bandwidth a
    stage would.  Past it only the readers build one: the continuous
    pipeline and a model that falls back on Scott's rule.  No other stage
    builds a kernel just to check the parameters again."""
    building = {f"{path.name}:{function}" for path in MODULES
                for function, callee in calls_by_function(
                    ast.parse(path.read_text(encoding="utf-8")))
                if callee.split(".")[-1] == "Kernel"}
    assert building == {"plugins.py:_as_bandwidth", "pipeline.py:StreamPipeline.__init__",
                        "hmm.py:HmmContinuous.kernel_for"}


def test_only_the_save_builds_a_snapshot_document():
    """``save_snapshot`` is the one builder of a snapshot document: no other
    function of ``snapshot.py`` reads a pipeline's ``signal``, so no second
    copy of the document can drift from the bytes a save writes."""
    tree = ast.parse((PACKAGE / "snapshot.py").read_text(encoding="utf-8"))
    reading = {scope for scope, node in nodes_by_function(tree)
               if isinstance(node, ast.Attribute) and node.attr == "signal"}
    assert reading == {"save_snapshot"}


def test_one_function_refuses_a_kernel_or_a_point_of_another_dimension():
    """``HmmContinuous.kernel_for`` is the continuous model's one kernel
    lookup: no other function raises the refusal of a kernel whose
    dimension is not the signal's, or of a point whose dimension is not the
    kernel's."""
    refusing = set()
    for path in MODULES:
        for scope, node in nodes_by_function(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                refusing |= {(f"{path.name}:{scope}", refusal)
                             for refusal in ("kernel dimension", "point has dimension")
                             if refusal in ast.unparse(node.exc)}
    assert refusing == {("hmm.py:HmmContinuous.kernel_for", "kernel dimension"),
                        ("hmm.py:HmmContinuous.kernel_for", "point has dimension")}
