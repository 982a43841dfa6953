"""Source hygiene: no top-level name that nothing refers to, no unused import.

Stdlib only (``ast`` and word-boundary counts), so it runs without a linter.
"""

import ast
import re
from pathlib import Path

import pytest

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
    which a model takes from its automaton; only ``snapshot.py``, which
    reads and writes rows, names the row tables.  Inside the package a model steps with its
    own ``update``: ``next_hmm``/``next_hmm_continuous``, which check a
    library caller's arguments, are called nowhere else."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    assert not re.search(r"\b(step_slots|_apply_emission|_apply_transition)\b", text)
    assert not {"norm", "state_order", "mixtures"} & set(assigned_attributes(tree))
    assert not {"next_hmm", "next_hmm_continuous"} & set(called_names(tree))
    if path.name != "snapshot.py":
        assert not ROW_TABLES.search(text)


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
