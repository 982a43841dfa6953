"""Which lines of ``src/sigauto`` a run executes, and which statements no
run did.

    python3 tools/reach.py trace OUT.json -- SCRIPT.py [ARGS...]
    python3 tools/reach.py trace OUT.json -- -m MODULE [ARGS...]
    python3 tools/reach.py report OUT.json [OUT.json...]

``trace`` runs the target in this process, with ``src`` first on
``sys.path``, under ``sys.settrace`` and ``threading.settrace``; only frames
whose code lives in ``src/sigauto`` are traced line by line.  The executed
lines, keyed by module file name, are merged into OUT.json (created when
missing), so several runs can share one file.  The target's exit status is
this command's.  ``-m pytest -q tests`` traces the test suite.

``report`` prints, per module, the line ranges of the statements that no
given file recorded, each with the function or class it sits in.  A
statement is an AST statement, docstrings excluded; a compound one (``if``,
``for``, ``def``...) counts as reached when its header or any statement in
its body ran, and an unreached one is reported with its whole body.

Forked processes (``fit`` scores its entries in forked children where it
can) and tests that run sigauto in a subprocess are not traced, so the
report is an upper bound on what is unreached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "sigauto"


def trace(out: str, target: list[str]):
    """Run ``target`` (a script and its arguments, or ``-m`` and a module)
    under the line tracer, merge what it executed into ``out`` and return
    the target's exit status, as ``sys.exit`` takes it."""
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}  # code file name -> under the package

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        under = inside.get(name)
        if under is None:
            under = inside[name] = name.startswith(prefix)
        return local if under else None

    sys.path.insert(0, str(SRC))
    status = 0
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.settrace(None)
        threading.settrace(None)
        _merge(out, seen, prefix)
    return status


def _merge(out: str, seen: set[tuple[str, int]], prefix: str) -> None:
    path = Path(out)
    lines = json.loads(path.read_text())["lines"] if path.exists() else {}
    for name, lineno in seen:
        lines.setdefault(name[len(prefix):], []).append(lineno)
    lines = {module: sorted(set(found)) for module, found in sorted(lines.items())}
    path.write_text(json.dumps({"package": "src/sigauto", "lines": lines}, indent=1) + "\n")


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement lists directly inside ``node``."""
    out = [getattr(node, field) for field in ("body", "orelse", "finalbody")
           if isinstance(getattr(node, field, None), list)]
    return out + [handler.body for handler in getattr(node, "handlers", [])]


def unreached(tree: ast.Module, hit: set[int]) -> list[tuple[int, int, str]]:
    """(first line, last line, enclosing name) of each outermost statement
    of ``tree`` that ran no line, in source order; the lines of ``hit``
    ran."""
    found: list[tuple[int, int, str]] = []

    def visit(stmts: list[ast.stmt], scope: str) -> bool:
        """Report the unreached statements of ``stmts``, a run of unreached
        neighbours as one span; true when any ran."""
        ran_any = after_unreached = False
        for node in stmts:
            if _is_docstring(node):
                continue
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            bodies = _bodies(node)
            children = [s for body in bodies for s in body]
            header_end = (min(s.lineno for s in children) - 1 if children
                          else node.end_lineno)
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
            mark = len(found)
            ran = any(line in hit for line in range(first, header_end + 1))
            ran = any([visit(body, inner) for body in bodies]) or ran
            if not ran:
                del found[mark:]  # the whole statement is reported instead
                if after_unreached:
                    first = found.pop()[0]
                found.append((first, node.end_lineno, scope))
            after_unreached = not ran
            ran_any = ran_any or ran
        return ran_any

    visit(tree.body, "")
    return found


def report(files: list[str]) -> int:
    hits: dict[str, set[int]] = {}
    for name in files:
        for module, lines in json.loads(Path(name).read_text())["lines"].items():
            hits.setdefault(module, set()).update(lines)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = unreached(tree, hits.get(path.name, set()))
        if spans:
            print(f"src/sigauto/{path.name}")
        for first, last, scope in spans:
            where = f"{first}-{last}" if last > first else str(first)
            print(f"  {where:>9}  {scope or '<module>'}")
        total += len(spans)
    print(f"{total} unreached statement spans")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="reach.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_trace = sub.add_parser("trace", help="run a target and record its sigauto lines")
    p_trace.add_argument("out")
    p_trace.add_argument("target", nargs=argparse.REMAINDER,
                         help="-- SCRIPT [ARGS...] or -- -m MODULE [ARGS...]")
    p_report = sub.add_parser("report", help="print the statements no file recorded")
    p_report.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.files)
    target = args.target[1:] if args.target[:1] == ["--"] else args.target
    if not target or target == ["-m"]:
        parser.error("trace needs a target: -- SCRIPT [ARGS...] or -- -m MODULE [ARGS...]")
    return trace(args.out, target)


if __name__ == "__main__":
    sys.exit(main())
