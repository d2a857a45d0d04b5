#!/usr/bin/env python
"""Report imported names a Python module never reads.

A dependency-free stand-in for a linter's unused-import rule: for every
file given on the command line (directories are searched for ``*.py``) it
parses the module with :mod:`ast`, collects the names each ``import``
binds and reports those no expression of the module reads.  A name counts
as read when it is loaded as an expression, named inside a string
annotation, or listed in a literal ``__all__`` (the re-exports of a
package ``__init__``).

Not checked: ``from __future__`` and star imports, imports inside ``if
TYPE_CHECKING:`` blocks, and import statements marked ``# noqa`` on any of
their lines (an import kept for its side effect, or a re-export outside
``__all__``).

CI runs this over ``src``, ``tests``, ``tools``, ``examples`` and
``e2ebench`` (the ``docs`` job), and ``tests/test_imports.py`` runs it in
the test suite; it exits non-zero when it reports any name.

Usage::

    python tools/check_imports.py src tests tools examples e2ebench
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

NOQA = "# noqa"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _bindings(tree: ast.Module, lines: List[str]) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` for every checked import binding."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for inner in node.body:
                skipped.update(id(n) for n in ast.walk(inner))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _string_annotation_names(annotation: ast.expr) -> Iterator[str]:
    """Identifiers inside the string parts of an annotation, such as
    ``"List[Cell]"``."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _read_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg,
                args.kwarg,
            ]:
                if arg is not None and arg.annotation is not None:
                    annotations.append(arg.annotation)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    for annotation in annotations:
        names.update(_string_annotation_names(annotation))
    return names


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import binding *path* never reads."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    read = _read_names(tree)
    return sorted(
        (line, name)
        for line, name in _bindings(tree, source.splitlines())
        if name not in read
    )


def python_files(paths: List[str]) -> Iterator[Path]:
    """Each path given, with a directory standing for its ``*.py`` files."""
    for arg in paths:
        path = Path(arg)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories to scan")
    args = parser.parse_args(argv)
    n_found = 0
    for path in python_files(args.paths):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: unused import {name!r}")
            n_found += 1
    return 1 if n_found else 0


if __name__ == "__main__":
    sys.exit(main())
