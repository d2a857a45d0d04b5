"""Every name a ``src/repro`` module imports is read somewhere in that module.

A stdlib-only lint: each module is parsed with :mod:`ast`, the names its
import statements bind are collected, and any binding that no expression
reads is reported.  Not checked: ``__init__.py`` files (their imports are the
package's re-exports), imports inside ``if TYPE_CHECKING:`` blocks, and
import lines marked ``# noqa``.  A name counts as read when it is loaded as an
expression, listed in the module's ``__all__``, or named inside a string
annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.Module, lines):
    """``(bound name, line)`` for every checked import binding."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for inner in node.body:
                skipped.update(id(n) for n in ast.walk(inner))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def _string_annotation_names(annotation: ast.expr):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _read_names(tree: ast.Module):
    names = set()
    annotations = []
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


def unused_imports(path: Path):
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    read = _read_names(tree)
    lines = text.splitlines()
    return [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for name, line in _imports(tree, lines)
        if name not in read
    ]


def test_src_modules_read_every_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == [], "imported but never read:\n" + "\n".join(unused)
