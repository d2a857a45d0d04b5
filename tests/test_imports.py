"""Every name a module imports is read somewhere in that module.

The scan is ``tools/check_imports.py`` (a stdlib-only lint, also a CI step):
each module is parsed with :mod:`ast`, the names its import statements bind
are collected, and any binding that no expression reads is reported.  Not
checked: imports inside ``if TYPE_CHECKING:`` blocks and import statements
marked ``# noqa``.  A name counts as read when it is loaded as an
expression, listed in the module's ``__all__``, or named inside a string
annotation.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_imports", REPO_ROOT / "tools" / "check_imports.py"
)
check_imports = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
sys.modules["check_imports"] = check_imports
_spec.loader.exec_module(check_imports)


def test_src_modules_read_every_import():
    dirs = [str(REPO_ROOT / d) for d in ("src", "tests", "tools", "examples", "e2ebench")]
    unused = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
        for path in check_imports.python_files(dirs)
        for line, name in check_imports.unused_imports(path)
    ]
    assert unused == [], "imported but never read:\n" + "\n".join(unused)


def test_scan_reports_unread_names_only(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import (\n"
        "    TYPE_CHECKING,\n"
        "    Dict,\n"
        "    List,\n"
        ")\n"
        "from .sibling import helper, exported\n"
        "import a.b.c\n"
        "if TYPE_CHECKING:\n"
        "    from .cells import Cell\n"
        "__all__ = ['exported']\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return a.b\n"
    )
    assert check_imports.unused_imports(path) == [(2, "os"), (4, "Dict"), (9, "helper")]
