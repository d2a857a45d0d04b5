"""Tests for the documentation example runner (``tools/check_docs.py``).

The heavy work — actually executing every fenced block in ``README.md`` and
``docs/*.md`` — runs as the CI ``docs`` job; here we pin the extractor's
parsing semantics so markup edits cannot silently stop examples from being
checked.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
sys.modules["check_docs"] = check_docs
_spec.loader.exec_module(check_docs)


def write_md(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "doc.md"
    path.write_text(text)
    return path


def test_extracts_python_blocks_in_order(tmp_path):
    path = write_md(
        tmp_path,
        "# Doc\n"
        "```python\na = 1\n```\n"
        "prose\n"
        "```bash\nnot python\n```\n"
        "```python\nb = a + 1\n```\n",
    )
    blocks = check_docs.extract_blocks(path)
    assert [b.start_line for b in blocks] == [2, 9]
    assert blocks[0].source == "a = 1\n"
    assert not any(b.skipped for b in blocks)


def test_skip_marker_applies_to_next_block_only(tmp_path):
    path = write_md(
        tmp_path,
        "<!-- docs-check: skip -->\n"
        "```python\nraise RuntimeError('never run')\n```\n"
        "```python\nran = True\n```\n",
    )
    blocks = check_docs.extract_blocks(path)
    assert [b.skipped for b in blocks] == [True, False]
    assert check_docs.run_file(path, verbose=False) == 1


def test_blocks_share_one_namespace_and_report_md_lines(tmp_path):
    path = write_md(
        tmp_path,
        "```python\nvalue = 21\n```\n"
        "```python\nassert value * 2 == 42\n```\n",
    )
    assert check_docs.run_file(path, verbose=False) == 2

    failing = write_md(tmp_path, "intro\n\n```python\nboom\n```\n")
    with pytest.raises(NameError) as err:
        check_docs.run_file(failing, verbose=False)
    # The traceback points at the Markdown file and the real line number.
    tb = err.traceback[-1]
    assert str(tb.path).endswith("doc.md")
    assert tb.lineno + 1 == 4


def test_unterminated_fence_is_an_error(tmp_path):
    path = write_md(tmp_path, "```python\nx = 1\n")
    with pytest.raises(ValueError, match="unterminated"):
        check_docs.extract_blocks(path)


def test_repo_docs_have_runnable_examples():
    """The real docs keep at least one executable example each."""
    for name in ("README.md", "docs/simulators.md", "docs/architecture.md"):
        blocks = check_docs.extract_blocks(REPO_ROOT / name)
        assert any(not b.skipped for b in blocks), f"{name} lost its examples"


def test_dangling_relative_links_fail_the_check(tmp_path, capsys):
    (tmp_path / "other.md").write_text("# Other\n")
    path = write_md(
        tmp_path,
        "[ok](other.md#other) [web](https://example.org/x.md) [anchor](#top)\n"
        "[gone](results/old.json)\n"
        "`[code](missing.md)`\n"
        "```bash\n[fenced](missing.md)\n```\n"
        "![img](\n"
        "figs/missing.png)\n",
    )
    assert check_docs.dangling_links(path) == [
        (2, "results/old.json"),
        (7, "figs/missing.png"),
    ]
    assert check_docs.main([str(path), "-q"]) == 1
    assert "link to missing file 'results/old.json'" in capsys.readouterr().err
