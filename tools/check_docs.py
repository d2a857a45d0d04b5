#!/usr/bin/env python
"""Execute the fenced Python examples in the project's Markdown docs.

Documentation examples rot silently; this tool makes them executable
artifacts.  For every Markdown file given on the command line it

* extracts each fenced code block whose info string is ``python``,
* executes the file's blocks *in order, in one shared namespace* (so a
  quickstart can build on earlier imports), inside a temporary working
  directory (so examples that write caches or JSON never pollute the repo),
* reports the failing file and Markdown line on error and exits non-zero.

It also fails a file with a relative link (``[text](path)``, outside code)
to a file or directory that does not exist, so docs cannot keep pointing
at moved or deleted files.  URLs and in-page anchors are not checked.

Blocks that are illustrative rather than runnable (pseudo-code, fragments
that need paper-scale compute) opt out with a marker comment on the line
directly above the fence::

    <!-- docs-check: skip -->
    ```python
    run_for_three_hours()
    ```

CI runs this over ``README.md`` and ``docs/*.md`` (the ``docs`` job), and
``tests/test_docs.py`` unit-tests the extractor and the link check.

Usage::

    python tools/check_docs.py README.md docs/*.md
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

SKIP_MARKER = "docs-check: skip"

#: The target of an inline link or image, with an optional title.
_LINK = re.compile(r"\]\(\s*<?([^)\s>]+)>?(?:\s+[\"'][^)]*)?\)")
_INLINE_CODE = re.compile(r"`[^`\n]*`")
_SCHEME = re.compile(r"[a-zA-Z][a-zA-Z0-9+.-]*:")


@dataclass
class CodeBlock:
    """One fenced ``python`` block: source text plus its Markdown location."""

    path: Path
    start_line: int  # 1-based line of the opening fence
    source: str
    skipped: bool


def extract_blocks(path: Path) -> List[CodeBlock]:
    """Parse *path* and return every fenced ``python`` block in order."""
    blocks: List[CodeBlock] = []
    lines = path.read_text().splitlines()
    in_block = False
    fence = ""
    skip_next = False
    start = 0
    body: List[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block:
            if stripped.startswith(("```", "~~~")):
                fence = stripped[:3]
                info = stripped[3:].strip().lower()
                if info == "python" or info.startswith("python "):
                    in_block = True
                    start = lineno
                    body = []
                    blocks_skip = skip_next
                    skip_next = False
                    blocks.append(CodeBlock(path, start, "", blocks_skip))
                else:
                    skip_next = False
            else:
                skip_next = SKIP_MARKER in stripped
        else:
            if stripped.startswith(fence):
                in_block = False
                blocks[-1].source = "\n".join(body) + "\n"
            else:
                body.append(line)
    if in_block:
        raise ValueError(f"{path}: unterminated code fence opened at line {start}")
    return blocks


def dangling_links(path: Path) -> List[Tuple[int, str]]:
    """``(line, target)`` of every relative link in *path* whose target does
    not exist, resolved against the file's directory.  Text inside code
    fences and inline code spans is not scanned."""
    lines = []
    fence = ""
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if fence:
            if stripped.startswith(fence):
                fence = ""
            lines.append("")
        elif stripped.startswith(("```", "~~~")):
            fence = stripped[:3]
            lines.append("")
        else:
            lines.append(_INLINE_CODE.sub("", line))
    text = "\n".join(lines)
    dangling = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("#", "/")) or _SCHEME.match(target):
            continue
        file_part = target.split("#", 1)[0].split("?", 1)[0]
        if not (path.parent / file_part).exists():
            dangling.append((text.count("\n", 0, match.start()) + 1, target))
    return dangling


def run_file(path: Path, verbose: bool = True) -> int:
    """Execute every runnable block of *path*; returns the count executed."""
    blocks = extract_blocks(path)
    namespace = {"__name__": "__docs__", "__file__": str(path)}
    executed = 0
    for block in blocks:
        if block.skipped:
            if verbose:
                print(f"  {path}:{block.start_line}: skipped (marker)")
            continue
        # Compile with a filename that points back into the Markdown source
        # so tracebacks carry usable line numbers.
        padded = "\n" * block.start_line + block.source
        code = compile(padded, str(path), "exec")
        exec(code, namespace)  # noqa: S102 - executing our own documentation
        executed += 1
        if verbose:
            print(f"  {path}:{block.start_line}: ok")
    return executed


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="Markdown files to check")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    repo_root = Path.cwd().resolve()
    if str(repo_root / "src") not in sys.path and (repo_root / "src").is_dir():
        sys.path.insert(0, str(repo_root / "src"))

    total = 0
    failures = 0
    for path in args.files:
        if not path.is_file():
            print(f"{path}: no such file", file=sys.stderr)
            failures += 1
            continue
        resolved = path.resolve()
        links = dangling_links(resolved)
        for lineno, target in links:
            print(f"{path}:{lineno}: link to missing file {target!r}", file=sys.stderr)
        failed = bool(links)
        with tempfile.TemporaryDirectory(prefix="docs-check-") as tmp:
            old_cwd = os.getcwd()
            os.chdir(tmp)
            try:
                total += run_file(resolved, verbose=not args.quiet)
            except Exception:
                import traceback

                traceback.print_exc()
                failed = True
            finally:
                os.chdir(old_cwd)
        if failed:
            print(f"FAILED: {path}", file=sys.stderr)
            failures += 1
    print(f"{total} documentation example(s) executed, {failures} file(s) failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
