#!/usr/bin/env python
"""Check documentation linkage both ways.

1. Every file under docs/ is linked from README.md — the docs tree is
   only useful if it is discoverable from the front page, so a new
   docs page cannot land unlinked.
2. Every repo-relative markdown link in README.md and docs/*.md
   resolves to an existing file — a renamed or deleted page cannot
   leave dangling references behind.

Link syntax inside fenced code blocks and inline code spans is code,
not a link (``[E | B | s](h)`` in a formula), so both are skipped.

CI runs this; exits non-zero listing any violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Markdown inline links: capture the target inside ](...), dropping
#: any #fragment. External schemes are filtered out afterwards.
_LINK = re.compile(r"\]\(([^)#\s]+)(?:#[^)]*)?\)")
#: An opening or closing code fence: three or more backticks or tildes.
_FENCE = re.compile(r" {0,3}(`{3,}|~{3,})")
#: An inline code span: a backtick run closed by a run of equal length.
_CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`).+?(?<!`)\1(?!`)", re.S)


def prose(text: str) -> str:
    """``text`` without its fenced code blocks and inline code spans."""
    kept, fence = [], None
    for line in text.splitlines():
        match = _FENCE.match(line)
        if fence is None:
            if match:
                fence = match.group(1)
            else:
                kept.append(line)
        elif match and set(line.strip()) == {fence[0]} and len(line.strip()) >= len(fence):
            fence = None
    return _CODE_SPAN.sub("", "\n".join(kept))


def unlinked_docs(repo_root: Path) -> list:
    readme = prose((repo_root / "README.md").read_text())
    linked = set(re.findall(r"\]\(((?:\./)?docs/[^)#]+)\)", readme))
    missing = []
    for page in sorted((repo_root / "docs").rglob("*")):
        if page.is_dir():
            continue
        relative = page.relative_to(repo_root).as_posix()
        if relative not in linked and f"./{relative}" not in linked:
            missing.append(relative)
    return missing


def broken_links(repo_root: Path) -> list:
    """(source, target) pairs for repo-relative links that don't resolve."""
    sources = [repo_root / "README.md"] + sorted((repo_root / "docs").glob("*.md"))
    broken = []
    for source in sources:
        base = source.parent
        for target in _LINK.findall(prose(source.read_text())):
            if "://" in target or target.startswith("mailto:"):
                continue
            if not (base / target).exists():
                broken.append((source.relative_to(repo_root).as_posix(), target))
    return broken


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    if not (repo_root / "docs").is_dir():
        print("no docs/ directory", file=sys.stderr)
        return 1
    failed = False
    for path in unlinked_docs(repo_root):
        print(f"NOT LINKED from README.md: {path}", file=sys.stderr)
        failed = True
    for source, target in broken_links(repo_root):
        print(f"BROKEN LINK in {source}: {target}", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(
        "docs check: every docs/ file is linked from README.md "
        "and every relative link resolves"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
