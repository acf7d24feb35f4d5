"""Check intra-repo links in the documentation.

Scans README.md, EXPERIMENTS.md, DESIGN.md, and docs/*.md for
references to repository files — markdown links ``[text](path)`` and
backtick-quoted paths like ``docs/architecture.md`` or
``tests/test_engine.py`` — and fails if any target does not exist.
Anchors (``#section``) and external URLs are ignored. Prose uses
several spellings for the same file (``engine.py`` inside a table
about ``memsim/``, ``cap/multidomain.py`` relative to ``src/repro``),
so a target is accepted when it resolves against the referencing
file's directory or the repo root, or when it is a path *suffix* of
some tracked file — a reference only fails when no file in the repo
matches it at all, which is exactly the rename/delete rot this guard
is for. Files that ``.gitignore`` matches (tool caches, the output of
local runs) do not count, because a fresh clone lacks them.

Usage::

    python tools/check_docs_links.py [root]

Prints each dangling reference as ``file:line: target``; exits 1 if
any were found.
"""

from __future__ import annotations

import os
import re
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

# [text](path) — markdown links, minus external schemes and bare anchors.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `path/to/file.ext` — backtick-quoted repo paths. Requires a slash or a
# doc/source suffix so `epoch_us`-style identifiers don't match.
CODE_REF = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|json|yml|toml))`")

EXTERNAL = ("http://", "https://", "mailto:")
# Skipped whatever .gitignore says: git's own data and local tool
# settings.
SKIP_DIRS = (".git", ".claude")


def skip_patterns(root: Path) -> List[str]:
    """``SKIP_DIRS`` plus every pattern of ``root/.gitignore``: a
    reference that resolves only to a file there would still dangle on
    a fresh clone."""
    patterns = list(SKIP_DIRS)
    gitignore = root / ".gitignore"
    if gitignore.is_file():
        for line in gitignore.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith(("#", "!")):
                patterns.append(line.rstrip("/"))
    return patterns


def is_skipped(rel: str, patterns: List[str]) -> bool:
    """Whether the root-relative POSIX path ``rel``, or a directory it
    lies in, matches a pattern. As in .gitignore, a pattern with a
    slash matches a path from the root (``bench/out``); one without
    matches a name at any depth (``__pycache__``, ``*.pyc``)."""
    parts = rel.split("/")
    for depth in range(1, len(parts) + 1):
        prefix = "/".join(parts[:depth])
        for pattern in patterns:
            if "/" in pattern:
                if fnmatchcase(prefix, pattern.lstrip("/")):
                    return True
            elif fnmatchcase(parts[depth - 1], pattern):
                return True
    return False


def file_index(root: Path, skipped: List[str]) -> List[str]:
    """POSIX-style relative paths of every file under ``root`` that no
    ``skipped`` pattern matches."""
    paths = []
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if not is_skipped(rel, skipped):
            paths.append(rel)
    return paths


def doc_files(root: Path) -> List[Path]:
    files = [root / "README.md", root / "EXPERIMENTS.md",
             root / "DESIGN.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


def references(path: Path) -> Iterator[Tuple[int, str]]:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in MD_LINK.finditer(line):
            yield lineno, match.group(1)
        for match in CODE_REF.finditer(line):
            yield lineno, match.group(1)


def resolves(target: str, source: Path, root: Path, index: List[str],
             skipped: List[str]) -> bool:
    target = target.split("#", 1)[0]
    if not target:  # pure anchor: [back](#layering)
        return True
    for path in (source.parent / target, root / target):
        rel = Path(os.path.relpath(path, root)).as_posix()
        if path.exists() and not is_skipped(rel, skipped):
            return True
    return any(path == target or path.endswith("/" + target)
               for path in index)


def dangling(root: Path) -> List[Tuple[Path, int, str]]:
    skipped = skip_patterns(root)
    index = file_index(root, skipped)
    bad = []
    for path in doc_files(root):
        for lineno, target in references(path):
            if target.startswith(EXTERNAL):
                continue
            if not resolves(target, path, root, index, skipped):
                bad.append((path, lineno, target))
    return bad


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else REPO
    bad = dangling(root)
    for path, lineno, target in bad:
        print(f"{path.relative_to(root)}:{lineno}: dangling link "
              f"-> {target}")
    if bad:
        print(f"{len(bad)} dangling reference(s)")
        return 1
    print(f"docs links OK ({len(doc_files(root))} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
