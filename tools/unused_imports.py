"""Unused-import audit: ``make lint``'s fallback where ruff is not installed.

``make lint`` is ``ruff check`` over src/tests/examples (ruff.toml).  The
development image has no ruff and no network to install it from, so for
six PRs the lint step went unrun and each PR repeated, by hand, the one
check it could do with the standard library: parse every file and report
imports nothing refers to.  This is that check, committed, so the standing
gate has a step that runs everywhere.  It is deliberately narrower than
ruff's F401 + the rule families ruff.toml selects; CI, which installs
ruff, still runs the real thing.

A name counts as used when the module reads it (``ast.Name``), lists it in
``__all__``, or mentions it in a string annotation.  ``__future__`` imports,
``import x as x`` / ``from m import x as x`` re-exports, every import of an
``__init__.py`` and lines marked ``# noqa`` are skipped, as is the detlint
fixture directory ruff.toml excludes.

    python tools/unused_imports.py [PATH ...]     (default: src tests examples)

Exits 1 when it reports anything.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

EXCLUDED = ("tests/analysis/fixtures",)
DEFAULT_PATHS = ("src", "tests", "examples")


def _imported(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import that is not an explicit re-export."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name.split(".")[-1]:
                    continue
                # ``import a.b`` binds ``a``.
                yield alias.asname or alias.name.split(".")[0], node.lineno


def _used(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # ``__all__`` entries and string annotations: cheap to over-accept.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def audit(path: Path) -> List[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used(tree)
    return [
        f"{path}:{line}: unused import {name!r}"
        for name, line in sorted(set(_imported(tree)), key=lambda item: item[1])
        if name not in used and "# noqa" not in lines[line - 1]
    ]


def main(argv: List[str]) -> int:
    findings: List[str] = []
    for root in argv or DEFAULT_PATHS:
        for path in sorted(Path(root).rglob("*.py")):
            if path.name == "__init__.py" or any(part in path.as_posix() for part in EXCLUDED):
                continue
            findings.extend(audit(path))
    print("\n".join(findings) if findings else "unused-import audit: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
