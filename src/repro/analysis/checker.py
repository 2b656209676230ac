"""The base class of a detlint rule.

A checker is a class with a unique kebab-case ``name``, a one-line
``description`` and one entry point, ``check(ctx)``, called once per
analyzed file with a :class:`~repro.analysis.context.ModuleContext`.
The rules detlint runs are the tuple :data:`repro.analysis.checkers.RULES`.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding


class Checker:
    """Base class for analyzer checkers."""

    #: Unique kebab-case rule name (used in reports and suppressions).
    name: str = ""
    #: One-line summary for ``--list-rules`` and the docs catalog.
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node, message: str) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        line = getattr(node, "lineno", node if isinstance(node, int) else 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=ctx.relpath, line=line, column=column, rule=self.name, message=message
        )
