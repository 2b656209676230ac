"""The pluggable checker registry for the determinism analyzer.

A checker is a class with a unique kebab-case ``name``, a one-line
``description`` and one entry point, ``check(ctx)``, called once per
analyzed file with a :class:`~repro.analysis.context.ModuleContext`.

Checkers register themselves with :func:`register` at import time; the
:mod:`repro.analysis.checkers` package imports every built-in checker
module, so constructing a :class:`CheckerRegistry` from
:func:`default_registry` yields the shipped rule set.  Third-party or
test-local checkers register the same way — see ``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Type

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
        return iter(())

    def finding(self, ctx: ModuleContext, node, message: str) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        line = getattr(node, "lineno", node if isinstance(node, int) else 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=ctx.relpath, line=line, column=column, rule=self.name, message=message
        )


class CheckerRegistry:
    """An ordered, name-keyed collection of checker classes."""

    def __init__(self) -> None:
        self._checkers: Dict[str, Type[Checker]] = {}

    def register(self, checker_cls: Type[Checker]) -> Type[Checker]:
        name = checker_cls.name
        if not name:
            raise ValueError(f"checker {checker_cls.__name__} has no rule name")
        existing = self._checkers.get(name)
        if existing is not None and existing is not checker_cls:
            raise ValueError(f"duplicate checker name {name!r}")
        self._checkers[name] = checker_cls
        return checker_cls

    def names(self) -> List[str]:
        return sorted(self._checkers)

    def describe(self) -> List[Dict[str, str]]:
        return [
            {"rule": name, "description": self._checkers[name].description}
            for name in self.names()
        ]

    def instantiate(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> List[Checker]:
        """Checkers to run, honouring ``--select`` / ``--ignore`` scoping."""
        names = self.names()
        if select:
            unknown = sorted(set(select) - set(names))
            if unknown:
                raise KeyError(f"unknown rule(s) {unknown}; known: {names}")
            names = [name for name in names if name in set(select)]
        if ignore:
            unknown = sorted(set(ignore) - set(self.names()))
            if unknown:
                raise KeyError(f"unknown rule(s) {unknown}; known: {self.names()}")
            names = [name for name in names if name not in set(ignore)]
        return [self._checkers[name]() for name in names]


#: The global default registry the built-in checkers register into.
_default = CheckerRegistry()


def register(checker_cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the default registry."""
    return _default.register(checker_cls)


def default_registry() -> CheckerRegistry:
    """The registry holding every built-in checker (imports them lazily)."""
    import repro.analysis.checkers  # noqa: F401  (registers on import)

    return _default
