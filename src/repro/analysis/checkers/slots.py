"""slots-discipline: hot-path value classes must declare ``__slots__``.

The PR 2 hot-path overhaul made :class:`repro.sim.events.Event` a
``__slots__`` handle, PR 4's :class:`repro.net.network.DisseminationPlan`
is a flat record, and :class:`repro.net.network.Flood` is the one record
every reception event of a broadcast carries — at n≥100 populations these
are the classes instantiated or touched per event/per hop, and a silently
re-grown ``__dict__`` (e.g. from a refactor that drops the declaration, or
a subclass that forgets its own empty ``__slots__``) is a memory and
cache-locality regression no test measures directly.

The rule: every class whose name is in :data:`HOT_CLASSES` — and every
subclass of one, anywhere in the analyzed set — must declare
``__slots__`` in its class body (subclasses need their own declaration,
otherwise instances grow a dict regardless of the base).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext, ProjectIndex
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register

#: Hot-path class names held to the ``__slots__`` contract.  Extend this
#: set when a new per-event/per-hop record class ships.
HOT_CLASSES = frozenset({"Event", "DisseminationPlan", "Flood"})


def _declares_slots(cls: ast.ClassDef) -> bool:
    for node in cls.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


@register
class SlotsDisciplineChecker(Checker):
    name = "slots-discipline"
    description = (
        "hot-path classes (Event, DisseminationPlan, Flood and their subclasses) "
        "must declare __slots__ — per-event records cannot afford a __dict__"
    )
    scope = "project"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        required = set(HOT_CLASSES)
        for name in HOT_CLASSES:
            required.update(index.transitive_subclasses(name))
        for name in sorted(required):
            entry = index.classes.get(name)
            if entry is None:
                continue
            ctx, cls = entry
            if not _declares_slots(cls):
                yield self._missing(ctx, cls)

    def _missing(self, ctx: ModuleContext, cls: ast.ClassDef) -> Finding:
        return self.finding(
            ctx,
            cls,
            f"hot-path class {cls.name} does not declare __slots__ "
            "(subclasses need their own, usually empty, declaration)",
        )
