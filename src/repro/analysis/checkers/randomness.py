"""no-unseeded-randomness: all randomness flows through the seeded RNG.

Anywhere under ``src/repro`` except :mod:`repro.sim.rng` itself, the
following are findings:

* ``import random`` / ``from random import ...`` — use
  :class:`repro.sim.rng.SeededRNG` streams instead;
* ``import secrets`` / ``from secrets import ...`` — nothing in the
  simulation needs cryptographic randomness (signatures are modelled);
* ``os.urandom(...)`` — OS entropy can never be replayed;
* ``uuid.uuid1``/``uuid.uuid4`` (and their ``from uuid import`` forms) —
  ids must be derived from the command/flood namespaces.

A stray ``random.random()`` on any code path silently breaks golden
trace fingerprints in a way the dynamic battery only catches if a matrix
cell happens to execute that path — this rule catches it at PR time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.checker import Checker

#: The one module allowed to touch ``random``: the seeded-RNG wrapper.
EXEMPT_MODULES = ("repro.sim.rng",)

_BANNED_IMPORTS = {
    "random": "use a SeededRNG child stream (repro.sim.rng) instead",
    "secrets": "simulation code must not draw OS entropy",
}
_BANNED_ATTRS = {
    ("os", "urandom"): "os.urandom can never be replayed; derive bytes from SeededRNG",
    ("uuid", "uuid1"): "uuid1 mixes in wall clock and MAC; derive ids from the seed",
    ("uuid", "uuid4"): "uuid4 draws OS entropy; derive ids from the seed",
}
_BANNED_FROM = {
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}


class UnseededRandomnessChecker(Checker):
    name = "no-unseeded-randomness"
    description = (
        "random/secrets/os.urandom/uuid4 outside repro.sim.rng — all "
        "randomness must flow through derive_seed/SeededRNG streams"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_module(*EXEMPT_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    hint = _BANNED_IMPORTS.get(root)
                    if hint is not None:
                        yield self.finding(ctx, node, f"import of {alias.name!r}: {hint}")
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_IMPORTS:
                    yield self.finding(
                        ctx, node, f"import from {root!r}: {_BANNED_IMPORTS[root]}"
                    )
                else:
                    for alias in node.names:
                        if (root, alias.name) in _BANNED_FROM:
                            yield self.finding(
                                ctx,
                                node,
                                f"import of {root}.{alias.name}: "
                                f"{_BANNED_ATTRS[(root, alias.name)]}",
                            )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hint = _BANNED_ATTRS.get((node.value.id, node.attr))
                if hint is not None:
                    yield self.finding(
                        ctx, node, f"use of {node.value.id}.{node.attr}: {hint}"
                    )
