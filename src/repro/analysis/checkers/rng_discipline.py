"""rng-stream-discipline: RNG streams are derived, never improvised.

The repo's randomness architecture gives every consumer its own child
stream — ``SeededRNG(derive_seed(root, *labels))`` or ``rng.child(...)``
— so adding a consumer never perturbs existing streams.  Three idioms
break that architecture and are flagged outside :mod:`repro.sim.rng`:

* ``SeededRNG(<literal>)`` — a hard-coded root seed creates a stream
  that collides with every other hard-coded stream and is invisible to
  the experiment's seed plumbing.  Derive from the spec seed instead.
* ``<rng>.seed(...)`` — re-seeding an existing generator in place
  rewinds a stream other subsystems may share; build a child instead.
* ``random.Random(...)`` — bypasses the wrapper entirely (and the
  labelled derivation that keeps streams independent).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.checker import Checker

EXEMPT_MODULES = ("repro.sim.rng",)


def _is_literal_number(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_literal_number(node.operand)
    return False


class RngStreamDisciplineChecker(Checker):
    name = "rng-stream-discipline"
    description = (
        "RNG streams must come from derive_seed/rng.child — no hard-coded "
        "SeededRNG(<literal>), in-place .seed(), or raw random.Random"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_module(*EXEMPT_MODULES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "SeededRNG":
                if node.args and _is_literal_number(node.args[0]):
                    yield self.finding(
                        ctx,
                        node,
                        "SeededRNG with a hard-coded seed: derive the stream "
                        "from the spec seed (SeededRNG(derive_seed(seed, ...)) "
                        "or rng.child(...)) so streams stay independent",
                    )
            elif isinstance(func, ast.Attribute) and func.attr == "seed":
                # Re-seeding any generator object in place.  ``self.seed``
                # attribute *reads* are fine; only calls are flagged.
                yield self.finding(
                    ctx,
                    node,
                    "in-place .seed(...) call rewinds a possibly shared "
                    "stream: build a child stream with rng.child(...) instead",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "Random"
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "raw random.Random bypasses the seeded-stream wrapper: "
                    "use SeededRNG / rng.child",
                )
