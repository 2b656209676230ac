"""no-float-accumulation-order: float sums need a defined order.

Float addition is not associative: ``sum()`` over an *unordered*
collection yields a value that depends on hash-table order.  In the
energy and metrics paths — where totals feed the energy-conservation
invariant, SLO summaries and trace fingerprints — that is a determinism
bug even when every element is itself deterministic.

The rule flags, in float-bearing modules (:data:`FLOAT_MODULES`):

* ``sum(<set expression>)``;
* ``sum(<generator/comprehension> for ... in <set expression>)``.

Fix by summing ``sorted(...)`` elements, a list with a defined build
order, or ``math.fsum`` over a sorted iterable.  Dict views are not
flagged: dicts iterate in insertion order, so their sums are exactly as
deterministic as their construction (which the other rules police).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import (
    ModuleContext,
    is_known_set,
    scope_statements,
    set_bindings,
    walk_scopes,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register

#: Module prefixes whose ``sum`` calls are float-bearing (energy/metrics).
FLOAT_MODULES = (
    "repro.energy",
    "repro.session.metrics",
    "repro.testkit.invariants",
    "repro.crypto.energy_costs",
)


@register
class FloatAccumulationChecker(Checker):
    name = "no-float-accumulation-order"
    description = (
        "sum() over an unordered set in energy/metrics code — float addition "
        "is order-sensitive, so unordered accumulation is nondeterministic"
    )
    scope = "module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_module(*FLOAT_MODULES):
            return
        for scope in walk_scopes(ctx.tree):
            bound = set_bindings(scope)
            for node in scope_statements(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Name) and func.id == "sum") or not node.args:
                    continue
                arg = node.args[0]
                unordered = is_known_set(arg, bound)
                if not unordered and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    unordered = any(
                        is_known_set(generator.iter, bound) for generator in arg.generators
                    )
                if unordered:
                    yield self.finding(
                        ctx,
                        node,
                        "float accumulation over a set has hash-dependent "
                        "order: sum sorted(...) elements instead",
                    )
