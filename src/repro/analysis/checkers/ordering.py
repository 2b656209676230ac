"""ordered-iteration: never iterate a bare ``set`` on an order-sensitive path.

CPython iterates sets in hash-table order.  For small ints that order is
deterministic *today*, but it is an implementation accident — and for
strings it varies per process with ``PYTHONHASHSEED``.  Any set
iteration whose order can reach an ordered sink (event scheduling, trace
emission, fingerprint hashing, float accumulation) is therefore a latent
determinism bug that no golden-fingerprint test reliably catches.

The rule flags iteration constructs over expressions *statically known*
to be sets (set displays, comprehensions, ``set()``/``frozenset()``
calls, set algebra, and local names bound only to those — see
:func:`repro.analysis.context.set_bindings`):

* ``for x in s:`` and async variants;
* comprehension generators (``[f(x) for x in s]``);
* order-preserving materialisations: ``list(s)``, ``tuple(s)``,
  ``"sep".join(s)``.

Wrapping the set in ``sorted(...)`` resolves the finding; genuinely
order-insensitive uses (building another set/dict for membership) are
suppressed inline with a reason.  Dicts are insertion-ordered in
Python ≥ 3.7, so dict iteration is deterministic whenever insertion is
and is deliberately not flagged — the hazard this rule hunts is the
unordered container.
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
from repro.analysis.checker import Checker

#: Builtin calls that materialise their iterable in iteration order.
_ORDERED_MATERIALISERS = {"list", "tuple"}


class OrderedIterationChecker(Checker):
    name = "ordered-iteration"
    description = (
        "iteration over a set without sorted(...) — set order is a hash-table "
        "accident and must never reach scheduling/trace/fingerprint sinks"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope in walk_scopes(ctx.tree):
            bound = set_bindings(scope)
            for node in scope_statements(scope):
                yield from self._check_node(ctx, node, bound)

    def _check_node(self, ctx: ModuleContext, node: ast.AST, bound) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if is_known_set(node.iter, bound):
                yield self.finding(
                    ctx,
                    node.iter,
                    "for-loop over a set: wrap the iterable in sorted(...) or "
                    "suppress with the reason the order cannot matter",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if is_known_set(generator.iter, bound):
                    yield self.finding(
                        ctx,
                        generator.iter,
                        "comprehension over a set: wrap the iterable in "
                        "sorted(...) or suppress with a reason",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDERED_MATERIALISERS
                and len(node.args) == 1
                and is_known_set(node.args[0], bound)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{func.id}(...) over a set materialises hash order: "
                    "use sorted(...) instead",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and len(node.args) == 1
                and is_known_set(node.args[0], bound)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "str.join over a set concatenates in hash order: "
                    "join sorted(...) instead",
                )
