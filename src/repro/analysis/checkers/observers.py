"""observer-signature-drift: bus dispatch matches the observer protocol.

The :class:`~repro.session.observers.SessionObserver` protocol is
duck-typed — nothing but convention keeps the
:class:`~repro.session.observers.ObserverBus` dispatch methods, the
``OBSERVER_HOOKS`` tuple, and the substrates' ``session.bus.X(...)``
call sites in agreement.  A drifted arity (say, adding a ``view`` arg to
``on_block_commit`` without updating the bus) raises only when the hook
actually fires, which under-observed CI runs may never do.

Checks (each skipped when its anchor class is absent from the file set):

* every ``observer.on_X(...)`` dispatch inside ``ObserverBus`` targets a
  hook ``SessionObserver`` defines, with exactly the hook's arity;
* ``OBSERVER_HOOKS`` lists exactly the ``on_*`` methods of
  ``SessionObserver`` (both directions);
* every project-wide call through a bus receiver (``bus.X(...)``,
  ``session.bus.X(...)``, ``self.bus.X(...)``) of a known dispatch
  method passes exactly the dispatch arity.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.context import ProjectIndex
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register


def _positional_arity(func: ast.FunctionDef) -> int:
    """Positional parameter count excluding ``self``."""
    args = func.args
    count = len(args.posonlyargs) + len(args.args)
    if count and (args.posonlyargs or args.args)[0].arg == "self":
        count -= 1
    return count


def _is_bus_receiver(node: ast.AST) -> bool:
    """Whether ``node`` is a bus object by naming convention."""
    if isinstance(node, ast.Name):
        return node.id in ("bus", "_bus", "observer_bus")
    if isinstance(node, ast.Attribute):
        return node.attr in ("bus", "_bus", "observer_bus")
    return False


@register
class ObserverSignatureDriftChecker(Checker):
    name = "observer-signature-drift"
    description = (
        "ObserverBus dispatch and bus call sites must match SessionObserver "
        "hook signatures — duck-typed drift only raises when the hook fires"
    )
    scope = "project"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        observer_entry = index.classes.get("SessionObserver")
        if observer_entry is None:
            return
        _, observer_cls = observer_entry
        hooks: Dict[str, int] = {
            node.name: _positional_arity(node)
            for node in observer_cls.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("on_")
        }

        hooks_tuple = index.assignment("OBSERVER_HOOKS")
        if hooks_tuple is not None:
            tuple_ctx, tuple_node = hooks_tuple
            listed = {
                n.value
                for n in ast.walk(tuple_node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
            for name in sorted(set(hooks) - listed):
                yield self.finding(
                    tuple_ctx,
                    tuple_node,
                    f"SessionObserver hook {name} is missing from OBSERVER_HOOKS "
                    "— CallbackObserver would reject it",
                )
            for name in sorted(listed - set(hooks)):
                yield self.finding(
                    tuple_ctx,
                    tuple_node,
                    f"OBSERVER_HOOKS lists {name}, which SessionObserver does "
                    "not define",
                )

        dispatch: Dict[str, int] = {}
        bus_entry = index.classes.get("ObserverBus")
        if bus_entry is not None:
            bus_ctx, bus_cls = bus_entry
            for method in bus_cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                hook_call = self._hook_call(method)
                if hook_call is None:
                    continue
                dispatch[method.name] = _positional_arity(method)
                hook_name = hook_call.func.attr  # type: ignore[union-attr]
                arity = len(hook_call.args) + len(hook_call.keywords)
                if hook_name not in hooks:
                    yield self.finding(
                        bus_ctx,
                        hook_call,
                        f"ObserverBus.{method.name} dispatches to {hook_name}, "
                        "which SessionObserver does not define",
                    )
                elif arity != hooks[hook_name]:
                    yield self.finding(
                        bus_ctx,
                        hook_call,
                        f"ObserverBus.{method.name} calls {hook_name} with "
                        f"{arity} argument(s); SessionObserver.{hook_name} "
                        f"takes {hooks[hook_name]}",
                    )

        if not dispatch:
            return
        for ctx in index.contexts:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute) or func.attr not in dispatch:
                    continue
                if not _is_bus_receiver(func.value):
                    continue
                arity = len(node.args) + len(node.keywords)
                if arity != dispatch[func.attr]:
                    yield self.finding(
                        ctx,
                        node,
                        f"bus.{func.attr} called with {arity} argument(s); "
                        f"the ObserverBus dispatch takes {dispatch[func.attr]}",
                    )

    @staticmethod
    def _hook_call(method: ast.FunctionDef) -> Optional[ast.Call]:
        """The ``observer.on_X(...)`` call inside a dispatch loop, if any."""
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr.startswith("on_")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "observer"
            ):
                return node
        return None
