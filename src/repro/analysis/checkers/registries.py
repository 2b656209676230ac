"""registry-coherence: serializer registries match the class inventory.

Two registries make ``DeploymentSpec.to_dict``/``from_dict`` a true
round trip; each is checked by cross-referencing the class ASTs against
the serializer ASTs, so the rule fires at PR time when someone adds an
atom/engine/field and forgets the registry side:

* **fault atoms** — every *leaf* subclass of ``Fault`` (public, i.e.
  not underscore-prefixed; intermediate bases like ``ByzantineFault``
  may stay unregistered) must appear in ``FAULT_KINDS``, must be a
  ``@dataclass`` (``fault_from_dict`` rebuilds through ``from_fields``),
  and must not declare underscore-prefixed dataclass fields
  (:meth:`Fault.describe` skips them, so they would silently drop out
  of the round trip).  Names in ``FAULT_KINDS`` must resolve to actual
  ``Fault`` subclasses.
* **workload engines** — every leaf subclass of ``WorkloadEngine`` must
  appear in ``WORKLOAD_KINDS`` *and* be constructed somewhere in
  ``workload_from_dict`` (by name, or by dispatching through the registry).

Each sub-check anchors on names (``Fault`` + ``FAULT_KINDS`` and so on)
and silently skips when its anchors are absent from the analyzed file
set, so scoped runs and self-test fixtures work without the real tree.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.analysis.context import (
    ProjectIndex,
    dataclass_fields,
    has_decorator,
    names_in,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register


@register
class RegistryCoherenceChecker(Checker):
    name = "registry-coherence"
    description = (
        "FAULT_KINDS/WORKLOAD_KINDS must match the class inventory — "
        "unregistered atoms break spec round-trips silently"
    )
    scope = "project"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_fault_registry(index)
        yield from self._check_workload_registry(index)

    # ----------------------------------------------------------- fault atoms
    def _check_fault_registry(self, index: ProjectIndex) -> Iterator[Finding]:
        if "Fault" not in index.classes:
            return
        registry = index.assignment("FAULT_KINDS")
        if registry is None:
            return
        registry_ctx, registry_node = registry
        registered = names_in(registry_node.value) & set(index.classes)
        subclasses = index.transitive_subclasses("Fault")
        leaves = {
            name
            for name in index.leaf_subclasses("Fault")
            if not name.startswith("_")
        }
        for name in sorted(leaves - registered):
            ctx, cls = index.classes[name]
            yield self.finding(
                ctx,
                cls,
                f"fault atom {name} is not registered in FAULT_KINDS — "
                "schedule_from_dict cannot rebuild it, so specs, corpus "
                "entries and the fuzzer never see it",
            )
        for name in sorted(registered - subclasses):
            yield self.finding(
                registry_ctx,
                registry_node,
                f"FAULT_KINDS entry {name} is not a Fault subclass",
            )
        for name in sorted(registered & subclasses):
            ctx, cls = index.classes[name]
            if not has_decorator(cls, "dataclass"):
                yield self.finding(
                    ctx,
                    cls,
                    f"registered fault atom {name} is not a @dataclass — "
                    "fault_from_dict rebuilds atoms with cls(**fields)",
                )
                continue
            for field_name, field_node in dataclass_fields(cls):
                if field_name.startswith("_"):
                    yield self.finding(
                        ctx,
                        field_node,
                        f"fault atom {name} declares underscore field "
                        f"{field_name!r}: Fault.describe skips it, so it "
                        "silently drops out of the to_dict/from_dict round "
                        "trip — rename it or make it runtime-only state",
                    )

    # ------------------------------------------------------ workload engines
    def _check_workload_registry(self, index: ProjectIndex) -> Iterator[Finding]:
        if "WorkloadEngine" not in index.classes:
            return
        registry = index.assignment("WORKLOAD_KINDS")
        if registry is None:
            return
        registry_ctx, registry_node = registry
        registered = names_in(registry_node.value) & set(index.classes)
        leaves = {
            name
            for name in index.leaf_subclasses("WorkloadEngine")
            if not name.startswith("_")
        }
        deserializer = index.function("workload_from_dict")
        handled: Set[str] = set()
        if deserializer is not None:
            names = names_in(deserializer[1])
            handled = names & set(index.classes)
            if "WORKLOAD_KINDS" in names:  # dispatches through the registry
                handled |= registered
        for name in sorted(leaves - registered):
            ctx, cls = index.classes[name]
            yield self.finding(
                ctx,
                cls,
                f"workload engine {name} is not registered in WORKLOAD_KINDS",
            )
        for name in sorted(leaves - handled if deserializer is not None else set()):
            ctx, cls = index.classes[name]
            yield self.finding(
                ctx,
                cls,
                f"workload engine {name} is never constructed in "
                "workload_from_dict — its describe() output cannot round-trip",
            )
        subclasses = index.transitive_subclasses("WorkloadEngine")
        for name in sorted(registered - subclasses):
            yield self.finding(
                registry_ctx,
                registry_node,
                f"WORKLOAD_KINDS entry {name} is not a WorkloadEngine subclass",
            )
