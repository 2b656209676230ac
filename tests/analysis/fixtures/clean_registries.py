"""Clean counterpart for registry-coherence: a coherent mini registry.

Also exercises the exemptions: intermediate bases (WindowFault) and
underscore-prefixed helpers (_ProbeAtom) may stay unregistered.
"""

from dataclasses import dataclass


class Fault:
    def describe(self):
        return {}


class WindowFault(Fault):
    """Intermediate base — exempt because CrashAt inherits from it."""


@dataclass
class CrashAt(WindowFault):
    at: float = 0.0


@dataclass
class StallAt(Fault):
    at: float = 0.0
    duration: float = 1.0


class _ProbeAtom(Fault):
    """Underscore-prefixed test helper — exempt from registration."""


FAULT_KINDS = {
    "CrashAt": CrashAt,
    "StallAt": StallAt,
}


class WorkloadEngine:
    kind = "base"


class GoodEngine(WorkloadEngine):
    kind = "good"


WORKLOAD_KINDS = {"good": GoodEngine}


def workload_from_dict(data):
    if data["kind"] == GoodEngine.kind:
        return GoodEngine()
    raise ValueError(data["kind"])
