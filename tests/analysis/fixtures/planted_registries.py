"""Planted violations for registry-coherence (never imported).

A self-contained mini copy of the repo's two registries, each broken
in one of the ways the rule is meant to catch at PR time.
"""

from dataclasses import dataclass


class Fault:
    def describe(self):
        return {}


@dataclass
class CrashAt(Fault):
    at: float = 0.0


@dataclass
class ForgottenAtom(Fault):  # finding: leaf atom missing from FAULT_KINDS
    at: float = 0.0


class PlainAtom(Fault):  # finding: registered but not a @dataclass
    pass


@dataclass
class SneakyAtom(Fault):
    _hidden: int = 0  # finding: underscore field drops out of the round trip


class NotAFault:
    pass


FAULT_KINDS = {  # finding: NotAFault is not a Fault subclass
    "CrashAt": CrashAt,
    "PlainAtom": PlainAtom,
    "SneakyAtom": SneakyAtom,
    "NotAFault": NotAFault,
}


class WorkloadEngine:
    kind = "base"


class GoodEngine(WorkloadEngine):
    kind = "good"


class StealthEngine(WorkloadEngine):  # finding: unregistered + never deserialised
    kind = "stealth"


WORKLOAD_KINDS = {"good": GoodEngine}


def workload_from_dict(data):
    if data["kind"] == GoodEngine.kind:
        return GoodEngine()
    raise ValueError(data["kind"])
