"""no-wall-clock: simulation code must live in virtual time.

Protocol, network, session and testkit code observing the host's clock
(``time.time``, ``datetime.now``, ``time.monotonic``) makes run results
a function of the machine, not the seed.  No module in ``src/repro`` is
exempt: host seconds are measured outside the package, by the ``bench/``
ledger.  The one allowlisted reader is ``time.perf_counter`` used for
duration measurement, because it never leaks into simulated state in this
codebase's idiom (and a misuse that does leak is caught by the fingerprint
battery).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register

#: ``module.attribute`` reads that are findings.
_BANNED_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "localtime"),
    ("time", "gmtime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}
#: ``from module import name`` forms that are findings.
_BANNED_FROM = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
}


@register
class WallClockChecker(Checker):
    name = "no-wall-clock"
    description = (
        "time.time/datetime.now/time.monotonic in sim/net/protocol/session "
        "code — simulation state must be a function of virtual time only "
        "(perf counters allowlisted)"
    )
    scope = "module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                key = (node.value.id, node.attr)
                if key in _BANNED_ATTRS:
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read {key[0]}.{key[1]}: simulation code must "
                        "use the simulator's virtual now (time.perf_counter is "
                        "the allowlisted way to measure host durations)",
                    )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                for alias in node.names:
                    if (root, alias.name) in _BANNED_FROM:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {root}.{alias.name}: wall-clock reads are "
                            "banned in simulation code",
                        )
