"""Output checks: per-operation correctness and round-to-round determinism.

An operation fails if it raised, its safety check is inconsistent, it did
not reach its target height, or its matrix cell / the differential check
was not ok.  Every operation of a round fails if the round's vector of
deterministic values differs from the reference round's: the simulator is
seeded, so two rounds over the same inputs must count the same work.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable, Optional

from bench.workloads import Operation


def operation_failure(op: Operation) -> Optional[str]:
    """Why ``op`` failed, or ``None`` if its outputs are correct."""
    if op.error is not None:
        return op.error
    result = op.result
    if not result.safety.consistent:
        return f"safety violated: {list(result.safety.details)}"
    if result.min_committed_height < op.spec.target_height:
        return (
            f"stalled at height {result.min_committed_height} "
            f"< target {op.spec.target_height}"
        )
    return None


def report_failure(workload: str, op: Operation, reason: str) -> None:
    """Name a failed operation on stderr with the spec that reproduces it."""
    print(
        f"bench: FAILED {workload} [{op.label}]: {reason}\n"
        f"  spec: {json.dumps(op.describe(), sort_keys=True, default=str)}",
        file=sys.stderr,
    )


def check_round(workload: str, operations: Iterable[Operation]) -> int:
    """Count (and report) the failed operations of one round."""
    failed = 0
    for op in operations:
        reason = operation_failure(op)
        if reason is not None:
            failed += 1
            report_failure(workload, op, reason)
    return failed


def check_determinism(
    workload: str, reference: Dict[str, Any], observed: Dict[str, Any]
) -> bool:
    """Whether a round's deterministic values equal the reference round's;
    names every value that differs on stderr."""
    differing = sorted(
        name
        for name in reference.keys() | observed.keys()
        if reference.get(name) != observed.get(name)
    )
    if differing:
        print(
            f"bench: FAILED {workload}: round differs from the reference round on "
            + ", ".join(
                f"{name} ({reference.get(name)!r} -> {observed.get(name)!r})"
                for name in differing
            ),
            file=sys.stderr,
        )
    return not differing
