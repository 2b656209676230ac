"""Partition catch-up and crash-recovery state transfer.

A node that exits a :class:`~repro.testkit.faults.PartitionWindow` (or
reboots after a :class:`~repro.testkit.faults.CrashRecoverWindow`) is no
longer pardoned from liveness forever: a :class:`RecoveryController`
wakes at the heal time and drives block/QC catch-up from live peers —
per-request timeouts, bounded retries, exponential backoff with
deterministic seeded jitter, and peer rotation on failure — over the
normal dissemination medium, so radio and crypto energy accounting stays
honest.  The replica-side serve/adopt handlers live on
:class:`~repro.core.replica_base.BaseReplica`; the liveness invariant
holds the healed node to the full target once
``heal + CATCH_UP_GRACE`` has passed (see
:meth:`~repro.testkit.faults.FaultSchedule.liveness_exempt_nodes`).

See ``docs/recovery.md`` for the protocol and parameters.
"""

from repro.recovery.controller import RecoveryController

__all__ = [
    "RecoveryController",
]
