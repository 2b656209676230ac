"""The order in which ``SessionBuilder.build()`` pushes simulator events.

Events pushed at build time take queue sequence numbers in push order, so
the order decides how same-time events interleave for the whole run.  Each
spec here mixes fail-stops, ``workload:arrival`` events and a fault
window's events in one build, which no trace pin does:

* replicated baselines push fail-stops in pid order, then the arrivals,
  then the schedule's own events;
* the trusted baseline pushes the arrivals, then the leaf fail-stops, then
  the schedule's events;
* EESMR's adversary arms itself at start, so its build pushes no
  fail-stop: arrivals, then the schedule's events.

The ``(label, time)`` lists were recorded with the staged builder (one
``build_*_stage`` method per artifact).  Update them only for an
intentional change to the build order, and say why.
"""

import pytest

from repro.eval.runner import DeploymentSpec
from repro.session.builder import SessionBuilder
from repro.testkit.faults import (
    CrashAt,
    EquivocateAt,
    FaultSchedule,
    PartitionWindow,
    RelayDropWindow,
)
from repro.workload import OpenLoopPoisson
from tests.conftest import record_scheduled

ARRIVALS = [
    ("workload:arrival", 0.11044427968510034),
    ("workload:arrival", 1.0138552087912671),
    ("workload:arrival", 1.157806916763286),
    ("workload:arrival", 1.534320772996642),
    ("workload:arrival", 2.205488684854034),
    ("workload:arrival", 3.9652960464344345),
]
CRASHES = [("crash", 2.0), ("crash", 2.5)]
DROP_WINDOW = [("fault:drop-on@1", 1.0), ("fault:drop-off@1", 3.0)]

#: protocol -> (faults, the (label, time) list build() pushes, in push order)
CASES = {
    "sync-hotstuff": (
        (CrashAt(4, 2.5), CrashAt(2, 2.0), RelayDropWindow(1, 1.0, 3.0)),
        CRASHES + ARRIVALS + DROP_WINDOW,
    ),
    "trusted-baseline": (
        (CrashAt(4, 2.5), CrashAt(2, 2.0), RelayDropWindow(1, 1.0, 3.0)),
        ARRIVALS + CRASHES + DROP_WINDOW,
    ),
    "eesmr": (
        (EquivocateAt(0, 2), PartitionWindow(2, 1.5, 3.5)),
        ARRIVALS + [("fault:partition@2", 1.5), ("fault:heal@2", 3.5)],
    ),
}


@pytest.mark.parametrize("protocol", sorted(CASES))
def test_build_pushes_events_in_the_pinned_order(protocol):
    faults, expected = CASES[protocol]
    spec = DeploymentSpec(
        protocol=protocol,
        n=7,
        f=2,
        k=2,
        target_height=3,
        seed=11,
        workload=OpenLoopPoisson(rate=1.5, duration=4.0),
        fault_schedule=FaultSchedule(faults),
    )
    builder = SessionBuilder(spec)
    scheduled = record_scheduled(builder.sim)
    builder.build()
    pushed = [
        (event.label() if callable(event.label) else event.label, event.time)
        for event in scheduled
    ]
    assert pushed == expected
