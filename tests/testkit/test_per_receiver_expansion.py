"""One event per k-cast transmission, expanded, is the per-receiver trace.

A k-cast's receivers hear it at the same instant, so an unimpaired
transmission is one simulator event whose traced label lists them
(``net:flood7->2,3``).  Until the change that made it so, each receiver had
its own event (``net:flood7->2``, ``net:flood7->3``) at the same time with
consecutive sequence numbers, so nothing could fire between them and the
handler now runs them back to back in the same order.  Splitting every edge
event back into per-receiver labels, and counting the extra events in
``executed_events``, therefore reproduces the per-receiver trace byte for
byte: it must hash to the value pinned before the change.

``PER_RECEIVER`` holds those values for every pinned spec whose trace has a
multi-receiver edge event: the replicated protocols' golden runs, the
plan-invalidation fault windows, the faulty leaders and the stacked window
schedule on a clean wire.  The other pinned specs (trusted baseline, and
every run on an impaired wire, where each receiver keeps its own event)
kept their fingerprints.  The 9 faulty-leader values were re-pinned with
their event-plane pins, for the same reason: the spec's ``faults`` entry
became the lowered atom list.
"""

import re

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import RunTrace, TraceRecorder
from tests.net.test_plan_invalidation import BASE, UNCOMPILED
from tests.testkit.test_event_plane_pins import LEADER_FAULTS, faulty_leader_spec, stacked_spec
from tests.testkit.test_golden_fingerprints import WIFI_N9, golden_spec

EDGE_LABEL = re.compile(r"net:flood(\d+)->(\d+(?:,\d+)+)")

#: case -> the fingerprint pinned while every reception was its own event.
PER_RECEIVER = {
    "golden/eesmr": "72d19228588db71b0ad1945c483277a9483ddaef052ac7f05e5531f7fff7e95a",
    "golden/sync-hotstuff": "de3063f61010a05b8a6c4f5b3937a4bc78f6aba98c3536b117f714f21f6fc0a3",
    "golden/optsync": "6be1584db7805fd72c2cf74f5d35f0dc5a6fd10ec8f8242ae3416e8663c4d72f",
    "golden/wifi-n9": "43c14c5c7956a2fc1a92034295a69ef03bfcadbe816aa2b6af2d1f50f1a3047a",
    "relay-drop-window": "790e2d29f7523ae994148cb96f20fde061d0fbc52d06e363e3ca343b0ba1b28e",
    "partition-heal": "817452e16593ef1531fe7b9cf93f86b939f4954cb52fdb2cd81a27bf8f730c74",
    "silent_leader/eesmr": "4c85022206dbcdf8664e90a66f39dfe9cfe1f6e2a774736cb913135aa955e8de",
    "equivocate/eesmr": "6510c6c9f5e1441dba5522f0bcd07a3cd905fe8a927c50aaa6b13d551cab2825",
    "crash/eesmr": "f67ad6b91ff9d9c41f28fc02c4860005b7fc76800fe9f76212df2fa8aa4af501",
    "silent_leader/sync-hotstuff": "a4da09bb9e9be0b4afd6a22571f5710c8447b1950a104b1579d454228d662392",
    "equivocate/sync-hotstuff": "f887b673deb9214bcb43568d8fcffe24c4e8167e035d000fc64c3c81b8fba748",
    "crash/sync-hotstuff": "4a6d79b8c5d817982f8d1db948f3c02053d37c176b6b3e52d7f512b3ffd8a732",
    "silent_leader/optsync": "777c2f9b076cce05694c7737e87868cf268789724f105d125887f75822d18086",
    "equivocate/optsync": "5580816f75342417a6d805a402a9f05a381fe9f15f0db51902c242570ec12cc0",
    "crash/optsync": "438a5a3d201f169ca0b6067309bd96bb0dcddfd78c899d7004d38b855ed8f8af",
    "stacked/eesmr": "5ade78a67b4a8814c1825aea5219a1d207a09d6278a45f49713cefab268c335e",
    "stacked/sync-hotstuff": "ed84237ed1e4db104abeabea2a0a3ab448204d99511ad2af6202556966011e4c",
    "stacked/optsync": "3dd56c4811b4214d4bfaa4b7b3690c9b83d4e33f003d50159c52f7785503934e",
}


def spec_for(case: str) -> DeploymentSpec:
    kind, _, protocol = case.partition("/")
    if kind == "golden":
        return WIFI_N9 if protocol == "wifi-n9" else golden_spec(protocol)
    if kind in UNCOMPILED:
        return DeploymentSpec(**BASE, fault_schedule=UNCOMPILED[kind][0]())
    if kind in LEADER_FAULTS:
        return faulty_leader_spec(kind, protocol)
    return stacked_spec(protocol)


def expand(trace: RunTrace) -> RunTrace:
    """Split each multi-receiver edge event into one event per receiver."""
    events = []
    for time, label in trace.events:
        match = EDGE_LABEL.fullmatch(label)
        if match is None:
            events.append([time, label])
            continue
        flood, receivers = match.groups()
        events.extend([time, f"net:flood{flood}->{r}"] for r in receivers.split(","))
    trace.executed_events += len(events) - len(trace.events)
    trace.events = events
    return trace


@pytest.mark.parametrize("case", list(PER_RECEIVER))
def test_expanded_edge_trace_hashes_to_the_per_receiver_pin(case):
    trace = run_protocol(spec_for(case), recorder=TraceRecorder()).trace
    assert any(EDGE_LABEL.fullmatch(label) for _, label in trace.events)
    assert expand(trace).fingerprint() == PER_RECEIVER[case]
