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

The same argument covers EESMR's commit timers.  The blocks one delivery
accepts (the delivered proposal and the buffered ones it makes current)
share one ``T_commit`` event whose traced label lists them in order
(``timer:p3:t-commit:<h1>,<h2>``).  Each used to have its own event at the
same time, with consecutive surviving sequence numbers: the only push
between two of them was the ``T_blame`` move, whose final position is after
the last.  So :func:`expand` also splits commit events back per block, and
``PER_BLOCK_COMMIT`` holds the values pinned before that change for every
pinned trace it moved; split back per block only, each trace hashes to
them.

Every value in both tables was re-pinned once, with the golden
fingerprints and for the reason given there: the traces' energy became
integer operation counts (``energy_counts``), priced when read.  The 5
OptSync values were re-pinned once more, with the golden fingerprints and
for the reason given there: OptSync certifies by majority.
"""

import re

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import RunTrace, TraceRecorder
from tests.net.test_plan_invalidation import BASE, UNCOMPILED
from tests.testkit.test_event_plane_pins import (
    GIVEUP,
    LEADER_FAULTS,
    LOSSY,
    STACKED_LOSSY,
    faulty_leader_spec,
    open_loop_spec,
    stacked_spec,
)
from tests.testkit.test_golden_fingerprints import WIFI_N9, golden_spec

EDGE_LABEL = re.compile(r"(net:flood\d+->)(\d+(?:,\d+)+)")
COMMIT_LABEL = re.compile(r"(timer:p\d+:t-commit:)([^,]+(?:,[^,]+)+)")

#: case -> the fingerprint pinned while every reception was its own event.
PER_RECEIVER = {
    "golden/eesmr": "594b01d459121346493927fba29678be3a89d11d9e860ef0d2e6df8abcd49eb0",
    "golden/sync-hotstuff": "2f128073a71f06aeb44db19341131b01d4d8077c4fc021fde5a2b9bb1956d75e",
    "golden/optsync": "e547a795a43f4215ed77721abe0872f55873ed128912ea1b4f98070e869b223c",
    "golden/wifi-n9": "d88207365e187541bd4f6391f61717bec3cb211e91075d927838720b6026b80f",
    "relay-drop-window": "74fc63f7375352062a8374d2d185e853d809fc4551578c61f9b1e7be15f30f07",
    "partition-heal": "382ef5894ded9a5c744d9808f13267717d3b0e82f64869f25317bc606a39912f",
    "silent_leader/eesmr": "680bfdbed92ffe045f521edb7f5e4832abf1cbe5d1574d261cb8c3a65ad52dd8",
    "equivocate/eesmr": "29448bf309a5b86e2d0cc727d609dff9c7fec6381e7c652b799df9906d85ef59",
    "crash/eesmr": "fcf437091c99b4707b2060a32a8ddc80b4b0acc283093114d3d853d1c155a087",
    "silent_leader/sync-hotstuff": "10350cb1ad0cfedf71b951952a94f6e7e5476a5c4fa867d6356eee10bb78289c",
    "equivocate/sync-hotstuff": "ebdf08ce2994687e2d1c37ecde666c3aae04d745a5295f7368792f17d433193d",
    "crash/sync-hotstuff": "2703f17495efb2a6f307c00679f1d7bf6c4149c087719990fd0bd6f6169b7adf",
    "silent_leader/optsync": "4fc31d13b23c1e5ec60fbcd97db2fb1031d429584279b2f94627b947635299d2",
    "equivocate/optsync": "c7ef588698e5e27ec13dfa232c94a7ba98b14becfd59c8fd2da76c4b257767c1",
    "crash/optsync": "c450e425af767994d2aa90c14bd8277580c3da4c8171096237ff40aef0bbbbc4",
    "stacked/eesmr": "f4506771c5b0f243b4e7bbe09d6cc406538cf71c745a9c2d1464cbb72f9700f1",
    "stacked/sync-hotstuff": "3aa6bb88e10d54d3d6a37e40ddeaa919514717774a467a00003ac01e553bb7fb",
    "stacked/optsync": "77a5b9d9f384e11e4fa7efcecfb3a677c7adb7f0934a239b3bfa5b8e491151fc",
}


#: case -> the fingerprint pinned while every accepted EESMR block armed its
#: own commit timer event.
PER_BLOCK_COMMIT = {
    "golden/eesmr": "27bd7670d10dad3a2090a4066ea2a16624d05189557f9454731316f293de8646",
    "golden/wifi-n9": "2e065e53afef46ff74faab766cfd8548763a21e963c0fc0ca6b311ef72851f8f",
    "relay-drop-window": "67c39237c2626c47f8878b2487318c7742895241cbac4c2f698008a04a982dd8",
    "partition-heal": "eecf5d742ae37e85f112e3b481fcbae467fef5c1da3f0ef393e0850f817b5645",
    "lossy/eesmr": "20375c600a48e9ac3b814489877a058304c1a5f1885cbcebb348fb9b4d4f66cb",
    "giveup/eesmr": "82cde07077451cdf5cf420875e89c099658c4db233e01270b8feb0bfab8e9db5",
    "silent_leader/eesmr": "02791ff0fe2a13eb73b1df6aa87bf286f4ad00b76ad3147d37151cd01e2e85e9",
    "equivocate/eesmr": "98c3f4c713dd3f73c5c62cc7829879fb27892de859f5061203b58ba1bc8b72cd",
    "crash/eesmr": "2dcde42d413135aab3d8b9766eb4cf9a966979008cc44cdee0f3a931aca068c7",
    "stacked/eesmr": "0fc0ca5663c95c9cc6c54c64d2219f73c73fa08b97e49a3370f3d5863b459f28",
    "stacked-lossy/eesmr": "5c109ed7a0830d5885e77bae2e19901914c051b44a2ac16e8e89a9789a69cd2f",
}


def spec_for(case: str) -> DeploymentSpec:
    kind, _, protocol = case.partition("/")
    if kind == "golden":
        return WIFI_N9 if protocol == "wifi-n9" else golden_spec(protocol)
    if kind in UNCOMPILED:
        return DeploymentSpec(**BASE, fault_schedule=UNCOMPILED[kind][0]())
    if kind in LEADER_FAULTS:
        return faulty_leader_spec(kind, protocol)
    if kind == "lossy":
        return open_loop_spec(protocol, LOSSY, 30)
    if kind == "giveup":
        return open_loop_spec(protocol, GIVEUP, 12)
    return stacked_spec(protocol, STACKED_LOSSY if kind == "stacked-lossy" else None)


def split(trace: RunTrace, pattern: re.Pattern) -> RunTrace:
    """Split each event whose label ``pattern`` matches into one event per listed item."""
    events = []
    for time, label in trace.events:
        match = pattern.fullmatch(label)
        if match is None:
            events.append([time, label])
            continue
        head, items = match.groups()
        events.extend([time, head + item] for item in items.split(","))
    trace.executed_events += len(events) - len(trace.events)
    trace.events = events
    return trace


def expand(trace: RunTrace) -> RunTrace:
    """Split each multi-receiver edge event and each multi-block commit event."""
    return split(split(trace, EDGE_LABEL), COMMIT_LABEL)


def run_trace(case: str) -> RunTrace:
    return run_protocol(spec_for(case), recorder=TraceRecorder()).trace


@pytest.mark.parametrize("case", list(PER_RECEIVER))
def test_expanded_edge_trace_hashes_to_the_per_receiver_pin(case):
    trace = run_trace(case)
    assert any(EDGE_LABEL.fullmatch(label) for _, label in trace.events)
    assert expand(trace).fingerprint() == PER_RECEIVER[case]


@pytest.mark.parametrize("case", list(PER_BLOCK_COMMIT))
def test_split_commit_trace_hashes_to_the_per_block_pin(case):
    trace = run_trace(case)
    assert any(COMMIT_LABEL.fullmatch(label) for _, label in trace.events)
    assert split(trace, COMMIT_LABEL).fingerprint() == PER_BLOCK_COMMIT[case]
