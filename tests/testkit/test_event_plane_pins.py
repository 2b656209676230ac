"""Trace pins for the paths the closure-free event plane rewrote.

The golden fingerprints cover fault-free steady state.  These cover what
they do not: impaired receptions and the retransmit chain (flood and
unicast, recovered / implicit-ACK / give-up), open-loop arrival events,
and the view-change timers and unicasts behind a faulty leader.

Every value was recorded on the parent commit 1874624 — the last tree
with the ``arrive`` / ``resend`` / ``fire`` closures and the three
``flood_id``-keyed dicts — by running ``fingerprint(spec)`` below for each
case with ``PYTHONPATH=src`` in a clone of that commit.  While recording,
the impairment counters confirmed the coverage: the ``lossy`` cases retry
and recover on floods and unicasts (sync-hotstuff: 112 retransmits, 91
recovered, 180 unicasts); the ``giveup`` cases exhaust ``max_retries=2``
(sync-hotstuff 23 give-ups, trusted-baseline 6 on unicast chains) and
resolve most drops by implicit ACK (eesmr: 59 drops, 25 retransmits).

The ``stacked`` cases were recorded the same way on the parent commit
db992ff — the last tree with the pluggable relay-policy callable, the
per-atom window classes and the two retry policies.  One schedule stacks
every window kind, overlapping, on a Byzantine and on correct nodes; it
runs on a clean wire and under ``ImpairmentSpec(loss=0.2, max_retries=2)``.
The observer transitions of the clean EESMR run are pinned too: db992ff
emits the twelve below plus ``(1.0, 1, "relay-deny", True)`` /
``(4.0, 1, "relay-deny", False)`` for the drop window on crashed node 1,
whose relay was never granted and never came back.

All 25 were re-pinned once, with the golden fingerprints and for the
reason given there: batches (hence block hashes) changed when pipelined
blocks stopped repeating their parent's command.  The replicated
protocols' event schedules did not move (hashes in timer labels aside);
on the open-loop cases their blocks carry fewer bytes, so energy and
network counters fell; the trusted-baseline cases follow the control
node's new pacing.

The 12 faulty-leader and clean-wire ``stacked`` pins of the replicated
protocols were re-pinned once more, with the golden fingerprints and for
the reason given there: a k-cast's receivers now share one event.
``tests/testkit/test_per_receiver_expansion.py`` asserts that each of these
traces, split back per receiver, hashes to its previous value.  The other
13 kept theirs: on an impaired wire every receiver keeps its own event, and
the trusted baseline sends no k-casts.

An event-plane change that keeps every ``(time, seq, label)``
keeps these byte-for-byte; update them only for an intentional protocol
or model change, and say why in the PR.
"""

import pytest

from repro.core.adversary import FaultPlan
from repro.eval.runner import PROTOCOLS, DeploymentSpec, run_protocol
from repro.net.impairment import ImpairmentSpec
from repro.session import SessionObserver
from repro.testkit.faults import (
    CrashAt,
    CrashRecoverWindow,
    FaultSchedule,
    JitterWindow,
    LossWindow,
    PartitionWindow,
    RelayDropWindow,
)
from repro.testkit.trace import TraceRecorder
from repro.workload import OpenLoopPoisson

REPLICATED = ("eesmr", "sync-hotstuff", "optsync")
LEADER_FAULTS = ("silent_leader", "equivocate", "crash")

#: The ``lossy-openloop-n7`` bench workload's medium.
LOSSY = ImpairmentSpec(loss=0.1, duplicate=0.05, jitter=0.25, ble_calibrated=True)
#: Heavy loss with a two-retry budget: chains give up or are ACKed implicitly.
GIVEUP = ImpairmentSpec(loss=0.4, duplicate=0.2, jitter=0.5, reorder=0.2, max_retries=2)

PINS = {
    "lossy/eesmr": "4c1e6fc2646c8aa6e01caf058d1608f9cfb137ff635f37ea059e0182700eda13",
    "lossy/sync-hotstuff": "cb92829aff3cf2ccbc38d365d15e5872067d17bcb8b7310bd383659c2d5d2007",
    "lossy/optsync": "008096eb42caf65314ff28d8106ce0ec1d3c37e2a75f1af98b565dc2ea108811",
    "lossy/trusted-baseline": "bd8dcc00b834d95574ff0a917534041cd6ee4b9f8b3c54defc52ea4069523152",
    "giveup/eesmr": "b6c7247fe3dbadddbe7c1c3e164d3f656a933a3b5b02819c9ae6649e9105e9fc",
    "giveup/sync-hotstuff": "3d5870f79995d2ba07612224f904e77f7984b3f8364dcace6afd0ce0c7c39ccc",
    "giveup/optsync": "90399e815f8cabc8cef9415c56fec5c630b9d37a7f288170d03c7e52f66296d6",
    "giveup/trusted-baseline": "d5e9a2454b16f22b9c56bdb4541177e270ef27a84d4e507727285e8cee7b3a89",
    "silent_leader/eesmr": "79dc4b3576af9b0e23593b1c2777a7ac8c520d19cd6a3c14a2fe624b13093e0b",
    "equivocate/eesmr": "302a265f6956a1e2ce5d79a2915e62103814305a93406afe785c0a0e7a7e142f",
    "crash/eesmr": "03d55135c4ce77eff38e57e2987d66f8f5fc2a16d6bb540b250658f34661337d",
    "silent_leader/sync-hotstuff": "1d781516350734cd93d57ebb6bab183513ea342ea32d16400f51b2afee19432b",
    "equivocate/sync-hotstuff": "ccb933926eb85b08ef598fa1b85fa87256d25478f2a44d303ff5aa36a3ac5dbc",
    "crash/sync-hotstuff": "b79663c18cc6e61a2195e7d7a4e265fe3529f13611643ad74d4b9a18a53072bf",
    "silent_leader/optsync": "d9e70b9c846838ec8dbe82f4d05fd0041a426f00b74c50b769798758d4ea50ec",
    "equivocate/optsync": "f6603c82c8af07dbda5f8f02174af57e34f6bce479490050665e1e6078191d14",
    "crash/optsync": "92b65f4c5f5e26b7b72a91ca3b798aea4d1935f34de7d2dd2fd68e3613fa26fc",
    "stacked/eesmr": "c0d755d15793e75a1d24162f0668b5f8f764683378a95e9970ab40e2bef2f8fc",
    "stacked/sync-hotstuff": "b62de9e881c670772fdbfbd49d34caf436f76cb1fa95c1002fe446a19a0c0c73",
    "stacked/optsync": "734d87ad304736f7f340d9bbf45f1077f7804bd4568717e13f73b68588473003",
    "stacked/trusted-baseline": "6b448eecdd64781ed9fda05728d3f207df759403a02561044b5d7e56049c35df",
    "stacked-lossy/eesmr": "4bcc435512a85155af9f7730466fa420f6c6acf3c6ed23518c3819a0d6366300",
    "stacked-lossy/sync-hotstuff": "7092f4a8e15889426e8d70570176c21808d0433397efe83e3ba414d8c106fd2d",
    "stacked-lossy/optsync": "48119cc226f18db823bcd5a90764526ee3920b388c1a9292212a505d5a859b04",
    "stacked-lossy/trusted-baseline": "a382c65ca6df7409964593c52e86e3e4f8a43cc47182c6458140a2c44dd87939",
}

#: Every window kind at once: a drop window over a crashed (permanently
#: denied) node, interleaved drop windows, overlapping partitions, nested
#: loss windows, a jitter window and a crash-recover cycle.
STACKED = FaultSchedule(
    (
        CrashAt(1, 0.0),
        RelayDropWindow(1, 1.0, 4.0),
        RelayDropWindow(6, 1.0, 5.0),
        RelayDropWindow(6, 3.0, 7.0),
        PartitionWindow(5, 2.0, 6.0),
        PartitionWindow(5, 4.0, 8.0),
        LossWindow(4, 1.0, 9.0, 0.5),
        LossWindow(4, 3.0, 6.0, 0.5),
        JitterWindow(3, 2.0, 6.0, 0.5),
        CrashRecoverWindow(2, 1.0, 5.0),
    )
)

#: ``(time, node, kind, active)`` of the clean EESMR run, in firing order.
STACKED_TRANSITIONS = [
    (1.0, 6, "relay-deny", True),
    (1.0, 4, "impair-loss", True),
    (1.0, 2, "partition", True),
    (2.0, 5, "partition", True),
    (2.0, 3, "impair-jitter", True),
    (3.0, 4, "impair-loss", True),
    (5.0, 2, "partition", False),
    (6.0, 4, "impair-loss", False),
    (6.0, 3, "impair-jitter", False),
    (7.0, 6, "relay-deny", False),
    (8.0, 5, "partition", False),
    (9.0, 4, "impair-loss", False),
]


def open_loop_spec(protocol: str, impairment: ImpairmentSpec, target_height: int) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=target_height, block_interval=0.5,
        batch_size=8, txpool_limit=32, seed=17,
        workload=OpenLoopPoisson(rate=0.5, clients=3), impairment=impairment,
    )


def fingerprint(spec: DeploymentSpec) -> str:
    return run_protocol(spec, recorder=TraceRecorder()).trace.fingerprint()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lossy_open_loop_trace_matches_parent(protocol):
    assert fingerprint(open_loop_spec(protocol, LOSSY, 30)) == PINS[f"lossy/{protocol}"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_giveup_and_implicit_ack_trace_matches_parent(protocol):
    # Height 12: past it, loss 0.4 breaks the synchrony bound the protocols assume.
    assert fingerprint(open_loop_spec(protocol, GIVEUP, 12)) == PINS[f"giveup/{protocol}"]


def faulty_leader_spec(behaviour: str, protocol: str) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=8, seed=17,
        fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour),
    )


@pytest.mark.parametrize("protocol", REPLICATED)
@pytest.mark.parametrize("behaviour", LEADER_FAULTS)
def test_faulty_leader_trace_matches_parent(behaviour, protocol):
    assert fingerprint(faulty_leader_spec(behaviour, protocol)) == PINS[f"{behaviour}/{protocol}"]


def stacked_spec(protocol: str, impairment: ImpairmentSpec | None = None) -> DeploymentSpec:
    return DeploymentSpec(
        protocol=protocol, n=7, f=2, k=3, target_height=5, block_interval=2.0, seed=5,
        fault_schedule=STACKED, impairment=impairment,
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stacked_window_schedule_trace_matches_parent(protocol):
    assert fingerprint(stacked_spec(protocol)) == PINS[f"stacked/{protocol}"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_stacked_window_schedule_on_a_lossy_wire_matches_parent(protocol):
    lossy = ImpairmentSpec(loss=0.2, max_retries=2)
    assert fingerprint(stacked_spec(protocol, lossy)) == PINS[f"stacked-lossy/{protocol}"]


def test_stacked_window_schedule_reports_only_effective_transitions():
    class Transitions(SessionObserver):
        def __init__(self):
            self.seen = []

        def on_fault_window(self, node, kind, active, time):
            self.seen.append((time, node, kind, active))

    observer = Transitions()
    run_protocol(stacked_spec("eesmr"), observers=(observer,))
    assert observer.seen == STACKED_TRANSITIONS
