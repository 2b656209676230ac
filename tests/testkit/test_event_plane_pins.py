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

The 9 faulty-leader pins were re-pinned once more when ``FaultPlan``
became constructor shorthand for a ``FaultSchedule``: the trace's
``spec.faults`` holds the lowered atom (``StallAt`` / ``EquivocateAt`` with
``baseline_failstop=0.0``, ``CrashAt(0, 0.0)``) instead of the plan dict,
and each trace without its ``spec`` key is byte-identical to before.

The 7 EESMR pins were re-pinned once more, with the golden fingerprints
and for the reason given there: the blocks one delivery accepts share one
``T_commit`` event.  ``tests/testkit/test_per_receiver_expansion.py``
asserts that each of these traces, split back per block, hashes to its
previous value (``PER_BLOCK_COMMIT``).  The other 18 kept theirs: Sync
HotStuff, OptSync and the trusted baseline accept one proposal per
delivery.

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
#: The wire of the ``stacked-lossy`` cases.
STACKED_LOSSY = ImpairmentSpec(loss=0.2, max_retries=2)

PINS = {
    "lossy/eesmr": "d18dc259530ce25529848f3b4af7f2d5b707b942e1688f2dc537dfbd22e6f2d2",
    "lossy/sync-hotstuff": "cb92829aff3cf2ccbc38d365d15e5872067d17bcb8b7310bd383659c2d5d2007",
    "lossy/optsync": "008096eb42caf65314ff28d8106ce0ec1d3c37e2a75f1af98b565dc2ea108811",
    "lossy/trusted-baseline": "bd8dcc00b834d95574ff0a917534041cd6ee4b9f8b3c54defc52ea4069523152",
    "giveup/eesmr": "dd35cd2ffc8345067c25aa392f5499037adb95484dfdc276494f01a36dd6257b",
    "giveup/sync-hotstuff": "3d5870f79995d2ba07612224f904e77f7984b3f8364dcace6afd0ce0c7c39ccc",
    "giveup/optsync": "90399e815f8cabc8cef9415c56fec5c630b9d37a7f288170d03c7e52f66296d6",
    "giveup/trusted-baseline": "d5e9a2454b16f22b9c56bdb4541177e270ef27a84d4e507727285e8cee7b3a89",
    "silent_leader/eesmr": "07a7dd74a0d775eb06948a9556eb257feb54e9e04e0d02ac2855e932de753339",
    "equivocate/eesmr": "271145b2295ce56390b0d2d729b976143c0319a90c05006cc6670ca082b0bf24",
    "crash/eesmr": "2d3982af13ae03f320c39ab62002ade33840db06e6af497da43da04f0c52b4f3",
    "silent_leader/sync-hotstuff": "a4567f9a408b72f527124ff9f8fedb02e9cc26abcb473d51bc1307c6c4ab9649",
    "equivocate/sync-hotstuff": "201be5a81ec68bd15ba6a17909dac3fb770f4b78da916c35c4c3b59b14ab89b5",
    "crash/sync-hotstuff": "52ae3d4500c7546da675086a7510b0ff5591b168045f312674b40f3cc4ae76d5",
    "silent_leader/optsync": "3284bfb3b9ddb0ddb1dc923dd483b642d9004cdcbd013645b3452d236d6e73ef",
    "equivocate/optsync": "a7420855c54152e6cece62d6d1907519dbb0b5e76aa2b28d3546bc1861d36c98",
    "crash/optsync": "678432640571d5b58566865afc162a96f5ecaf25b8855cb5beaff7cf5c3a0949",
    "stacked/eesmr": "e7fb1c6eec995bb24ba85b654db409ba70ff113126c929206c2d0f678fb67867",
    "stacked/sync-hotstuff": "b62de9e881c670772fdbfbd49d34caf436f76cb1fa95c1002fe446a19a0c0c73",
    "stacked/optsync": "734d87ad304736f7f340d9bbf45f1077f7804bd4568717e13f73b68588473003",
    "stacked/trusted-baseline": "6b448eecdd64781ed9fda05728d3f207df759403a02561044b5d7e56049c35df",
    "stacked-lossy/eesmr": "8a950edda34cb2c67d83038be86a6ec46137b49f2791190ed3f2103c9586f6e6",
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
    assert fingerprint(stacked_spec(protocol, STACKED_LOSSY)) == PINS[f"stacked-lossy/{protocol}"]


def test_stacked_window_schedule_reports_only_effective_transitions():
    class Transitions(SessionObserver):
        def __init__(self):
            self.seen = []

        def on_fault_window(self, node, kind, active, time):
            self.seen.append((time, node, kind, active))

    observer = Transitions()
    run_protocol(stacked_spec("eesmr"), observers=(observer,))
    assert observer.seen == STACKED_TRANSITIONS
