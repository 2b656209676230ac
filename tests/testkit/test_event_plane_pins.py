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

All 25 were re-pinned once more, with the golden fingerprints and for the
reason given there: energy became integer operation counts, priced when
read.  Each trace without its ``energy_*`` keys is byte-identical to before
(``tests/testkit/test_energy_free_pins.py``).

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
    "lossy/eesmr": "d6d3b5891baade3c29e8efb022d9fd09b94ffd0c0f6ec6d4b459507ff5ff9946",
    "lossy/sync-hotstuff": "6fa767419e7b7de8c3b5d3c211b90d584c70e53c8861a14e5717c0a6a3439023",
    "lossy/optsync": "ccea033240000c6764f7634d10bf86d306cc5245ee5611e87dfbb46acb8ee80f",
    "lossy/trusted-baseline": "d54ffe76bd90867bc102c98735e7a3406d7dab0c4e35ad49d4b812a14af7f4cf",
    "giveup/eesmr": "ed5bb40f186ea1ac2e7fe165cbc2a0d5f276778d8b2faaec1954e40193de2df4",
    "giveup/sync-hotstuff": "2ed7be69770f164c44833cc72dca951758cea3eecd46a6cdffc36335d17c3df8",
    "giveup/optsync": "25a578bcafe1a048466f0b39bad42486a75242d4fc421da45fecba87be0f167f",
    "giveup/trusted-baseline": "2a631eee9b9f32c1ff5313e4eb5c131cd7ab317b3e57c5282c2445e4b3e00f83",
    "silent_leader/eesmr": "0811eb590d5f1133d4419e475890909b1d198b02d5ca9dbc6e44a92d9a3c9e1f",
    "equivocate/eesmr": "0867eb08b876813ff3f0c09c52a43665abe8a595fea65e0165a7b6c48613ca08",
    "crash/eesmr": "bc61199c35665d2bbc2c3370e4d0ef223a4a6cab0e292d52cf393940aafa9f07",
    "silent_leader/sync-hotstuff": "48661fa45d6115dfb175b67ea08f21a84198e18521f83e22ae651e2b7fbb61a9",
    "equivocate/sync-hotstuff": "c26cb55c2ababbe3d6ee302ed718be26f3b9ae21e63eaea976b3048c24dfa35d",
    "crash/sync-hotstuff": "1195bea95adcf3ec3cbc83ec37d99f6a4e957c1d5c189c460b519ee242977807",
    "silent_leader/optsync": "d1963359ff9eef5dae2f8db6c9e9e878248accf3927140798086f806f74e65de",
    "equivocate/optsync": "2ca2834fd3467c4e1310ac0d1ee0af1442bd856faed6c31c2e8ae42be44ee2c0",
    "crash/optsync": "e54620ec6d8b0b9799885d4020da3f40fbd101ddf9b7e14b0649b10f1510c56d",
    "stacked/eesmr": "709e9ed146dde2ba04c5b682717f2beac248766b1ce74c3841994dd96a25efb9",
    "stacked/sync-hotstuff": "344a2b8c8cad98d739e9760b6595346b93a778667033f8129f578353a6e6301e",
    "stacked/optsync": "c3049c332d1d837534f71c920f26def50b881e08d4ca10a649fb0857a1ce6d45",
    "stacked/trusted-baseline": "8ba8db6d07642065c2b1196f8164ca9acda9d39e1a6f50df37b7f4ff4285cf9a",
    "stacked-lossy/eesmr": "95466a081de2d6fa7e0d8641b42c4168120083dde29cde7dbb6a2e367ba85924",
    "stacked-lossy/sync-hotstuff": "e763f6acbb659fcc2516dd570de615d6be008654331420f1613c6c4f0ddc5f9a",
    "stacked-lossy/optsync": "772416eb880708b53b075c23f15325e0066da30e42842a11b53b6d54dc9faa0b",
    "stacked-lossy/trusted-baseline": "4503f0c697170ff822544eb4a480064c964fbd927255af90ead8f9b4ce539218",
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
