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

An event-plane change that keeps every ``(time, priority, seq, label)``
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
    "lossy/eesmr": "df7979d895c39b744d670b441fb131d14114e7b775f2a9e590a513f117673407",
    "lossy/sync-hotstuff": "2ba5758ec092454e69e989f3209491caef9455732531f2f4115fb789736d21ce",
    "lossy/optsync": "cfd8ac62ca45d810837d3bfad950040d4d5b2ddea2ec11e8a618ee69cb0c2787",
    "lossy/trusted-baseline": "8cb187adf613a256b847033a37485604605ee510fc1c95295069b7fb7865322a",
    "giveup/eesmr": "91556c7db7bd621d0b839d91fdf821232388bac724026ce7a3f097f99262f1ee",
    "giveup/sync-hotstuff": "c62423f7989c0d47e58c20ca3125ca5e445f50c90c69254968f4a5fcfe476c50",
    "giveup/optsync": "e3d7bd1919c838c061bf047bb4391e575047c1a58122b4ddbe29c9fc9a745342",
    "giveup/trusted-baseline": "d555382c607d565b6a862219d9fddab9ab8b0ba50981bbc27ba01514794bc64c",
    "silent_leader/eesmr": "7ccb78dc0569a83a00129060ea8ee2629e4d4dcf74038fe0fc138c9b8bad59a6",
    "equivocate/eesmr": "55c30267c4410707b5ba441cc187998976d319d93d826111176a5fa76b3b2ccf",
    "crash/eesmr": "48830c234ec604a1df7c25f7c7927ca4baee428d8a429307c5971c8debd3d753",
    "silent_leader/sync-hotstuff": "465c5e708803e3f27b4e381074e1697d4721301aa84fa6a2e49fbc918cc47349",
    "equivocate/sync-hotstuff": "ffdef8683bb5129cfce6bcc799cf8da82a9dbf0edcf07ed6d899bc6fdeeee77b",
    "crash/sync-hotstuff": "5fe58a70208ba47abaf60fb658c36524c8e47d7659aa6daa95dd2490fdc06e3c",
    "silent_leader/optsync": "4e3971a91e07f277d4906ad1df0ce725ec6aeec8b66e164722f265baa9538de3",
    "equivocate/optsync": "0ba016deda0f9f5583ef94754c3adc42b6141e26149d9195a08f1e0770d9eeeb",
    "crash/optsync": "a314dc987c864ffd889b44931855e7a89c143f380c422bdd8cccfbcac2413c2a",
    "stacked/eesmr": "6cbfd379dfb033418bd3c263292a5cf39a8cd2085f798eecb34850fd1bc28e73",
    "stacked/sync-hotstuff": "dfb07833ef01491b7692ce0341d3b10c6db5601eb5ba8b6386d0dd46b0a7e123",
    "stacked/optsync": "f001374a65a40b7dec66b20e7d161060c37635c32795b1417fbf982190495019",
    "stacked/trusted-baseline": "54e22e7ba73344344aa52bf7d33fc1f48bdc313952a505dcc3c831e783852685",
    "stacked-lossy/eesmr": "821ee72138377f079c4aa32fd41d77356b3fd6b661038ae73f18d9263b9697ce",
    "stacked-lossy/sync-hotstuff": "e9724322a4980ba1d420b873fff2be8a7e6c37baaab3c7be03494efe67f73b06",
    "stacked-lossy/optsync": "3bc8a2f51caa12927d2e78986f2e1e4dd880904a725b5882c9128bae2cdd0311",
    "stacked-lossy/trusted-baseline": "d0069a288431f7d96a7048275d8b4c5a32c810fbb7a0ae7c8b3e94e7942c881f",
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


@pytest.mark.parametrize("protocol", REPLICATED)
@pytest.mark.parametrize("behaviour", LEADER_FAULTS)
def test_faulty_leader_trace_matches_parent(behaviour, protocol):
    spec = DeploymentSpec(
        protocol=protocol, n=7, f=2, k=2, target_height=8, seed=17,
        fault_plan=FaultPlan(faulty=(0,), behaviour=behaviour),
    )
    assert fingerprint(spec) == PINS[f"{behaviour}/{protocol}"]


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
