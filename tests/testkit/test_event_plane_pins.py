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

An event-plane change that keeps every ``(time, priority, seq, label)``
keeps these byte-for-byte; update them only for an intentional protocol
or model change, and say why in the PR.
"""

import pytest

from repro.core.adversary import FaultPlan
from repro.eval.runner import PROTOCOLS, DeploymentSpec, run_protocol
from repro.net.impairment import ImpairmentSpec
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
}


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
