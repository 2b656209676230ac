"""Golden trace fingerprints: the determinism contract for perf PRs.

These SHA-256 fingerprints were captured from the *pre-optimization* code
(the PR-1 testkit) for fixed specs and seeds.  Every hot-path optimization
since — flyweight serialization, tuple event heap, flood-state GC, lazy
annotations, verification memoization — must keep these runs byte-for-byte
identical: the canonical trace covers the full event schedule (times and
labels), per-node energy, network counters, committed chains and QC
validity, so any behavioural drift shows up here.

If a future PR changes these values *intentionally* (a protocol or model
change, not an optimization), update the constants and say why in the PR.

Re-pinned once, when the proposer began choosing its batch from the chain
it extends (pipelined blocks carry distinct commands): batches changed, so
block hashes did.  With every hash in a timer label replaced by its order
of first appearance, the event schedules, energy, network counters and
replica statistics of the three replicated protocols were byte-identical
before and after; the trusted baseline's schedule moved with its control
node's upload-paced ordering.

Re-pinned a second time when the receivers of one k-cast transmission
began sharing one simulator event (``net:flood7->2,3`` where there were
``net:flood7->2`` and ``net:flood7->3`` at the same time and consecutive
sequence numbers).  Only the event list and ``executed_events`` changed:
split back per receiver, each trace hashes to its previous value, which
``tests/testkit/test_per_receiver_expansion.py`` asserts.  The trusted
baseline sends no k-casts and kept its fingerprint.

Re-pinned a third time, EESMR and the n=9 WiFi run only, when the blocks
one delivery accepts began sharing one ``T_commit`` event
(``timer:p3:t-commit:<h1>,<h2>`` where there were per-block events at the
same time and consecutive surviving sequence numbers).  Only the event
list and ``executed_events`` changed: split back per block, each trace
hashes to its previous value, which the same file asserts
(``PER_BLOCK_COMMIT``).  Sync HotStuff, OptSync and the trusted baseline
accept one proposal per delivery and kept their fingerprints.
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder

#: (spec kwargs) -> fingerprint captured before the hot-path overhaul.
GOLDEN = {
    "eesmr": "e02030429f623ab81e7d6076c665ad81e6f9132eed1e8c0d6fd39bb288a336d7",
    "sync-hotstuff": "4218851e95317a9bcd7b4b19a7dae1a366192ba193f2d9091cb167b77ecfa915",
    "optsync": "fb2ec8c760c3eb390b41d3ba232dbeb83c805f096a69afa6e3284a2a76991959",
    "trusted-baseline": "1649688ceca18c07a6a78a08e5ffa2dafb1345cd12c2e228ac4dc5cc17c02ea8",
}

GOLDEN_WIFI_N9 = "50939fd49392dc26d7f1da2b01d5d8a3aee4ffcaacfecb4558f4468779c58c6d"


def golden_spec(protocol: str) -> DeploymentSpec:
    return DeploymentSpec(protocol=protocol, n=5, f=1, k=2, target_height=3, seed=17)


WIFI_N9 = DeploymentSpec(protocol="eesmr", n=9, f=2, k=2, target_height=4, seed=99, medium="wifi")


def run_fingerprint(spec: DeploymentSpec) -> str:
    return run_protocol(spec, recorder=TraceRecorder()).trace.fingerprint()


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_traces_byte_identical_to_pre_optimization_runs(protocol):
    assert run_fingerprint(golden_spec(protocol)) == GOLDEN[protocol]


def test_larger_wifi_run_matches_golden_fingerprint():
    assert run_fingerprint(WIFI_N9) == GOLDEN_WIFI_N9
