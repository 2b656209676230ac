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
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder

#: (spec kwargs) -> fingerprint captured before the hot-path overhaul.
GOLDEN = {
    "eesmr": "72d19228588db71b0ad1945c483277a9483ddaef052ac7f05e5531f7fff7e95a",
    "sync-hotstuff": "de3063f61010a05b8a6c4f5b3937a4bc78f6aba98c3536b117f714f21f6fc0a3",
    "optsync": "6be1584db7805fd72c2cf74f5d35f0dc5a6fd10ec8f8242ae3416e8663c4d72f",
    "trusted-baseline": "1649688ceca18c07a6a78a08e5ffa2dafb1345cd12c2e228ac4dc5cc17c02ea8",
}

GOLDEN_WIFI_N9 = "43c14c5c7956a2fc1a92034295a69ef03bfcadbe816aa2b6af2d1f50f1a3047a"


def run_fingerprint(**kwargs) -> str:
    spec = DeploymentSpec(n=5, f=1, k=2, target_height=3, **kwargs)
    result = run_protocol(spec, recorder=TraceRecorder())
    return result.trace.fingerprint()


@pytest.mark.parametrize("protocol", sorted(GOLDEN))
def test_traces_byte_identical_to_pre_optimization_runs(protocol):
    assert run_fingerprint(protocol=protocol, seed=17) == GOLDEN[protocol]


def test_larger_wifi_run_matches_golden_fingerprint():
    spec = DeploymentSpec(
        protocol="eesmr", n=9, f=2, k=2, target_height=4, seed=99, medium="wifi"
    )
    result = run_protocol(spec, recorder=TraceRecorder())
    assert result.trace.fingerprint() == GOLDEN_WIFI_N9
