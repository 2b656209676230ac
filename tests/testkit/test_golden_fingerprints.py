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

Re-pinned a fourth time, all five, when the meters began keeping integer
operation counts: the trace's three energy fields became one,
``energy_counts``, and every Joule figure is priced from the counts, which
moved per-node energy by at most 2.7e-15 relative across every pinned run.
With every ``energy_*`` key removed, each trace hashes to its previous
value, which ``tests/testkit/test_energy_free_pins.py`` asserts.
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder

#: (spec kwargs) -> fingerprint captured before the hot-path overhaul.
GOLDEN = {
    "eesmr": "3170437f2e68d051e0ddba9c37ef6ef3eb646adc45c22289fe4e8ed91a6e0987",
    "sync-hotstuff": "ead7a85bad1d4ac8bcb3feb808b0aa0105eba69d5b0ccaf7d394c4d76b042ae7",
    "optsync": "4a6e043e2824e2cbbe303dfbeb91a0bb43b520da9bb2ae677c95169719cdfff8",
    "trusted-baseline": "02836a6801149b749e157dcef8af917799b1c6ee089515c1339ba7be240a6c5e",
}

GOLDEN_WIFI_N9 = "f73c60d61f449691c2c23a236acb60040ec17f597f0fcb12ab429176a92156ae"


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
