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
"""

import pytest

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.testkit.trace import TraceRecorder

#: (spec kwargs) -> fingerprint captured before the hot-path overhaul.
GOLDEN = {
    "eesmr": "4bf9fdc196cc1ccaad4d3ee468375357c6fe59e100217f1fd1d8f047f988d780",
    "sync-hotstuff": "14eb88043bfd9b8da28365adb81cfaafc1e74798eb081f725230f7df6731222e",
    "optsync": "786c3cb8cc9a6035fc97a0bd782f61289b3b21036771484bdcb6f7fc808913d2",
    "trusted-baseline": "555289c6003a8157677d0e0cbb0719c27dc5cd3ae97d27fd9728ffa8e13942de",
}

GOLDEN_WIFI_N9 = "2e0dfed421d6cbfb067ae1eaf4cf134f5c0e66653495780e07d8eaebc088d566"


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
