"""Ablation: signature scheme used inside EESMR (RSA-1024 vs ECDSA vs HMAC).

The paper argues for verification-efficient RSA in the one-signer /
many-verifiers pattern of SMR; this ablation measures how the protocol's
per-block energy shifts when the scheme is swapped.
"""

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.eval.tables import format_table

from benchmarks.conftest import run_once

SCHEMES = ("rsa-1024", "ecdsa-secp256k1", "hmac-sha256")


def _run_all():
    results = {}
    for scheme in SCHEMES:
        spec = DeploymentSpec(
            protocol="eesmr", n=9, f=2, k=3, target_height=3, signature_scheme=scheme, seed=71
        )
        results[scheme] = run_protocol(spec)
    return results


def test_ablation_signature_scheme(benchmark):
    results = run_once(benchmark, _run_all)
    print("\nAblation — EESMR per-block energy by signature scheme (n = 9, k = 3):")
    rows = [
        [
            scheme,
            result.energy_per_block_mj,
            result.leader_energy_per_block_mj,
            result.energy.breakdown.cryptography * 1000 / max(1, result.committed_blocks),
        ]
        for scheme, result in results.items()
    ]
    print(format_table(["scheme", "total mJ/block", "leader mJ/block", "crypto mJ/block"], rows))
    for result in results.values():
        assert result.safety.consistent and result.committed_blocks == 3
    # ECDSA's expensive verification dominates: it must be the costliest option.
    assert results["ecdsa-secp256k1"].energy_per_block_mj > results["rsa-1024"].energy_per_block_mj
    # HMAC signing is cheaper than RSA signing, so the leader gets cheaper,
    # even though HMAC forfeits transferable authentication.
    assert results["hmac-sha256"].leader_energy_per_block_mj < results["rsa-1024"].leader_energy_per_block_mj
