"""Ablation: running EESMR over k-cast hyper-edges vs equivalent unicast edges.

The hypergraph model exists because a single wireless multicast can replace
d_out unicasts; this ablation runs the same protocol over (a) the ring
k-cast topology and (b) a unicast ring with the same connectivity, and
compares the radio energy.
"""

from repro.eval.runner import DeploymentSpec, run_protocol
from repro.eval.tables import format_table

from benchmarks.conftest import run_once


def _run_both():
    kcast = run_protocol(
        DeploymentSpec(protocol="eesmr", n=9, f=2, k=3, topology="ring-kcast", target_height=3, seed=72)
    )
    unicast = run_protocol(
        DeploymentSpec(protocol="eesmr", n=9, f=2, k=3, topology="unicast-ring", target_height=3, seed=72)
    )
    return kcast, unicast


def test_ablation_kcast_vs_unicast(benchmark):
    kcast, unicast = run_once(benchmark, _run_both)
    print("\nAblation — EESMR over k-casts vs unicast edges (n = 9, degree 3):")
    print(
        format_table(
            ["topology", "total mJ/block", "physical tx/block", "safe"],
            [
                ["ring k-cast", kcast.energy_per_block_mj, kcast.network.physical_transmissions / 3, kcast.safety.consistent],
                ["unicast ring", unicast.energy_per_block_mj, unicast.network.physical_transmissions / 3, unicast.safety.consistent],
            ],
        )
    )
    assert kcast.safety.consistent and unicast.safety.consistent
    assert kcast.committed_blocks == unicast.committed_blocks == 3
    # One multicast replaces three unicasts: the unicast deployment transmits
    # roughly k times more often per flood.
    assert unicast.network.physical_transmissions > 2 * kcast.network.physical_transmissions
    # The transmit-side energy advantage of the k-cast deployment.
    from repro.energy.meter import EnergyCategory

    kcast_tx = kcast.energy.breakdown.get(EnergyCategory.TRANSMIT)
    unicast_tx = unicast.energy.breakdown.get(EnergyCategory.TRANSMIT)
    assert unicast_tx > kcast_tx
