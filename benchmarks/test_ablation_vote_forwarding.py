"""Ablation: Sync HotStuff vote dissemination — partial forwarding vs full flooding.

The paper measures Sync HotStuff with "partially implemented vote
forwarding" (a simplification in its favour).  This ablation quantifies how
much that favour is worth by also running the textbook variant where every
vote is flooded network-wide, which is the O(n^2 d) behaviour of Table 3.
"""

from repro.core.baselines.sync_hotstuff import SyncHotStuffReplica
from repro.eval.runner import DeploymentSpec, run_protocol
from repro.eval.tables import format_table

from benchmarks.conftest import run_once


def _run_both():
    spec = DeploymentSpec(protocol="sync-hotstuff", n=9, f=2, k=3, target_height=3, seed=73)
    partial = run_protocol(spec)
    original_mode = SyncHotStuffReplica.vote_forwarding
    SyncHotStuffReplica.vote_forwarding = "full"
    try:
        full = run_protocol(spec)
    finally:
        SyncHotStuffReplica.vote_forwarding = original_mode
    return partial, full


def test_ablation_vote_forwarding(benchmark):
    partial, full = run_once(benchmark, _run_both)
    print("\nAblation — Sync HotStuff vote forwarding (n = 9, k = 3):")
    print(
        format_table(
            ["vote forwarding", "total mJ/block", "physical tx/block"],
            [
                ["partial (paper's setup)", partial.energy_per_block_mj, partial.network.physical_transmissions / 3],
                ["full flooding (textbook)", full.energy_per_block_mj, full.network.physical_transmissions / 3],
            ],
        )
    )
    assert partial.safety.consistent and full.safety.consistent
    assert partial.committed_blocks == full.committed_blocks == 3
    # Full flooding costs substantially more — the simplification indeed
    # favours Sync HotStuff, as the paper acknowledges.
    assert full.energy_per_block_mj > 1.5 * partial.energy_per_block_mj
    assert full.network.physical_transmissions > 2 * partial.network.physical_transmissions
