#!/usr/bin/env python3
"""View-change walkthrough: an equivocating leader is detected and replaced.

The run pins the Byzantine behaviour to a specific round so the output
shows the full story the paper's Section 3 tells: blocks committed under
the faulty leader before it misbehaves stay committed (unique
extensibility), the equivocation is detected by every correct node within
Delta, the view change converts the implicit "votes in the head" into
explicit certificates, and the new leader finishes the workload.

Run with:  python examples/view_change_demo.py
"""

from repro import DeploymentSpec, FaultPlan, Session
from repro.eval.tables import format_table
from repro.session import CallbackObserver


def run_with_narration(spec: DeploymentSpec):
    """Run through a session with an observer narrating the protocol story."""
    observer = CallbackObserver(
        on_view_change=lambda pid, view, t: print(
            f"   t={t:6.1f}  node {pid} completes the view change into view {view}"
        ),
        on_block_commit=lambda pid, block, view, t: (
            print(f"   t={t:6.1f}  node {pid} commits height {block.height} (view {view})")
            if pid == 1  # one narrator node is enough
            else None
        ),
    )
    session = Session.from_spec(spec, observers=[observer])
    return session.run().finish()


def describe(result, label: str) -> None:
    print(f"-- {label} --")
    rows = []
    for pid, snap in sorted(result.replica_snapshots.items()):
        rows.append(
            [
                pid,
                snap.get("view", "-"),
                snap.get("committed_height", "-"),
                snap.get("view_changes", "-"),
                "faulty" if pid in result.spec.byzantine_nodes else "correct",
            ]
        )
    print(format_table(["node", "view", "committed", "view changes", "role"], rows))
    print(f"blames sent: {result.blames_sent}, equivocations detected: {result.equivocations_detected}")
    print(f"total correct-node energy: {result.correct_energy_mj:.1f} mJ")
    print()


def main() -> None:
    honest = run_with_narration(
        DeploymentSpec(protocol="eesmr", n=7, f=2, k=3, target_height=4, seed=9)
    )
    describe(honest, "Honest leader: 4 blocks, no view change")

    equivocation = run_with_narration(
        DeploymentSpec(
            protocol="eesmr",
            n=7,
            f=2,
            k=3,
            target_height=4,
            seed=9,
            block_interval=6.0,  # let the first block commit before the attack
            fault_plan=FaultPlan(faulty=(0,), behaviour="equivocate", trigger_round=4),
        )
    )
    describe(equivocation, "Leader equivocates in round 4: view change to node 1")

    print("What to look for:")
    print(" * safety holds in both runs:", honest.safety.consistent and equivocation.safety.consistent)
    print(" * every correct node ends in view 2 after the attack")
    print(" * the committed height still reaches the workload target —")
    print("   blocks committed before the equivocation were not rolled back")
    print(
        " * the faulty run costs {:.1f}x more energy than the honest one — the price of one view change".format(
            equivocation.correct_energy_mj / honest.correct_energy_mj
        )
    )


if __name__ == "__main__":
    main()
