"""Sync HotStuff and OptSync under a real equivocating leader (ROADMAP item 21).

The session builder lowers every Byzantine atom on a baseline to a
fail-stop crash, so the baselines never face a leader that lies.  This
probe does not go through that lowering: :class:`EquivocatingLeaderBuilder`
builds the spec as usual, then swaps replica 0 (view 1's leader) to a
subclass of its own class that signs and floods two conflicting
``SHS_PROPOSE`` blocks at height 3, both carrying the parent's certificate
(one with the next batch, one empty), and keeps building on the first.
The spec's ``EquivocateAt(0, 3, baseline_failstop=1e6)`` tells the
invariant battery that node 0 is Byzantine and never fail-stops it within
the run.

Every cell stays inside the paper's model: no impairment, one faulty node,
f < n/2.  Every cell passes since both baselines lock the highest certified
block, vote only for a block that extends it, and a new leader extends its
highest certified block; before that, 2 Sync HotStuff and 23 OptSync cells
at n <= 9 stalled or forked.  Item 21(a) of the ROADMAP then puts these
leaders in the fault plane.
"""

import pytest

from repro.core.blocks import make_block
from repro.core.messages import CertifiedBlock, MessageType
from repro.session import SessionBuilder
from repro.session import session as session_module
from repro.session.spec import DeploymentSpec
from repro.testkit.faults import EquivocateAt, FaultSchedule
from repro.testkit.scenarios import judge

#: The height at which the leader equivocates.
EQUIVOCATION_HEIGHT = 3

#: (n, f, k, target height) of each probed shape.
SHAPES = ((5, 2, 2, 6), (7, 3, 3, 6), (9, 4, 2, 6), (13, 6, 7, 10), (25, 5, 2, 10))
BLOCK_INTERVALS = (0, 2.0)
#: Seeds 0-7 run in tier-1; the rest of 0-31 under ``-m matrix``.
SEEDS = range(32)
TIER1_SEEDS = range(8)


class _Equivocate:
    """Mixed in front of a baseline class: equivocate once, at height 3."""

    equivocated = False

    def _propose_next(self) -> None:
        parent = self.leader_chain_tip
        if (
            self.equivocated
            or self.crashed
            or self.in_view_change
            or not self.is_leader(self.v_cur)
            or parent.height + 1 < EQUIVOCATION_HEIGHT
        ):
            super()._propose_next()
            return
        self.equivocated = True
        cert = self.certs.get(parent.block_hash)
        height = parent.height + 1
        first = make_block(parent, self.pid, self.v_cur, height, self.next_batch(parent))
        second = make_block(parent, self.pid, self.v_cur, height, [])
        for block in (first, second):
            self.store_block(block)
            self.broadcast(
                self.sign_message(
                    MessageType.SHS_PROPOSE,
                    CertifiedBlock(block, cert),
                    view=self.v_cur,
                    round_number=height,
                )
            )
        self.stats.proposals_made += 2
        self.leader_chain_tip = first


class EquivocatingLeaderBuilder(SessionBuilder):
    """Builds the spec, then makes replica 0 an equivocating leader of its own protocol."""

    def build(self):
        session = super().build()
        leader = session.replicas[0]
        cls = type(leader)
        leader.__class__ = type(f"Equivocating{cls.__name__}", (_Equivocate, cls), {})
        return session


def probe_spec(protocol, n, f, k, block_interval, seed, target_height=6):
    return DeploymentSpec(
        protocol=protocol,
        n=n,
        f=f,
        k=k,
        target_height=target_height,
        seed=seed,
        block_interval=block_interval,
        fault_schedule=FaultSchedule(
            (EquivocateAt(0, EQUIVOCATION_HEIGHT, baseline_failstop=1e6),)
        ),
    )


def _cells():
    for protocol in ("sync-hotstuff", "optsync"):
        for n, f, k, target_height in SHAPES:
            for block_interval in BLOCK_INTERVALS:
                for seed in SEEDS:
                    marks = () if seed in TIER1_SEEDS else pytest.mark.matrix
                    yield pytest.param(
                        protocol, n, f, k, target_height, block_interval, seed,
                        id=f"{protocol}-n{n}-bi{block_interval}-s{seed}",
                        marks=marks,
                    )


@pytest.mark.parametrize(
    "protocol, n, f, k, target_height, block_interval, seed", list(_cells())
)
def test_one_equivocating_leader_keeps_the_baseline_safe_and_live(
    protocol, n, f, k, target_height, block_interval, seed
):
    spec = probe_spec(protocol, n, f, k, block_interval, seed, target_height)
    verdict = judge(f"probe:{protocol}", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]
    # The probe bites: the honest nodes saw the two proposals.
    assert verdict.result.equivocations_detected > 0


def test_one_equivocating_leader_lets_sync_hotstuff_quiesce_at_n25(monkeypatch):
    """The bench's viewchange-n25 shape at bench seed 3.  While a node locked
    the block it voted for, this run never quiesced: every honest node
    committed height 10, then each view timed out into the next until the
    event budget tripped (in view 43)."""
    monkeypatch.setattr(session_module, "MAX_EVENTS", 60_000)
    spec = probe_spec("sync-hotstuff", 25, 5, 2, 0, 10, target_height=10)
    verdict = judge("probe:sync-hotstuff", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]


def test_one_equivocating_leader_keeps_sync_hotstuff_safe_at_n25():
    """Seed 1, no block interval.  While a node locked the block it voted
    for, node 7 committed another height-6 block here."""
    spec = probe_spec("sync-hotstuff", 25, 5, 2, 0, 1, target_height=10)
    verdict = judge("probe:sync-hotstuff", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]
