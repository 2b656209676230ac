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
f < n/2.  The cells that fail today are ``xfail(strict=True)``: ROADMAP
item 1 (one quorum fix for OptSync's fork and certified-tip stall) is the
fix they wait for, and item 21(a) then puts these leaders in the fault
plane.
"""

import dataclasses

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

SHAPES = ((5, 2, 2), (7, 3, 3), (9, 4, 2))
BLOCK_INTERVALS = (0, 2.0)
SEEDS = range(8)

#: (protocol, n, block_interval, seed) -> the invariants the cell fails
#: today: 2 Sync HotStuff stalls; 9 OptSync forks and 22 OptSync stalls.
KNOWN_FAILURES = {
    ("sync-hotstuff", 9, 2.0, 5): "liveness",
    ("sync-hotstuff", 9, 2.0, 7): "liveness",
    ("optsync", 5, 0, 3): "agreement, liveness",
    ("optsync", 5, 0, 4): "agreement, liveness",
    ("optsync", 5, 0, 5): "liveness",
    ("optsync", 5, 0, 6): "liveness",
    ("optsync", 5, 2.0, 3): "agreement, liveness",
    ("optsync", 5, 2.0, 4): "agreement, liveness",
    ("optsync", 5, 2.0, 5): "liveness",
    ("optsync", 5, 2.0, 6): "liveness",
    ("optsync", 7, 0, 1): "liveness",
    ("optsync", 7, 0, 2): "liveness",
    ("optsync", 7, 0, 6): "liveness",
    ("optsync", 7, 0, 7): "liveness",
    ("optsync", 7, 2.0, 1): "liveness",
    ("optsync", 7, 2.0, 2): "liveness",
    ("optsync", 7, 2.0, 6): "liveness",
    ("optsync", 7, 2.0, 7): "liveness",
    ("optsync", 9, 0, 5): "agreement, liveness",
    ("optsync", 9, 0, 6): "agreement, liveness",
    ("optsync", 9, 0, 7): "liveness",
    ("optsync", 9, 2.0, 4): "agreement",
    ("optsync", 9, 2.0, 5): "agreement, liveness",
    ("optsync", 9, 2.0, 6): "agreement, liveness",
    ("optsync", 9, 2.0, 7): "liveness",
}


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


def probe_spec(protocol, n, f, k, block_interval, seed):
    return DeploymentSpec(
        protocol=protocol,
        n=n,
        f=f,
        k=k,
        target_height=6,
        seed=seed,
        block_interval=block_interval,
        fault_schedule=FaultSchedule(
            (EquivocateAt(0, EQUIVOCATION_HEIGHT, baseline_failstop=1e6),)
        ),
    )


def _cells():
    for protocol in ("sync-hotstuff", "optsync"):
        for n, f, k in SHAPES:
            for block_interval in BLOCK_INTERVALS:
                for seed in SEEDS:
                    args = (protocol, n, f, k, block_interval, seed)
                    cell_id = f"{protocol}-n{n}-bi{block_interval}-s{seed}"
                    failure = KNOWN_FAILURES.get((protocol, n, block_interval, seed))
                    marks = ()
                    if failure is not None:
                        marks = pytest.mark.xfail(
                            strict=True,
                            raises=AssertionError,
                            reason=f"{failure} under one equivocating leader; ROADMAP item 1",
                        )
                    yield pytest.param(*args, id=cell_id, marks=marks)


@pytest.mark.parametrize("protocol, n, f, k, block_interval, seed", list(_cells()))
def test_one_equivocating_leader_keeps_the_baseline_safe_and_live(
    protocol, n, f, k, block_interval, seed
):
    spec = probe_spec(protocol, n, f, k, block_interval, seed)
    verdict = judge(f"probe:{protocol}", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]
    # The probe bites: the honest nodes saw the two proposals.
    assert verdict.result.equivocations_detected > 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Sync HotStuff x equivocate livelocks at n=25 (CHANGES.md FOUND): "
    "_start_new_view arms T_blame in every view after the last block commits",
)
def test_one_equivocating_leader_lets_sync_hotstuff_quiesce_at_n25(monkeypatch):
    """The bench's viewchange-n25 shape at bench seed 3: when the event budget
    trips, all 24 honest nodes have committed height 10 and sit in view 43."""
    monkeypatch.setattr(session_module, "MAX_EVENTS", 60_000)
    spec = dataclasses.replace(probe_spec("sync-hotstuff", 25, 5, 2, 0, 10), target_height=10)
    verdict = judge("probe:sync-hotstuff", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Sync HotStuff forks at n=25 under one equivocating leader (CHANGES.md FOUND): "
    "a node locks the block it votes for, not the highest certified one; ROADMAP item 1",
)
def test_one_equivocating_leader_keeps_sync_hotstuff_safe_at_n25():
    """Seed 1, no block interval: node 7 commits another height-6 block."""
    spec = dataclasses.replace(probe_spec("sync-hotstuff", 25, 5, 2, 0, 1), target_height=10)
    verdict = judge("probe:sync-hotstuff", spec, EquivocatingLeaderBuilder)
    assert verdict.ok, [report.detail for report in verdict.violations()]
