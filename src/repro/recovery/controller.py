"""The session controller that drives catch-up for one recovering atom.

One :class:`RecoveryController` is attached per recovery-bearing fault
atom (:class:`~repro.testkit.faults.PartitionWindow`,
:class:`~repro.testkit.faults.CrashRecoverWindow`) through the existing
``FaultSchedule.controllers()`` → ``SessionBuilder`` → ``Session``
plumbing; no new builder surface is needed.  Determinism follows the
adaptive-adversary contract (:mod:`repro.session.adaptive`): wake-ups at
virtual times derived from fixed parameters and seeded draws, decisions
that are pure functions of session state.
"""

from __future__ import annotations

from typing import List, Optional

from repro.net.impairment import CATCH_UP_RETRY
from repro.sim.rng import SeededRNG, derive_seed


class RecoveryController:
    """Drive one node's catch-up after its partition heals (or it reboots).

    Lifecycle (all transitions surfaced via ``session.bus.recovery`` as
    ``sync_started`` / ``sync_request`` / ``sync_timeout`` / ``sync_retry``
    / ``caught_up`` / ``gave_up`` events):

    * sleep until the atom's ``heal`` time;
    * at heal, retire immediately if the node is still cut off by an
      overlapping window (that window's own controller owns recovery
      after the *last* heal) or dark from a composed crash fault;
    * while the node trails the highest committed height among live
      peers, solicit a rotating peer with the per-request timeout and
      exponential seeded-jitter backoff of
      :data:`~repro.net.impairment.CATCH_UP_RETRY`, up to its
      ``max_retries`` retries, then give up (bounded);
    * while the node is caught up but the run is still busy, keep
      watching quietly — a deficit appearing later (e.g. a flood it
      missed mid-sync) re-solicits with a fresh retry budget, which is
      the graceful re-solicit-after-quiescence degradation path.
    """

    def __init__(self, fault) -> None:
        self.fault = fault
        self._phase = "waiting"  # waiting -> monitoring -> done
        self._wake = float(fault.heal)
        self._awaiting = False
        self._attempt = 0
        self._started = False
        self._rng: Optional[SeededRNG] = None
        self._peers: List[int] = []
        self._cursor = 0

    # ------------------------------------------------------------- protocol
    def on_attach(self, session) -> None:
        self._phase = "waiting"
        self._wake = float(self.fault.heal)
        self._awaiting = False
        self._attempt = 0
        self._started = False
        # One deterministic stream per (run seed, recovering node):
        # peer-rotation order and backoff jitter replay exactly per seed.
        self._rng = SeededRNG(derive_seed(session.spec.seed, "recovery", self.fault.node))
        self._peers = self._rng.shuffle(
            [pid for pid in sorted(session.replicas) if pid != self.fault.node]
        )
        self._cursor = 0
        replica = session.replicas.get(self.fault.node)
        if replica is not None:
            replica._sync_confirmations.clear()

    def next_wakeup(self, session) -> Optional[float]:
        if self._phase == "done":
            return None
        return max(self._wake, session.now)

    def on_wakeup(self, session) -> None:
        node = self.fault.node
        replica = session.replicas.get(node)
        if replica is None:
            self._phase = "done"
            return
        if self._phase == "waiting":
            if session.network.is_partitioned(node) or replica.crashed:
                # Still cut off by an overlapping window (its controller
                # takes over at the last heal), or dark from a composed
                # crash fault — either way catch-up is not ours to run.
                self._phase = "done"
                return
            self._phase = "monitoring"
            self._step(session, replica)
            return
        if self._phase == "monitoring":
            self._step(session, replica)

    # --------------------------------------------------------------- states
    def _step(self, session, replica) -> None:
        node = self.fault.node
        target = self._live_target(session)
        if replica.committed_height >= target:
            if self._started:
                session.bus.recovery(
                    node,
                    "caught_up",
                    {"height": replica.committed_height, "attempts": self._attempt},
                    session.now,
                )
                self._started = False
            self._attempt = 0
            self._awaiting = False
            if session.idle:
                self._phase = "done"
                return
            # The run is still busy; keep watching for a late deficit.
            self._wake = session.now + CATCH_UP_RETRY.timeout
            return
        if self._awaiting:
            # The outstanding attempt did not close the gap in time.
            session.bus.recovery(
                node,
                "sync_timeout",
                {"attempt": self._attempt, "height": replica.committed_height},
                session.now,
            )
            if self._attempt > CATCH_UP_RETRY.max_retries:
                session.bus.recovery(
                    node,
                    "gave_up",
                    {
                        "attempts": self._attempt,
                        "height": replica.committed_height,
                        "target": target,
                    },
                    session.now,
                )
                self._phase = "done"
                return
            delay = CATCH_UP_RETRY.backoff(self._attempt - 1, self._rng)
            session.bus.recovery(
                node,
                "sync_retry",
                {"attempt": self._attempt, "delay": delay},
                session.now,
            )
            self._awaiting = False
            self._wake = session.now + delay
            return
        # Not awaiting: fire the next solicitation.
        if not self._started:
            session.bus.recovery(
                node,
                "sync_started",
                {
                    "height": replica.committed_height,
                    "target": target,
                    "peers": len(self._peers),
                },
                session.now,
            )
            self._started = True
        self._attempt += 1
        peer = self._next_peer(session)
        if peer is not None:
            session.bus.recovery(
                node,
                "sync_request",
                {"peer": peer, "attempt": self._attempt, "height": replica.committed_height},
                session.now,
            )
            replica.request_sync(peer)
        self._awaiting = True
        self._wake = session.now + CATCH_UP_RETRY.timeout

    # -------------------------------------------------------------- helpers
    def _live_target(self, session) -> int:
        """Highest committed height among live, connected peers."""
        best = 0
        for pid, replica in session.replicas.items():
            if pid == self.fault.node or replica.crashed:
                continue
            if session.network.is_partitioned(pid):
                continue
            if replica.committed_height > best:
                best = replica.committed_height
        return best

    def _next_peer(self, session) -> Optional[int]:
        """The next live, connected peer in the seeded rotation."""
        for _ in range(len(self._peers)):
            peer = self._peers[self._cursor % len(self._peers)]
            self._cursor += 1
            replica = session.replicas.get(peer)
            if replica is None or replica.crashed:
                continue
            if session.network.is_partitioned(peer):
                continue
            return peer
        return None
