"""Adaptive adversaries: fault logic that reacts to the live run.

The fault-schedule DSL (:mod:`repro.testkit.faults`) describes *static*
adversaries — which node misbehaves, and when, is fixed before the run.
The scenario frontier the ROADMAP names (moving adversaries that follow
the leader schedule) needs decisions made *during* the run, against live
protocol state.  The session's steppable run control provides exactly
that surface: a :class:`~repro.session.session.SessionController` gets a
deterministic pause between events, inspects replicas, and strikes.

:class:`LeaderFollowingController` is the first such adversary: whenever
its wake-up fires it looks up the highest view any live replica is in,
resolves the rotation's leader for that view, and fail-stops it — then
waits for the view change to install the next leader and strikes again,
until its budget of ``f`` crashes is spent.  This is the classic
"mobile" crash adversary that a static schedule cannot express: the
victim set is a function of the run itself.

Determinism: wake-ups happen at fixed virtual times (``start`` +
multiples of ``interval``), decisions are pure functions of session
state, and strikes are applied between events — so adaptive runs are
exactly as reproducible as static ones (pinned by the determinism
tests).
"""

from __future__ import annotations

from typing import Optional

from repro.session.session import Session, SessionController


class LeaderFollowingController(SessionController):
    """Crash whichever node the rotation currently makes leader.

    Args:
        fault: The ``repro.testkit.faults.LeaderFollowingCrash`` atom this
            controller executes; victims are recorded back onto it so the
            schedule's post-run Byzantine accounting matches reality.
    """

    def __init__(self, fault) -> None:
        self.fault = fault
        self._next_check = float(fault.start)

    # ------------------------------------------------------------- protocol
    def on_attach(self, session: Session) -> None:
        # The atom's recorded victims describe *one* run.  Starting a new
        # session over the same schedule (same spec re-run) begins a fresh
        # campaign — without this, victims accumulate across runs and a
        # node honest in this run would be excluded from its safety and
        # liveness accounting.
        self.fault.reset_victims()
        self._next_check = float(self.fault.start)
    def next_wakeup(self, session: Session) -> Optional[float]:
        if len(self.fault.victims) >= self.fault.budget:
            return None
        if session.idle:
            # Nothing will ever run again; striking now cannot change the
            # outcome, so the adversary retires with its budget unspent.
            return None
        return max(self._next_check, session.now)

    def on_wakeup(self, session: Session) -> None:
        self._next_check = session.now + self.fault.interval
        leader = session.current_leader()
        target = session.replicas.get(leader)
        if target is None or target.crashed:
            # The rotation's current leader is already dark (our own prior
            # strike, or a composed static fault); wait for the next view.
            return
        self.strike(session, leader)

    # --------------------------------------------------------------- actions
    def strike(self, session: Session, pid: int) -> None:
        """Fail-stop ``pid`` now: crash the process, stop its relaying."""
        session.replicas[pid].crash()
        # Matching the DSL's fail-stop semantics: a crashed node never
        # relays again.  deny_relay is refcounted and never released here.
        session.network.deny_relay(pid)
        self.fault.record_victim(pid)
        session.bus.fault_window(pid, "adaptive-leader-crash", True, session.now)
