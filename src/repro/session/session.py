"""The Session: steppable run control over a built deployment.

A :class:`Session` owns everything a deployment run needs — simulator,
network, replicas, ledger, observer bus, fault controllers — and exposes
the run as a *controllable* process instead of a one-shot black box:

* :meth:`step` — execute exactly one simulator event;
* :meth:`run_until` — run to a virtual-time deadline and/or until a
  predicate over the live session becomes true, then hand control back;
* :meth:`run_to_quiescence` (alias :meth:`run`) — drive to completion,
  interleaving any registered fault controllers (the adaptive-adversary
  hook);
* :meth:`inspect` — a read-only snapshot of live replica+network state,
  valid at any pause point;
* :meth:`finish` — collect the :class:`~repro.session.spec.RunResult`
  (idempotent) and notify observers.

Handing control back *is* the pause: between any two events the caller
may inspect replicas, inject faults, or mutate the network, then resume
with another ``step``/``run_until``/``run`` call.  Runs driven entirely
through :meth:`run` are byte-identical to the seed one-shot runner —
the golden trace fingerprints pin this.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.ledger import SafetyChecker
from repro.core.types import Command
from repro.crypto.signatures import SignatureScheme
from repro.net.network import SimulatedNetwork
from repro.session.observers import ObserverBus
from repro.session.spec import DeploymentSpec, RunResult
from repro.sim.scheduler import SimulationError, Simulator

#: A run's event budget: executing more raises ``SimulationError`` (a likely
#: livelock).  Read at each check, so a test may patch it to trip the guard.
MAX_EVENTS = 2_000_000


class SessionController:
    """Mid-run intervention logic driven by :meth:`Session.run_to_quiescence`.

    Controllers are how *adaptive* adversaries (and future schedulers,
    e.g. partition-and-catch-up orchestration) get a deterministic slice
    of control between events:

    * :meth:`on_attach` runs once when the session starts, before any
      event executes (reset any per-run state here);
    * :meth:`next_wakeup` returns the virtual time at which the controller
      next wants control, or ``None`` when it is done;
    * :meth:`on_wakeup` runs with the session paused at (or after) that
      time and may inspect and mutate live state.

    Determinism contract: decisions must be pure functions of session
    state and virtual time — no wall clock, no unseeded randomness.
    """

    def on_attach(self, session: "Session") -> None:
        """The session is starting; reset per-run state."""

    def next_wakeup(self, session: "Session") -> Optional[float]:
        raise NotImplementedError

    def on_wakeup(self, session: "Session") -> None:
        raise NotImplementedError


class Session:
    """A built deployment with steppable run control.

    Build one with :class:`~repro.session.builder.SessionBuilder` (or the
    :meth:`from_spec` convenience).  The substrates are exposed directly:
    ``sim``, ``network``, ``replicas``, ``ledger``, ``config``, ``scheme``,
    ``topology``.
    """

    def __init__(
        self,
        spec: DeploymentSpec,
        sim: Simulator,
        network: SimulatedNetwork,
        config: ProtocolConfig,
        scheme: SignatureScheme,
        replicas: Dict[int, Any],
        *,
        control: Optional[Any],
        commands: List[Command],
        controllers: Tuple[SessionController, ...],
        bus: ObserverBus,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.network = network
        self.topology = network.hypergraph
        self.ledger = network.ledger
        self.config = config
        self.delta = config.delta
        self.scheme = scheme
        self.replicas = replicas
        #: The trusted control node and its id, or ``None`` for replicated runs.
        self.control = control
        self.control_id = control.pid if control is not None else None
        self.commands = commands
        self.controllers = controllers
        self.bus = bus
        self.started = False
        self._result: Optional[RunResult] = None
        self._executed_at_start = 0

    # ------------------------------------------------------------ convenience
    @classmethod
    def from_spec(cls, spec, **builder_kwargs) -> "Session":
        """Build a session for ``spec`` (see :class:`SessionBuilder` kwargs)."""
        from repro.session.builder import SessionBuilder

        return SessionBuilder(spec, **builder_kwargs).build()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def idle(self) -> bool:
        """Whether no simulator events remain."""
        return self.sim.pending_events == 0

    @property
    def result(self) -> Optional[RunResult]:
        """The collected result, or ``None`` before :meth:`finish`."""
        return self._result

    # ---------------------------------------------------------------- control
    def start(self) -> "Session":
        """Start every process (control node first, then replicas in pid
        order — the seed runner's start order) and notify observers.

        Idempotent; called implicitly by the first ``step``/``run``.
        """
        if self.started:
            return self
        self.started = True
        self._executed_at_start = self.sim.executed_events
        for controller in self.controllers:
            controller.on_attach(self)
        self.bus.session_start(self)
        if self.control is not None:
            self.control.start()
        for replica in self.replicas.values():
            replica.start()
        return self

    def step(self) -> bool:
        """Execute the single next event; ``False`` when idle."""
        self.start()
        self._check_budget()
        return self.sim.step()

    def run_until(
        self,
        deadline: Optional[float] = None,
        pred: Optional[Callable[["Session"], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until a deadline and/or a predicate holds; returns events run.

        Args:
            deadline: Stop once every event at or before this virtual time
                has executed (the clock advances to ``deadline``).  With a
                predicate, acts as an upper bound instead and the clock is
                not advanced past the last executed event.
            pred: Called on the live session before each event; the run
                pauses as soon as it returns true (or the queue drains).
            max_events: Per-call event budget (defaults to the session's
                remaining budget).
        """
        self.start()
        if deadline is None and pred is None:
            raise ValueError("run_until needs a deadline, a predicate, or both")
        budget = max_events if max_events is not None else self._remaining_budget()
        if pred is None:
            return self.sim.run_until(deadline, max_events=budget)
        executed = 0
        while not pred(self):
            next_time = self.sim.next_event_time()
            if next_time is None:
                break
            if deadline is not None and next_time > deadline:
                break
            if not self.sim.step():  # pragma: no cover - raced with next_time
                break
            executed += 1
            if executed > budget:
                raise SimulationError(f"exceeded max_events={budget}; likely a livelock")
        return executed

    def run_to_quiescence(self) -> "Session":
        """Drive the run to completion, interleaving fault controllers.

        Without controllers this is exactly the seed runner's
        ``run_until_idle`` (byte-identical traces).  With controllers, the
        loop alternates: run to the earliest controller wake-up, give each
        due controller its slice of control, repeat — until the queue is
        empty and every controller reports done.
        """
        self.start()
        if not self.controllers:
            self.sim.run_until_idle(max_events=self._remaining_budget())
            return self
        stalls = 0
        while True:
            wakeups = [
                t for c in self.controllers if (t := c.next_wakeup(self)) is not None
            ]
            if not wakeups:
                self.sim.run_until_idle(max_events=self._remaining_budget())
                if all(c.next_wakeup(self) is None for c in self.controllers):
                    return self
                continue
            executed = self.sim.run_until(
                min(wakeups), max_events=self._remaining_budget()
            )
            for controller in self.controllers:
                due = controller.next_wakeup(self)
                if due is not None and due <= self.sim.now + 1e-12:
                    controller.on_wakeup(self)
            # A controller that keeps asking for wake-ups on an idle queue
            # would spin forever; bound the no-progress iterations.
            stalls = stalls + 1 if executed == 0 else 0
            if stalls > 100_000:
                raise SimulationError(
                    "session controllers requested 100000 consecutive wake-ups "
                    "without any event executing; likely a controller livelock"
                )

    def run(self) -> "Session":
        """Alias of :meth:`run_to_quiescence` (chainable)."""
        return self.run_to_quiescence()

    def _remaining_budget(self) -> int:
        return max(1, MAX_EVENTS - self._executed_since_start())

    def _executed_since_start(self) -> int:
        return self.sim.executed_events - self._executed_at_start

    def _check_budget(self) -> None:
        if self._executed_since_start() >= MAX_EVENTS:
            raise SimulationError(f"exceeded max_events={MAX_EVENTS}; likely a livelock")

    # ------------------------------------------------------------- inspection
    def inspect(self) -> dict:
        """A read-only snapshot of live state, valid at any pause point."""
        return {
            "now": self.sim.now,
            "pending_events": self.sim.pending_events,
            "executed_events": self.sim.executed_events,
            "views": {pid: r.v_cur for pid, r in sorted(self.replicas.items())},
            "committed_heights": {
                pid: r.committed_height for pid, r in sorted(self.replicas.items())
            },
            "crashed": sorted(pid for pid, r in self.replicas.items() if r.crashed),
            "physical_transmissions": self.network.stats.physical_transmissions,
            "total_joules": self.ledger.total_joules(),
        }

    def current_leader(self) -> int:
        """The leader of the highest view any live replica is in."""
        views = [r.v_cur for r in self.replicas.values() if not r.crashed]
        return self.config.leader_of(max(views)) if views else self.config.leader_of(1)

    # -------------------------------------------------------------- collection
    def finish(self) -> RunResult:
        """Collect the run's metrics (idempotent) and notify observers.

        Mirrors the seed runner's collection exactly; the spec's Byzantine
        set is read *after* the run, so adaptive schedules report the
        victims they actually struck.
        """
        if self._result is not None:
            return self._result
        spec, config, sim = self.spec, self.config, self.sim
        ledger, network, scheme, replicas = self.ledger, self.network, self.scheme, self.replicas
        exclude_from_energy = {self.control_id} if self.control_id is not None else set()
        byzantine = set(spec.byzantine_nodes)
        faulty = byzantine | exclude_from_energy
        leader = config.leader_of(1)
        energy = ledger.report(leader=leader, faulty=faulty)
        logs = {pid: replica.log for pid, replica in replicas.items()}
        checker = SafetyChecker(logs, faulty=byzantine)
        safety = checker.check()
        committed_heights = {pid: replica.committed_height for pid, replica in replicas.items()}
        correct_heights = [
            height for pid, height in committed_heights.items() if pid not in byzantine
        ]
        shortest = min(checker.correct_logs().values(), key=len, default=None)
        view_changes = max(
            (
                replica.stats.view_changes_completed
                for pid, replica in replicas.items()
                if pid not in byzantine
            ),
            default=0,
        )
        result = RunResult(
            spec=spec,
            config=config,
            energy=energy,
            safety=safety,
            network=network.stats,
            sim_time=sim.now,
            committed_heights=committed_heights,
            min_committed_height=min(correct_heights, default=0),
            view_changes=view_changes,
            equivocations_detected=sum(
                replica.stats.equivocations_detected for replica in replicas.values()
            ),
            blames_sent=sum(replica.stats.blames_sent for replica in replicas.values()),
            sign_operations=scheme.total_sign_operations(),
            verify_operations=scheme.total_verify_operations(),
            commands_dropped=sum(r.txpool.dropped for r in replicas.values()),
            commands_duplicate=sum(r.txpool.duplicates for r in replicas.values()),
            deliveries_dropped=(
                network.impairment.dropped if network.impairment is not None else 0
            ),
            deliveries_retransmitted=(
                network.impairment.retransmits if network.impairment is not None else 0
            ),
            delivery_giveups=(
                network.impairment.giveups if network.impairment is not None else 0
            ),
            txpool_high_watermark=max(
                (r.txpool.high_watermark for r in replicas.values()), default=0
            ),
            replica_snapshots={
                pid: replica.describe() for pid, replica in replicas.items()
            },
            committed_command_ids=(
                shortest.committed_command_ids() if shortest is not None else []
            ),
        )
        self.bus.session_end(self, result)
        self._result = result
        return result
