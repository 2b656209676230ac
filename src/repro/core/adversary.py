"""Byzantine behaviours used by experiments and tests.

The paper's evaluation needs three adversarial scenarios:

* a *stalling* (no-progress) leader, which triggers the crash-style view
  change measured in Fig. 2e;
* an *equivocating* leader, which triggers the Byzantine view change
  (also Fig. 2e) and is the behaviour the 4Δ quiet-period commit rule
  defends against;
* *fail-stop / silent* replicas that additionally refuse to relay floods,
  which is the partitioning threat the hypergraph fault bound (Appendix A)
  must withstand.

Each behaviour is implemented as a replica subclass so the Byzantine node
still runs real protocol code (it signs real messages, consumes real
energy) — only the specific misbehaviour differs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.blocks import make_block
from repro.core.eesmr.replica import EesmrReplica
from repro.core.messages import MessageType
from repro.core.types import Round
from repro.net.impairment import SpecError, check_fields, from_fields


#: Behaviours a :class:`FaultPlan` may name (the keys of the class table
#: built at the bottom of this module).
ALLOWED_BEHAVIOURS = ("crash", "silent_leader", "equivocate", "silent")


@dataclass(frozen=True)
class FaultPlan:
    """Which nodes are faulty and how they misbehave.

    The whole-run, one-behaviour form; ``repro.testkit.faults.FaultSchedule``
    composes timed per-node atoms and supersedes it when a spec sets both.
    The plan stays beside the schedule because the two arm the trusted
    baseline differently (a plan never fail-stops its leaves), so folding
    one into the other would change behaviour, not just shape.

    Attributes:
        faulty: Node ids under adversary control.
        behaviour: One of :data:`ALLOWED_BEHAVIOURS`; anything else raises
            :class:`~repro.net.impairment.SpecError` at construction so a
            typo cannot silently run an honest deployment.
        trigger_round: Steady-state round at which a leader misbehaviour is
            triggered (proposals before it are honest).
        crash_time: Virtual time at which ``"crash"`` nodes stop.
    """

    faulty: tuple[int, ...] = ()
    behaviour: str = "crash"
    trigger_round: Round = field(default=3, metadata={"min": 1})
    crash_time: float = field(default=0.0, metadata={"min": 0})

    def __post_init__(self) -> None:
        if self.behaviour not in ALLOWED_BEHAVIOURS:
            raise SpecError(
                f"unknown adversary behaviour {self.behaviour!r}; "
                f"allowed: {ALLOWED_BEHAVIOURS}",
                "behaviour",
            )
        check_fields(self)
        ids = self.faulty
        if not isinstance(ids, (list, tuple)) or any(type(pid) is not int for pid in ids):
            raise SpecError(f"expected a tuple of node ids, got {ids!r}", "faulty")
        object.__setattr__(self, "faulty", tuple(ids))  # JSON has lists

    @property
    def f_actual(self) -> int:
        return len(self.faulty)

    def describe(self) -> dict:
        """Every field, JSON-friendly (round-trips through :func:`plan_from_dict`)."""
        return {**dataclasses.asdict(self), "faulty": list(self.faulty)}


def plan_from_dict(entry: dict) -> FaultPlan:
    """Rebuild a :class:`FaultPlan`; omitted keys take the dataclass's defaults."""
    return from_fields(FaultPlan, entry, "fault_plan")


class SilentLeaderReplica(EesmrReplica):
    """A leader that stops proposing at (or after) ``trigger_round``.

    Until the trigger it behaves correctly, so earlier blocks commit; from
    the trigger onwards it never proposes again, which makes the other
    nodes' T_blame expire and starts the crash-style view change.
    """

    def __init__(self, *args, trigger_round: Round = 3, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trigger_round = trigger_round

    def _propose_next(self) -> None:
        if self.is_leader(self.v_cur) and self.next_propose_round >= self.trigger_round:
            return
        super()._propose_next()


class EquivocatingLeaderReplica(EesmrReplica):
    """A leader that proposes two conflicting blocks in ``trigger_round``."""

    def __init__(self, *args, trigger_round: Round = 3, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trigger_round = trigger_round
        self._equivocated = False

    def _propose_next(self) -> None:
        if (
            not self._equivocated
            and self.is_leader(self.v_cur)
            and self.next_propose_round >= self.trigger_round
        ):
            self._equivocate(self.next_propose_round)
            return
        super()._propose_next()

    def _equivocate(self, round_number: Round) -> None:
        """Broadcast two different blocks for the same (view, round)."""
        self._equivocated = True
        parent = self.leader_chain_tip
        first = make_block(parent, self.pid, self.v_cur, round_number, self.next_batch(parent))
        # The conflicting twin carries no commands so its hash necessarily differs.
        second = make_block(parent, self.pid, self.v_cur, round_number, [])
        for block in (first, second):
            self.store_block(block)
            message = self.sign_message(
                MessageType.PROPOSE, block, view=self.v_cur, round_number=round_number
            )
            self.broadcast(message)
        self.stats.proposals_made += 2


class CrashReplica(EesmrReplica):
    """A fail-stop node: behaves correctly until ``crash_time`` then goes dark.

    Crashed nodes also stop relaying floods (their relay policy is installed
    by the experiment runner), which is the worst case for connectivity.
    """

    def __init__(self, *args, crash_time: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.crash_time = crash_time

    def start(self) -> None:
        super().start()
        self.after(self.crash_time, self.crash, label="adversary:crash")


class SilentReplica(EesmrReplica):
    """A Byzantine non-leader that never sends anything (it still listens).

    Unlike :class:`CrashReplica` it keeps consuming receive energy, which
    is the "energy fault" behaviour discussed in Section 4: it contributes
    nothing while forcing the correct nodes to run the protocol without its
    votes.
    """

    def broadcast(self, message) -> None:  # type: ignore[override]
        return

    def send(self, destination, message) -> None:  # type: ignore[override]
        return

    def _propose_next(self) -> None:
        return


#: Behaviour name -> Byzantine replica class implementing it.
BEHAVIOUR_CLASSES = {
    "crash": CrashReplica,
    "silent_leader": SilentLeaderReplica,
    "equivocate": EquivocatingLeaderReplica,
    "silent": SilentReplica,
}


def behaviour_class(behaviour: str):
    """The Byzantine replica class implementing ``behaviour``."""
    try:
        return BEHAVIOUR_CLASSES[behaviour]
    except KeyError:
        raise ValueError(
            f"unknown adversary behaviour {behaviour!r}; allowed: {ALLOWED_BEHAVIOURS}"
        ) from None


def behaviour_kwargs(plan: FaultPlan) -> dict:
    """Constructor kwargs for the behaviour class of ``plan``."""
    if plan.behaviour == "crash":
        return {"crash_time": plan.crash_time}
    if plan.behaviour in ("silent_leader", "equivocate"):
        return {"trigger_round": plan.trigger_round}
    return {}


def replica_class_for(plan: FaultPlan, pid: int):
    """The replica class (and kwargs) to instantiate for ``pid`` under ``plan``."""
    if pid not in plan.faulty:
        return EesmrReplica, {}
    return behaviour_class(plan.behaviour), behaviour_kwargs(plan)
