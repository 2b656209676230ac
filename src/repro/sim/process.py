"""Process abstraction: a message-driven state machine attached to a simulator.

A :class:`Process` is anything that lives in the simulation and reacts to
deliveries — protocol replicas, clients, the trusted control node of the
baseline protocol, and adversary shims all subclass it.  The network layer
delivers messages by calling :meth:`Process.deliver`, which dispatches to
``on_message`` unless the process has crashed.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer, TimerRegistry


class Process:
    """Base class for simulated processes (replicas, clients, control nodes)."""

    def __init__(self, sim: Simulator, pid: int, name: Optional[str] = None) -> None:
        self.sim = sim
        self.pid = pid
        self.name = name if name is not None else f"p{pid}"
        self.crashed = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Hook called once by the runner before the simulation starts."""

    def crash(self) -> None:
        """Stop reacting to any future deliveries or timers."""
        self.crashed = True

    def recover(self) -> None:
        """Resume reacting to deliveries (used by failure-injection tests)."""
        self.crashed = False

    # ------------------------------------------------------------- messaging
    def deliver(self, sender: int, message: Any) -> None:
        """Entry point used by the network layer to hand over a message."""
        if self.crashed:
            return
        self.on_message(sender, message)

    def on_message(self, sender: int, message: Any) -> None:
        """Handle a delivered message; subclasses override."""
        raise NotImplementedError

    # ---------------------------------------------------------------- timers
    def make_timer(self, name: str, callback) -> Timer:
        """Create a named timer owned by this process."""
        return Timer(self.sim, f"{self.name}:{name}", callback)

    def make_timer_registry(self, prefix: str) -> TimerRegistry:
        """Create a keyed timer registry owned by this process."""
        return TimerRegistry(self.sim, prefix=f"{self.name}:{prefix}")

    def after(self, delay: float, callback, label: str, args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` guarded by the crash flag."""
        self.sim.schedule(delay, self._run_unless_crashed, label, (callback, args))

    def _run_unless_crashed(self, callback, args: tuple) -> None:
        if not self.crashed:
            callback(*args)
