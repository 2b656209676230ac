"""Deterministic discrete-event simulation kernel.

This package provides the substrate on which the SMR protocols run: a
virtual clock, an event queue with deterministic tie-breaking, cancellable
timers, a process abstraction for message-driven state machines, and a
seeded random-number helper so that every experiment in the paper can be
replayed bit-for-bit.
"""

from repro.sim.scheduler import Simulator
from repro.sim.process import Process
from repro.sim.rng import SeededRNG, derive_seed

__all__ = [
    "Simulator",
    "Process",
    "SeededRNG",
    "derive_seed",
]
