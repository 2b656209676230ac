"""Shared type aliases and simple value objects for the SMR core."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from repro.crypto.hashing import structural_digest

#: Node identifier (index into the system N = {p_1, ..., p_n}).
NodeId = int

#: View number; views are numbered from 1 as in the paper.
View = int

#: Round number; rounds 1 and 2 of every view are reserved for the view
#: change, the steady state starts at round 3.
Round = int

#: The first steady-state round of every view.
FIRST_STEADY_ROUND: Round = 3

#: The first view of the protocol.
FIRST_VIEW: View = 1


@dataclass(frozen=True)
class Command:
    """A client request (an element of ``Cmds``).

    Attributes:
        command_id: Unique identifier assigned by the issuing client.
        client_id: The issuing client (0 for synthetic workloads).
        payload_size_bytes: Size of the opaque request body.  The
            reproduction never inspects request semantics — the paper
            explicitly delegates request validity to the application layer —
            so only the size matters for energy accounting.
        payload_digest: Short digest standing in for the request body.
        arrival_time: Virtual time the command arrived at the system, or
            ``None`` for pre-loaded (closed-loop) workloads.  Excluded from
            ``repr`` and equality on purpose: the canonical serialisation
            (``json.dumps(..., default=repr)``) and therefore every wire
            size, block hash and golden trace fingerprint must not change
            when a workload engine annotates arrivals.
    """

    command_id: str
    client_id: int = 0
    payload_size_bytes: int = 16
    payload_digest: str = ""
    arrival_time: Optional[float] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_size_bytes < 0:
            raise ValueError("payload size cannot be negative")

    @property
    def wire_size_bytes(self) -> int:
        """Bytes this command occupies inside a block."""
        # command id (bounded), client id, and the payload itself.
        return 8 + 4 + self.payload_size_bytes

    @cached_property
    def digest(self) -> str:
        """Structural digest of the fields equality compares (no ``arrival_time``)."""
        return structural_digest(
            [self.command_id, self.client_id, self.payload_size_bytes, self.payload_digest]
        )


@dataclass(frozen=True)
class Batch:
    """An ordered batch of commands proposed together in one block."""

    commands: Tuple[Command, ...] = field(default_factory=tuple)

    @property
    def wire_size_bytes(self) -> int:
        """Total bytes of all commands in the batch."""
        return sum(command.wire_size_bytes for command in self.commands)

    @cached_property
    def command_ids(self) -> Tuple[str, ...]:
        return tuple(command.command_id for command in self.commands)
