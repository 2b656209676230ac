"""Clients: synthetic command generation and f+1-ack acceptance.

The paper abstracts clients away ("The clients wait to receive f+1
identical acknowledgments with execution results and accept the results")
and explicitly excludes client-side costs from the energy model.  The
reproduction therefore models clients as out-of-band entities: they inject
commands directly into replicas' txpools (no radio energy) and receive
commit acknowledgements through a callback, accepting a command once f+1
distinct replicas acknowledged the same log position for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.types import Command
from repro.sim.rng import SeededRNG


@dataclass(slots=True)
class Acknowledgement:
    """A replica's notification that a command committed at a log position."""

    replica: int
    command_id: str
    height: int
    block_hash: str


@dataclass
class ClientStats:
    """Counters describing a client's view of the run."""

    submitted: int = 0
    accepted: int = 0
    pending: int = 0


class CommandFactory:
    """Deterministic generator of synthetic client commands."""

    def __init__(self, client_id: int = 0, payload_size_bytes: int = 16, rng: Optional[SeededRNG] = None) -> None:
        self.client_id = client_id
        self.payload_size_bytes = payload_size_bytes
        self.rng = rng or SeededRNG(client_id)
        self._counter = itertools.count()

    def next_command(self, arrival_time: Optional[float] = None) -> Command:
        """Produce the next command with a unique id.

        ``arrival_time`` stamps the command with the virtual time it
        entered the system (open-loop engines); ``None`` — the default and
        the closed-loop behaviour — leaves the command unstamped.  The
        stamp is excluded from the command's canonical representation, so
        stamped and unstamped streams serialise identically.
        """
        index = next(self._counter)
        digest = self.rng.bytes(8).hex()
        return Command(
            command_id=f"c{self.client_id}-{index}",
            client_id=self.client_id,
            payload_size_bytes=self.payload_size_bytes,
            payload_digest=digest,
            arrival_time=arrival_time,
        )

    def batch(self, count: int, arrival_time: Optional[float] = None) -> List[Command]:
        """Produce ``count`` commands (all stamped with ``arrival_time``)."""
        if count < 0:
            raise ValueError("count cannot be negative")
        return [self.next_command(arrival_time) for _ in range(count)]


class Client:
    """An honest client that accepts a result after f+1 identical acks."""

    def __init__(self, client_id: int, f: int, payload_size_bytes: int = 16, seed: int = 0) -> None:
        self.client_id = client_id
        self.f = f
        self.factory = CommandFactory(client_id, payload_size_bytes, SeededRNG(seed).child("client", client_id))
        self.submitted: Dict[str, Command] = {}
        # command id -> {(height, block_hash) -> set of acking replicas}
        self._acks: Dict[str, Dict[Tuple[int, str], Set[int]]] = {}
        self.accepted: Dict[str, Tuple[int, str]] = {}

    # ------------------------------------------------------------ submission
    def create_commands(self, count: int) -> List[Command]:
        """Create commands and remember them as submitted."""
        commands = self.factory.batch(count)
        for command in commands:
            self.submitted[command.command_id] = command
        return commands

    # ----------------------------------------------------------------- acks
    def on_ack(self, ack: Acknowledgement) -> bool:
        """Record an acknowledgement; returns ``True`` when the command is newly accepted."""
        if ack.command_id in self.accepted:
            return False
        per_position = self._acks.get(ack.command_id)
        if per_position is None:
            per_position = self._acks[ack.command_id] = {}
        key = (ack.height, ack.block_hash)
        replicas = per_position.get(key)
        if replicas is None:
            replicas = per_position[key] = set()
        replicas.add(ack.replica)
        if len(replicas) >= self.f + 1:
            self.accepted[ack.command_id] = key
            return True
        return False

    # -------------------------------------------------------------- queries
    def is_accepted(self, command_id: str) -> bool:
        """Whether f+1 replicas acknowledged the command at the same position."""
        return command_id in self.accepted

    def stats(self) -> ClientStats:
        """Summary counters."""
        return ClientStats(
            submitted=len(self.submitted),
            accepted=len(self.accepted),
            pending=len(self.submitted) - len(self.accepted),
        )

    def unaccepted_ids(self) -> List[str]:
        """Commands still waiting for f+1 acknowledgements."""
        return [cid for cid in self.submitted if cid not in self.accepted]


class AckRouter:
    """Fan-out helper wiring replica commit notifications to clients."""

    def __init__(self, clients: Iterable[Client]) -> None:
        self._clients = {client.client_id: client for client in clients}

    def route(self, replica: int, command: Command, height: int, block_hash: str) -> None:
        """Deliver an acknowledgement to the issuing client (if known)."""
        client = self._clients.get(command.client_id)
        if client is None:
            return
        client.on_ack(
            Acknowledgement(
                replica=replica,
                command_id=command.command_id,
                height=height,
                block_hash=block_hash,
            )
        )

    def clients(self) -> List[Client]:
        return list(self._clients.values())
