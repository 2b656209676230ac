"""Workload engines: deterministic traffic generation for deployments.

Every engine obeys the same determinism contract as the rest of the
reproduction: the arrival stream is a pure function of the
:class:`~repro.eval.runner.DeploymentSpec` (rate/clients/seed), drawn from
a :func:`~repro.sim.rng.derive_seed`-derived stream so that adding an
engine never perturbs any existing consumer of randomness.  Two builds of
the same spec produce the identical stream — including across matrix
worker processes, which is what makes ``parallel=N`` sweeps byte-identical
to serial ones.

Open-loop command ids live in their own namespace (``ol<client>-<index>``,
trace entries default to ``tr<index>``), so they can never collide with
the closed-loop generator's ``c0-<index>`` stream.  Open-loop commands
carry ``client_id=0`` — the session's single tracking
:class:`~repro.core.client.Client` — and encode the *simulated* client in
the id namespace instead: the paper's clients are out-of-band, so
multiplexing thousands of simulated senders over one f+1-ack tracker
models production load without n_clients live objects.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.types import Command
from repro.eval.workloads import commands_for_run, fill_txpools
from repro.sim.rng import SeededRNG, derive_seed

#: Safety valve: the largest arrival stream any engine will generate.
MAX_GENERATED_COMMANDS = 250_000


@dataclass
class WorkloadPlan:
    """What an engine contributed to a session build.

    ``commands`` is the full deterministic stream (the session exposes it
    as ``session.commands``); ``arrivals`` is the subset injected as
    simulator events (empty for preloads).
    """

    commands: List[Command]
    arrivals: Tuple[Command, ...] = ()


class WorkloadEngine:
    """Protocol for workload engines (duck-typed; subclassing is idiomatic).

    * :meth:`commands_for` — the arrival stream as a pure function of the
      spec (no simulator needed; invariants and property tests call this);
    * :meth:`install` — wire the stream into a partially built session
      (stage 5 of the builder pipeline); preloads fill pools directly,
      arrival-driven engines push ``workload:arrival`` simulator events;
    * :meth:`describe` — the JSON-safe ``workload`` schema section
      (round-trips through :func:`workload_from_dict`);
    * :meth:`is_default` — whether this engine is byte-identical to the
      seed behaviour (fingerprints omit default engines entirely).
    """

    kind = "engine"

    def commands_for(self, spec) -> List[Command]:
        raise NotImplementedError

    def command_ids(self, spec) -> Set[str]:
        """The id set of :meth:`commands_for` (liveness invariant support)."""
        return {command.command_id for command in self.commands_for(spec)}

    def install(self, builder) -> WorkloadPlan:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        raise NotImplementedError

    def is_default(self) -> bool:
        return False


@dataclass
class ClosedLoopPreload(WorkloadEngine):
    """The seed workload path: pre-load one stream into every pool.

    Byte-identical to the pre-engine ``build_workload_stage`` — the same
    generator call, the same client registration, the same fill order, no
    simulator events — so every golden trace fingerprint is unchanged
    whether a spec carries ``workload=None`` or an explicit default
    ``ClosedLoopPreload()``.
    """

    #: Extra blocks' worth of commands beyond the target height (covers
    #: view-change and abandoned-proposal consumption).
    surplus_blocks: int = 4

    kind = "closed-loop"

    def commands_for(self, spec) -> List[Command]:
        return commands_for_run(
            spec.target_height,
            spec.batch_size,
            spec.command_payload_bytes,
            seed=spec.seed,
            surplus_blocks=self.surplus_blocks,
        )

    def install(self, builder) -> WorkloadPlan:
        replica_stage = builder._need("replica_stage")
        commands = self.commands_for(builder.spec)
        if not builder.trusted:
            # The replicated client tracks its submissions for f+1-ack
            # acceptance; the trusted baseline's leaves ack via the control
            # node, matching the seed runner.
            for command in commands:
                replica_stage.client.submitted[command.command_id] = command
        fill_txpools(replica_stage.replicas.values(), commands)
        return WorkloadPlan(commands=commands)

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "surplus_blocks": self.surplus_blocks}

    def is_default(self) -> bool:
        return self.surplus_blocks == 4


def default_open_loop_duration(spec) -> float:
    """The arrival window used when an open-loop spec names no duration.

    Spans the proposal schedule — one ``block_interval`` (or, when the
    interval is 0, one ``hop_delay``) per block plus one slack period — so
    the stream covers the run without outliving it by orders of magnitude.
    """
    period = max(spec.block_interval, spec.hop_delay, 1e-9)
    return (spec.target_height + 1) * period


@dataclass
class OpenLoopPoisson(WorkloadEngine):
    """Seeded Poisson arrivals, injected as simulator events.

    Arrivals are drawn once, at build time, from the spec-derived stream
    ``derive_seed(seed, "workload", "open-loop", rate, clients)`` and
    scheduled as ``workload:arrival`` events; each event registers the
    command with the tracking client and submits it to every live replica
    through pool admission.  A command that arrives after the leader
    stopped proposing (or that a bounded pool rejects) simply never
    commits — that *is* the overload behaviour the SLO metrics report.
    """

    #: Mean arrivals per unit of virtual time (Poisson process rate λ).
    rate: float = 1.0
    #: Arrival window length; ``None`` uses :func:`default_open_loop_duration`.
    duration: Optional[float] = None
    #: Simulated clients multiplexed over the id namespace.
    clients: int = 1
    #: Payload size override; ``None`` uses ``spec.command_payload_bytes``.
    payload_size_bytes: Optional[int] = None

    kind = "open-loop"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"open-loop rate must be positive, got {self.rate}")
        if self.duration is not None and self.duration < 0:
            raise ValueError("open-loop duration cannot be negative")
        if self.clients < 1:
            raise ValueError("open-loop needs at least one simulated client")
        if self.payload_size_bytes is not None and self.payload_size_bytes < 0:
            raise ValueError("payload size cannot be negative")

    def commands_for(self, spec) -> List[Command]:
        rng = SeededRNG(
            derive_seed(spec.seed, "workload", "open-loop", self.rate, self.clients)
        )
        duration = (
            self.duration if self.duration is not None else default_open_loop_duration(spec)
        )
        payload = (
            self.payload_size_bytes
            if self.payload_size_bytes is not None
            else spec.command_payload_bytes
        )
        commands: List[Command] = []
        counters = [0] * self.clients
        now = 0.0
        while len(commands) < MAX_GENERATED_COMMANDS:
            now += rng.exponential(1.0 / self.rate)
            if now > duration:
                break
            client = rng.randint(0, self.clients - 1) if self.clients > 1 else 0
            index = counters[client]
            counters[client] += 1
            commands.append(
                Command(
                    command_id=f"ol{client}-{index}",
                    client_id=0,
                    payload_size_bytes=payload,
                    payload_digest=rng.bytes(8).hex(),
                    arrival_time=now,
                )
            )
        return commands

    def install(self, builder) -> WorkloadPlan:
        replica_stage = builder._need("replica_stage")
        commands = self.commands_for(builder.spec)
        _schedule_arrivals(builder, replica_stage, commands)
        return WorkloadPlan(commands=commands, arrivals=tuple(commands))

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "duration": self.duration,
            "clients": self.clients,
            "payload_size_bytes": self.payload_size_bytes,
        }


@dataclass
class TraceReplay(WorkloadEngine):
    """Replay a timestamped command stream.

    The stream comes from a JSON file (a list of
    ``{"time": ..., "command_id": ..., "client_id": ..., "payload_size_bytes": ...}``
    objects; only ``time`` is required) or from inline ``entries``.
    ``describe`` always embeds the normalised entries, so a serialised spec
    replays identically on a machine without the original file.
    """

    #: Normalised entries: ``(time, command_id, client_id, payload_size_bytes)``.
    #: ``payload_size_bytes`` of ``None`` defers to the spec.
    entries: Tuple[Tuple[float, str, int, Optional[int]], ...] = ()
    #: Source file (provenance only; excluded from equality and schema).
    path: Optional[str] = field(default=None, compare=False)

    kind = "trace"

    def __post_init__(self) -> None:
        if self.path is not None and not self.entries:
            with open(self.path) as handle:
                raw = json.load(handle)
            self.entries = _normalise_trace_entries(raw)
        else:
            self.entries = _normalise_trace_entries(self.entries)
        seen: Set[str] = set()
        for time, command_id, _, _ in self.entries:
            if time < 0:
                raise ValueError(f"trace entry {command_id!r} has negative time {time}")
            if command_id in seen:
                raise ValueError(f"duplicate trace command id {command_id!r}")
            seen.add(command_id)

    def commands_for(self, spec) -> List[Command]:
        commands: List[Command] = []
        for time, command_id, client_id, payload in self.entries:
            commands.append(
                Command(
                    command_id=command_id,
                    client_id=client_id,
                    payload_size_bytes=(
                        payload if payload is not None else spec.command_payload_bytes
                    ),
                    payload_digest="",
                    arrival_time=time,
                )
            )
        return commands

    def install(self, builder) -> WorkloadPlan:
        replica_stage = builder._need("replica_stage")
        commands = self.commands_for(builder.spec)
        _schedule_arrivals(builder, replica_stage, commands)
        return WorkloadPlan(commands=commands, arrivals=tuple(commands))

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "entries": [
                {
                    "time": time,
                    "command_id": command_id,
                    "client_id": client_id,
                    "payload_size_bytes": payload,
                }
                for time, command_id, client_id, payload in self.entries
            ],
        }

    @classmethod
    def from_file(cls, path: str) -> "TraceReplay":
        return cls(path=path)


def _normalise_trace_entries(raw: Sequence[Any]) -> Tuple[Tuple[float, str, int, Optional[int]], ...]:
    """Accept dict or tuple entries; emit the canonical tuple form."""
    out: List[Tuple[float, str, int, Optional[int]]] = []
    for index, entry in enumerate(raw):
        if isinstance(entry, dict):
            time = entry.get("time")
            command_id = entry.get("command_id", f"tr{index}")
            client_id = entry.get("client_id", 0)
            payload = entry.get("payload_size_bytes")
        else:
            padded = tuple(entry) + (None,) * (4 - len(tuple(entry)))
            time, command_id, client_id, payload = padded[:4]
            command_id = command_id if command_id is not None else f"tr{index}"
            client_id = client_id if client_id is not None else 0
        if not isinstance(time, (int, float)) or isinstance(time, bool):
            raise ValueError(f"trace entry {index} has no numeric 'time': {entry!r}")
        out.append((float(time), str(command_id), int(client_id), payload))
    return tuple(out)


def _schedule_arrivals(builder, replica_stage, commands: Sequence[Command]) -> None:
    """Push one ``workload:arrival`` event per command (stream order).

    Events acquire queue sequence numbers here, in stage 5 — after every
    replica fail-stop timer (stage 4) and before the fault stage's own
    events — which is what makes open-loop runs byte-deterministic per
    seed.  Each arrival registers with the tracking client (replicated
    runs) and submits to every non-crashed replica through admission, in
    pid order.
    """
    client = replica_stage.client
    replicas = replica_stage.replicas
    trusted = builder.trusted
    ordered_pids = sorted(replicas)

    def deliver(command: Command) -> None:
        if not trusted:
            client.submitted[command.command_id] = command
        for pid in ordered_pids:
            replica = replicas[pid]
            if not replica.crashed:
                replica.submit_commands((command,))

    for command in commands:
        builder.sim.schedule_at(
            command.arrival_time, deliver, label="workload:arrival", args=(command,)
        )


# -------------------------------------------------------------- serialisation
#: Engine classes by schema ``kind``.
WORKLOAD_KINDS = {
    ClosedLoopPreload.kind: ClosedLoopPreload,
    OpenLoopPoisson.kind: OpenLoopPoisson,
    TraceReplay.kind: TraceReplay,
}


def workload_from_dict(data: Dict[str, Any]) -> WorkloadEngine:
    """Rebuild an engine from its :meth:`WorkloadEngine.describe` output.

    Omitted keys take the engine dataclass's own defaults; an unknown kind
    or key is an error, not a silently defaulted field.
    """
    if not isinstance(data, dict):
        raise ValueError(f"workload schema must be an object, got {type(data).__name__}")
    rest = dict(data)
    kind = rest.pop("kind", None)
    cls = WORKLOAD_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown workload kind {kind!r}; known: {sorted(WORKLOAD_KINDS)}"
        )
    # compare=False fields (a trace's source path) are provenance, not schema.
    known = {f.name for f in dataclasses.fields(cls) if f.compare}
    unknown = set(rest) - known
    if unknown:
        raise ValueError(
            f"unknown {kind} workload keys {sorted(unknown)}; known: {sorted(known)}"
        )
    return cls(**rest)


def parse_workload(text: str) -> WorkloadEngine:
    """Parse a CLI workload flag.

    Accepted forms: ``closed-loop``, ``open-loop:<rate>``,
    ``open-loop:<rate>:<clients>``, ``open-loop:<rate>:<clients>:<duration>``
    and ``trace:<file.json>``.
    """
    head, _, rest = text.partition(":")
    if head == "closed-loop":
        return ClosedLoopPreload()
    if head == "open-loop":
        parts = rest.split(":") if rest else []
        if not parts or not parts[0]:
            raise ValueError("open-loop needs a rate: --workload open-loop:<rate>")
        try:
            rate = float(parts[0])
            clients = int(parts[1]) if len(parts) > 1 else 1
            duration = float(parts[2]) if len(parts) > 2 else None
        except ValueError as error:
            raise ValueError(f"bad open-loop workload {text!r}: {error}") from None
        return OpenLoopPoisson(rate=rate, clients=clients, duration=duration)
    if head == "trace":
        if not rest:
            raise ValueError("trace needs a file: --workload trace:<file.json>")
        return TraceReplay(path=rest)
    raise ValueError(
        f"unknown workload {text!r}; expected closed-loop, "
        f"open-loop:<rate>[:<clients>[:<duration>]] or trace:<file>"
    )


def workload_command_ids(spec) -> Set[str]:
    """The command ids the spec's workload generates (engine-aware).

    The liveness invariant's "everything committed came from the workload"
    check routes through here, so it holds for open-loop and trace runs
    exactly as it does for preloads.
    """
    engine = spec.workload if spec.workload is not None else ClosedLoopPreload()
    return engine.command_ids(spec)
