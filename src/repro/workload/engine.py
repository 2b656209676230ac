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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.types import Command
from repro.eval.workloads import commands_for_run, fill_txpools
from repro.net.impairment import SpecError, check_fields, checked_number, from_kind, read_json
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
      (round-trips through :func:`workload_from_dict`), derived from the
      engine dataclass's compared fields;
    * :meth:`is_default` — whether this engine is byte-identical to the
      seed behaviour (fingerprints omit default engines entirely).
    """

    kind = "engine"

    def __post_init__(self) -> None:
        check_fields(self)

    def commands_for(self, spec) -> List[Command]:
        raise NotImplementedError

    def command_ids(self, spec) -> Set[str]:
        """The id set of :meth:`commands_for` (liveness invariant support)."""
        return {command.command_id for command in self.commands_for(spec)}

    def install(self, builder) -> WorkloadPlan:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        described = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.compare}
        return {"kind": self.kind, **described}

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
    surplus_blocks: int = field(default=4, metadata={"min": 0})

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
    duration: Optional[float] = field(default=None, metadata={"min": 0})
    #: Simulated clients multiplexed over the id namespace.
    clients: int = field(default=1, metadata={"min": 1})
    #: Payload size override; ``None`` uses ``spec.command_payload_bytes``.
    payload_size_bytes: Optional[int] = field(default=None, metadata={"min": 0})

    kind = "open-loop"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rate <= 0:
            raise SpecError(f"open-loop rate must be positive, got {self.rate}", "rate")

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
        raw = self.entries or (() if self.path is None else read_json(self.path, list))
        self.entries = _normalise_trace_entries(raw)

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
        entries = [dict(zip(TRACE_KEYS, entry)) for entry in self.entries]
        return {"kind": self.kind, "entries": entries}

    @classmethod
    def from_file(cls, path: str) -> "TraceReplay":
        return cls(path=path)


#: The keys of a trace entry, in the order of its normalised tuple form.
TRACE_KEYS = ("time", "command_id", "client_id", "payload_size_bytes")


def _normalise_trace_entries(raw: Any) -> Tuple[Tuple[float, str, int, Optional[int]], ...]:
    """Accept dict or tuple entries; emit the checked, canonical tuple form."""
    if not isinstance(raw, (list, tuple)):
        raise SpecError(f"a trace must be a JSON array of entries, got {raw!r}", "entries")
    out: List[Tuple[float, str, int, Optional[int]]] = []
    seen: Set[str] = set()
    for index, entry in enumerate(raw):
        here = f"entries[{index}]"
        if isinstance(entry, dict) and set(entry) <= set(TRACE_KEYS):
            values = [entry.get(key) for key in TRACE_KEYS]
        elif isinstance(entry, (list, tuple)):
            values = list(entry) + [None] * len(TRACE_KEYS)
        else:
            raise SpecError(f"expected an object with keys among {TRACE_KEYS}, got {entry!r}", here)
        time, command_id, client_id, payload = values[: len(TRACE_KEYS)]
        command_id = f"tr{index}" if command_id is None else str(command_id)
        client_id = 0 if client_id is None else client_id
        time = checked_number(f"trace entry {index} 'time'", time, path=f"{here}.time")
        if time < 0:
            raise SpecError(f"trace entry {command_id!r} has negative time {time}", f"{here}.time")
        if command_id in seen:
            raise SpecError(f"duplicate trace command id {command_id!r}", f"{here}.command_id")
        seen.add(command_id)
        # A payload of ``None`` defers to the spec.
        sized = 0 if payload is None else payload
        for name, value in (("client_id", client_id), ("payload_size_bytes", sized)):
            if type(value) is not int:
                raise SpecError(
                    f"trace entry {index} {name!r} must be an int, got {value!r}", f"{here}.{name}"
                )
        out.append((time, command_id, client_id, payload))
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
    # compare=False fields (a trace's source path) are provenance, not schema.
    return from_kind(WORKLOAD_KINDS, data, "workload")


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
            raise SpecError("open-loop needs a rate: --workload open-loop:<rate>")
        try:
            rate = float(parts[0])
            clients = int(parts[1]) if len(parts) > 1 else 1
            duration = float(parts[2]) if len(parts) > 2 else None
        except ValueError as error:
            raise SpecError(f"bad open-loop workload {text!r}: {error}") from None
        return OpenLoopPoisson(rate=rate, clients=clients, duration=duration)
    if head == "trace":
        if not rest:
            raise SpecError("trace needs a file: --workload trace:<file.json>")
        return TraceReplay(path=rest)
    raise SpecError(
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
