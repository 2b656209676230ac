"""Seeded wire-level impairments: loss, duplication, jitter and reordering.

The simulated medium was historically perfect — every scheduled delivery
arrived.  The BLE loss model in :mod:`repro.radio.reliability` priced
loss *analytically* (Fig. 2a redundancy-vs-energy) but never exercised
the protocols against an actually-lossy wire.  This module closes that
gap:

* :class:`ImpairmentSpec` is the declarative, serialisable description of
  a wire impairment — drop/duplicate/jitter/reorder probabilities, an
  optional active window, and the calibrated-BLE mode where per-receiver
  loss is ``p_loss ** redundancy`` from the Fig. 2a operating point;
* :class:`ImpairmentModel` is the runtime: it holds the spec, a stack of
  per-node overlays installed by the timed fault atoms
  (:class:`~repro.testkit.faults.LossWindow` and friends), the delivery
  counters surfaced through metrics/trace/CLI, and its **own**
  :class:`~repro.sim.rng.SeededRNG` child stream so impairment draws can
  never perturb the network's hop-jitter stream (golden fingerprints stay
  byte-identical with impairments off, and byte-deterministic per seed
  with them on).

The reliable-delivery sublayer that retransmits dropped protocol
messages is the network's retransmission chain paced by :data:`HOP_RETRY`
(see ``docs/impairments.md``); :class:`RetryPolicy` is defined here, below
both of its users, because ``repro.recovery`` imports ``repro.session``,
which imports ``repro.net``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from repro.radio.reliability import AdvertisementLossModel
from repro.sim.rng import SeededRNG

#: Impairment kinds a per-node overlay (fault atom) may install.
IMPAIRMENT_KINDS = ("loss", "duplicate", "jitter", "reorder")


class SpecError(ValueError):
    """A spec that cannot be run as written: the one error of every input
    boundary (``DeploymentSpec.from_dict`` and the loaders beneath it, spec,
    trace and corpus files, the CLI grammars, the spec dataclasses).

    Its text is ``<path>: <what is wrong>``; ``path`` is the offending
    value's JSON path from the loader that raised (``workload.rate``,
    ``fault_schedule[2].end``, a file name), and each enclosing loader
    prepends its own segment with :meth:`under`.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.message, self.path = message, path

    def under(self, parent: str) -> "SpecError":
        """This error as the loader of ``parent`` reports it."""
        joint = "." if self.path and not self.path.startswith("[") else ""
        return SpecError(self.message, f"{parent}{joint}{self.path}")


def checked_number(label: str, value: Any, allow_inf: bool = False, *, path: str) -> float:
    """The fault plane's one number check: ``value`` as a float.

    Specs and fault atoms are rebuilt from JSON (corpus entries, ``--spec``
    files), where ``true``, ``"1.0"`` and ``NaN`` all parse: a bool, a
    non-number, a NaN or (unless ``allow_inf``) an infinity is a
    :class:`SpecError` at ``path`` naming the field here, not a traceback in
    the event queue or a window that silently never opens.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{label} must be a number, got {value!r}", path)
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise SpecError(f"{label} must be finite, got {value}", path)
    return float(value)


@functools.lru_cache(maxsize=None)
def _declared(cls: type) -> tuple:
    """``(name, class, optional, min, choices)`` per class-annotated field of ``cls``."""
    hints, rows = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        options = typing.get_args(hints[f.name])
        optional = type(None) in options
        kind = next(o for o in options if o is not type(None)) if optional else hints[f.name]
        if isinstance(kind, type) and kind is not Any:
            rows.append((f.name, kind, optional, f.metadata.get("min"), f.metadata.get("choices")))
    return tuple(rows)


def check_fields(spec: Any) -> None:
    """Hold each field of the dataclass instance ``spec`` to its declaration.

    The type is the annotation (``bool`` is not an ``int``, a ``float`` is
    any finite number, ``Optional`` admits ``None``); an inclusive lower
    bound and the allowed values ride in ``field(metadata={"min": …,
    "choices": …})``.  The first breach is a :class:`SpecError` at the
    field's name.  A field annotated with anything but a class (``Any``, a
    generic alias) is its owner's to check.
    """
    for name, kind, optional, minimum, choices in _declared(type(spec)):
        value = getattr(spec, name)
        if value is None and optional:
            continue
        if kind is float:
            checked_number(name, value, path=name)
        elif not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SpecError(f"expected {kind.__name__}, got {value!r}", name)
        if minimum is not None and value < minimum:
            raise SpecError(f"must be >= {minimum}, got {value}", name)
        if choices is not None and value not in choices:
            raise SpecError(f"unknown {name} {value!r}; known: {tuple(choices)}", name)


def from_fields(cls: type, entry: Any, what: str) -> Any:
    """``cls(**entry)`` for a JSON object whose keys are fields of ``cls``.

    The rebuild half of a derived ``describe()``: a non-object, a key that
    is not a (compared) field and an absent field with no default are each
    a :class:`SpecError`.  ``metadata={"load": f}`` marks a field holding a
    section of its own, which ``f`` rebuilds (``null`` keeps the default).
    """
    if not isinstance(entry, dict):
        raise SpecError(f"{what} must be a JSON object, got {entry!r}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.compare}
    unknown = sorted(set(entry) - set(fields))
    if unknown:
        raise SpecError(f"unknown {what} keys {unknown}; known: {list(fields)}")
    unset = (dataclasses.MISSING, dataclasses.MISSING)
    required = [name for name, f in fields.items() if (f.default, f.default_factory) == unset]
    missing = [name for name in required if name not in entry]
    if missing:
        raise SpecError(f"{what} lacks required keys {missing}")
    kwargs = {}
    for name, value in entry.items():
        load = fields[name].metadata.get("load")
        if load is None:
            kwargs[name] = value
        elif value is not None:
            try:
                kwargs[name] = load(value)
            except SpecError as error:
                raise error.under(name) from error
    return cls(**kwargs)


def from_kind(kinds: Dict[str, type], entry: Any, what: str) -> Any:
    """:func:`from_fields` for the class ``entry["kind"]`` names in ``kinds``."""
    if not isinstance(entry, dict):
        raise SpecError(f"{what} must be a JSON object, got {entry!r}")
    kind = entry.get("kind")
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecError(f"unknown {what} kind {kind!r}; known: {sorted(kinds)}", "kind")
    rest = {key: value for key, value in entry.items() if key != "kind"}
    return from_fields(cls, rest, f"{kind} {what}")


def read_json(path: Any, top: type) -> Any:
    """The JSON document in the file at ``path``, an instance of ``top``;
    an unreadable or undecodable file, or another top-level type, is a
    :class:`SpecError` naming the file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        raise SpecError(f"cannot load: {error}", str(path)) from error
    if not isinstance(data, top):
        raise SpecError(f"expected a top-level {top.__name__}, got {data!r}", str(path))
    return data


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, bounded retries and exponential backoff with seeded jitter.

    The one retry state-machine shape of the reproduction, instantiated
    twice: :data:`HOP_RETRY` paces the per-hop retransmission chain and
    :data:`CATCH_UP_RETRY` the catch-up campaign of a recovering node.
    """

    #: Virtual time to wait for the acknowledgement (or a useful response)
    #: before declaring one attempt lost.  Must exceed a round trip (2 hops
    #: of at most ``hop_delay`` each).
    timeout: float
    #: Retries after the initial attempt before giving up.
    max_retries: int
    #: Backoff before retry ``i`` (0-based) is
    #: ``base * factor**i * (1 + jitter_draw)``.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    #: Jitter draws uniformly from ``[0, jitter)`` — deterministic per
    #: seed via the caller's :class:`~repro.sim.rng.SeededRNG`.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff base/factor out of range: {self.backoff_base}/{self.backoff_factor}"
            )
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, retry_index: int, rng: SeededRNG) -> float:
        """The jittered delay before 0-based retry ``retry_index``."""
        base = self.backoff_base * self.backoff_factor**retry_index
        return base * (1.0 + rng.uniform(0.0, self.jitter))

    def retry_delay(self, retry_index: int, rng: SeededRNG) -> float:
        """Total delay before 0-based retry ``retry_index`` fires: the
        timeout that detected the loss plus the jittered backoff."""
        return self.timeout + self.backoff(retry_index, rng)


#: Per-hop reliable delivery.  A *working* chain recovers a dropped copy
#: within a couple of ACK timeouts, comfortably inside a
#: :class:`~repro.testkit.faults.LossWindow`'s bounded allowance; one that
#: gives up early (the planted retransmission-giveup mutant) leaves the
#: receiver behind and the loss-budget invariant fails it.  Its
#: ``max_retries`` is only the default of :attr:`ImpairmentSpec.max_retries`,
#: the one place a run sets the budget.
HOP_RETRY = RetryPolicy(timeout=2.0, max_retries=3)

#: Catch-up state transfer, coupled to
#: :data:`repro.testkit.faults.CATCH_UP_GRACE` (8 s): a *working* catch-up
#: completes well inside the grace window (one or two request round
#: trips), while a *broken* one burns through every retry — over 20 s of
#: virtual time — so the run outlives the grace period, the node's
#: liveness exemption lapses and the liveness invariant fails.  That
#: coupling is what makes the planted drop-the-final-QC mutant detectable.
CATCH_UP_RETRY = RetryPolicy(timeout=2.5, max_retries=4)


def _probability(name: str, value: Any) -> float:
    value = checked_number(f"impairment {name}", value, path=name)
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"impairment {name} must be within [0, 1], got {value}", name)
    return value


def compose_loss(first: float, second: float) -> float:
    """Compose two independent loss probabilities: survive both or drop."""
    return 1.0 - (1.0 - first) * (1.0 - second)


@dataclass(frozen=True)
class ImpairmentSpec:
    """A declarative wire impairment, serialisable into deployment specs.

    All probabilities are per *hop delivery* (one scheduled reception of
    one physical transmission by one receiver).  ``jitter`` is a delay
    magnitude: an affected delivery is held back by up to ``jitter``
    extra hop delays.  ``reorder`` delays a delivery past at least one
    full hop so later traffic can overtake it.  With ``ble_calibrated``
    the drop probability additionally composes in the Fig. 2a residual
    miss probability ``p_loss ** redundancy`` of the k-cast radio —
    redundancy ``r`` stops being an assumption of success and becomes a
    sampled outcome, with the reliable sublayer retransmitting (and
    charging energy for) the misses.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    reorder: float = 0.0
    start: float = 0.0
    end: float = math.inf
    ble_calibrated: bool = False
    #: The reliable sublayer's retransmission budget — the one knob of
    #: :data:`HOP_RETRY` a run varies, read by the network through the model.
    max_retries: int = HOP_RETRY.max_retries

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder"):
            object.__setattr__(self, name, _probability(name, getattr(self, name)))
        for name in ("jitter", "start", "end"):
            # An open-ended window never closes: ``end`` alone may be ``+inf``.
            value = checked_number(
                f"impairment {name}", getattr(self, name), name == "end", path=name
            )
            object.__setattr__(self, name, value)
        if self.jitter < 0:
            raise SpecError(f"impairment jitter must be non-negative, got {self.jitter}", "jitter")
        if self.start < 0:
            raise SpecError(f"impairment start cannot be negative, got {self.start}", "start")
        if self.end <= self.start:
            raise SpecError(
                f"impairment window must end after it starts, got [{self.start}, {self.end})",
                "end",
            )
        if not isinstance(self.ble_calibrated, bool):
            raise SpecError(f"expected bool, got {self.ble_calibrated!r}", "ble_calibrated")
        retries = self.max_retries
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
            raise SpecError(f"max_retries must be an int >= 0, got {retries!r}", "max_retries")

    def enabled(self) -> bool:
        """Whether this spec impairs anything at all."""
        return bool(
            self.ble_calibrated
            or self.loss
            or self.duplicate
            or self.jitter
            or self.reorder
        )

    def active(self, now: float) -> bool:
        """Whether the spec's window covers virtual time ``now``."""
        return self.enabled() and self.start <= now < self.end

    def describe(self) -> Dict[str, Any]:
        """Canonical dict form: every field that differs from its dataclass
        default, so the round-trip is a fixed point and spec fingerprints
        stay minimal."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        }


def impairment_from_dict(entry: Optional[Dict[str, Any]]) -> Optional[ImpairmentSpec]:
    """Rebuild an :class:`ImpairmentSpec` from :meth:`ImpairmentSpec.describe`."""
    return None if entry is None else from_fields(ImpairmentSpec, entry, "impairment")


def parse_impairment(clauses: Iterable[str]) -> Optional[ImpairmentSpec]:
    """Parse CLI ``--impair`` clauses into one merged :class:`ImpairmentSpec`.

    Grammar (one clause per ``--impair`` flag, all merged into one spec)::

        loss:<p>[:<start>:<end>]        drop each hop delivery with prob. p
        duplicate:<p>[:<start>:<end>]   deliver twice with probability p
        jitter:<j>[:<start>:<end>]      up to j extra hop delays per delivery
        reorder:<p>[:<start>:<end>]     delay past a full hop with prob. p
        ble[:<start>:<end>]             Fig. 2a calibrated residual BLE loss
        retries:<n>                     reliable-sublayer retransmission budget

    A window given on any clause applies to the whole spec; conflicting
    windows are an error.
    """
    merged: Dict[str, Any] = {}
    window: Optional[tuple] = None
    for clause in clauses:
        parts = str(clause).split(":")
        kind = parts[0]
        try:
            if kind == "ble":
                merged["ble_calibrated"] = True
                window_parts = parts[1:]
            elif kind == "retries":
                if len(parts) != 2:
                    raise ValueError("expected retries:<n>")
                merged["max_retries"] = int(parts[1])
                continue
            elif kind in IMPAIRMENT_KINDS:
                if len(parts) < 2:
                    raise ValueError(f"expected {kind}:<value>")
                # Repeating a kind overrides the earlier clause.
                merged[kind] = float(parts[1])
                window_parts = parts[2:]
            else:
                raise ValueError(
                    f"unknown impairment kind {kind!r} "
                    f"(expected one of {IMPAIRMENT_KINDS + ('ble', 'retries')})"
                )
            if window_parts:
                if len(window_parts) != 2:
                    raise ValueError("window must be <start>:<end>")
                this_window = (float(window_parts[0]), float(window_parts[1]))
                if window is not None and window != this_window:
                    raise ValueError(
                        f"conflicting impairment windows {window} and {this_window}"
                    )
                window = this_window
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad --impair clause {clause!r}: {exc}") from exc
    if not merged:
        return None
    if window is not None:
        merged["start"], merged["end"] = window
    return ImpairmentSpec(**merged)


class ImpairmentModel:
    """Runtime impairment state for one :class:`~repro.net.network.SimulatedNetwork`.

    Holds the global :class:`ImpairmentSpec`, per-node overlay stacks
    installed by the timed fault atoms, the delivery counters, and a
    dedicated seeded RNG stream.  Per-node overlays compose with the
    global spec: loss/duplicate/reorder probabilities combine as
    independent events, jitter magnitudes add.
    """

    def __init__(
        self,
        spec: Optional[ImpairmentSpec],
        rng: SeededRNG,
    ) -> None:
        self.spec = spec or ImpairmentSpec(loss=0.0)
        self.rng = rng
        self.loss_model = AdvertisementLossModel()
        # kind -> pid -> stack of overlay values (fault windows may nest).
        self._overlays: Dict[str, Dict[int, list]] = {k: {} for k in IMPAIRMENT_KINDS}
        self._overlay_count = 0
        # Delivery counters (surfaced via metrics, trace and RunResult).
        self.attempts = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.retransmits = 0
        self.recovered = 0
        self.giveups = 0
        self.drops_by_node: Counter = Counter()
        self.retransmits_by_node: Counter = Counter()
        self.giveups_by_node: Counter = Counter()

    # ------------------------------------------------------------- overlays
    def push(self, pid: int, kind: str, value: float) -> None:
        """Install one per-node overlay (a fault window opening)."""
        if kind not in IMPAIRMENT_KINDS:
            raise ValueError(f"unknown impairment kind {kind!r}")
        self._overlays[kind].setdefault(pid, []).append(float(value))
        self._overlay_count += 1

    def pop(self, pid: int, kind: str) -> bool:
        """Remove the most recent overlay of ``kind`` on ``pid`` (window closing).

        Unbalanced pops are a no-op (``False``), mirroring the network's
        refcounted fault mutators: healing an already-healed window must
        not raise.
        """
        stack = self._overlays.get(kind, {}).get(pid)
        if not stack:
            return False
        stack.pop()
        if not stack:
            del self._overlays[kind][pid]
        self._overlay_count -= 1
        return True

    def _composed(self, kind: str, pid: int, base: float) -> float:
        stack = self._overlays[kind].get(pid)
        if stack:
            if kind == "jitter":
                return base + sum(stack)
            for value in stack:
                base = compose_loss(base, value)
        return base

    # -------------------------------------------------------------- queries
    def engaged(self, now: float) -> bool:
        """Whether any impairment applies right now (cheap hot-path gate)."""
        return self._overlay_count > 0 or self.spec.active(now)

    def loss_probability(self, receiver: int, cost: Any, now: float) -> float:
        """Composed drop probability for one hop delivery to ``receiver``."""
        p = 0.0
        if self.spec.active(now):
            if self.spec.ble_calibrated:
                redundancy = getattr(cost, "redundancy", 1)
                p = self.loss_model.receiver_miss_probability(max(1, redundancy))
            p = compose_loss(p, self.spec.loss)
        return self._composed("loss", receiver, p)

    def judge(self, receiver: int, cost: Any, now: float, hop_delay: float):
        """Sample one hop delivery's fate: ``(dropped, duplicated, extra_delay)``.

        Draw order is fixed (loss, duplicate, jitter, reorder) and all
        draws come from the model's own stream, so a run's verdicts are a
        pure function of (seed, spec, schedule) — byte-deterministic.
        """
        self.attempts += 1
        if self.rng.chance(self.loss_probability(receiver, cost, now)):
            self.dropped += 1
            self.drops_by_node[receiver] += 1
            return True, False, 0.0
        active = self.spec.active(now)
        duplicated = self.rng.chance(
            self._composed("duplicate", receiver, self.spec.duplicate if active else 0.0)
        )
        if duplicated:
            self.duplicated += 1
        extra = 0.0
        jitter = self._composed("jitter", receiver, self.spec.jitter if active else 0.0)
        if jitter > 0.0:
            extra += hop_delay * self.rng.uniform(0.0, jitter)
        if self.rng.chance(
            self._composed("reorder", receiver, self.spec.reorder if active else 0.0)
        ):
            # Hold the delivery back past at least one full hop so traffic
            # transmitted later can overtake it.
            extra += hop_delay * self.rng.uniform(1.0, 2.0)
        if extra > 0.0:
            self.delayed += 1
        return False, duplicated, extra

    # ------------------------------------------------------------- counters
    def note_retransmit(self, receiver: int) -> None:
        self.retransmits += 1
        self.retransmits_by_node[receiver] += 1

    def note_recovered(self, _receiver: int) -> None:
        self.recovered += 1

    def note_giveup(self, receiver: int) -> None:
        self.giveups += 1
        self.giveups_by_node[receiver] += 1

    def delivery_ratio(self) -> float:
        """First-attempt delivery ratio over every judged hop delivery."""
        if self.attempts == 0:
            return 1.0
        return 1.0 - self.dropped / self.attempts

    def stats_dict(self) -> Dict[str, Any]:
        """Aggregate counters for the trace's ``network`` section."""
        return {
            "attempts": self.attempts,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "retransmits": self.retransmits,
            "recovered": self.recovered,
            "giveups": self.giveups,
        }
