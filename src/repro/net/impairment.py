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
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional

from repro.radio.reliability import AdvertisementLossModel
from repro.sim.rng import SeededRNG

#: Impairment kinds a per-node overlay (fault atom) may install.
IMPAIRMENT_KINDS = ("loss", "duplicate", "jitter", "reorder")


def checked_number(label: str, value: Any, allow_inf: bool = False) -> float:
    """The fault plane's one number check: ``value`` as a float.

    Specs and fault atoms are rebuilt from JSON (corpus entries, ``--spec``
    files), where ``true``, ``"1.0"`` and ``NaN`` all parse: a bool, a
    non-number, a NaN or (unless ``allow_inf``) an infinity is a
    ``ValueError`` naming the field here, not a traceback in the event
    queue or a window that silently never opens.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ValueError(f"{label} must be finite, got {value}")
    return float(value)


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
    value = checked_number(f"impairment {name}", value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"impairment {name} must be within [0, 1], got {value}")
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
            value = checked_number(f"impairment {name}", getattr(self, name), name == "end")
            object.__setattr__(self, name, value)
        if self.jitter < 0:
            raise ValueError(f"impairment jitter must be non-negative, got {self.jitter}")
        if self.start < 0:
            raise ValueError(f"impairment start cannot be negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"impairment window must end after it starts, got [{self.start}, {self.end})"
            )
        if not isinstance(self.ble_calibrated, bool):
            raise TypeError(f"ble_calibrated must be a bool, got {self.ble_calibrated!r}")
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int):
            raise TypeError(f"max_retries must be an int, got {self.max_retries!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {self.max_retries}")

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
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise TypeError(f"impairment entry must be a dict, got {entry!r}")
    unknown = set(entry) - {f.name for f in dataclasses.fields(ImpairmentSpec)}
    if unknown:
        raise ValueError(f"unknown impairment keys: {sorted(unknown)}")
    return ImpairmentSpec(**entry)


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
            raise ValueError(f"bad --impair clause {clause!r}: {exc}") from exc
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
        loss_model: Optional[AdvertisementLossModel] = None,
    ) -> None:
        self.spec = spec or ImpairmentSpec(loss=0.0)
        self.rng = rng
        self.loss_model = loss_model or AdvertisementLossModel()
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
