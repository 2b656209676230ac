"""Hashing utilities with energy-aware cost reporting.

The paper instantiates its MAC and hash primitives with SHA-256 and reports
that "the cost of hashing increased linearly with message size".  The
:class:`HashFunction` wrapper exposes both the digest and the energy that a
CPS node would spend computing it, so the energy meter can charge hashing
where protocols hash blocks (hash-chaining, voting on H(prop)).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Baseline energy (Joules) for hashing an empty message on the CPS board.
#: Derived from the paper's HMAC figure (0.19 J), which is dominated by the
#: underlying SHA-256 invocation on a short input.
HASH_BASE_ENERGY_J = 0.00019

#: Incremental energy (Joules) per byte hashed.  The paper reports linear
#: growth with message size; this slope keeps a 1 kB hash well under the
#: cost of a signature, matching the measured ordering of primitives.
HASH_PER_BYTE_ENERGY_J = 0.0000002


def _serialize_canonical(payload: Any) -> bytes:
    """The raw (uncached) canonical serialization."""
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, str):
        return payload.encode("utf-8")
    try:
        return json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    except (TypeError, ValueError):
        return repr(payload).encode("utf-8")


def structural_digest(payload: Any) -> str:
    """SHA-256 over the strict JSON of primitives and child digests.

    For owners that memoise the result themselves (``Block.block_hash``, the
    payload records and ``QuorumCertificate.content_digest`` of
    ``repro.core.messages``): nothing is cached here, and a part that is not
    a JSON primitive raises ``TypeError`` instead of falling back to
    ``repr`` — a digest must never depend on an object's memory address.
    """
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _value_key(payload: tuple) -> Optional[tuple]:
    """A collision-safe cache key for a tuple of primitives, or ``None``.

    Only tuples of immutable primitives qualify: their canonical bytes are
    a pure function of their value and they can never be mutated after the
    fact.  Lists/dicts are rejected — a caller could mutate them between
    calls, and the cache must never return stale bytes for mutated data.

    The key embeds the leaf *types* because Python dict keys conflate
    ``1``, ``1.0`` and ``True`` (equal, same hash) while their JSON
    serializations differ — an untagged key would let a signature over
    ``("x", 1)`` verify against ``("x", True)``.  Floats key on their
    ``repr`` (the serialized form) because ``0.0 == -0.0`` under dict
    equality while their JSON differs too.
    """
    parts = []
    for item in payload:
        if item is None or isinstance(item, (str, bytes)):
            parts.append(item)
        elif isinstance(item, float) and not isinstance(item, bool):
            parts.append(("float", repr(item)))
        elif isinstance(item, int):  # covers bool (subclass of int)
            parts.append((type(item).__name__, item))
        elif isinstance(item, tuple):
            sub = _value_key(item)
            if sub is None:
                return None
            parts.append(("tuple", sub))
        else:
            return None
    return tuple(parts)


def is_deeply_immutable(value: Any) -> bool:
    """Whether ``value`` can never change, all the way down.

    A frozen dataclass wrapper is not enough — a frozen dataclass holding a
    list can still be mutated through the list.  Only primitives, tuples /
    frozensets of immutables, and frozen dataclasses whose *fields* are
    recursively immutable qualify.  The verdict depends only on types and
    structure, so it is stable for a given object and safe to memoize.
    """
    if value is None or isinstance(value, (str, bytes, int, float, bool)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(is_deeply_immutable(item) for item in value)
    params = getattr(type(value), "__dataclass_params__", None)
    if params is not None and params.frozen:
        return all(
            is_deeply_immutable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return False


def _is_identity_cacheable(payload: Any) -> bool:
    """Whether ``payload`` may be cached by object identity.

    Deeply immutable frozen dataclasses (protocol messages, blocks,
    signatures, QCs) cannot change after construction, so one serialization
    per *instance* is safe.  Anything mutable — including a frozen wrapper
    around a mutable field — must be re-serialized on every call.
    """
    params = getattr(type(payload), "__dataclass_params__", None)
    return params is not None and params.frozen and is_deeply_immutable(payload)


class CanonicalCache:
    """Flyweight store for canonical bytes / digests / wire sizes.

    Hot paths serialize the same message once per hop and once per
    sign/verify; this cache collapses that to once per message object:

    * **identity-keyed, weak**: frozen dataclass instances are keyed by
      ``id()`` with a weak reference so entries vanish when the message is
      garbage collected (bounded memory over long runs);
    * **value-keyed, bounded**: small primitive tuples (e.g. the item
      digests of a tuple payload) are keyed by value, so the same logical
      payload hits whichever instance carries it;
    * mutable payloads (dicts, lists, arbitrary objects) are never cached —
      a payload mutated after signing must re-serialize and fail
      verification.  Each such serialization is counted in
      :attr:`uncached`; protocol payloads never take this path.
    """

    def __init__(self, max_value_entries: int = 8192) -> None:
        self.max_value_entries = max_value_entries
        # id(obj) -> (weakref, canonical bytes, hex digest | None)
        self._by_id: Dict[int, Tuple[Any, bytes, Optional[str]]] = {}
        self._by_value: Dict[Any, bytes] = {}
        self._value_digests: Dict[Any, str] = {}
        self.hits = 0
        self.misses = 0
        self.uncached = 0

    # ------------------------------------------------------------- plumbing
    def _identity_entry(self, payload: Any) -> Optional[Tuple[Any, bytes, Optional[str]]]:
        entry = self._by_id.get(id(payload))
        if entry is not None and entry[0]() is payload:
            return entry
        return None

    def _store_identity(self, payload: Any, data: bytes, digest: Optional[str]) -> None:
        key = id(payload)

        def _evict(_ref: Any, *, _key: int = key, _cache: Dict = self._by_id) -> None:
            _cache.pop(_key, None)

        try:
            ref = weakref.ref(payload, _evict)
        except TypeError:  # not weak-referenceable: skip caching
            return
        self._by_id[key] = (ref, data, digest)

    def _bounded_store(self, table: Dict, key: Any, value: Any) -> None:
        if len(table) >= self.max_value_entries:
            table.clear()
        table[key] = value

    # -------------------------------------------------------------- queries
    def bytes_for(self, payload: Any) -> bytes:
        """Canonical bytes of ``payload``, cached when provably safe."""
        if isinstance(payload, bytes):
            return payload
        if isinstance(payload, str):
            return payload.encode("utf-8")
        if payload is None or isinstance(payload, (int, float)):
            # Scalars: nothing worth keeping and nothing that can go stale.
            return _serialize_canonical(payload)
        entry = self._identity_entry(payload)
        if entry is not None:
            self.hits += 1
            return entry[1]
        if isinstance(payload, tuple):
            key = _value_key(payload)
            if key is not None:
                cached = self._by_value.get(key)
                if cached is not None:
                    self.hits += 1
                    return cached
                data = _serialize_canonical(payload)
                self.misses += 1
                self._bounded_store(self._by_value, key, data)
                return data
        data = _serialize_canonical(payload)
        if _is_identity_cacheable(payload):
            self.misses += 1
            self._store_identity(payload, data, None)
        else:
            self.uncached += 1
        return data

    def digest_for(self, payload: Any) -> str:
        """SHA-256 hex digest of the canonical bytes, cached alongside them."""
        entry = self._identity_entry(payload)
        if entry is not None and entry[2] is not None:
            self.hits += 1
            return entry[2]
        if isinstance(payload, tuple):
            key = _value_key(payload)
            if key is not None:
                cached = self._value_digests.get(key)
                if cached is not None:
                    self.hits += 1
                    return cached
                digest = hashlib.sha256(self.bytes_for(payload)).hexdigest()
                self._bounded_store(self._value_digests, key, digest)
                return digest
        data = self.bytes_for(payload)
        digest = hashlib.sha256(data).hexdigest()
        if _is_identity_cacheable(payload):
            self._store_identity(payload, data, digest)
        return digest

    def wire_size_for(self, payload: Any) -> int:
        """Byte length of the canonical serialization (cached transitively)."""
        return len(self.bytes_for(payload))

    # ------------------------------------------------------------ lifecycle
    def clear(self) -> None:
        """Drop every cached entry (tests and benchmark isolation)."""
        self._by_id.clear()
        self._by_value.clear()
        self._value_digests.clear()
        self.hits = 0
        self.misses = 0
        self.uncached = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for perf reports.

        ``uncached`` counts serializations of payloads the cache may not
        keep (mutable, so re-serialized on every call); they are neither
        hits nor misses.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncached": self.uncached,
            "identity_entries": len(self._by_id),
            "value_entries": len(self._by_value),
        }


#: Process-wide flyweight used by the crypto and network hot paths.
canonical_cache = CanonicalCache()


def canonical_bytes(payload: Any) -> bytes:
    """Serialize an arbitrary (JSON-able or reprable) payload deterministically.

    Routed through :data:`canonical_cache`, so repeated serialization of the
    same immutable message is a lookup instead of a ``json.dumps``.
    """
    return canonical_cache.bytes_for(payload)


def sha256_hex(payload: Any) -> str:
    """SHA-256 hex digest of a canonical serialization of ``payload``."""
    return canonical_cache.digest_for(payload)


@dataclass(frozen=True)
class HashResult:
    """A digest together with the energy spent producing it."""

    digest: str
    input_size_bytes: int
    energy_joules: float


class HashFunction:
    """SHA-256 with per-invocation energy accounting."""

    name = "sha256"

    def __init__(
        self,
        base_energy_j: float = HASH_BASE_ENERGY_J,
        per_byte_energy_j: float = HASH_PER_BYTE_ENERGY_J,
    ) -> None:
        self.base_energy_j = base_energy_j
        self.per_byte_energy_j = per_byte_energy_j
        self.invocations = 0
        self.total_bytes = 0

    def energy_for_size(self, size_bytes: int) -> float:
        """Energy (J) to hash a message of ``size_bytes`` bytes."""
        if size_bytes < 0:
            raise ValueError("message size cannot be negative")
        return self.base_energy_j + self.per_byte_energy_j * size_bytes

    def digest(self, payload: Any) -> HashResult:
        """Hash ``payload`` and report both digest and energy."""
        data = canonical_bytes(payload)
        self.invocations += 1
        self.total_bytes += len(data)
        return HashResult(
            digest=hashlib.sha256(data).hexdigest(),
            input_size_bytes=len(data),
            energy_joules=self.energy_for_size(len(data)),
        )
