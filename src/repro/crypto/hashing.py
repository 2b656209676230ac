"""Hashing utilities with energy-aware cost reporting.

The paper instantiates its MAC and hash primitives with SHA-256 and reports
that "the cost of hashing increased linearly with message size".
:class:`HashFunction` prices that cost, so the energy meter can charge
hashing where protocols hash blocks (hash-chaining, voting on H(prop)).

Every SHA-256 of the simulator goes through :data:`sha256`, CPython's
built-in implementation: ``hashlib`` would load OpenSSL's ``libcrypto``
(3.5 MiB of resident memory per process) for digests that are
bit-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict

try:  # CPython 3.12+
    from _sha2 import sha256
except ImportError:
    try:  # CPython 3.11
        from _sha256 import sha256
    except ImportError:  # an interpreter without the built-in module
        from hashlib import sha256

#: Baseline energy (Joules) for hashing an empty message on the CPS board.
#: Derived from the paper's HMAC figure (0.19 J), which is dominated by the
#: underlying SHA-256 invocation on a short input.
HASH_BASE_ENERGY_J = 0.00019

#: Incremental energy (Joules) per byte hashed.  The paper reports linear
#: growth with message size; this slope keeps a 1 kB hash well under the
#: cost of a signature, matching the measured ordering of primitives.
HASH_PER_BYTE_ENERGY_J = 0.0000002


def canonical_bytes(payload: Any) -> bytes:
    """Serialize an arbitrary (JSON-able or reprable) payload deterministically.

    Nothing is cached: a payload mutated after it was signed re-serializes
    and fails verification by construction.
    """
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, str):
        return payload.encode("utf-8")
    try:
        return json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    except (TypeError, ValueError):
        return repr(payload).encode("utf-8")


def sha256_hex(payload: Any) -> str:
    """SHA-256 hex digest of a canonical serialization of ``payload``."""
    return sha256(canonical_bytes(payload)).hexdigest()


#: The strict JSON encoder of every structural digest, built once: each
#: ``json.dumps(payload, sort_keys=True)`` call builds a fresh
#: ``JSONEncoder``.  The output bytes are the same.
_encode_json = json.JSONEncoder(sort_keys=True).encode


def structural_digest(payload: Any) -> str:
    """SHA-256 over the strict JSON of primitives and child digests.

    For owners that compute the result once themselves (``Block.block_hash``,
    ``Command.digest``, the payload records and
    ``QuorumCertificate.content_digest`` of ``repro.core.messages``): nothing
    is cached here, and a part that is not a JSON primitive raises
    ``TypeError`` instead of falling back to ``repr`` — a digest must never
    depend on an object's memory address.
    """
    return sha256(_encode_json(payload).encode("utf-8")).hexdigest()


# Retired with the canonicalization cache: nothing is looked up any more, but
# ``bench/harness.py`` imports this name and reads the two counters for the
# ``crypto.canon_*`` ledger rows.  The benchmark PR that drops those rows
# deletes this object with them.
class _RetiredCanonicalCache:
    def clear(self) -> None:
        pass

    def stats(self) -> Dict[str, int]:
        return {"hits": 0, "misses": 0}


canonical_cache = _RetiredCanonicalCache()


class HashFunction:
    """The energy price of a SHA-256 invocation."""

    name = "sha256"

    def energy_for_size(self, size_bytes: int) -> float:
        """Energy (J) to hash a message of ``size_bytes`` bytes."""
        if size_bytes < 0:
            raise ValueError("message size cannot be negative")
        return HASH_BASE_ENERGY_J + HASH_PER_BYTE_ENERGY_J * size_bytes
