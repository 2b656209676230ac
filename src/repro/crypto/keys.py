"""Key material and the PKI setup assumed by the paper.

The paper assumes "PKI is used to setup (possibly threshold) keys before
starting the protocol".  :class:`KeyStore` plays that role in the
reproduction: it deterministically derives a key pair for every node from
the experiment seed, and every node can look up every other node's public
key.  Secret keys are random hex strings; signatures are HMACs over the
message keyed by the secret, which is unforgeable inside the simulation for
anyone who does not hold the secret.

A key pair carries its HMAC key schedule: the RFC 2104 inner and outer
SHA-256 states are hashed once, when the pair is made, and every tag copies
them instead of re-padding the key and looking the digest up by name.
Tags compare in constant time with ``_operator._compare_digest``, the very
function ``hmac.compare_digest`` is, without loading ``hmac``'s OpenSSL
backend (see :mod:`repro.crypto.hashing`).
"""

from __future__ import annotations

from _operator import _compare_digest
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

from repro.crypto.hashing import sha256

#: SHA-256's block size: RFC 2104 pads (or first hashes) the key to it.
_BLOCK_BYTES = 64
#: ``bytes.translate`` tables XOR-ing every key byte with ipad / opad.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


@dataclass(frozen=True)
class KeyPair:
    """A node's signing key: the simulation's signatures are HMACs under it."""

    secret_key: bytes
    #: ``sha256(key ^ ipad)`` and ``sha256(key ^ opad)``, hashed once.
    _inner: Any = field(init=False, repr=False, compare=False)
    _outer: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = self.secret_key
        if len(key) > _BLOCK_BYTES:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK_BYTES, b"\0")
        object.__setattr__(self, "_inner", sha256(key.translate(_IPAD)))
        object.__setattr__(self, "_outer", sha256(key.translate(_OPAD)))

    def sign_tag(self, payload: bytes) -> str:
        """HMAC-SHA256 of ``payload`` under the secret key, as hex.

        Bit-identical to ``hmac.digest(secret_key, payload, "sha256").hex()``.
        """
        inner = self._inner.copy()
        inner.update(payload)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()


def _derive_secret(seed: int, owner: int) -> bytes:
    material = f"eesmr-key-seed:{seed}:node:{owner}".encode("utf-8")
    return sha256(material).digest()


class KeyStore:
    """PKI registry mapping node ids to key pairs.

    In a deployment this is the offline trusted setup phase; in the
    reproduction it is created by the experiment runner and shared (by
    reference) with every replica, which mirrors the paper's assumption that
    "the public information is agreed upon by all the nodes as part of the
    setup before the start of the protocol".
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._pairs: Dict[int, KeyPair] = {}

    def generate(self, node_ids: Iterable[int]) -> None:
        """Generate key pairs for every node id (idempotent)."""
        for node_id in node_ids:
            if node_id not in self._pairs:
                self._pairs[node_id] = KeyPair(_derive_secret(self.seed, node_id))

    def key_pair(self, node_id: int) -> KeyPair:
        """The full key pair for ``node_id`` (only its owner should call this)."""
        if node_id not in self._pairs:
            raise KeyError(f"no key pair generated for node {node_id}")
        return self._pairs[node_id]

    def verify_tag(self, node_id: int, payload: bytes, tag: str) -> bool:
        """Check an authentication tag against ``node_id``'s key.

        This is the simulation's stand-in for public-key verification: the
        key store (acting as the PKI oracle) recomputes the tag with the
        owner's secret.  Protocol code never touches other nodes' secrets
        directly — it always goes through a :class:`SignatureScheme`.
        """
        pair = self._pairs.get(node_id)
        if pair is None:
            return False
        return _compare_digest(pair.sign_tag(payload), tag)
