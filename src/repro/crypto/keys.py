"""Key material and the PKI setup assumed by the paper.

The paper assumes "PKI is used to setup (possibly threshold) keys before
starting the protocol".  :class:`KeyStore` plays that role in the
reproduction: it deterministically derives a key pair for every node from
the experiment seed, and every node can look up every other node's public
key.  Secret keys are random hex strings; signatures are HMACs over the
message keyed by the secret, which is unforgeable inside the simulation for
anyone who does not hold the secret.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass(frozen=True)
class KeyPair:
    """A node's signing key: the simulation's signatures are HMACs under it."""

    secret_key: bytes

    def sign_tag(self, payload: bytes) -> str:
        """Compute the authentication tag for ``payload`` under the secret key."""
        return hmac.new(self.secret_key, payload, hashlib.sha256).hexdigest()


def _derive_secret(seed: int, owner: int) -> bytes:
    material = f"eesmr-key-seed:{seed}:node:{owner}".encode("utf-8")
    return hashlib.sha256(material).digest()


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
        if node_id not in self._pairs:
            return False
        expected = self._pairs[node_id].sign_tag(payload)
        return hmac.compare_digest(expected, tag)
