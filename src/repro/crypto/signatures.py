"""Simulated digital-signature schemes with measured energy costs.

Each scheme is *functionally* a MAC keyed by the signer's secret (so forging
fails inside the simulation) but is *priced* as the real primitive the
paper measured (Table 2): RSA-1024, ECDSA over the NIST and Brainpool
curves, or plain HMAC.  The distinction the paper draws between digital
signatures (transferable authentication, equivocation provable to third
parties) and MACs (cheaper, but equivocation hard to prove) is the
``family`` of the scheme's :class:`SignatureEnergyCost`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.crypto.energy_costs import (
    SIGNATURE_ENERGY_TABLE,
    SignatureEnergyCost,
    signature_cost,
)
from repro.crypto.hashing import canonical_bytes
from repro.crypto.keys import KeyStore


@dataclass(frozen=True)
class Signature:
    """A signature on a payload by a specific node.

    Attributes:
        signer: Node id of the signer.
        scheme: Canonical scheme name (e.g. ``"rsa-1024"``).
        tag: Authentication tag binding payload and signer.
    """

    signer: int
    scheme: str
    tag: str

    @property
    def size_bytes(self) -> int:
        """Wire size of the signature (scheme dependent)."""
        return signature_cost(self.scheme).signature_size_bytes


class SignatureScheme:
    """Signing/verification service bound to one scheme and one key store.

    The scheme keeps per-node operation counters so experiments can report
    public-key operation counts (Table 3) and the energy meter can charge
    sign/verify energy.
    """

    #: Bound on the memo tables; cleared wholesale when exceeded.
    max_cache_entries = 16384

    def __init__(self, cost: SignatureEnergyCost, keystore: KeyStore) -> None:
        self.name = cost.name
        self.cost = cost
        self.keystore = keystore
        self.sign_counts: Counter[int] = Counter()
        self.verify_counts: Counter[int] = Counter()
        # (signer, payload bytes) -> finished Signature (a flyweight);
        # deterministic MACs make signing a pure function, so the same
        # payload signed for n recipients costs one HMAC.
        self._sign_memo: Dict[Tuple[int, bytes], Signature] = {}
        # (signer, tag, payload bytes) -> bool; once one replica has checked
        # a (payload, signature) pair, the other n-1 verifiers pay a lookup.
        self._verify_memo: Dict[Tuple[int, str, bytes], bool] = {}

    # ------------------------------------------------------------ operations
    def sign(self, signer: int, payload: Any) -> Signature:
        """Sign ``payload`` with ``signer``'s secret key."""
        data = canonical_bytes(payload)
        self.sign_counts[signer] += 1
        key = (signer, data)
        signature = self._sign_memo.get(key)
        if signature is None:
            pair = self.keystore.key_pair(signer)
            signature = Signature(
                signer=signer,
                scheme=self.name,
                tag=pair.sign_tag(self._domain_separated(data)),
            )
            if len(self._sign_memo) >= self.max_cache_entries:
                self._sign_memo.clear()
            self._sign_memo[key] = signature
        return signature

    def note_verify(self, verifier: int, operations: int) -> None:
        """Count verification operations satisfied from a higher-level memo.

        When a whole-message verification result is reused across replicas,
        each replica still *logically* performed the operations — the
        paper's Table 3 counts and the energy charges must not change just
        because the simulator skipped redundant HMAC work.
        """
        self.verify_counts[verifier] += operations

    def verify(self, verifier: int, payload: Any, signature: Signature) -> bool:
        """Verify ``signature`` over ``payload``; counts the operation for ``verifier``."""
        self.verify_counts[verifier] += 1
        if signature.scheme != self.name:
            return False
        data = canonical_bytes(payload)
        key = (signature.signer, signature.tag, data)
        cached = self._verify_memo.get(key)
        if cached is not None:
            return cached
        result = self.keystore.verify_tag(
            signature.signer, self._domain_separated(data), signature.tag
        )
        if len(self._verify_memo) >= self.max_cache_entries:
            self._verify_memo.clear()
        self._verify_memo[key] = result
        return result

    # -------------------------------------------------------------- energies
    @property
    def sign_energy_j(self) -> float:
        """Energy (J) of one signing operation."""
        return self.cost.sign_joules

    @property
    def verify_energy_j(self) -> float:
        """Energy (J) of one verification operation."""
        return self.cost.verify_joules

    def total_sign_operations(self) -> int:
        """Total signing operations performed across all nodes."""
        return sum(self.sign_counts.values())

    def total_verify_operations(self) -> int:
        """Total verification operations performed across all nodes."""
        return sum(self.verify_counts.values())

    # -------------------------------------------------------------- internal
    def _domain_separated(self, data: bytes) -> bytes:
        return self.name.encode("utf-8") + b"|" + data


def available_schemes() -> list[str]:
    """Names of every scheme configuration measured by the paper."""
    return sorted(SIGNATURE_ENERGY_TABLE)


def make_scheme(name: str, keystore: KeyStore) -> SignatureScheme:
    """Build a :class:`SignatureScheme` by name over ``keystore``.

    ``name`` is one of :func:`available_schemes` (e.g. ``"rsa-1024"``,
    ``"ecdsa-secp256k1"``, ``"hmac-sha256"``).
    """
    return SignatureScheme(signature_cost(name), keystore)
