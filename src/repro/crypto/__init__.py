"""Cryptographic substrate.

The reproduction needs cryptography for two things:

1. *Functionality*: blocks are hash-chained, proposals are signed, quorum
   certificates aggregate f+1 signatures, and equivocation is detected by
   verifying two conflicting signed proposals.  The schemes here are real in
   the sense that forging a signature for a key you do not hold fails
   verification inside the simulation.
2. *Energy accounting*: every sign/verify/hash operation is priced using the
   per-operation Joule costs the paper measured on the NUCLEO-F401RE test
   bed (Table 2), via :mod:`repro.crypto.energy_costs`.
"""

from repro.crypto.hashing import HashFunction, sha256_hex
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import (
    Signature,
    SignatureScheme,
    make_scheme,
    available_schemes,
)
from repro.crypto.energy_costs import (
    SIGNATURE_ENERGY_TABLE,
    SignatureEnergyCost,
    signature_cost,
    RSA_1024,
)

__all__ = [
    "HashFunction",
    "sha256_hex",
    "KeyStore",
    "Signature",
    "SignatureScheme",
    "make_scheme",
    "available_schemes",
    "SIGNATURE_ENERGY_TABLE",
    "SignatureEnergyCost",
    "signature_cost",
    "RSA_1024",
]
