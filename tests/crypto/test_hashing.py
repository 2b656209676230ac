"""Unit tests for hashing with energy accounting."""

import pytest

from repro.crypto.hashing import (
    HASH_PER_BYTE_ENERGY_J,
    HashFunction,
    canonical_bytes,
    sha256_hex,
)


def test_sha256_hex_deterministic():
    assert sha256_hex({"a": 1, "b": 2}) == sha256_hex({"b": 2, "a": 1})


def test_sha256_hex_differs_for_different_payloads():
    assert sha256_hex("x") != sha256_hex("y")


def test_canonical_bytes_handles_bytes_str_and_objects():
    assert canonical_bytes(b"raw") == b"raw"
    assert canonical_bytes("text") == b"text"
    assert isinstance(canonical_bytes({"k": [1, 2]}), bytes)


def test_hash_energy_grows_linearly_with_size():
    fn = HashFunction()
    small = fn.energy_for_size(100)
    large = fn.energy_for_size(10_100)
    assert large > small
    assert large - small == pytest.approx(10_000 * HASH_PER_BYTE_ENERGY_J)


def test_hash_energy_rejects_negative_size():
    with pytest.raises(ValueError):
        HashFunction().energy_for_size(-1)


def test_hash_cost_well_below_signature_cost():
    """The paper's ordering: hashing is far cheaper than signing."""
    fn = HashFunction()
    assert fn.energy_for_size(1024) < 0.01  # Joules; RSA-1024 sign is 0.4 J
