"""Unit tests for hashing with energy accounting."""

import hashlib

import pytest

from repro.crypto.hashing import (
    HASH_PER_BYTE_ENERGY_J,
    HashFunction,
    canonical_bytes,
    sha256,
    sha256_hex,
)
from repro.crypto.keys import KeyStore


@pytest.mark.parametrize("length", [0, 55, 56, 63, 64, 65, 1024, 65536])
def test_the_built_in_sha256_matches_hashlib_at_every_padding_boundary(length):
    data = bytes(range(256)) * (length // 256) + bytes(range(length % 256))
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha256(data).digest() == hashlib.sha256(data).digest()


def test_a_copied_state_continues_like_hashlib():
    """The HMAC key schedule copies a precomputed state per tag."""
    state, reference = sha256(b"k" * 64), hashlib.sha256(b"k" * 64)
    branch = state.copy()
    branch.update(b"payload")
    reference.update(b"payload")
    assert branch.hexdigest() == reference.hexdigest()
    assert state.hexdigest() == hashlib.sha256(b"k" * 64).hexdigest()


def test_verify_tag_refuses_a_tag_one_hex_digit_off():
    store = KeyStore(seed=3)
    store.generate([1])
    tag = store.key_pair(1).sign_tag(b"block")
    assert store.verify_tag(1, b"block", tag)
    forged = tag[:-1] + ("0" if tag[-1] != "0" else "1")
    assert not store.verify_tag(1, b"block", forged)


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
