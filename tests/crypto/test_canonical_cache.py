"""Flyweight canonicalization cache: safety and hit behaviour.

The cache exists to serialize each message once per run instead of once
per hop×verifier — but it must never trade that for staleness.  The
mutation tests here pin the contract: only *immutable* payloads (frozen
dataclasses by identity, primitive tuples by value) are ever cached;
mutable payloads re-serialize on every call, so a payload mutated after
signing still fails verification.
"""

import gc
from dataclasses import dataclass

import pytest

from repro.crypto.hashing import (
    CanonicalCache,
    _serialize_canonical,
    canonical_bytes,
    canonical_cache,
    sha256_hex,
)
from repro.crypto.signatures import make_scheme


@dataclass(frozen=True)
class FrozenPayload:
    name: str
    value: int


@pytest.fixture(autouse=True)
def fresh_cache():
    canonical_cache.clear()
    yield
    canonical_cache.clear()


# ----------------------------------------------------------- mutation safety
def test_mutated_after_sign_payload_fails_verification():
    scheme = make_scheme("hmac-sha256")
    scheme.keystore.generate([0, 1])
    payload = {"cmd": "transfer", "amount": 10}
    signature = scheme.sign(0, payload)
    assert scheme.verify(1, payload, signature)
    payload["amount"] = 10_000
    assert not scheme.verify(1, payload, signature)


def test_mutated_list_payload_reserializes():
    payload = [1, 2, 3]
    first = canonical_bytes(payload)
    payload.append(4)
    second = canonical_bytes(payload)
    assert first != second


def test_frozen_wrapper_around_mutable_field_is_never_cached():
    @dataclass(frozen=True)
    class FrozenWithList:
        items: list

    scheme = make_scheme("hmac-sha256")
    scheme.keystore.generate([0, 1])
    payload = FrozenWithList(items=[1, 2, 3])
    signature = scheme.sign(0, payload)
    assert scheme.verify(1, payload, signature)
    payload.items.append(99)
    assert not scheme.verify(1, payload, signature)
    assert canonical_cache.stats()["identity_entries"] == 0


def test_message_with_mutable_data_recomputes_digest_after_mutation():
    from repro.core.messages import MessageType, make_message, verify_message

    scheme = make_scheme("hmac-sha256")
    scheme.keystore.generate([0, 1, 2])
    data = {"balance": 100}
    message = make_message(scheme, 0, MessageType.PROPOSE, 1, data)
    assert verify_message(scheme, 1, message)
    digest_before = message.data_digest
    data["balance"] = 10_000
    assert message.data_digest != digest_before
    assert not verify_message(scheme, 2, message)


def test_uncached_counts_exactly_the_payloads_the_cache_may_not_keep():
    for payload in ({"k": 1}, [1, 2], ("wrapper", [1]), {"k": 1}):
        canonical_bytes(payload)
    sha256_hex([3, 4])
    assert canonical_cache.stats()["uncached"] == 5
    hits, misses = canonical_cache.hits, canonical_cache.misses
    assert (hits, misses) == (0, 0)  # neither hits nor misses
    for payload in ("text", b"raw", ("view", "propose", 1), FrozenPayload("x", 1)):
        canonical_bytes(payload)
    assert canonical_cache.stats()["uncached"] == 5
    canonical_cache.clear()
    assert canonical_cache.stats()["uncached"] == 0


def test_frozen_payloads_are_cached_by_identity_not_value():
    a = FrozenPayload("x", 1)
    b = FrozenPayload("x", 1)
    bytes_a = canonical_cache.bytes_for(a)
    hits_before = canonical_cache.hits
    assert canonical_cache.bytes_for(a) is bytes_a
    assert canonical_cache.hits == hits_before + 1
    # An equal-but-distinct instance serializes to equal bytes without
    # sharing the identity entry.
    assert canonical_cache.bytes_for(b) == bytes_a


def test_identity_entries_evicted_when_message_collected():
    cache = CanonicalCache()
    obj = FrozenPayload("gone", 9)
    cache.bytes_for(obj)
    assert cache.stats()["identity_entries"] == 1
    del obj
    gc.collect()
    assert cache.stats()["identity_entries"] == 0


# ------------------------------------------------------------- equivalence
def test_cached_and_uncached_serializations_agree():
    samples = [
        "plain string",
        b"raw bytes",
        ("view", "propose", 3),
        FrozenPayload("msg", 42),
        {"k": [1, 2, {"nested": True}]},
        3.14159,
    ]
    for payload in samples:
        cached_first = canonical_bytes(payload)
        cached_again = canonical_bytes(payload)
        raw = _serialize_canonical(payload)
        assert cached_first == cached_again == raw, payload


def test_digest_matches_sha256_of_canonical_bytes():
    import hashlib

    payload = ("data", "abcdef", 7)
    assert sha256_hex(payload) == hashlib.sha256(canonical_bytes(payload)).hexdigest()
    # Second call is a value-cache hit with the same digest.
    assert sha256_hex(payload) == sha256_hex(("data", "abcdef", 7))


def test_value_cache_hits_across_equal_tuples():
    canonical_cache.bytes_for(("view", "propose", 1))
    hits_before = canonical_cache.hits
    canonical_cache.bytes_for(("view", "propose", 1))
    assert canonical_cache.hits == hits_before + 1


def test_value_cache_distinguishes_equal_but_differently_typed_leaves():
    # 1 == True == 1.0 under dict-key equality, but their canonical JSON
    # differs; the cache key is type-tagged so none of them alias.
    as_int = canonical_bytes(("x", 1))
    as_bool = canonical_bytes(("x", True))
    as_float = canonical_bytes(("x", 1.0))
    assert as_int == b'["x", 1]'
    assert as_bool == b'["x", true]'
    assert as_float == b'["x", 1.0]'
    # And the digests differ accordingly (a signature over one must not
    # verify against another).
    assert len({sha256_hex(("x", 1)), sha256_hex(("x", True)), sha256_hex(("x", 1.0))}) == 3


def test_value_cache_distinguishes_positive_and_negative_zero():
    assert canonical_bytes(("x", 0.0)) == b'["x", 0.0]'
    assert canonical_bytes(("x", -0.0)) == b'["x", -0.0]'
    assert sha256_hex(("x", 0.0)) != sha256_hex(("x", -0.0))


def test_tuples_with_mutable_members_are_not_cached():
    inner = [1, 2]
    payload = ("wrapper", inner)
    first = canonical_bytes(payload)
    inner.append(3)
    assert canonical_bytes(payload) != first
    assert canonical_cache.stats()["value_entries"] == 0


# ----------------------------------------------------- scheme-level memoing
def test_verify_memo_still_counts_every_operation():
    scheme = make_scheme("rsa-1024")
    scheme.keystore.generate([0, 1, 2, 3])
    payload = ("data", "digest", 1)
    signature = scheme.sign(0, payload)
    for verifier in (1, 2, 3):
        assert scheme.verify(verifier, payload, signature)
    assert scheme.verify_counts[1] == 1
    assert scheme.verify_counts[2] == 1
    assert scheme.verify_counts[3] == 1
    assert scheme.total_verify_operations() == 3


def test_sign_memo_returns_identical_tags_and_counts():
    scheme = make_scheme("rsa-1024")
    scheme.keystore.generate([0])
    first = scheme.sign(0, ("view", "propose", 5))
    second = scheme.sign(0, ("view", "propose", 5))
    assert first is second  # the memo holds the finished Signature
    assert scheme.sign_counts[0] == 2


def test_forged_tag_rejected_even_after_genuine_verification():
    scheme = make_scheme("hmac-sha256")
    scheme.keystore.generate([0, 1])
    payload = ("data", "real", 1)
    genuine = scheme.sign(0, payload)
    assert scheme.verify(1, payload, genuine)
    from repro.crypto.signatures import Signature

    forged = Signature(
        signer=0, scheme=genuine.scheme, tag="0" * 64, payload_digest=genuine.payload_digest
    )
    assert not scheme.verify(1, payload, forged)


def test_message_level_memo_keys_on_frozen_message_identity():
    from repro.core.messages import MessageType, make_message, verify_message

    scheme = make_scheme("rsa-1024")
    scheme.keystore.generate([0, 1, 2])
    message = make_message(scheme, 0, MessageType.PROPOSE, 1, {"h": 1})
    assert verify_message(scheme, 1, message)
    verify_count_before = scheme.total_verify_operations()
    assert verify_message(scheme, 2, message)
    # The second replica reused the verdict but still booked 2 operations.
    assert scheme.total_verify_operations() == verify_count_before + 2
