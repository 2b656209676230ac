"""Canonical serialization: never stale, typed leaves, and the scheme memos.

Nothing between a payload and its bytes is cached, so a payload mutated
after signing re-serializes and fails verification; what *is* memoized —
the scheme's sign / verify tables, a message's verdict — is keyed on those
bytes or on an object that cannot change.
"""

from dataclasses import dataclass

import pytest

from repro.crypto.hashing import canonical_bytes, sha256_hex
from repro.crypto.signatures import make_scheme


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


def test_message_with_mutable_data_recomputes_digest_after_mutation():
    from repro.core.messages import MessageType, make_message

    scheme = make_scheme("hmac-sha256")
    scheme.keystore.generate([0])
    # A message can no longer hold a mutable payload at all.
    with pytest.raises(TypeError):
        make_message(scheme, 0, MessageType.PROPOSE, 1, {"balance": 100})


# ------------------------------------------------------------- equivalence
def test_digest_matches_sha256_of_canonical_bytes():
    import hashlib

    payload = ("data", "abcdef", 7)
    assert sha256_hex(payload) == hashlib.sha256(canonical_bytes(payload)).hexdigest()
    # An equal tuple, the same digest.
    assert sha256_hex(payload) == sha256_hex(("data", "abcdef", 7))


def test_value_cache_distinguishes_equal_but_differently_typed_leaves():
    # 1 == True == 1.0 under dict-key equality, but their canonical JSON
    # differs, so none of them alias.
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

    forged = Signature(signer=0, scheme=genuine.scheme, tag="0" * 64)
    assert not scheme.verify(1, payload, forged)


def test_message_level_memo_keys_on_frozen_message_identity():
    from repro.core.messages import MessageType, make_message, verify_message

    scheme = make_scheme("rsa-1024")
    scheme.keystore.generate([0, 1, 2])
    message = make_message(scheme, 0, MessageType.PROPOSE, 1, "ab" * 32)
    assert verify_message(scheme, 1, message)
    verify_count_before = scheme.total_verify_operations()
    assert verify_message(scheme, 2, message)
    # The second replica reused the verdict but still booked 2 operations.
    assert scheme.total_verify_operations() == verify_count_before + 2
