"""Property-based tests for the precomputed HMAC key schedule.

A :class:`KeyPair` hashes the RFC 2104 inner and outer SHA-256 states once
and every tag copies them.  These properties hold its tags to the standard
library's HMAC for secrets on both sides of the 64-byte block (a longer key
is hashed first), so a swapped ipad/opad, a wrong pad byte or a key padded
past the block fails here.
"""

import hmac

from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyPair, KeyStore

_STORE = KeyStore(seed=11)
_STORE.generate(range(4))


def _sized_binary(max_size):
    """Bytes of a length drawn uniformly from 0..max_size: ``st.binary``
    alone rarely draws a secret past the 64-byte block."""
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)
    )


@settings(max_examples=300, deadline=None)
@given(secret=_sized_binary(100), payload=_sized_binary(300))
def test_sign_tag_is_the_standard_hmac(secret, payload):
    pair = KeyPair(secret)
    assert pair.sign_tag(payload) == hmac.digest(secret, payload, "sha256").hex()
    # The schedule is copied, never consumed: a second tag is the same.
    assert pair.sign_tag(payload) == pair.sign_tag(payload)


@settings(max_examples=100, deadline=None)
@given(
    signer=st.integers(min_value=0, max_value=3),
    payload=st.binary(max_size=300),
    other=st.binary(max_size=300),
)
def test_verify_tag_round_trips_and_binds_signer_and_payload(signer, payload, other):
    tag = _STORE.key_pair(signer).sign_tag(payload)
    assert _STORE.verify_tag(signer, payload, tag)
    assert not _STORE.verify_tag((signer + 1) % 4, payload, tag)
    assert _STORE.verify_tag(signer, other, tag) == (other == payload)
