"""Unit tests for the PKI key store."""

import pytest

from repro.crypto.keys import KeyStore


def test_generate_is_idempotent_and_deterministic():
    a = KeyStore(seed=1)
    a.generate(range(4))
    first = a.key_pair(2).secret_key
    a.generate(range(4))
    assert a.key_pair(2).secret_key == first
    b = KeyStore(seed=1)
    b.generate(range(4))
    assert b.key_pair(2).secret_key == first


def test_different_seeds_give_different_keys():
    a = KeyStore(seed=1)
    b = KeyStore(seed=2)
    a.generate([0])
    b.generate([0])
    assert a.key_pair(0).secret_key != b.key_pair(0).secret_key


def test_different_nodes_get_different_keys():
    store = KeyStore(seed=1)
    store.generate([0, 1])
    assert store.key_pair(0).secret_key != store.key_pair(1).secret_key


def test_missing_key_raises():
    with pytest.raises(KeyError):
        KeyStore().key_pair(3)


def test_verify_tag_accepts_owner_signature():
    store = KeyStore(seed=1)
    store.generate([0, 1])
    tag = store.key_pair(0).sign_tag(b"payload")
    assert store.verify_tag(0, b"payload", tag)


def test_verify_tag_rejects_other_signer_or_payload():
    store = KeyStore(seed=1)
    store.generate([0, 1])
    tag = store.key_pair(0).sign_tag(b"payload")
    assert not store.verify_tag(1, b"payload", tag)
    assert not store.verify_tag(0, b"other", tag)


def test_verify_tag_unknown_node_is_false():
    store = KeyStore(seed=1)
    assert store.verify_tag(9, b"x", "00" * 32) is False
