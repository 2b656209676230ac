"""Unit tests for the simulated signature schemes."""

import pytest

from repro.crypto.keys import KeyStore
from repro.crypto.signatures import available_schemes, make_scheme


@pytest.fixture
def scheme():
    store = KeyStore(seed=3)
    store.generate(range(5))
    return make_scheme("rsa-1024", keystore=store)


def test_sign_then_verify_succeeds(scheme):
    sig = scheme.sign(0, {"block": "abc"})
    assert scheme.verify(1, {"block": "abc"}, sig)


def test_verify_fails_for_tampered_payload(scheme):
    sig = scheme.sign(0, {"block": "abc"})
    assert not scheme.verify(1, {"block": "xyz"}, sig)


def test_verify_fails_for_wrong_scheme_name(scheme):
    other = make_scheme("ecdsa-secp256k1", keystore=scheme.keystore)
    sig = other.sign(0, "payload")
    assert not scheme.verify(1, "payload", sig)


def test_signature_binds_to_signer(scheme):
    sig_a = scheme.sign(0, "payload")
    sig_b = scheme.sign(1, "payload")
    assert sig_a.tag != sig_b.tag
    assert sig_a.signer == 0 and sig_b.signer == 1


def test_forgery_with_wrong_signer_id_fails(scheme):
    """Claiming someone else's identity on a tag you produced must fail."""
    sig = scheme.sign(0, "payload")
    forged = type(sig)(signer=1, scheme=sig.scheme, tag=sig.tag)
    assert not scheme.verify(2, "payload", forged)


def test_operation_counters(scheme):
    scheme.sign(0, "a")
    scheme.sign(0, "b")
    sig = scheme.sign(1, "c")
    scheme.verify(2, "c", sig)
    scheme.verify(3, "c", sig)
    assert scheme.sign_counts[0] == 2
    assert scheme.sign_counts[1] == 1
    assert scheme.total_sign_operations() == 3
    assert scheme.total_verify_operations() == 2


def test_energy_properties_match_table(scheme):
    assert scheme.sign_energy_j == pytest.approx(0.40)
    assert scheme.verify_energy_j == pytest.approx(0.02)


def test_signature_size_matches_scheme(scheme):
    sig = scheme.sign(0, "x")
    assert sig.size_bytes == 128


def test_hmac_scheme_is_not_transferable():
    """A MAC proves nothing to a third party: its family says so."""
    assert make_scheme("hmac-sha256", KeyStore(seed=1)).cost.family == "hmac"


def test_rsa_scheme_is_transferable(scheme):
    assert scheme.cost.family != "hmac"


def test_available_schemes_covers_table():
    names = available_schemes()
    assert "rsa-1024" in names and "ecdsa-secp256k1" in names and "hmac-sha256" in names
    assert len(names) == 11


def test_make_scheme_generates_keys_on_demand():
    scheme = make_scheme("rsa-1024", KeyStore(seed=5))
    scheme.keystore.generate([0, 1])
    sig = scheme.sign(0, "x")
    assert scheme.verify(1, "x", sig)


def test_every_scheme_round_trips():
    store = KeyStore(seed=9)
    store.generate(range(3))
    for name in available_schemes():
        scheme = make_scheme(name, keystore=store)
        sig = scheme.sign(0, {"payload": name})
        assert scheme.verify(1, {"payload": name}, sig), name
