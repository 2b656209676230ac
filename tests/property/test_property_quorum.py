"""Property-based tests for quorum certificates and signatures."""

from hypothesis import given, settings, strategies as st

from repro.core.messages import (
    MessageType,
    make_message,
    make_qc,
    verify_qc,
)
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import make_scheme

_STORE = KeyStore(seed=77)
_STORE.generate(range(16))
_SCHEME = make_scheme("rsa-1024", keystore=_STORE)


signers_strategy = st.lists(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=10, unique=True
)


@given(signers_strategy, st.integers(min_value=1, max_value=5), st.text(min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_qc_verifies_iff_threshold_met(signers, view, digest):
    votes = [make_message(_SCHEME, s, MessageType.CERTIFY, view, digest) for s in signers]
    qc = make_qc(votes)
    assert verify_qc(_SCHEME, 0, qc, threshold=len(signers))
    assert not verify_qc(_SCHEME, 0, qc, threshold=len(signers) + 1)


@given(signers_strategy, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_view_qc_verifies_regardless_of_payload_mix(signers, view):
    blames = [
        make_message(_SCHEME, s, MessageType.BLAME, view, None if s % 2 else f"proof-{s}")
        for s in signers
    ]
    qc = make_qc(blames)
    assert verify_qc(_SCHEME, 1, qc, threshold=len(signers))


@given(signers_strategy, st.integers(min_value=1, max_value=5), st.text(min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_qc_signers_are_sorted_and_unique(signers, view, digest):
    votes = [make_message(_SCHEME, s, MessageType.CERTIFY, view, digest) for s in signers]
    qc = make_qc(votes + votes)  # duplicates collapse
    assert list(qc.signers) == sorted(set(signers))
    assert len(qc.signatures) == len(qc.signers)


@given(st.integers(min_value=0, max_value=15), st.binary(min_size=0, max_size=64))
@settings(max_examples=80, deadline=None)
def test_signature_round_trip_any_payload(signer, payload):
    signature = _SCHEME.sign(signer, payload)
    assert _SCHEME.verify(0, payload, signature)
    assert not _SCHEME.verify(0, payload + b"x", signature)


@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.binary(min_size=1, max_size=32),
)
@settings(max_examples=80, deadline=None)
def test_signature_not_transferable_across_signers(signer_a, signer_b, payload):
    signature = _SCHEME.sign(signer_a, payload)
    forged = type(signature)(signer=signer_b, scheme=signature.scheme, tag=signature.tag)
    if signer_a != signer_b:
        assert not _SCHEME.verify(0, payload, forged)
