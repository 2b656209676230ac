"""The message plane's exact work: one HMAC per distinct signature.

A signature's tag is an HMAC the signer computes once (the sign memo hands
the same ``Signature`` to every later request for the same bytes), and the
signer enters it in the scheme's verify memo, so no verifier recomputes a
genuine tag.  These are host-independent counts over one fixed run: a
change that brings the redundant HMAC back fails here, whatever the
timing noise of the machine.
"""

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.signatures import Signature, SignatureScheme
from repro.session import DeploymentSpec, Session

#: Sync HotStuff at the paper's operating point: one vote per replica per block.
SPEC = DeploymentSpec(protocol="sync-hotstuff", n=25, f=5, k=2, target_height=50, seed=7)


@pytest.fixture(scope="module")
def counted_run():
    """Run ``SPEC``, recording every HMAC tag and every ``sign`` call."""
    tags, signed = [], []
    real_tag, real_sign = KeyPair.sign_tag, SignatureScheme.sign

    def sign_tag(self, payload):
        tags.append(payload)
        return real_tag(self, payload)

    def sign(self, signer, payload):
        signature = real_sign(self, signer, payload)
        signed.append((signer, payload, signature))
        return signature

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KeyPair, "sign_tag", sign_tag)
        patch.setattr(SignatureScheme, "sign", sign)
        session = Session.from_spec(SPEC).run()
    scheme = session.scheme
    totals = (scheme.total_sign_operations(), scheme.total_verify_operations())
    return scheme, tags, signed, totals


def test_each_distinct_signature_costs_one_hmac(counted_run):
    _, tags, signed, _ = counted_run
    distinct = {(signature.signer, signature.tag) for _, _, signature in signed}
    assert len(distinct) == 1_326
    # Verifiers reuse the signer's verdict: no tag is computed twice.
    assert len(tags) == len(distinct)


def test_operation_counts_are_unchanged(counted_run):
    # Table 3's counts: every logical sign and verify is still booked.
    assert counted_run[3] == (2_600, 24_227)


def test_a_forged_tag_over_a_signed_and_verified_payload_is_rejected(counted_run):
    scheme, _, signed, _ = counted_run
    # A vote's view signature: every replica signs the same bytes.
    signer, payload, genuine = next(entry for entry in signed if b"shs_vote" in entry[1])
    other = next(sig for who, data, sig in signed if data == payload and who != signer)
    verifier = next(pid for pid in range(SPEC.n) if pid not in (signer, other.signer))
    assert scheme.verify(verifier, payload, genuine)
    forged = Signature(signer, genuine.scheme, "0" * len(genuine.tag))
    assert not scheme.verify(verifier, payload, forged)
    # Another node's genuine tag over the same bytes is no tag of the signer's.
    assert not scheme.verify(verifier, payload, Signature(signer, other.scheme, other.tag))
