"""Cross-backend parity: TOY and P-256 behave identically.

``GroupBackend`` promises that every layer above
``repro.crypto.groups`` is backend-blind.  These Hypothesis property
tests drive the *same* inputs through both groups — the Schnorr
unit-test group (TOY) and the paper's NIST P-256 curve — and assert
the protocol-level results round-trip identically: message encoding,
element serialization, ElGamal encrypt/rerandomize/reencrypt, the
fixed-base/multiexp engine, and the shuffle/encryption NIZKs.

Scalars are kept short (64-bit) where a reference computation walks an
O(bits) multiply ladder; the properties themselves are bit-length
independent.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.nizk import (
    prove_encryption,
    prove_reencryption,
    verify_encryption,
    verify_reencryption,
)
from repro.crypto.vector import (
    CiphertextVector,
    prove_vector_shuffle,
    shuffle_vectors,
    verify_vector_shuffle,
)

BACKENDS = ["TOY", "P256"]

#: both backends can embed at least this much per element (TOY: 6)
SHARED_CAPACITY = min(
    get_group(name).params.message_bytes for name in BACKENDS
)

settings_parity = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

messages = st.binary(min_size=0, max_size=SHARED_CAPACITY)
small_scalars = st.integers(min_value=1, max_value=(1 << 64) - 1)
seeds = st.binary(min_size=1, max_size=8)


def _ladder(group, exponent):
    """Reference exponentiation using only ``*`` (square-and-multiply),
    independent of the comb/table code paths under test."""
    acc = group.identity
    base = group.g
    while exponent:
        if exponent & 1:
            acc = acc * base
        base = base * base
        exponent >>= 1
    return acc


@pytest.mark.parametrize("name", BACKENDS)
class TestEncodingParity:
    @given(message=messages)
    @settings_parity
    def test_encode_decode_roundtrip(self, name, message):
        group = get_group(name)
        assert group.decode(group.encode(message)) == message

    @given(message=st.binary(min_size=0, max_size=3 * SHARED_CAPACITY))
    @settings_parity
    def test_chunked_roundtrip(self, name, message):
        group = get_group(name)
        elements = group.encode_chunks(message)
        assert len(elements) >= group.elements_for_size(len(message)) - 1
        assert group.decode_chunks(elements) == message

    @given(seed=seeds)
    @settings_parity
    def test_element_value_roundtrip(self, name, seed):
        """Proof transcripts serialize elements as integers; every
        element must survive ``element(el.value)``."""
        group = get_group(name)
        el = group.random_element(DeterministicRng(seed))
        assert group.element(el.value) == el
        assert len(el.to_bytes()) == group.element_bytes

    def test_identity_and_generator_membership(self, name):
        group = get_group(name)
        assert group.is_prime_order(group.g)
        assert group.is_prime_order(group.encode(b"member"))


@pytest.mark.parametrize("name", BACKENDS)
class TestFastExpParity:
    @given(exponent=small_scalars)
    @settings_parity
    def test_gpow_matches_ladder(self, name, exponent):
        group = get_group(name)
        expected = _ladder(group, exponent)
        assert group.g_pow(exponent) == expected
        assert group.g ** exponent == expected
        assert group.pow_cached(group.g, exponent) == expected

    @given(exponents=st.lists(small_scalars, min_size=1, max_size=4), seed=seeds)
    @settings_parity
    def test_multiexp_matches_product(self, name, exponents, seed):
        group = get_group(name)
        rng = DeterministicRng(seed)
        bases = [group.random_element(rng) for _ in exponents]
        expected = group.identity
        for base, e in zip(bases, exponents):
            expected = expected * (base ** e)
        assert group.multiexp(bases, exponents) == expected

    def test_promotion_agrees_with_generic(self, name):
        group = get_group(name)
        rng = DeterministicRng(b"parity-promote")
        base = group.random_element(rng)
        e = group.random_scalar(rng)
        results = {group.pow_cached(base, e) for _ in range(4)}
        assert results == {base ** e}


@pytest.mark.parametrize("name", BACKENDS)
class TestElGamalParity:
    @given(message=messages, seed=seeds)
    @settings_parity
    def test_encrypt_decrypt(self, name, message, seed):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        kp = scheme.keygen(rng)
        ct, _ = scheme.encrypt(kp.public, group.encode(message), rng)
        assert group.decode(scheme.decrypt(kp.secret, ct)) == message

    @given(message=messages, seed=seeds)
    @settings_parity
    def test_rerandomize_preserves_plaintext(self, name, message, seed):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        kp = scheme.keygen(rng)
        ct, _ = scheme.encrypt(kp.public, group.encode(message), rng)
        ct2 = scheme.rerandomize(kp.public, ct, rng)
        assert ct2 != ct
        assert group.decode(scheme.decrypt(kp.secret, ct2)) == message

    @given(message=messages, seed=seeds)
    @settings_parity
    def test_out_of_order_reencrypt_chain(self, name, message, seed):
        """The Appendix-A hop: strip group 1's layer while adding
        group 2's, then decrypt at the exit — identical on both
        backends."""
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        kp1 = scheme.keygen(rng)
        kp2 = scheme.keygen(rng)
        ct, _ = scheme.encrypt(kp1.public, group.encode(message), rng)
        ct = scheme.reencrypt(kp1.secret, kp2.public, ct, rng)
        ct = ct.with_y_bot()
        ct = scheme.reencrypt(kp2.secret, None, ct, rng)
        assert group.decode(scheme.decrypt(kp2.secret, ct.with_y_bot())) == message


@pytest.mark.parametrize("name", BACKENDS)
class TestProofParity:
    def test_enc_proof_roundtrip(self, name):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"parity-encproof")
        kp = scheme.keygen(rng)
        ct, r = scheme.encrypt(kp.public, group.encode(b"prove"), rng)
        proof = prove_encryption(group, ct, r, kp.public, gid=3)
        assert verify_encryption(group, ct, proof, kp.public, gid=3)
        assert not verify_encryption(group, ct, proof, kp.public, gid=4)

    def test_reenc_proof_roundtrip(self, name):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"parity-reencproof")
        kp = scheme.keygen(rng)
        nxt = scheme.keygen(rng)
        ct, _ = scheme.encrypt(kp.public, group.encode(b"hop"), rng)
        r = group.random_scalar(rng)
        out = scheme.reencrypt(kp.secret, nxt.public, ct, randomness=r)
        proof = prove_reencryption(group, kp.secret, r, nxt.public, ct, out)
        assert verify_reencryption(group, kp.public, nxt.public, ct, out, proof)

    @pytest.mark.parametrize("batched", [True, False])
    def test_shuffle_proof_roundtrip(self, name, batched):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"parity-shuffle")
        kp = scheme.keygen(rng)
        inputs = [
            CiphertextVector(
                (scheme.encrypt(kp.public, group.encode(b"m%d" % i), rng)[0],)
            )
            for i in range(4)
        ]
        outputs, perm, rands = shuffle_vectors(scheme, kp.public, inputs, rng)
        proof = prove_vector_shuffle(
            scheme, kp.public, inputs, outputs, perm, rands, rounds=4, rng=rng
        )
        assert verify_vector_shuffle(
            scheme, kp.public, inputs, outputs, proof, rounds=4, batched=batched
        )
        tampered = list(outputs)
        tampered[0], tampered[1] = tampered[1], tampered[0]
        assert not verify_vector_shuffle(
            scheme, kp.public, inputs, tampered, proof, rounds=4, batched=batched
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestRegistryParity:
    def test_groups_are_cached_singletons(self, name):
        assert get_group(name) is get_group(name.lower())

    def test_pickle_restores_singleton(self, name):
        group = get_group(name)
        el = group.random_element(DeterministicRng(b"parity-pickle"))
        clone = pickle.loads(pickle.dumps(el))
        assert clone == el
        assert clone.group is group
