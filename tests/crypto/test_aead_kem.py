"""Tests for the AEAD and the IND-CCA2 hybrid KEM."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import MessageFormatError, PayloadSpec
from repro.crypto.aead import (
    NONCE_BYTES,
    TAG_BYTES,
    AeadCiphertext,
    AuthenticationError,
    aead_decrypt,
    aead_encrypt,
)
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.kem import Cca2Ciphertext, cca2_decrypt, cca2_encrypt, cca2_size

KEY = bytes(range(32))


class TestAead:
    @pytest.mark.parametrize("plaintext", [b"", b"a", b"hello world", b"\x00" * 100])
    def test_roundtrip(self, plaintext):
        ct = aead_encrypt(KEY, plaintext)
        assert aead_decrypt(KEY, ct) == plaintext

    def test_wrong_key_fails(self):
        ct = aead_encrypt(KEY, b"secret")
        with pytest.raises(AuthenticationError):
            aead_decrypt(bytes(32), ct)

    def test_flipped_body_bit_detected(self):
        ct = aead_encrypt(KEY, b"integrity matters")
        tampered = AeadCiphertext(ct.nonce, bytes([ct.body[0] ^ 1]) + ct.body[1:], ct.tag)
        with pytest.raises(AuthenticationError):
            aead_decrypt(KEY, tampered)

    def test_flipped_tag_bit_detected(self):
        ct = aead_encrypt(KEY, b"integrity")
        tampered = AeadCiphertext(ct.nonce, ct.body, bytes([ct.tag[0] ^ 1]) + ct.tag[1:])
        with pytest.raises(AuthenticationError):
            aead_decrypt(KEY, tampered)

    def test_nonce_swap_detected(self):
        ct1 = aead_encrypt(KEY, b"one")
        ct2 = aead_encrypt(KEY, b"two")
        spliced = AeadCiphertext(ct2.nonce, ct1.body, ct1.tag)
        with pytest.raises(AuthenticationError):
            aead_decrypt(KEY, spliced)

    def test_distinct_nonces_give_distinct_bodies(self):
        a = aead_encrypt(KEY, b"same msg")
        b = aead_encrypt(KEY, b"same msg")
        assert a.body != b.body or a.nonce != b.nonce

    def test_serialization_roundtrip(self):
        ct = aead_encrypt(KEY, b"wire format")
        assert AeadCiphertext.from_bytes(ct.to_bytes()) == ct

    def test_short_wire_rejected(self):
        with pytest.raises(ValueError):
            AeadCiphertext.from_bytes(b"short")

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            aead_encrypt(b"short", b"x")


def _flip_bit(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


class TestTruncatedTag:
    def test_tag_is_128_bits(self):
        assert TAG_BYTES == 16
        assert len(aead_encrypt(KEY, b"x").tag) == 16

    def test_tag_matching_only_15_bytes_rejected(self):
        ct = aead_encrypt(KEY, b"fifteen of sixteen")
        near = AeadCiphertext(ct.nonce, ct.body, ct.tag[:15] + bytes([ct.tag[15] ^ 1]))
        with pytest.raises(AuthenticationError):
            aead_decrypt(KEY, near)

    @pytest.mark.parametrize("length", [0, 15, 17, 32])
    def test_wrong_length_tag_rejected(self, length):
        ct = aead_encrypt(KEY, b"length")
        tag = (ct.tag * 2)[:length]
        with pytest.raises(AuthenticationError):
            aead_decrypt(KEY, AeadCiphertext(ct.nonce, ct.body, tag))


class TestCca2Kem:
    def test_roundtrip(self, test_group):
        scheme = AtomElGamal(test_group)
        kp = scheme.keygen()
        msg = b"inner ciphertext payload" * 4
        ct = cca2_encrypt(test_group, kp.public, msg)
        assert cca2_decrypt(test_group, kp.secret, ct) == msg

    def test_wrong_secret_fails(self, test_group):
        scheme = AtomElGamal(test_group)
        kp, other = scheme.keygen(), scheme.keygen()
        ct = cca2_encrypt(test_group, kp.public, b"msg")
        with pytest.raises(AuthenticationError):
            cca2_decrypt(test_group, other.secret, ct)

    def test_mauled_body_detected(self, test_group):
        """Non-malleability: this is what stops servers tampering with
        inner ciphertexts in the trap variant (§4.4)."""
        scheme = AtomElGamal(test_group)
        kp = scheme.keygen()
        ct = cca2_encrypt(test_group, kp.public, b"msg")
        mauled = Cca2Ciphertext(ct.R, ct.tag, _flip_bit(ct.body, 0))
        with pytest.raises(AuthenticationError):
            cca2_decrypt(test_group, kp.secret, mauled)

    def test_swapped_encapsulation_detected(self, test_group):
        scheme = AtomElGamal(test_group)
        kp = scheme.keygen()
        ct1 = cca2_encrypt(test_group, kp.public, b"one")
        ct2 = cca2_encrypt(test_group, kp.public, b"two")
        spliced = Cca2Ciphertext(ct2.R, ct1.tag, ct1.body)
        with pytest.raises(AuthenticationError):
            cca2_decrypt(test_group, kp.secret, spliced)

    def test_deterministic_with_rng(self, test_group):
        scheme = AtomElGamal(test_group)
        kp = scheme.keygen()
        a = cca2_encrypt(test_group, kp.public, b"m", DeterministicRng(b"s"))
        b = cca2_encrypt(test_group, kp.public, b"m", DeterministicRng(b"s"))
        assert a == b

    def test_no_nonce_is_drawn_from_the_rng(self, test_group):
        """The DEM key is one-time, so the only randomness an
        encryption consumes is the encapsulation scalar."""
        kp = AtomElGamal(test_group).keygen()
        rng = DeterministicRng(b"draws")
        with mock.patch.object(
            DeterministicRng, "randbytes", side_effect=AssertionError("nonce drawn")
        ):
            with mock.patch.object(
                type(test_group), "random_scalar", return_value=7
            ) as scalar:
                cca2_encrypt(test_group, kp.public, b"m", rng)
        scalar.assert_called_once_with(rng)

    def test_two_encryptions_differ_in_R_and_body(self, test_group):
        kp = AtomElGamal(test_group).keygen()
        msg = b"the same message twice"
        a = cca2_encrypt(test_group, kp.public, msg)
        b = cca2_encrypt(test_group, kp.public, msg)
        assert a.R != b.R and a.body != b.body and a.tag != b.tag
        assert cca2_decrypt(test_group, kp.secret, a) == msg
        assert cca2_decrypt(test_group, kp.secret, b) == msg

    def test_size_bytes(self, test_group):
        scheme = AtomElGamal(test_group)
        kp = scheme.keygen()
        ct = cca2_encrypt(test_group, kp.public, b"0123456789")
        assert ct.size_bytes == len(ct.to_bytes()) == cca2_size(test_group, 10)


@pytest.mark.parametrize("name", ["TOY", "P256"])
class TestCca2Wire:
    """``R || tag || body``: one element and 16 bytes over the
    plaintext, and every bit of it is authenticated."""

    PLAINTEXT = b"\x00\x05hello" + bytes(27)  # a padded 32-byte message

    def _sealed(self, name):
        group = get_group(name)
        kp = AtomElGamal(group).keygen(DeterministicRng(b"wire|" + name.encode()))
        ct = cca2_encrypt(
            group, kp.public, self.PLAINTEXT, DeterministicRng(b"enc|" + name.encode())
        )
        return group, kp, ct

    def test_wire_size_and_roundtrip(self, name):
        group, kp, ct = self._sealed(name)
        raw = ct.to_bytes()
        assert len(raw) == group.element_bytes + 16 + len(self.PLAINTEXT)
        assert raw == ct.R.to_bytes() + ct.tag + ct.body
        parsed = PayloadSpec.cca2_from_bytes(group, raw)
        assert parsed == ct == Cca2Ciphertext.from_bytes(group, raw)
        assert cca2_decrypt(group, kp.secret, parsed) == self.PLAINTEXT

    def test_empty_plaintext_is_the_shortest_wire_form(self, name):
        group = get_group(name)
        kp = AtomElGamal(group).keygen()
        raw = cca2_encrypt(group, kp.public, b"").to_bytes()
        assert len(raw) == cca2_size(group, 0)
        assert cca2_decrypt(group, kp.secret, PayloadSpec.cca2_from_bytes(group, raw)) == b""
        with pytest.raises(MessageFormatError):
            PayloadSpec.cca2_from_bytes(group, raw[:-1])

    @given(data=st.data())
    @settings(
        max_examples=60, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    def test_any_flipped_bit_is_caught(self, name, data):
        """Flip one bit of ``R``, tag or body: the ciphertext either no
        longer parses (``R`` off the group) or fails authentication —
        it never opens."""
        group, kp, ct = self._sealed(name)
        raw = ct.to_bytes()
        width = group.element_bytes
        region = data.draw(st.sampled_from(["R", "tag", "body"]))
        lo, hi = {
            "R": (0, width), "tag": (width, width + 16), "body": (width + 16, len(raw)),
        }[region]
        bit = data.draw(st.integers(lo * 8, hi * 8 - 1))
        try:
            mauled = PayloadSpec.cca2_from_bytes(group, _flip_bit(raw, bit))
        except MessageFormatError:
            assert region == "R"
            return
        with pytest.raises(AuthenticationError):
            cca2_decrypt(group, kp.secret, mauled)


class TestDialingBoxKeepsItsNonce:
    """``apps/dialing.py`` seals under its own AEAD call: the explicit
    nonce stays on the wire there."""

    def test_sealed_box_roundtrips_with_an_explicit_nonce(self):
        from repro.apps.dialing import open_dial, seal_dial
        from repro.crypto.elgamal import ElGamalKeyPair

        group = get_group("P256")
        bob = ElGamalKeyPair.generate(group, DeterministicRng(b"bob"))
        sealed = seal_dial(group, b"alice-public-key", bob, DeterministicRng(b"dial"))
        assert open_dial(group, bob, sealed) == b"alice-public-key"
        assert len(sealed) == group.element_bytes + NONCE_BYTES + TAG_BYTES + 16
        box = AeadCiphertext.from_bytes(sealed[group.element_bytes:])
        assert box.nonce != bytes(NONCE_BYTES)
        assert AeadCiphertext.from_bytes(box.to_bytes()) == box


class TestCommitments:
    def test_commit_verify(self):
        from repro.crypto.commit import commit, verify_commitment

        payload = b"trap|gid=3|nonce=abcdef"
        c = commit(payload)
        assert verify_commitment(c, payload)
        assert not verify_commitment(c, payload + b"!")

    def test_distinct_payloads_distinct_commitments(self):
        from repro.crypto.commit import commit

        assert commit(b"a") != commit(b"b")


class TestBeacon:
    def test_reproducible_groups(self):
        from repro.crypto.beacon import RandomnessBeacon

        beacon = RandomnessBeacon(b"seed")
        a = beacon.sample_groups(1, num_servers=20, num_groups=5, group_size=4)
        b = beacon.sample_groups(1, num_servers=20, num_groups=5, group_size=4)
        assert a == b

    def test_rounds_differ(self):
        from repro.crypto.beacon import RandomnessBeacon

        beacon = RandomnessBeacon(b"seed")
        assert beacon.sample_groups(1, 20, 5, 4) != beacon.sample_groups(2, 20, 5, 4)

    def test_groups_have_distinct_members(self):
        from repro.crypto.beacon import RandomnessBeacon

        groups = RandomnessBeacon().sample_groups(0, 50, 10, 8)
        for group in groups:
            assert len(set(group)) == len(group) == 8

    def test_group_size_bound(self):
        from repro.crypto.beacon import RandomnessBeacon

        with pytest.raises(ValueError):
            RandomnessBeacon().sample_groups(0, 3, 1, 4)
