"""Tests for Atom's rerandomizable ElGamal with out-of-order ReEnc."""

import hashlib

import pytest

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.vector import (
    CiphertextVector,
    decrypt_vector,
    encrypt_vector,
    shuffle_vectors,
)

#: sha256 of five seeded one-part vectors shuffled by ``shuffle_vectors``
#: (outputs, then the repr of the witness), recorded when the scalar
#: ``AtomElGamal.shuffle`` still existed and drew the same values.
ONE_PART_SHUFFLE_DIGESTS = {
    "TOY": "3e885fa2a92e7a5ae9e5aade7486196252cc97df4216e1ab03be0a459808f73a",
    "P256": "ca41f1e29b289a821d498e9f18e0fa4541a8f7c098638df5fa0950fcd0999ff7",
}


@pytest.fixture()
def scheme(toy_group):
    return AtomElGamal(toy_group)


def anytrust_key(scheme, size):
    """Generate `size` member keypairs and the combined group key."""
    members = [scheme.keygen() for _ in range(size)]
    group_key = scheme.combine_public_keys([m.public for m in members])
    return members, group_key


class TestBasicEncryption:
    def test_encrypt_decrypt_single_key(self, scheme, toy_group):
        kp = scheme.keygen()
        m = toy_group.encode(b"msg")
        ct, _ = scheme.encrypt(kp.public, m)
        assert scheme.decrypt(kp.secret, ct) == m

    def test_fresh_ciphertext_has_y_bot(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        assert ct.Y is None

    def test_decrypt_rejects_mid_reencryption(self, scheme, toy_group):
        kp, kp2 = scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        mid = scheme.reencrypt(kp.secret, kp2.public, ct)
        assert mid.Y is not None
        with pytest.raises(ValueError):
            scheme.decrypt(kp2.secret, mid)

    def test_known_randomness(self, scheme, toy_group):
        kp = scheme.keygen()
        m = toy_group.encode(b"r")
        ct, r = scheme.encrypt(kp.public, m, randomness=42)
        assert r == 42
        assert ct.R == toy_group.g ** 42

    def test_bytes_roundtrip_multi_element(self, scheme, toy_group):
        kp = scheme.keygen()
        message = b"a longer message spanning several group elements!"
        vector, _ = encrypt_vector(scheme, kp.public, message)
        assert len(vector) > 1
        assert decrypt_vector(scheme, kp.secret, vector) == message


class TestAnytrustGroupKey:
    def test_combined_key_decryption_requires_all(self, scheme, toy_group):
        members, group_key = anytrust_key(scheme, 3)
        m = toy_group.encode(b"gm")
        ct, _ = scheme.encrypt(group_key, m)
        # sequential final-layer ReEnc by each member recovers m
        for member in members:
            ct = scheme.reencrypt(member.secret, None, ct)
        assert ct.c == m

    def test_missing_member_fails(self, scheme, toy_group):
        members, group_key = anytrust_key(scheme, 3)
        m = toy_group.encode(b"gm")
        ct, _ = scheme.encrypt(group_key, m)
        for member in members[:-1]:
            ct = scheme.reencrypt(member.secret, None, ct)
        assert ct.c != m


class TestRerandomization:
    def test_rerandomize_preserves_plaintext(self, scheme, toy_group):
        kp = scheme.keygen()
        m = toy_group.encode(b"rr")
        ct, _ = scheme.encrypt(kp.public, m)
        ct2 = scheme.rerandomize(kp.public, ct)
        assert ct2 != ct
        assert scheme.decrypt(kp.secret, ct2) == m

    def test_rerandomize_rejects_nonbot_y(self, scheme, toy_group):
        kp, kp2 = scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        mid = scheme.reencrypt(kp.secret, kp2.public, ct)
        with pytest.raises(ValueError):
            scheme.rerandomize(kp2.public, mid)

    def test_randomness_composes_additively(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"add"))
        via_two = scheme.rerandomize(
            kp.public, scheme.rerandomize(kp.public, ct, randomness=5), randomness=7
        )
        direct = scheme.rerandomize(kp.public, ct, randomness=12)
        assert via_two == direct

    def test_shuffle_outputs_decrypt_to_same_multiset(self, scheme, toy_group, rng):
        kp = scheme.keygen()
        plaintexts = [toy_group.encode(bytes([i])) for i in range(10)]
        cts = [scheme.encrypt(kp.public, m)[0] for m in plaintexts]
        shuffled, perm, rands = shuffle_vectors(
            scheme, kp.public, [CiphertextVector((ct,)) for ct in cts], rng
        )
        decrypted = [scheme.decrypt(kp.secret, vec.parts[0]) for vec in shuffled]
        assert sorted(d.value for d in decrypted) == sorted(p.value for p in plaintexts)
        # witness is consistent
        for i in range(len(cts)):
            expect = scheme.rerandomize(kp.public, cts[perm[i]], randomness=rands[i][0])
            assert expect == shuffled[i].parts[0]


@pytest.mark.parametrize("backend", sorted(ONE_PART_SHUFFLE_DIGESTS))
def test_one_part_shuffle_vectors_is_pinned(backend):
    group = get_group(backend)
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"one-part-shuffle-pin")
    keys = ElGamalKeyPair.generate(group, rng)
    cts = [
        scheme.encrypt(keys.public, group.encode(bytes([i + 1])), rng)[0]
        for i in range(5)
    ]
    outputs, perm, rands = shuffle_vectors(
        scheme, keys.public, [CiphertextVector((ct,)) for ct in cts],
        DeterministicRng(b"one-part-shuffle-pin-draws"),
    )
    digest = hashlib.sha256(
        b"".join(vec.to_bytes() for vec in outputs) + repr((perm, rands)).encode()
    )
    assert digest.hexdigest() == ONE_PART_SHUFFLE_DIGESTS[backend]


class TestOutOfOrderReEnc:
    """The crux of Atom's cryptography (Appendix A)."""

    def test_two_group_pipeline(self, scheme, toy_group):
        first, first_key = anytrust_key(scheme, 3)
        second, second_key = anytrust_key(scheme, 3)
        m = toy_group.encode(b"ooo")
        ct, _ = scheme.encrypt(first_key, m)
        for member in first:
            ct = scheme.reencrypt(member.secret, second_key, ct)
        ct = ct.with_y_bot()
        # ct is now a fresh-looking ciphertext under second_key
        for member in second:
            ct = scheme.reencrypt(member.secret, None, ct)
        assert ct.c == m

    def test_interleaved_shuffles_between_layers(self, scheme, toy_group, rng):
        first, first_key = anytrust_key(scheme, 2)
        second, second_key = anytrust_key(scheme, 2)
        m = toy_group.encode(b"mix")
        ct, _ = scheme.encrypt(first_key, m)
        # group 1: each member shuffles (rerandomize) then reencrypts
        ct = scheme.rerandomize(first_key, ct)
        for member in first:
            ct = scheme.reencrypt(member.secret, second_key, ct)
        ct = ct.with_y_bot()
        ct = scheme.rerandomize(second_key, ct)
        for member in second:
            ct = scheme.reencrypt(member.secret, None, ct)
        assert ct.c == m

    def test_three_hop_chain(self, scheme, toy_group):
        keys = [anytrust_key(scheme, 2) for _ in range(3)]
        m = toy_group.encode(b"3h")
        ct, _ = scheme.encrypt(keys[0][1], m)
        for hop in range(3):
            members = keys[hop][0]
            next_key = keys[hop + 1][1] if hop < 2 else None
            for member in members:
                ct = scheme.reencrypt(member.secret, next_key, ct)
            ct = ct.with_y_bot() if hop < 2 else ct
        assert ct.c == m

    def test_wrong_secret_corrupts(self, scheme, toy_group):
        first, first_key = anytrust_key(scheme, 2)
        m = toy_group.encode(b"bad")
        ct, _ = scheme.encrypt(first_key, m)
        ct = scheme.reencrypt(first[0].secret, None, ct)
        ct = scheme.reencrypt(first[0].secret, None, ct)  # wrong: reuse member 0
        assert ct.c != m

    def test_final_layer_keeps_y(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"y"))
        final = scheme.reencrypt(kp.secret, None, ct)
        assert final.Y is not None
        assert final.c == toy_group.encode(b"y")

    def test_batch_reencrypt(self, scheme, toy_group):
        kp, kp2 = scheme.keygen(), scheme.keygen()
        ms = [toy_group.encode(bytes([i])) for i in range(5)]
        cts = [scheme.encrypt(kp.public, m)[0] for m in ms]
        out = scheme.reencrypt_many(kp.secret, kp2.public, cts)
        out = [ct.with_y_bot() for ct in out]
        got = [scheme.decrypt(kp2.secret, ct) for ct in out]
        assert got == ms


class TestCiphertextDataclass:
    def test_with_y_bot(self, scheme, toy_group):
        kp, kp2 = scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        mid = scheme.reencrypt(kp.secret, kp2.public, ct)
        assert mid.with_y_bot().Y is None
        assert mid.with_y_bot().c == mid.c

    def test_to_bytes_distinguishes_y(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        assert ct.to_bytes() != ct.to_bytes()[:-1]

    def test_size_bytes_positive(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"a"))
        assert ct.size_bytes > 0
