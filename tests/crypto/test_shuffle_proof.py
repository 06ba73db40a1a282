"""Tests for the cut-and-choose verifiable shuffle (ShufProof), on
one-part vectors: one group element per message."""

import pytest

from repro.crypto.elgamal import AtomElGamal
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    VectorShuffleRound,
    prove_vector_shuffle,
    rerandomize_vector,
    shuffle_vectors,
    verify_vector_shuffle,
)

ROUNDS = 10


def one_part(ct):
    return CiphertextVector((ct,))


@pytest.fixture()
def setup(toy_group):
    scheme = AtomElGamal(toy_group)
    kp = scheme.keygen()
    cts = [
        one_part(scheme.encrypt(kp.public, toy_group.encode(bytes([i])))[0])
        for i in range(6)
    ]
    return scheme, kp, cts


def make_proof(scheme, kp, cts, rounds=ROUNDS):
    shuffled, perm, rands = shuffle_vectors(scheme, kp.public, cts)
    proof = prove_vector_shuffle(scheme, kp.public, cts, shuffled, perm, rands, rounds)
    return shuffled, proof


class TestCompleteness:
    def test_honest_shuffle_verifies(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        assert verify_vector_shuffle(scheme, kp.public, cts, shuffled, proof, ROUNDS)

    def test_identity_permutation_verifies(self, toy_group, setup):
        scheme, kp, cts = setup
        n = len(cts)
        perm = list(range(n))
        rands = [[toy_group.random_scalar()] for _ in range(n)]
        shuffled = [
            rerandomize_vector(scheme, kp.public, cts[i], randomness=rands[i])
            for i in range(n)
        ]
        proof = prove_vector_shuffle(
            scheme, kp.public, cts, shuffled, perm, rands, ROUNDS
        )
        assert verify_vector_shuffle(scheme, kp.public, cts, shuffled, proof, ROUNDS)

    def test_single_element(self, toy_group):
        scheme = AtomElGamal(toy_group)
        kp = scheme.keygen()
        cts = [one_part(scheme.encrypt(kp.public, toy_group.encode(b"1"))[0])]
        shuffled, proof = make_proof(scheme, kp, cts)
        assert verify_vector_shuffle(scheme, kp.public, cts, shuffled, proof, ROUNDS)


class TestSoundness:
    def test_swapped_outputs_fail(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        bad = list(shuffled)
        bad[0], bad[1] = bad[1], bad[0]
        assert not verify_vector_shuffle(scheme, kp.public, cts, bad, proof, ROUNDS)

    def test_replaced_message_fails(self, toy_group, setup):
        """A malicious mixer substituting a ciphertext is caught."""
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        bad = list(shuffled)
        bad[2] = one_part(scheme.encrypt(kp.public, toy_group.encode(b"EVIL"))[0])
        assert not verify_vector_shuffle(scheme, kp.public, cts, bad, proof, ROUNDS)

    def test_dropped_message_fails(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        assert not verify_vector_shuffle(
            scheme, kp.public, cts, shuffled[:-1], proof, ROUNDS
        )

    def test_duplicated_message_fails(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        bad = list(shuffled)
        bad[3] = bad[2]
        assert not verify_vector_shuffle(scheme, kp.public, cts, bad, proof, ROUNDS)

    def test_forged_proof_wrong_inputs(self, toy_group, setup):
        """A valid proof for one input set does not transfer to another."""
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        other = [
            one_part(scheme.encrypt(kp.public, toy_group.encode(bytes([99 - i])))[0])
            for i in range(len(cts))
        ]
        assert not verify_vector_shuffle(
            scheme, kp.public, other, shuffled, proof, ROUNDS
        )

    def test_wrong_round_count_rejected(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        assert not verify_vector_shuffle(
            scheme, kp.public, cts, shuffled, proof, ROUNDS + 1
        )

    def test_invalid_permutation_in_round_rejected(self, setup):
        scheme, kp, cts = setup
        shuffled, proof = make_proof(scheme, kp, cts)
        first = proof.rounds[0]
        broken = VectorShuffleRound(
            intermediate=first.intermediate,
            opened_perm=(0,) * len(first.opened_perm),  # not a permutation
            opened_rands=first.opened_rands,
        )
        bad = VectorShuffleProof(
            rounds=(broken,) + proof.rounds[1:], challenge_bits=proof.challenge_bits
        )
        assert not verify_vector_shuffle(scheme, kp.public, cts, shuffled, bad, ROUNDS)


class TestZeroKnowledgeShape:
    def test_proof_does_not_reveal_permutation_directly(self, setup):
        """Structural check: opened permutations differ across rounds and
        from the witness permutation (they are blinded compositions)."""
        scheme, kp, cts = setup
        shuffled, perm, rands = shuffle_vectors(scheme, kp.public, cts)
        proof = prove_vector_shuffle(
            scheme, kp.public, cts, shuffled, perm, rands, rounds=16
        )
        opened = {r.opened_perm for r in proof.rounds}
        # With 16 rounds over 6! permutations, openings should not all
        # equal the witness (probability astronomically small).
        assert any(list(o) != list(perm) for o in opened)

    def test_size_bytes_scales_with_rounds(self, setup):
        scheme, kp, cts = setup
        shuffled, perm, rands = shuffle_vectors(scheme, kp.public, cts)
        small = prove_vector_shuffle(scheme, kp.public, cts, shuffled, perm, rands, 4)
        large = prove_vector_shuffle(scheme, kp.public, cts, shuffled, perm, rands, 8)
        assert large.size_bytes > small.size_bytes
