"""``verify_vector_shuffle``'s batched check of a proof's openings
(recompute every link in one kernel call) against the per-part oracle
(``batched=False``).  Everything is deterministic: seeds are drawn by a
derandomized Hypothesis.
"""

import hashlib
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, GroupElement, get_group
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    _vector_challenge_bits,
    encrypt_vector,
    prove_vector_shuffle,
    shuffle_vectors,
    verify_vector_shuffle,
)

ROUNDS = 4
EXAMPLES = {"TOY": 12, "P256": 3}


def _settings(backend):
    return settings(
        max_examples=EXAMPLES[backend], deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _proof(backend, seed, flip_input=False):
    """An honest 3 x 2-part vector shuffle with its proof."""
    group = get_group(backend)
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"shuffle-checks-%d" % seed)
    keys = ElGamalKeyPair.generate(group, rng)
    size = 2 * group.params.message_bytes
    inputs = [
        encrypt_vector(scheme, keys.public, bytes([i + 1]) * size, rng)[0]
        for i in range(3)
    ]
    if flip_input:
        inputs[0] = _with_part(inputs[0], 0, R=_flipped(inputs[0].parts[0].R))
    outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
    proof = prove_vector_shuffle(
        scheme, keys.public, inputs, outputs, perm, rands, rounds=ROUNDS, rng=rng
    )
    return scheme, keys.public, inputs, outputs, proof


def _verdicts(scheme, public_key, inputs, outputs, proof, rounds=ROUNDS):
    """(batched, oracle) verdicts on one proof."""
    return tuple(
        verify_vector_shuffle(
            scheme, public_key, inputs, outputs, proof, rounds=rounds,
            batched=batched,
        )
        for batched in (True, False)
    )


def _with_part(vector, index, **changes):
    parts = list(vector.parts)
    parts[index] = replace(parts[index], **changes)
    return CiphertextVector(tuple(parts))


def _flipped(element):
    """The order-2 twin ``p - x`` of a Schnorr element."""
    return GroupElement(element.group.p - element.value, element.group)


def _rehashed(scheme, public_key, inputs, outputs, proof):
    """The proof a cheating prover would send: Fiat-Shamir bits
    recomputed over the mutated transcript, so the check under test is
    the openings and not the hash."""
    bits = _vector_challenge_bits(
        scheme.group, public_key, inputs, outputs,
        [r.intermediate for r in proof.rounds], len(proof.rounds),
    )
    return VectorShuffleProof(proof.rounds, tuple(bits))


def _round_with_bit(proof, bit):
    return next(
        (i for i, b in enumerate(proof.challenge_bits) if b == bit), None
    )


def _mutate_round(proof, index, **changes):
    rounds = list(proof.rounds)
    rounds[index] = replace(rounds[index], **changes)
    return VectorShuffleProof(tuple(rounds), proof.challenge_bits)


def _bump_intermediate(group, proof, index):
    vecs = list(proof.rounds[index].intermediate)
    vecs[1] = _with_part(vecs[1], 1, c=vecs[1].parts[1].c * group.g)
    return _mutate_round(proof, index, intermediate=tuple(vecs))


def _mutations(backend):
    """name -> (scheme, pk, inputs, outputs, proof) -> mutated tuple, or
    ``None`` when the proof has no round the mutation applies to."""

    def intermediate(bit):
        def mutate(scheme, pk, inputs, outputs, proof):
            index = _round_with_bit(proof, bit)
            if index is None:
                return None
            proof = _bump_intermediate(scheme.group, proof, index)
            return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)
        return mutate

    def opened_rand(scheme, pk, inputs, outputs, proof):
        rands = [list(r) for r in proof.rounds[0].opened_rands]
        rands[2][0] += 1
        proof = _mutate_round(
            proof, 0, opened_rands=tuple(tuple(r) for r in rands)
        )
        return inputs, outputs, proof

    def output_part(scheme, pk, inputs, outputs, proof):
        outputs = list(outputs)
        outputs[1] = _with_part(outputs[1], 0, R=outputs[1].parts[0].R * scheme.group.g)
        return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)

    def non_permutation(scheme, pk, inputs, outputs, proof):
        perm = list(proof.rounds[1].opened_perm)
        perm[0] = perm[1]
        return inputs, outputs, _mutate_round(proof, 1, opened_perm=tuple(perm))

    def cross_message_swap(scheme, pk, inputs, outputs, proof):
        a, b = outputs[0], outputs[1]
        outputs = [
            _with_part(a, 0, R=b.parts[0].R, c=b.parts[0].c),
            _with_part(b, 0, R=a.parts[0].R, c=a.parts[0].c),
            outputs[2],
        ]
        return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)

    def sign_flip(scheme, pk, inputs, outputs, proof):
        outputs = list(outputs)
        outputs[0] = _with_part(outputs[0], 1, c=_flipped(outputs[0].parts[1].c))
        return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)

    def source_with_y(scheme, pk, inputs, outputs, proof):
        inputs = list(inputs)
        inputs[0] = _with_part(inputs[0], 0, Y=scheme.group.g)
        return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)

    def part_count(scheme, pk, inputs, outputs, proof):
        outputs = list(outputs)
        outputs[2] = CiphertextVector(outputs[2].parts[:1])
        return inputs, outputs, _rehashed(scheme, pk, inputs, outputs, proof)

    table = {
        "intermediate-part-bit0": intermediate(0),
        "intermediate-part-bit1": intermediate(1),
        "opened-rand": opened_rand,
        "output-part": output_part,
        "non-permutation": non_permutation,
        "cross-message-part-swap": cross_message_swap,
        "source-with-Y": source_with_y,
        "part-count": part_count,
    }
    if backend == "TOY":
        table["sign-flipped-component"] = sign_flip
    return table


CASES = [
    (backend, name) for backend in EXAMPLES for name in _mutations(backend)
]


@pytest.mark.parametrize("backend", list(EXAMPLES))
def test_honest_proof_is_accepted_by_both(backend):
    @given(st.integers(0, 10**6))
    @_settings(backend)
    def run(seed):
        assert _verdicts(*_proof(backend, seed)) == (True, True)

    run()


@pytest.mark.parametrize("backend,name", CASES)
def test_single_fault_is_rejected_by_both(backend, name):
    mutate = _mutations(backend)[name]
    applied = []

    @given(st.integers(0, 10**6))
    @_settings(backend)
    def run(seed):
        scheme, pk, inputs, outputs, proof = _proof(backend, seed)
        mutated = mutate(scheme, pk, inputs, outputs, proof)
        if mutated is None:
            return
        applied.append(seed)
        assert _verdicts(scheme, pk, *mutated) == (False, False)

    run()
    assert applied, "no drawn proof had a round this mutation applies to"


@pytest.mark.parametrize("backend", list(EXAMPLES))
def test_wrong_round_count_is_rejected_by_both(backend):
    scheme, pk, inputs, outputs, proof = _proof(backend, 7)
    short = VectorShuffleProof(proof.rounds[:-1], proof.challenge_bits[:-1])
    assert _verdicts(scheme, pk, inputs, outputs, short) == (False,) * 2
    assert _verdicts(scheme, pk, inputs, outputs, proof, rounds=ROUNDS + 1) == (
        (False,) * 2
    )


def test_honest_shuffle_of_an_input_outside_the_prime_order_subgroup():
    # An input that already carries an order-2 factor (a user can submit
    # one) makes an *honest* shuffle's links hold only in Z_p^*: both
    # verifiers accept rather than blame the mixer.
    case = _proof("TOY", 3, flip_input=True)
    group = case[0].group
    assert not group.is_prime_order(case[2][0].parts[0].R)
    assert _verdicts(*case) == (True, True)


def test_recomputation_uses_no_multiexp():
    scheme, pk, inputs, outputs, proof = _proof("TOY", 1)
    group = scheme.group
    with mock.patch.object(
        type(group), "multiexp", wraps=group.multiexp
    ) as multiexp:
        assert verify_vector_shuffle(
            scheme, pk, inputs, outputs, proof, rounds=ROUNDS
        )
    assert multiexp.call_count == 0


class TestScalarProofSharesTheRoutine:
    """One-part vectors, the scalar proof's old inputs, go through the
    same checks."""

    def _case(self, backend):
        group = get_group(backend)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"scalar-shuffle-checks")
        keys = ElGamalKeyPair.generate(group, rng)
        inputs = [
            CiphertextVector(
                (scheme.encrypt(keys.public, group.encode(bytes([i + 1])), rng)[0],)
            )
            for i in range(4)
        ]
        outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
        proof = prove_vector_shuffle(
            scheme, keys.public, inputs, outputs, perm, rands, rounds=ROUNDS, rng=rng
        )
        return scheme, keys.public, inputs, outputs, proof

    @pytest.mark.parametrize("backend", ["TOY", "P256"])
    def test_accepts_and_rejects_like_the_oracle(self, backend):
        scheme, pk, inputs, outputs, proof = self._case(backend)
        swapped = [outputs[1], outputs[0]] + outputs[2:]
        bad_y = [_with_part(outputs[0], 0, Y=scheme.group.g)] + outputs[1:]
        assert verify_vector_shuffle(
            scheme, pk, inputs, outputs, proof, rounds=ROUNDS
        )
        for tampered in (swapped, bad_y, outputs[:-1]):
            assert not verify_vector_shuffle(
                scheme, pk, inputs, tampered, proof, rounds=ROUNDS
            )
            assert not verify_vector_shuffle(
                scheme, pk, inputs, tampered, proof, rounds=ROUNDS, batched=False
            )


def test_p256_proof_made_at_the_parent_commit_still_verifies():
    # The prover and the Fiat-Shamir transcript are untouched: the same
    # seed yields the proof whose digest was recorded at d02f050.
    group = get_group("P256")
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"nizk-known-answer-0")
    keys = ElGamalKeyPair.generate(group, rng)
    inputs = [
        encrypt_vector(scheme, keys.public, bytes([i + 1]) * 40, rng)[0]
        for i in range(3)
    ]
    outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
    proof = prove_vector_shuffle(
        scheme, keys.public, inputs, outputs, perm, rands, rounds=4, rng=rng
    )
    digest = hashlib.sha256()
    for rnd in proof.rounds:
        for vec in rnd.intermediate:
            digest.update(vec.to_bytes())
        digest.update(repr((rnd.opened_perm, rnd.opened_rands)).encode())
    digest.update(repr(proof.challenge_bits).encode())
    assert proof.challenge_bits == (0, 0, 1, 1)
    assert digest.hexdigest() == (
        "f2615a6612254375f481712b077d418b2aed5af5ff22a4b53a33f37a7e204ef4"
    )
    assert _verdicts(scheme, keys.public, inputs, outputs, proof) == (True,) * 2
