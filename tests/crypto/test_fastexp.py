"""Property tests for the fast-exponentiation engine.

``FixedBaseExp``, the multiexps and the Jacobi-symbol QR test must agree
*exactly* with the generic ``pow`` paths they replace — any divergence
is a soundness bug, not a performance bug — and the batched shuffle
verifier must keep rejecting tampered proofs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.fastexp import (
    FixedBaseExp,
    ModIntOps,
    jacobi,
    multiexp_ints,
    multiexp_ops,
    odd_multiples,
    wnaf,
)
from repro.crypto.ec import P as P256_FIELD
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.shuffle_proof import recompute_links
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleRound,
    encrypt_vector,
    prove_vector_shuffle,
    shuffle_vectors,
    verify_vector_shuffle,
)

TOY = get_group("TOY")

settings_fast = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

toy_scalars = st.integers(min_value=0, max_value=2 * TOY.q)
toy_bases = st.integers(min_value=2, max_value=TOY.p - 1)


class TestFixedBaseExp:
    @given(toy_bases, toy_scalars)
    @settings_fast
    def test_matches_pow_toy(self, base, exponent):
        table = FixedBaseExp(TOY.p, TOY.q, base)
        assert table.pow(exponent) == pow(base, exponent % TOY.q, TOY.p)

    @given(st.integers(min_value=0, max_value=2 * TOY.q))
    @settings_fast
    def test_matches_pow_test_group(self, exponent):
        table = TOY.fixed_base(TOY.g)
        assert table.pow(exponent) == pow(TOY.params.g, exponent % TOY.q, TOY.p)

    @pytest.mark.parametrize("group", [TOY], ids=lambda g: g.params.name)
    def test_edge_exponents(self, group):
        table = FixedBaseExp(group.p, group.q, group.params.g)
        for e in (0, 1, 2, group.q - 1, group.q, group.q + 1):
            assert table.pow(e) == pow(group.params.g, e % group.q, group.p)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            FixedBaseExp(TOY.p, TOY.q, 0)

    @given(toy_scalars)
    @settings_fast
    def test_group_element_pow_uses_table(self, exponent):
        # g is table-backed on the cached group; result must equal pow.
        TOY.fixed_base(TOY.g)
        assert (TOY.g ** exponent).value == pow(TOY.params.g, exponent % TOY.q, TOY.p)


class TestMultiexp:
    @given(st.lists(st.tuples(toy_bases, toy_scalars), min_size=0, max_size=6))
    @settings_fast
    def test_matches_naive_product(self, pairs):
        bases = [b for b, _ in pairs]
        exps = [e for _, e in pairs]
        expected = 1
        for b, e in pairs:
            expected = expected * pow(b, e % TOY.q, TOY.p) % TOY.p
        assert multiexp_ints(TOY.p, TOY.q, bases, exps) == expected

    @given(st.lists(toy_scalars, min_size=1, max_size=5))
    @settings_fast
    def test_group_wrapper(self, exps):
        bases = [TOY.g_pow(i + 2) for i in range(len(exps))]
        expected = TOY.identity
        for b, e in zip(bases, exps):
            expected = expected * b ** e
        assert TOY.multiexp(bases, exps) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiexp_ints(TOY.p, TOY.q, [2, 3], [1])

    def test_empty_and_zero_exponents(self):
        assert multiexp_ints(TOY.p, TOY.q, [], []) == 1
        assert multiexp_ints(TOY.p, TOY.q, [2, 3], [0, 0]) == 1
        assert multiexp_ints(TOY.p, TOY.q, [2, 3], [TOY.q, 0]) == 1


class _SignedModOps(ModIntOps):
    """Integers mod p with an inverse on offer, so that the generic
    code takes its signed-digit paths where ``pow`` can check them."""

    def neg(self, a):
        return pow(a, -1, self.modulus)


edge_scalars = st.one_of(
    toy_scalars,
    st.sampled_from([0, 1, TOY.q - 1, TOY.q, TOY.q + 1, (1 << 63) - 1, 1 << 62]),
)


class TestSignedStraus:
    """``multiexp_ops`` with free inverses (wNAF digits over odd-multiple
    tables) == without (all digits) == the product of ``pow``s."""

    @given(
        st.lists(st.tuples(toy_bases, edge_scalars), min_size=0, max_size=6),
        st.sampled_from([0, 3, 4, 5]),
    )
    @settings_fast
    def test_signed_equals_unsigned_equals_pow(self, pairs, window):
        bases = [b for b, _ in pairs]
        exps = [e for _, e in pairs]
        expected = 1
        for b, e in pairs:
            expected = expected * pow(b, e % TOY.q, TOY.p) % TOY.p
        signed = multiexp_ops(_SignedModOps(TOY.p), TOY.q, bases, exps, window)
        unsigned = multiexp_ops(ModIntOps(TOY.p), TOY.q, bases, exps, window)
        assert signed == unsigned == expected

    def test_mixed_lengths_and_repeated_bases(self):
        ops = _SignedModOps(TOY.p)
        bases = [4, 9, 4, 25, 9]
        exps = [TOY.q - 1, 1, (1 << 20) + 1, 0, 3]
        expected = 1
        for b, e in zip(bases, exps):
            expected = expected * pow(b, e, TOY.p) % TOY.p
        assert multiexp_ops(ops, TOY.q, bases, exps) == expected

    def test_on_the_curve(self, rng):
        p256 = get_group("P256")
        bases = [p256.random_element(rng) for _ in range(4)] + [p256.identity]
        for exps in (
            [rng.randint(0, p256.q - 1) for _ in bases],
            [0, p256.q - 1, 1, rng.randint(1, (1 << 128) - 1), 5],
            [0] * len(bases),
        ):
            expected = p256.identity
            for b, e in zip(bases, exps):
                expected = expected * b ** e
            assert p256.multiexp(bases, exps) == expected

    @given(st.integers(min_value=0, max_value=1 << 70), st.sampled_from([2, 3, 4, 5, 6]))
    @settings_fast
    def test_wnaf_digits(self, e, width):
        terms = wnaf(e, width)
        assert sum(d << at for at, d in terms) == e
        assert all(d & 1 and abs(d) < 1 << (width - 1) for _, d in terms)
        positions = [at for at, _ in terms]
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))
        assert not terms or terms[-1][1] > 0

    def test_odd_multiples(self):
        ops = _SignedModOps(TOY.p)
        assert odd_multiples(ops, 3, 4) == [pow(3, k, TOY.p) for k in (1, 3, 5, 7)]
        assert odd_multiples(ops, 3, 1) == [3]


class TestJacobi:
    @given(st.integers(min_value=0, max_value=TOY.p - 1))
    @settings_fast
    def test_agrees_with_euler_criterion_toy(self, value):
        if value == 0:
            assert jacobi(value, TOY.p) == 0
        else:
            assert (jacobi(value, TOY.p) == 1) == TOY._is_qr_euler(value)

    @given(st.integers(min_value=1, max_value=P256_FIELD - 1))
    @settings_fast
    def test_agrees_with_euler_criterion_p256_field(self, value):
        # the curve backend's square-root pre-check, on its field prime
        euler = pow(value, (P256_FIELD - 1) // 2, P256_FIELD) == 1
        assert (jacobi(value, P256_FIELD) == 1) == euler

    def test_group_is_qr_delegates_to_jacobi(self, rng):
        for _ in range(20):
            v = rng.randint(1, TOY.p - 1)
            assert TOY._is_qr(v) == TOY._is_qr_euler(v)

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 10)


def _scalar_proof(rng_seed=b"fastexp-batch"):
    """A one-part vector shuffle proof: one group element per message."""
    rng = DeterministicRng(rng_seed)
    scheme = AtomElGamal(TOY)
    keys = ElGamalKeyPair.generate(TOY, rng)
    inputs = []
    for i in range(6):
        ct, _ = scheme.encrypt(keys.public, TOY.encode(b"m%d" % i), rng)
        inputs.append(CiphertextVector((ct,)))
    outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
    proof = prove_vector_shuffle(
        scheme, keys.public, inputs, outputs, perm, rands, rounds=6, rng=rng
    )
    return scheme, keys.public, inputs, outputs, proof


class TestBatchedVerifier:
    def test_batched_accepts_honest_proof(self):
        scheme, pk, inputs, outputs, proof = _scalar_proof()
        assert verify_vector_shuffle(
            scheme, pk, inputs, outputs, proof, rounds=6, batched=True
        )
        assert verify_vector_shuffle(
            scheme, pk, inputs, outputs, proof, rounds=6, batched=False
        )

    def test_batched_rejects_swapped_outputs(self):
        scheme, pk, inputs, outputs, proof = _scalar_proof()
        tampered = list(outputs)
        tampered[0], tampered[1] = tampered[1], tampered[0]
        assert not verify_vector_shuffle(scheme, pk, inputs, tampered, proof, rounds=6)

    def test_batched_rejects_tampered_opening(self):
        scheme, pk, inputs, outputs, proof = _scalar_proof()
        rnd0 = proof.rounds[0]
        bad_rands = ((rnd0.opened_rands[0][0] + 1,),) + rnd0.opened_rands[1:]
        bad_round = VectorShuffleRound(
            intermediate=rnd0.intermediate,
            opened_perm=rnd0.opened_perm,
            opened_rands=bad_rands,
        )
        bad = type(proof)(
            rounds=(bad_round,) + proof.rounds[1:],
            challenge_bits=proof.challenge_bits,
        )
        assert not verify_vector_shuffle(scheme, pk, inputs, outputs, bad, rounds=6)
        assert not verify_vector_shuffle(
            scheme, pk, inputs, outputs, bad, rounds=6, batched=False
        )

    def test_batched_rejects_replaced_element(self, rng):
        scheme, pk, inputs, outputs, proof = _scalar_proof()
        forged, _ = scheme.encrypt(pk, TOY.encode(b"evil"), rng)
        tampered = list(outputs)
        tampered[0] = CiphertextVector((forged,))
        assert not verify_vector_shuffle(scheme, pk, inputs, tampered, proof, rounds=6)

    def test_batched_rejects_order2_coset_tampering(self):
        # A sign-flipped component (x -> p - x) lies in Z_p^* but
        # outside the QR subgroup; the batched check must reject it.
        from repro.crypto.elgamal import AtomCiphertext
        from repro.crypto.groups import GroupElement

        rng = DeterministicRng(b"coset")
        scheme = AtomElGamal(TOY)
        keys = ElGamalKeyPair.generate(TOY, rng)
        sources, targets, rands = [], [], []
        for i in range(4):
            ct, _ = scheme.encrypt(keys.public, TOY.encode(b"s%d" % i), rng)
            r = TOY.random_scalar(rng)
            sources.append(ct)
            targets.append(scheme.rerandomize(keys.public, ct, randomness=r))
            rands.append(r)
        assert recompute_links(
            scheme, keys.public, list(zip(sources, targets, rands))
        )
        for attr in ("R", "c"):
            flipped_el = GroupElement(
                TOY.p - getattr(targets[0], attr).value, TOY
            )
            flipped = AtomCiphertext(
                R=flipped_el if attr == "R" else targets[0].R,
                c=flipped_el if attr == "c" else targets[0].c,
                Y=None,
            )
            tampered = [flipped] + targets[1:]
            assert not recompute_links(
                scheme, keys.public, list(zip(sources, tampered, rands))
            ), f"sign-flipped {attr} accepted"


class TestBatchedVectorVerifier:
    def _vector_proof(self):
        rng = DeterministicRng(b"fastexp-vector")
        scheme = AtomElGamal(TOY)
        keys = ElGamalKeyPair.generate(TOY, rng)
        vectors = []
        for i in range(4):
            vec, _ = encrypt_vector(scheme, keys.public, b"payload-%d" % i * 3, rng)
            vectors.append(vec)
        outputs, perm, rands = shuffle_vectors(scheme, keys.public, vectors, rng)
        proof = prove_vector_shuffle(
            scheme, keys.public, vectors, outputs, perm, rands, rounds=5, rng=rng
        )
        return scheme, keys.public, vectors, outputs, proof

    def test_accepts_and_matches_elementwise(self):
        scheme, pk, inputs, outputs, proof = self._vector_proof()
        assert verify_vector_shuffle(scheme, pk, inputs, outputs, proof, rounds=5)
        assert verify_vector_shuffle(
            scheme, pk, inputs, outputs, proof, rounds=5, batched=False
        )

    def test_rejects_tampered_vector(self):
        scheme, pk, inputs, outputs, proof = self._vector_proof()
        tampered = list(outputs)
        tampered[0], tampered[1] = tampered[1], tampered[0]
        assert not verify_vector_shuffle(scheme, pk, inputs, tampered, proof, rounds=5)
        assert not verify_vector_shuffle(
            scheme, pk, inputs, tampered, proof, rounds=5, batched=False
        )
