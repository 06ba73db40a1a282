"""Tests for EncProof / ReEncProof NIZKs and the sigma framework."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import sigma
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, GroupElement, get_group
from repro.crypto.nizk import (
    ReEncProof,
    ReEncryptor,
    _reenc_statement,
    prove_encryption,
    prove_reencryption,
    verify_encryption,
    verify_reencryption,
)
from repro.crypto.sigma import SigmaProof


@pytest.fixture()
def scheme(toy_group):
    return AtomElGamal(toy_group)


class TestSigmaFramework:
    def test_single_schnorr(self, toy_group):
        x = toy_group.random_scalar()
        X = toy_group.g ** x
        rows = [(X, [toy_group.g])]
        proof = sigma.prove(toy_group, rows, [x])
        assert sigma.verify(toy_group, rows, proof)

    def test_wrong_witness_fails(self, toy_group):
        x = toy_group.random_scalar()
        X = toy_group.g ** (x + 1)
        rows = [(X, [toy_group.g])]
        proof = sigma.prove(toy_group, rows, [x])
        assert not sigma.verify(toy_group, rows, proof)

    def test_context_binding(self, toy_group):
        x = toy_group.random_scalar()
        rows = [(toy_group.g ** x, [toy_group.g])]
        proof = sigma.prove(toy_group, rows, [x], b"ctx-a")
        assert sigma.verify(toy_group, rows, proof, b"ctx-a")
        assert not sigma.verify(toy_group, rows, proof, b"ctx-b")

    def test_and_composition(self, toy_group):
        g = toy_group.g
        h = toy_group.random_element()
        x, y = toy_group.random_scalar(), toy_group.random_scalar()
        rows = [
            ((g ** x), [g, toy_group.identity]),
            ((h ** y), [toy_group.identity, h]),
            ((g ** x) * (h ** y), [g, h]),
        ]
        proof = sigma.prove(toy_group, rows, [x, y])
        assert sigma.verify(toy_group, rows, proof)

    def test_arity_mismatch_raises(self, toy_group):
        rows = [(toy_group.g, [toy_group.g, toy_group.g])]
        with pytest.raises(ValueError):
            sigma.prove(toy_group, rows, [1])

    def test_tampered_response_fails(self, toy_group):
        x = toy_group.random_scalar()
        rows = [(toy_group.g ** x, [toy_group.g])]
        proof = sigma.prove(toy_group, rows, [x])
        bad = sigma.SigmaProof(
            proof.commitments, proof.challenge, (proof.responses[0] + 1,)
        )
        assert not sigma.verify(toy_group, rows, bad)

    def test_statement_swap_fails(self, toy_group):
        x = toy_group.random_scalar()
        rows = [(toy_group.g ** x, [toy_group.g])]
        other = [(toy_group.g ** (x + 1), [toy_group.g])]
        proof = sigma.prove(toy_group, rows, [x])
        assert not sigma.verify(toy_group, other, proof)


class TestEncProof:
    def test_honest_proof_verifies(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r, kp.public, gid=3)
        assert verify_encryption(toy_group, ct, proof, kp.public, gid=3)

    def test_gid_binding_blocks_cross_group_replay(self, scheme, toy_group):
        """Paper §3: resubmitting (c, pi) to a different entry group fails."""
        kp = scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r, kp.public, gid=3)
        assert not verify_encryption(toy_group, ct, proof, kp.public, gid=4)

    def test_rerandomized_copy_has_no_proof(self, scheme, toy_group):
        """Paper §3: a rerandomized copy of an honest ciphertext cannot
        reuse the original proof (the statement changed)."""
        kp = scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r, kp.public, gid=1)
        copy = scheme.rerandomize(kp.public, ct)
        assert not verify_encryption(toy_group, copy, proof, kp.public, gid=1)

    def test_mid_pipeline_ciphertext_rejected(self, scheme, toy_group):
        kp, kp2 = scheme.keygen(), scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r, kp.public, gid=1)
        mid = scheme.reencrypt(kp.secret, kp2.public, ct)
        assert not verify_encryption(toy_group, mid, proof, kp.public, gid=1)

    def test_wrong_randomness_fails(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r + 1, kp.public, gid=1)
        assert not verify_encryption(toy_group, ct, proof, kp.public, gid=1)

    def test_size_bytes(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, r = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        proof = prove_encryption(toy_group, ct, r, kp.public, gid=1)
        assert proof.size_bytes > 0


class TestReEncProof:
    def test_middle_layer(self, scheme, toy_group):
        kp, nxt = scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        r = toy_group.random_scalar()
        out = scheme.reencrypt(kp.secret, nxt.public, ct, randomness=r)
        proof = prove_reencryption(toy_group, kp.secret, r, nxt.public, ct, out)
        assert verify_reencryption(toy_group, kp.public, nxt.public, ct, out, proof)

    def test_final_layer(self, scheme, toy_group):
        kp = scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        out = scheme.reencrypt(kp.secret, None, ct)
        proof = prove_reencryption(toy_group, kp.secret, None, None, ct, out)
        assert proof.final_layer
        assert verify_reencryption(toy_group, kp.public, None, ct, out, proof)

    def test_nonbot_y_input(self, scheme, toy_group):
        """ReEnc applied mid-pipeline (Y != ⊥) must also be provable."""
        kps = [scheme.keygen() for _ in range(2)]
        group_key = scheme.combine_public_keys([k.public for k in kps])
        nxt = scheme.keygen()
        ct, _ = scheme.encrypt(group_key, toy_group.encode(b"m"))
        mid = scheme.reencrypt(kps[0].secret, nxt.public, ct)
        r = toy_group.random_scalar()
        out = scheme.reencrypt(kps[1].secret, nxt.public, mid, randomness=r)
        proof = prove_reencryption(toy_group, kps[1].secret, r, nxt.public, mid, out)
        assert verify_reencryption(toy_group, kps[1].public, nxt.public, mid, out, proof)

    def test_wrong_server_key_fails(self, scheme, toy_group):
        kp, other, nxt = scheme.keygen(), scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        r = toy_group.random_scalar()
        out = scheme.reencrypt(kp.secret, nxt.public, ct, randomness=r)
        proof = prove_reencryption(toy_group, kp.secret, r, nxt.public, ct, out)
        assert not verify_reencryption(toy_group, other.public, nxt.public, ct, out, proof)

    def test_tampered_output_fails(self, scheme, toy_group):
        """A server that swaps the message for another cannot prove it."""
        kp, nxt = scheme.keygen(), scheme.keygen()
        ct, _ = scheme.encrypt(kp.public, toy_group.encode(b"m"))
        r = toy_group.random_scalar()
        out = scheme.reencrypt(kp.secret, nxt.public, ct, randomness=r)
        forged, _ = scheme.encrypt(nxt.public, toy_group.encode(b"EVIL"))
        proof = prove_reencryption(toy_group, kp.secret, r, nxt.public, ct, out)
        # Substituting a different output ciphertext invalidates the proof.
        from repro.crypto.elgamal import AtomCiphertext

        substituted = AtomCiphertext(forged.R, forged.c, out.Y)
        assert not verify_reencryption(
            toy_group, kp.public, nxt.public, ct, substituted, proof
        )

    def test_p256_proofs_made_at_the_parent_commit_still_verify(self):
        # Statement bytes are unchanged by the ``InverseOf`` base: these
        # transcripts were produced at d02f050 (X'^-1 hashed *and*
        # exponentiated as a fresh element) and must keep verifying.
        group = get_group("P256")
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"reenc-known-answer")
        kp = ElGamalKeyPair.generate(group, rng)
        server = ElGamalKeyPair.generate(group, rng)
        nxt = ElGamalKeyPair.generate(group, rng)
        before, _ = scheme.encrypt(kp.public, group.encode(b"known answer"), rng)
        r = group.random_scalar(rng)
        after = scheme.reencrypt(server.secret, nxt.public, before, randomness=r)
        final = scheme.reencrypt(server.secret, None, after)
        middle_proof = ReEncProof(
            SigmaProof(
                commitments=(
                    262031659426693503546009233411105407586005266112532222321014687373842469026368,
                    455118243259976691080795915676226556794755690893202469801267570678245405071082,
                    232836647383380677986561763464348196189144080264304565625494349696175195257752,
                ),
                challenge=92240207993018144817053506936466937566783050317642200150382663993482302797473,
                responses=(
                    103073001964966013826055285436525802307844336477962454191692196600533375801762,
                    72670988327358463184326867622674607535362981600523506443371990658758318689951,
                ),
            ),
            final_layer=False,
        )
        final_proof = ReEncProof(
            SigmaProof(
                commitments=(
                    447497010333488781706834684586589403727682082558219225947039456071044869650418,
                    462683538055490432554245174102098756026669987892016195514671956175194949556276,
                ),
                challenge=93078694620810071072185621130580670053273862248981904580207857552957654370314,
                responses=(
                    58812199320394642541385153506227216776718759334763657931291427201915335408895,
                ),
            ),
            final_layer=True,
        )
        assert verify_reencryption(
            group, server.public, nxt.public, before, after, middle_proof
        )
        assert verify_reencryption(group, server.public, None, after, final, final_proof)
        step = [(nxt.public, [before]), (None, [after])]
        assert ReEncryptor(group).verify_batch(
            server.public, step, [[after], [final]], [[middle_proof], [final_proof]]
        )


def _flipped(element):
    """The order-2 twin ``p - x`` of a Schnorr element."""
    return GroupElement(element.group.p - element.value, element.group)


def _step(backend, seed, final=False):
    """One server's proved step: two batches under different successor
    keys (or the final layer), parts entering with and without ``Y``."""
    group = get_group(backend)
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"reenc-step-%d" % seed)
    group_key = ElGamalKeyPair.generate(group, rng)
    first, server = (ElGamalKeyPair.generate(group, rng) for _ in range(2))
    next_keys = [
        None if final else ElGamalKeyPair.generate(group, rng).public
        for _ in range(2)
    ]
    fresh = [
        scheme.encrypt(group_key.public, group.encode(bytes([i + 1])), rng)[0]
        for i in range(4)
    ]
    # the second batch already went through another member: Y is set
    mid = scheme.reencrypt_many(first.secret, next_keys[1], fresh[2:], rng)
    step = [(next_keys[0], fresh[:2]), (next_keys[1], mid)]
    worker = ReEncryptor(group)
    outputs, proofs = worker.reencrypt_and_prove(server.secret, step, rng)
    return worker, server, step, outputs, proofs


def _each(worker, server, step, outputs, proofs):
    """The per-proof reference verdict for a step."""
    return all(
        verify_reencryption(worker.group, server.public, key, b, a, p)
        for (key, before), outs, batch_proofs in zip(step, outputs, proofs)
        for b, a, p in zip(before, outs, batch_proofs)
    )


def _both(worker, server, step, outputs, proofs):
    folded = worker.verify_batch(
        server.public, step, outputs, proofs, DeterministicRng(b"fixed-weights")
    )
    return folded, _each(worker, server, step, outputs, proofs)


def _bad_response(proof):
    z = proof.proof.responses
    return replace(proof, proof=replace(proof.proof, responses=(z[0] + 1,) + z[1:]))


def _bad_commitment(proof):
    # 0 is outside Z_p^*, and no compressed curve point has prefix 0
    t = proof.proof.commitments
    return replace(proof, proof=replace(proof.proof, commitments=(t[0] >> 8,) + t[1:]))


step_settings = settings(
    max_examples=5, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("backend", ["TOY", "P256"])
class TestReEncryptorStep:
    """``verify_batch`` (one folded identity, ``sigma.verify_many``)
    against ``all(verify_reencryption(...))``."""

    @pytest.mark.parametrize("final", [False, True])
    def test_honest_step(self, backend, final):
        @given(st.integers(0, 10**6))
        @step_settings
        def run(seed):
            case = _step(backend, seed, final)
            assert _both(*case) == (True, True)
            assert all(p.final_layer == final for ps in case[4] for p in ps)

        run()

    def test_one_bad_proof_among_many(self, backend):
        worker, server, step, outputs, proofs = _step(backend, 2)
        for batch, index in ((0, 1), (1, 0)):
            for damage in (_bad_response, _bad_commitment):
                bad = [list(ps) for ps in proofs]
                bad[batch][index] = damage(bad[batch][index])
                assert _both(worker, server, step, outputs, bad) == (False, False)

    def test_proofs_swapped_between_parts(self, backend):
        worker, server, step, outputs, proofs = _step(backend, 3)
        swapped = [[proofs[0][1], proofs[0][0]], proofs[1]]
        assert _both(worker, server, step, outputs, swapped) == (False, False)

    def test_outputs_swapped_or_replaced(self, backend):
        worker, server, step, outputs, proofs = _step(backend, 4)
        swapped = [[outputs[0][1], outputs[0][0]], outputs[1]]
        assert _both(worker, server, step, swapped, proofs) == (False, False)
        forged = outputs[1][0]
        forged = AtomCiphertext(forged.R, forged.c * worker.group.g, forged.Y)
        replaced = [outputs[0], [forged, outputs[1][1]]]
        assert _both(worker, server, step, replaced, proofs) == (False, False)

    def test_wrong_server_key_or_layer(self, backend):
        worker, server, step, outputs, proofs = _step(backend, 5)
        other = ElGamalKeyPair.generate(worker.group, DeterministicRng(b"other"))
        assert _both(worker, other, step, outputs, proofs) == (False, False)
        # the same outputs claimed for the final layer: R moved, no match
        as_final = [(None, before) for _, before in step]
        assert _both(worker, server, as_final, outputs, proofs) == (False, False)

    def test_shape_mismatches(self, backend):
        worker, server, step, outputs, proofs = _step(backend, 6)
        assert not worker.verify_batch(server.public, step, outputs[:1], proofs)
        assert not worker.verify_batch(server.public, step, outputs, proofs[:1])
        assert not worker.verify_batch(
            server.public, step, outputs, [proofs[0][:1], proofs[1]]
        )
        assert worker.verify_batch(server.public, [], [], [])

    def test_seeded_rng_is_honoured(self, backend):
        # Regression: ``r'`` used to come from ``secrets`` whatever the
        # caller passed, so a seeded mix could not use this class.
        runs = [_step(backend, 7) for _ in range(2)]
        assert runs[0][3] == runs[1][3]
        group = runs[0][0].group
        rng_a, rng_b = DeterministicRng(b"draws"), DeterministicRng(b"draws")
        _, server, step, _, _ = runs[0]
        outputs, _ = runs[0][0].reencrypt_and_prove(server.secret, step, rng_a)
        expect = [
            [runs[0][0].scheme.reencrypt(server.secret, key, part, rng_b) for part in parts]
            for key, parts in step
        ]
        assert outputs == expect and rng_a.counter == rng_b.counter
        assert group.has_table(group.g)


class TestVerifyMany:
    """``sigma.verify_many`` on raw statements."""

    def _statements(self, group, count=3):
        statements = []
        for i in range(count):
            x, y = group.random_scalar(), group.random_scalar()
            h = group.g_pow(i + 5)
            rows = [
                (group.g_pow(x) * h ** y, [group.g, h]),
                (group.g_pow(y), [group.identity, group.g]),
            ]
            context = b"ctx-%d" % i
            statements.append((rows, sigma.prove(group, rows, [x, y], context), context))
        return statements

    def test_empty_list(self, toy_group):
        assert sigma.verify_many(toy_group, [])

    def test_matches_verify_one_by_one(self, toy_group):
        statements = self._statements(toy_group)
        assert sigma.verify_many(toy_group, statements)
        for statement in statements:
            assert sigma.verify_many(toy_group, [statement])
            assert sigma.verify(toy_group, *statement)
        rows, proof, context = statements[1]
        for bad in (
            (rows, proof, b"other context"),
            (rows[:1], proof, context),
            (rows, replace(proof, responses=proof.responses[:1]), context),
            (rows, replace(proof, commitments=proof.commitments[:1]), context),
            ([(rows[0][0], rows[0][1][:1]), rows[1]], proof, context),
        ):
            assert not sigma.verify(toy_group, *bad)
            assert not sigma.verify_many(toy_group, [statements[0], bad, statements[2]])

    def test_inverse_base_hashes_and_verifies_like_the_inverse(self, toy_group):
        group = toy_group
        x = group.random_scalar()
        h = group.g_pow(77)
        plain = [(h.inverse() ** x, [h.inverse()])]
        kept = [(h.inverse() ** x, [sigma.InverseOf(h)])]
        proof = sigma.prove(group, kept, [x], b"inv")
        assert sigma.verify(group, plain, proof, b"inv")
        assert sigma.verify(group, kept, proof, b"inv")
        assert sigma.verify_many(group, [(kept, proof, b"inv"), (plain, proof, b"inv")])
        # on the same side as a table-backed base it must cancel, not add
        group.fixed_base(h)
        assert sigma.verify_many(group, [(kept, proof, b"inv")])
        assert not sigma.verify_many(
            group, [([(h ** x, [sigma.InverseOf(h)])], proof, b"inv")]
        )

    def test_statement_outside_the_prime_order_subgroup_is_settled_exactly(
        self, toy_group
    ):
        # Exponents are reduced mod q, so a row over an element of order
        # 2q (a user can submit a sign-flipped R that a server must then
        # re-encrypt) holds or fails with the parity of a quotient —
        # and weights bind only in the prime-order subgroup, where an
        # even one cancels the stray sign.  Whatever ``verify`` says of
        # such a statement, ``verify_many`` must say too.
        group = toy_group
        x = group.random_scalar()
        h = _flipped(group.g_pow(9))
        assert not group.is_prime_order(h)
        others = self._statements(group, 2)
        for target in (h ** x, _flipped(h ** x)):
            rows = [(target, [h])]
            for i in range(12):
                statement = (rows, sigma.prove(group, rows, [x], b"coset"), b"coset")
                expected = sigma.verify(group, *statement)
                assert sigma.verify_many(
                    group, others + [statement], DeterministicRng(b"w%d" % i)
                ) == expected
