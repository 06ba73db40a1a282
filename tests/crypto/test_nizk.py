"""Tests for EncProof / ReEncProof NIZKs and the sigma framework."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import sigma
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, GroupElement, get_group
from repro.crypto import nizk
from repro.crypto.nizk import (
    ReEncProof,
    ReEncryptor,
    prove_encryption,
    prove_reencryption,
    verify_encryption,
    verify_reencryption,
    verify_step_exactly,
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

    @pytest.mark.parametrize("name", ["TOY"])
    def test_order_two_factor_in_R_rejected(self, name):
        """``R' = R·(p-1)`` leaves the subgroup, yet ``R'^e = R^e`` for
        every even challenge: grinding the nonce until the challenge
        over ``R'`` is even makes the Schnorr check pass, so only the
        subgroup test stands between ``R'`` and an entry group."""
        group = get_group(name)
        kp = AtomElGamal(group).keygen()
        ct, r = AtomElGamal(group).encrypt(kp.public, group.encode(b"m"))
        assert verify_encryption(
            group, ct, prove_encryption(group, ct, r, kp.public, 2),
            kp.public, 2,
        )
        forged = AtomCiphertext(
            R=GroupElement(ct.R.value * (group.p - 1) % group.p, group),
            c=ct.c, Y=None,
        )
        rows = [(forged.R, [group.g])]
        context = nizk._enc_context(forged, kp.public, 2)
        rng = DeterministicRng(b"grind-" + name.encode())
        while True:
            nonce = group.random_scalar(rng)
            t = group.g ** nonce
            e = sigma._challenge(group, rows, [t], context)
            if e % 2 == 0:
                break
        proof = nizk.EncProof(
            SigmaProof((t.value,), e, ((nonce + e * r) % group.q,))
        )
        assert not group.is_prime_order(forged.R)
        assert sigma.verify(group, rows, proof.proof, context)
        assert not verify_encryption(group, forged, proof, kp.public, 2)

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
    """The one-part step: ``prove_reencryption`` / ``verify_reencryption``."""

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
        # no successor key: commitments g^a and Y^a, response z_x only
        assert (len(proof.proof.commitments), len(proof.proof.responses)) == (2, 1)
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
        substituted = AtomCiphertext(forged.R, forged.c, out.Y)
        assert not verify_reencryption(
            toy_group, kp.public, nxt.public, ct, substituted, proof
        )

    def test_p256_proofs_made_at_the_parent_commit_still_verify(self):
        # A known answer for the per-step proof: these transcripts pin
        # the step transcript, the coefficients e_i and the challenge
        # derivation; any change to them breaks verification here.
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
        middle_proof = ReEncProof(SigmaProof(
            commitments=(
                383708224711517201708338186354091945074925511244529207766319626599994135359656,
                328099936866485283143568503697633530554170667005240947445191617808236027157505,
                244978654602841593857522310500462370337495642161535048023291710444659928910963,
            ),
            challenge=67812673482489452875910837896569594576929852821368062620407533469226296991569,
            responses=(
                63377035270492591126649893787677058002985648674137278954719362354087936868458,
                3639746072300292388782871600796771470885407539694664884387024621037522363569,
            ),
        ))
        final_proof = ReEncProof(SigmaProof(
            commitments=(
                313146371228075549343542492557946815006881528412159841168024996407211286991751,
                304533113978473732720789339912616306443342132687341230438937294403345515452715,
            ),
            challenge=80021215662970762637071229367332286952683214522173594069252195382484341973360,
            responses=(
                111293780858133462341797696419198142492045686239661224468696777562430009366083,
            ),
        ))
        # a mixed step: before toward nxt, after on the final layer
        step_proof = ReEncProof(SigmaProof(
            commitments=(
                304076918004484458666576482950074191354226063196499511739785418678646740309309,
                396753936683972122975136330576260921173499108483488231748352649004968421543721,
                339480834581682720801986736612094100175398116771318386312170129408422092891655,
            ),
            challenge=16364969269545604947978879213424795347970321061011159749341934994979877929050,
            responses=(
                36119372114744168342510360825041536374738061546863165535119846181659157396516,
                83105428875438428805432160540645823350003893026852497491927446946347786473988,
            ),
        ))
        assert verify_reencryption(
            group, server.public, nxt.public, before, after, middle_proof
        )
        assert verify_reencryption(group, server.public, None, after, final, final_proof)
        step = [(nxt.public, [before]), (None, [after])]
        outputs = [
            [scheme.reencrypt(
                server.secret, nxt.public, before,
                DeterministicRng(b"reenc-known-answer-step"),
            )],
            [final],
        ]
        for proof, ok in ((step_proof, True), (middle_proof, False), (final_proof, False)):
            assert ReEncryptor(group).verify_batch(server.public, step, outputs, proof) is ok
            assert verify_step_exactly(group, server.public, step, outputs, proof) is ok


def _flipped(element):
    """The order-2 twin ``p - x`` of a Schnorr element."""
    return GroupElement(element.group.p - element.value, element.group)


def _step(backend, seed, final=False, server=None):
    """One server's proved step: two batches under different successor
    keys (or the final layer), parts entering with and without ``Y``."""
    group = get_group(backend)
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"reenc-step-%d" % seed)
    group_key = ElGamalKeyPair.generate(group, rng)
    first, default = (ElGamalKeyPair.generate(group, rng) for _ in range(2))
    server = server or default
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
    outputs, proof = worker.reencrypt_and_prove(server.secret, step, rng)
    return worker, server, step, outputs, proof


def _both(worker, server, step, outputs, proof):
    """The folded verdict (fixed weights) and the exact one."""
    folded = worker.verify_batch(
        server.public, step, outputs, proof, DeterministicRng(b"fixed-weights")
    )
    return folded, verify_step_exactly(worker.group, server.public, step, outputs, proof)


def _bad_response(proof):
    z = proof.proof.responses
    return replace(proof, proof=replace(proof.proof, responses=(z[0] + 1,) + z[1:]))


def _bad_commitment(proof, at=0):
    # 0 is outside Z_p^*, and no compressed curve point has prefix 0
    t = list(proof.proof.commitments)
    t[at] >>= 8
    return replace(proof, proof=replace(proof.proof, commitments=tuple(t)))


def _with_part(outputs, batch, index, part):
    changed = [list(outs) for outs in outputs]
    changed[batch][index] = part
    return changed


step_settings = settings(
    max_examples=5, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("backend", ["TOY", "P256"])
class TestReEncryptorStep:
    """``verify_batch`` (the statement's rows folded into one identity)
    against ``verify_step_exactly`` (every row on its own)."""

    @pytest.mark.parametrize("final", [False, True])
    def test_honest_step(self, backend, final):
        @given(st.integers(0, 10**6))
        @step_settings
        def run(seed):
            case = _step(backend, seed, final)
            assert _both(*case) == (True, True)
            # one response for x, one per distinct successor key
            assert len(case[4].proof.responses) == (1 if final else 3)

        run()

    def test_mixed_step(self, backend):
        # a step may hold final and non-final batches at once, and two
        # batches toward one key share that key's row
        worker, server, (first, second), _, _ = _step(backend, 1)
        for step in ([first, (None, second[1])], [first, (first[0], second[1])]):
            outputs, proof = worker.reencrypt_and_prove(server.secret, step)
            assert _both(worker, server, step, outputs, proof) == (True, True)
            assert len(proof.proof.responses) == 2

    def test_one_bad_proof_among_many(self, backend):
        worker, server, step, outputs, proof = _step(backend, 2)
        g = worker.group.g
        for damage in (_bad_response, _bad_commitment, lambda p: _bad_commitment(p, -1)):
            assert _both(worker, server, step, outputs, damage(proof)) == (False, False)
        # one wrong c, or one wrong R, among the step's four parts
        for batch, index in ((0, 1), (1, 0)):
            part = outputs[batch][index]
            for bad in (
                AtomCiphertext(part.R, part.c * g, part.Y),
                AtomCiphertext(part.R * g, part.c, part.Y),
            ):
                bad_outputs = _with_part(outputs, batch, index, bad)
                assert _both(worker, server, step, bad_outputs, proof) == (False, False)

    def test_proofs_swapped_between_parts(self, backend):
        """A proof is bound to its step: the same parts in another
        order, another step, another server's step."""
        worker, server, step, outputs, proof = _step(backend, 3)
        (key, parts), rest = step[0], step[1:]
        reordered = [(key, parts[::-1]), *rest]
        reordered_outputs = [outputs[0][::-1], *outputs[1:]]
        assert _both(worker, server, reordered, reordered_outputs, proof) == (False, False)
        _, _, _, _, other_step = _step(backend, 9)
        assert _both(worker, server, step, outputs, other_step) == (False, False)
        other = ElGamalKeyPair.generate(worker.group, DeterministicRng(b"other"))
        _, _, _, other_outputs, other_proof = _step(backend, 3, server=other)
        assert _both(worker, other, step, other_outputs, other_proof) == (True, True)
        assert _both(worker, server, step, outputs, other_proof) == (False, False)
        assert _both(worker, other, step, other_outputs, proof) == (False, False)

    def test_outputs_swapped_or_replaced(self, backend):
        worker, server, step, outputs, proof = _step(backend, 4)
        swapped = [[outputs[0][1], outputs[0][0]], outputs[1]]
        assert _both(worker, server, step, swapped, proof) == (False, False)
        forged = outputs[1][0]
        forged = AtomCiphertext(forged.R, forged.c * worker.group.g, forged.Y)
        replaced = [outputs[0], [forged, outputs[1][1]]]
        assert _both(worker, server, step, replaced, proof) == (False, False)

    def test_wrong_server_key_or_layer(self, backend):
        worker, server, step, outputs, proof = _step(backend, 5)
        other = ElGamalKeyPair.generate(worker.group, DeterministicRng(b"other"))
        assert _both(worker, other, step, outputs, proof) == (False, False)
        # the same outputs claimed for the final layer: R moved, no match
        as_final = [(None, before) for _, before in step]
        assert _both(worker, server, as_final, outputs, proof) == (False, False)

    def test_shape_mismatches(self, backend):
        worker, server, step, outputs, proof = _step(backend, 6)
        for bad_outputs in (outputs[:1], [outputs[0][:1], outputs[1]]):
            assert _both(worker, server, step, bad_outputs, proof) == (False, False)
        sigma_proof = proof.proof
        for bad in (
            replace(sigma_proof, responses=sigma_proof.responses[:-1]),
            replace(sigma_proof, commitments=sigma_proof.commitments[:-1]),
        ):
            assert _both(worker, server, step, outputs, ReEncProof(bad)) == (False, False)
        _, empty = worker.reencrypt_and_prove(server.secret, [])
        assert _both(worker, server, [], [], empty) == (True, True)
        assert _both(worker, server, step, outputs, empty) == (False, False)

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


class TestOutsideThePrimeOrderSubgroup:
    """On a Schnorr group an element may carry an order-2 factor
    (``x -> p - x``), and exponents are reduced mod ``q``."""

    def _honest(self):
        group = get_group("TOY")
        scheme = AtomElGamal(group)
        rng = DeterministicRng(b"order-two")
        group_key, server, nxt = (ElGamalKeyPair.generate(group, rng) for _ in range(3))
        before = [
            scheme.encrypt(group_key.public, group.encode(bytes([i + 1])), rng)[0]
            for i in range(3)
        ]
        rands = [group.random_scalar(rng) for _ in before]
        after = scheme.reencrypt_many(server.secret, nxt.public, before, randomness=rands)
        return group, scheme, server, nxt, before, after, rands

    def test_two_order_two_quotients_are_rejected(self):
        group, _, server, nxt, before, after, rands = self._honest()
        forged = [AtomCiphertext(a.R, _flipped(a.c), a.Y) for a in after[:2]] + after[2:]
        step, outputs = [(nxt.public, before)], [forged]
        # Odd e_i do not stop the two flips from cancelling: under the
        # forged step's coefficients its aggregated c row equals the
        # honest outputs' ...
        statement = nizk._Step(group, server.public, step, outputs)

        def c_bar(outs):
            total = group.identity
            for b, a, e in zip(before, outs, statement.coefficients):
                total = total * (b.c / a.c) ** e
            return total

        assert c_bar(forged) == c_bar(after)
        # ... so the prover's proof of it must fail on membership.
        proof = nizk._prove(group, server.secret, server.public, statement, rands)
        worker = ReEncryptor(group)
        for i in range(8):
            weights = DeterministicRng(b"w%d" % i)
            assert not worker.verify_batch(server.public, step, outputs, proof, weights)
        assert not verify_step_exactly(group, server.public, step, outputs, proof)

    def test_a_users_sign_flipped_c_still_verifies(self):
        # c and c' carry the same flip, so c/c' stays in the subgroup:
        # an honest server re-encrypting it must not be blamed.
        group, scheme, server, nxt, before, _, _ = self._honest()
        before = [AtomCiphertext(b.R, _flipped(b.c), b.Y) for b in before]
        step = [(nxt.public, before)]
        worker = ReEncryptor(group)
        outputs, proof = worker.reencrypt_and_prove(server.secret, step)
        assert worker.verify_batch(server.public, step, outputs, proof)
        assert verify_step_exactly(group, server.public, step, outputs, proof)
