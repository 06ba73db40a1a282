"""Tests for the group mixing protocol (Algorithms 1 and 2)."""

import pytest

from repro.core.group import GroupContext, GroupStalled, ProtocolAbort
from repro.core.server import AtomServer, Behavior
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.vector import CiphertextVector, encrypt_vector, plaintext_of


def make_group(toy_group, gid=0, size=3, mode="anytrust", h=1, nizk_rounds=4):
    servers = [AtomServer(server_id=gid * 100 + i, group=toy_group) for i in range(size)]
    return GroupContext(gid, servers, toy_group, mode=mode, h=h, nizk_rounds=nizk_rounds)


def encrypt_to(toy_group, ctx, payloads):
    scheme = AtomElGamal(toy_group)
    return [encrypt_vector(scheme, ctx.public_key, p)[0] for p in payloads]


def decrypt_final(ctx, batches):
    return [plaintext_of(ctx.scheme, vec) for batch in batches for vec in batch]


class TestGroupFormation:
    def test_anytrust_key_is_member_product(self, toy_group):
        ctx = make_group(toy_group)
        expected = toy_group.identity
        for kp in ctx.member_keys:
            expected = expected * kp.public
        assert ctx.public_key == expected

    def test_manytrust_threshold(self, toy_group):
        ctx = make_group(toy_group, size=5, mode="manytrust", h=2)
        assert ctx.threshold == 4

    def test_anytrust_h_must_be_one(self, toy_group):
        with pytest.raises(ValueError):
            make_group(toy_group, mode="anytrust", h=2)

    def test_unknown_mode(self, toy_group):
        with pytest.raises(ValueError):
            make_group(toy_group, mode="zerotrust")

    def test_participants_all_when_healthy(self, toy_group):
        ctx = make_group(toy_group, size=4)
        assert ctx.participants() == [0, 1, 2, 3]

    def test_anytrust_stalls_on_any_failure(self, toy_group):
        ctx = make_group(toy_group, size=3)
        ctx.servers[1].fail()
        with pytest.raises(GroupStalled):
            ctx.participants()

    def test_manytrust_tolerates_h_minus_1(self, toy_group):
        ctx = make_group(toy_group, size=5, mode="manytrust", h=2)
        ctx.servers[0].fail()
        assert len(ctx.participants()) == 4

    def test_manytrust_stalls_beyond_h_minus_1(self, toy_group):
        ctx = make_group(toy_group, size=5, mode="manytrust", h=2)
        ctx.servers[0].fail()
        ctx.servers[1].fail()
        with pytest.raises(GroupStalled):
            ctx.participants()


class TestAlgorithm1:
    """Basic group protocol: shuffle -> divide -> reencrypt."""

    def test_final_layer_reveals_plaintexts(self, toy_group):
        ctx = make_group(toy_group)
        payloads = [bytes([i]) * 4 for i in range(6)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, audit = ctx.mix(vectors, next_keys=[None])
        out = decrypt_final(ctx, batches)
        assert sorted(out) == sorted(payloads)

    def test_forwarding_to_next_group(self, toy_group):
        first = make_group(toy_group, gid=0)
        second = make_group(toy_group, gid=1)
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, first, payloads)
        batches, _ = first.mix(vectors, next_keys=[second.public_key])
        forwarded = batches[0]
        # next group can fully decrypt
        batches2, _ = second.mix(forwarded, next_keys=[None])
        out = decrypt_final(second, batches2)
        assert sorted(out) == sorted(payloads)

    def test_split_into_multiple_batches(self, toy_group):
        first = make_group(toy_group, gid=0)
        nexts = [make_group(toy_group, gid=1), make_group(toy_group, gid=2)]
        payloads = [bytes([i]) * 4 for i in range(6)]
        vectors = encrypt_to(toy_group, first, payloads)
        batches, _ = first.mix(vectors, next_keys=[n.public_key for n in nexts])
        assert [len(b) for b in batches] == [3, 3]
        out = []
        for ctx, batch in zip(nexts, batches):
            final, _ = ctx.mix(batch, next_keys=[None])
            out.extend(decrypt_final(ctx, final))
        assert sorted(out) == sorted(payloads)

    def test_uneven_division_rejected(self, toy_group):
        ctx = make_group(toy_group)
        payloads = [bytes([i]) * 4 for i in range(5)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        with pytest.raises(ValueError):
            ctx.mix(vectors, next_keys=[None, None])

    def test_no_successors_rejected(self, toy_group):
        ctx = make_group(toy_group)
        with pytest.raises(ValueError):
            ctx.mix([], next_keys=[])

    def test_mixing_permutes(self, toy_group):
        """With high probability, the output order differs from input."""
        ctx = make_group(toy_group)
        payloads = [bytes([i]) * 4 for i in range(16)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, _ = ctx.mix(vectors, next_keys=[None])
        out = decrypt_final(ctx, batches)
        assert out != payloads  # p(identity) = 1/16!

    def test_manytrust_mixing_with_failure(self, toy_group):
        ctx = make_group(toy_group, size=4, mode="manytrust", h=2)
        ctx.servers[2].fail()
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, _ = ctx.mix(vectors, next_keys=[None])
        assert sorted(decrypt_final(ctx, batches)) == sorted(payloads)

    def test_audit_byte_accounting(self, toy_group):
        ctx = make_group(toy_group)
        vectors = encrypt_to(toy_group, ctx, [b"abcd"])
        _, audit = ctx.mix(vectors, next_keys=[None])
        assert audit.bytes_sent > 0


class TestAlgorithm2:
    """NIZK-verified group protocol."""

    def test_honest_run_with_proofs(self, toy_group):
        ctx = make_group(toy_group, size=2)
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, audit = ctx.mix_with_reenc_proofs(vectors, next_keys=[None])
        assert sorted(decrypt_final(ctx, batches)) == sorted(payloads)
        assert audit.shuffles_proved == 2
        assert audit.reencs_proved > 0

    def test_bad_shuffle_detected(self, toy_group):
        # 16 rounds: a swap slips through with probability 2^-32 (at 4
        # rounds this test failed one run in 256)
        ctx = make_group(toy_group, size=2, nizk_rounds=16)
        ctx.servers[0].behavior = Behavior.BAD_SHUFFLE
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        with pytest.raises(ProtocolAbort) as excinfo:
            ctx.mix_with_reenc_proofs(vectors, next_keys=[None])
        assert excinfo.value.culprit == ctx.servers[0].server_id
        assert excinfo.value.stage == "shuffle"

    def test_replace_detected(self, toy_group):
        ctx = make_group(toy_group, size=2)
        ctx.servers[1].behavior = Behavior.REPLACE_ONE
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        with pytest.raises(ProtocolAbort):
            ctx.mix_with_reenc_proofs(vectors, next_keys=[None])


class TestTamperingHooks:
    """The adversarial hooks act inside the batch mix kernel."""

    def test_trap_variant_tampering_flows_through(self, toy_group):
        """Without NIZKs, tampering is not caught during mixing."""
        ctx = make_group(toy_group, size=2)
        ctx.servers[0].behavior = Behavior.REPLACE_ONE
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, audit = ctx.mix_batch(vectors, next_keys=[None])
        assert audit.tamperings  # recorded but not blocked
        out = decrypt_final(ctx, batches)
        assert sorted(out) != sorted(payloads)  # one message replaced

    def test_tamper_budget_limits_attacks(self, toy_group):
        ctx = make_group(toy_group, size=2)
        ctx.servers[0].behavior = Behavior.REPLACE_ONE
        ctx.servers[0].tamper_budget = 0
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, audit = ctx.mix_batch(vectors, next_keys=[None])
        assert not audit.tamperings
        assert sorted(decrypt_final(ctx, batches)) == sorted(payloads)

    def test_duplicate_behavior(self, toy_group):
        ctx = make_group(toy_group, size=2)
        ctx.servers[0].behavior = Behavior.DUPLICATE_ONE
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        batches, audit = ctx.mix_batch(vectors, next_keys=[None])
        out = decrypt_final(ctx, batches)
        assert audit.tamperings
        assert len(out) == len(set(out)) + 1  # one duplicate present

    def test_bad_shuffle_swaps_without_extra_draws(self, toy_group):
        """BAD_SHUFFLE swaps two outputs of the member's shuffle: the
        same rng draws as an honest mix, the same plaintexts, another
        order."""
        from repro.crypto.groups import DeterministicRng

        ctx = make_group(toy_group, size=2)
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = encrypt_to(toy_group, ctx, payloads)
        honest_rng, bad_rng = DeterministicRng(b"bs"), DeterministicRng(b"bs")
        honest, _ = ctx.mix_batch(vectors, next_keys=[None], rng=honest_rng)
        ctx.servers[1].behavior = Behavior.BAD_SHUFFLE
        bad, audit = ctx.mix_batch(vectors, next_keys=[None], rng=bad_rng)
        assert audit.tamperings == [(ctx.servers[1].server_id, "bad_shuffle")]
        assert bad_rng.counter == honest_rng.counter
        assert decrypt_final(ctx, bad) != decrypt_final(ctx, honest)
        assert sorted(decrypt_final(ctx, bad)) == sorted(payloads)


class TestRevealSecrets:
    def test_anytrust_reveal_matches_group_key(self, toy_group):
        ctx = make_group(toy_group)
        total = sum(ctx.reveal_secrets()) % toy_group.q
        assert toy_group.g ** total == ctx.public_key

    def test_manytrust_reveal_reconstructs(self, toy_group):
        from repro.crypto.secret_sharing import Share, shamir_reconstruct

        ctx = make_group(toy_group, size=4, mode="manytrust", h=2)
        values = ctx.reveal_secrets()
        shares = [Share(i + 1, v) for i, v in enumerate(values)]
        secret = shamir_reconstruct(toy_group, shares[: ctx.threshold])
        assert toy_group.g ** secret == ctx.public_key
