"""The NIZK variant's mix (``GroupContext.mix_with_reenc_proofs``): its
seeded outputs are pinned to what the per-part loop it replaced
produced, and its cost is pinned as operation counts — taken by
patching, never timed.
"""

import hashlib
from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.core.group import GroupContext, ProtocolAbort
from repro.core.server import AtomServer, Behavior
from repro.crypto import ec, fastexp
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.nizk import ReEncryptor, prove_reencryption
from repro.crypto.vector import (
    encrypt_vector,
    prove_vector_shuffle,
    shuffle_vectors,
    verify_vector_shuffle,
)

#: sha256 over the outgoing batches, the round rng's final counter and
#: the audit's (reencs_proved, reencs_verified, shuffles_verified) of
#: the seeded mix below, recorded at d02f050 (inline per-part loop)
PINNED = {
    "TOY": (
        "1a2801ea1c37e9fe6ce42be0e22ab5682a9d5700b1f713df32636d273a70cb57",
        251, (24, 48, 6),
    ),
    "P256": (
        "63dd61c300d31836cc6ffd977c5ae30c3db9f2ea054bc01b1bd19ed392f9d4fd",
        182, (24, 48, 6),
    ),
}


def _seeded_mix(backend, group=None):
    """A non-final layer with beta = 2: four two-part vectors through a
    3-member group toward two successor keys."""
    group = group or get_group(backend)
    servers = [AtomServer(server_id=i, group=group) for i in range(3)]
    ctx = GroupContext(
        0, servers, group, rng=DeterministicRng(b"nizk-mix-pin"), nizk_rounds=3
    )
    rng = DeterministicRng(b"nizk-mix-pin-inputs")
    size = 2 * group.params.message_bytes
    vectors = [
        encrypt_vector(ctx.scheme, ctx.public_key, bytes([i + 1]) * size, rng)[0]
        for i in range(4)
    ]
    key_rng = DeterministicRng(b"nizk-mix-pin-successors")
    next_keys = [group.random_element(key_rng) for _ in range(2)]
    return ctx, vectors, next_keys


def _run(ctx, vectors, next_keys):
    rng = DeterministicRng(b"nizk-mix-pin-rng")
    batches, audit = ctx.mix_with_reenc_proofs(vectors, next_keys, rng)
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(len(batch).to_bytes(4, "big"))
        for vec in batch:
            digest.update(vec.to_bytes())
    counters = (audit.reencs_proved, audit.reencs_verified, audit.shuffles_verified)
    return digest.hexdigest(), rng.counter, counters


@pytest.mark.parametrize("backend", ["TOY", "P256"])
def test_seeded_mix_is_reproducible_and_equals_the_per_part_loop(backend):
    # Regression: ReEncryptor drew r' from ``secrets`` whatever rng it
    # was given, so the mix carried its own copy of the ReEnc loop.
    first = _run(*_seeded_mix(backend))
    assert first == _run(*_seeded_mix(backend))
    assert first == PINNED[backend]


def test_final_layer_and_tampering_keep_their_verdicts():
    ctx, vectors, _ = _seeded_mix("TOY")
    batches, audit = ctx.mix_with_reenc_proofs(
        vectors, [None, None], DeterministicRng(b"final")
    )
    assert [len(batch) for batch in batches] == [2, 2]
    assert all(part.Y is not None for b in batches for v in b for part in v.parts)
    assert audit.reencs_proved == 3 * 4 * 2 and audit.final_shuffle_proof is not None

    ctx, vectors, next_keys = _seeded_mix("TOY")
    ctx.servers[1].behavior = Behavior.BAD_SHUFFLE
    with pytest.raises(ProtocolAbort) as caught:
        ctx.mix_with_reenc_proofs(vectors, next_keys, DeterministicRng(b"bad"))
    assert (caught.value.culprit, caught.value.stage) == (1, "shuffle")

    ctx, vectors, next_keys = _seeded_mix("TOY")
    real = ReEncryptor.reencrypt_and_prove

    def cheat(self, secret, step, rng=None):
        outputs, proofs = real(self, secret, step, rng)
        if secret == ctx.member_keys[2].secret:
            outputs[1][0], outputs[1][1] = outputs[1][1], outputs[1][0]
        return outputs, proofs

    with mock.patch.object(ReEncryptor, "reencrypt_and_prove", cheat):
        with pytest.raises(ProtocolAbort) as caught:
            ctx.mix_with_reenc_proofs(vectors, next_keys, DeterministicRng(b"bad"))
    assert (caught.value.culprit, caught.value.stage) == (2, "reenc")


# -- operation budgets ---------------------------------------------------


@contextmanager
def _counting():
    """Counts, while open: Straus calls on both backends, P-256
    variable-base exponentiations (points through the wNAF routine
    outside a Straus call), fixed-base table builds, and
    ``rerandomize_many`` kernel calls."""
    counts = SimpleNamespace(
        multiexp=0, variable_base=0, table_builds=0, rerandomize_many=0
    )
    scalar_mult, straus = ec._scalar_mult_many, fastexp.multiexp_ops
    comb_init = fastexp.FixedBaseComb.__init__
    rerandomize_many = AtomElGamal.rerandomize_many

    def counting_scalar_mult(points, scalar):
        counts.variable_base += sum(1 for pt in points if pt[2])
        return scalar_mult(points, scalar)

    def counting_straus(*args, **kwargs):
        counts.multiexp += 1
        return straus(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts.table_builds += 1
        comb_init(self, *args, **kwargs)

    def counting_rerandomize(self, *args, **kwargs):
        counts.rerandomize_many += 1
        return rerandomize_many(self, *args, **kwargs)

    with ExitStack() as stack:
        for owner, name, counting in (
            (ec, "_scalar_mult_many", counting_scalar_mult),
            (ec, "multiexp_ops", counting_straus),
            (fastexp, "multiexp_ops", counting_straus),
            (fastexp.FixedBaseComb, "__init__", counting_init),
            (AtomElGamal, "rerandomize_many", counting_rerandomize),
        ):
            stack.enter_context(mock.patch.object(owner, name, counting))
        yield counts


def _shuffle_proof(backend, count, rounds, rng=None):
    group = get_group(backend)
    scheme = AtomElGamal(group)
    rng = rng or DeterministicRng(b"budget-shuffle")
    keys = scheme.keygen(rng)
    size = 2 * group.params.message_bytes
    inputs = [
        encrypt_vector(scheme, keys.public, bytes([i + 1]) * size, rng)[0]
        for i in range(count)
    ]
    outputs, perm, rands = shuffle_vectors(scheme, keys.public, inputs, rng)
    proof = prove_vector_shuffle(
        scheme, keys.public, inputs, outputs, perm, rands, rounds=rounds, rng=rng
    )
    return scheme, keys.public, inputs, outputs, proof


#: sha256 over a seeded 6-round P-256 ``VectorShuffleProof`` (every
#: round's intermediate, opened permutation and opened randomness, then
#: the challenge bits) and the rng's counter after it, recorded at
#: ba62ba4 (one ``shuffle_vectors`` call per cut-and-choose round)
PINNED_PROOF = (
    "ba53220091a3cabf31c76f9b15602fdd98884b971ea1802d9b50bdb92df2f164", 104
)


def _proof_digest(proof):
    digest = hashlib.sha256()
    for rnd in proof.rounds:
        for vec in rnd.intermediate:
            digest.update(vec.to_bytes())
        for at in rnd.opened_perm:
            digest.update(at.to_bytes(4, "big"))
        for rands in rnd.opened_rands:
            for rho in rands:
                digest.update(rho.to_bytes(32, "big"))
    digest.update(bytes(proof.challenge_bits))
    return digest.hexdigest()


def test_seeded_p256_shuffle_proof_is_pinned():
    rng = DeterministicRng(b"vector-proof-pin")
    *_, proof = _shuffle_proof("P256", 4, rounds=6, rng=rng)
    assert (_proof_digest(proof), rng.counter) == PINNED_PROOF


def test_p256_shuffle_verification_is_one_kernel_call():
    scheme, pk, inputs, outputs, proof = _shuffle_proof("P256", 4, rounds=6)
    with _counting() as counts:
        assert verify_vector_shuffle(scheme, pk, inputs, outputs, proof, rounds=6)
    assert counts.rerandomize_many == 1
    assert counts.multiexp == 0
    assert counts.variable_base == 0
    assert counts.table_builds == 0


def test_p256_shuffle_proof_is_one_kernel_call():
    # every round's intermediate comes out of one rerandomize_many
    # call, wide enough for the lockstep comb
    group = get_group("P256")
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"budget-prove")
    pk = scheme.keygen(rng).public
    inputs = [
        encrypt_vector(scheme, pk, bytes([i + 1]) * 2 * group.params.message_bytes, rng)[0]
        for i in range(4)
    ]
    outputs, perm, rands = shuffle_vectors(scheme, pk, inputs, rng)
    with _counting() as counts:
        proof = prove_vector_shuffle(
            scheme, pk, inputs, outputs, perm, rands, rounds=6, rng=rng
        )
    assert counts.rerandomize_many == 1
    assert (counts.multiexp, counts.variable_base) == (0, 0)
    assert verify_vector_shuffle(scheme, pk, inputs, outputs, proof, rounds=6)


def _warm_step(parts_per_batch=2):
    group = get_group("P256")
    scheme = AtomElGamal(group)
    rng = DeterministicRng(b"budget-step")
    group_key, server = scheme.keygen(rng), scheme.keygen(rng)
    step = []
    for _ in range(2):
        next_key = scheme.keygen(rng).public
        group.fixed_base(next_key)  # a successor key is hot by its third use
        step.append((next_key, [
            scheme.encrypt(group_key.public, group.encode(b"m"), rng)[0]
            for _ in range(parts_per_batch)
        ]))
    return group, server, step, rng


def test_p256_reenc_step_budgets():
    group, server, step, rng = _warm_step()
    parts = sum(len(batch) for _, batch in step)
    worker = ReEncryptor(group)
    with _counting() as counts:
        outputs, proof = worker.reencrypt_and_prove(server.secret, step, rng)
    # per part Y^x of the ReEnc itself; the proof's Y~_i go through one
    # Straus chain, g and X' through their comb tables
    assert counts.variable_base == parts
    assert (counts.multiexp, counts.table_builds) == (1, 0)

    with _counting() as counts:
        assert worker.verify_batch(server.public, step, outputs, proof)
    assert (counts.multiexp, counts.variable_base, counts.table_builds) == (1, 0, 0)


def test_p256_reenc_prover_pays_one_variable_base_exponentiation():
    # the one-part proof: Y^(a e) is its only variable base, with X'
    # and g through comb tables and no Straus chain for one base
    group, server, step, rng = _warm_step(parts_per_batch=1)
    scheme = AtomElGamal(group)
    (next_key, (before,)), _ = step
    r = group.random_scalar(rng)
    after = scheme.reencrypt(server.secret, next_key, before, randomness=r)
    with _counting() as counts:
        prove_reencryption(group, server.secret, r, next_key, before, after)
    assert (counts.variable_base, counts.multiexp) == (1, 0)
    final = scheme.reencrypt(server.secret, None, after)
    with _counting() as counts:
        prove_reencryption(group, server.secret, None, None, after, final)
    assert (counts.variable_base, counts.multiexp) == (1, 0)


def test_mix_builds_tables_only_for_the_generator_and_group_keys():
    group = ec.EcGroup()  # a cold cache, apart from the registry's
    with _counting() as counts:
        ctx, vectors, next_keys = _seeded_mix("P256", group)
        ctx.mix_with_reenc_proofs(vectors, next_keys, DeterministicRng(b"cold"))
    expected = {group.g.value, ctx.public_key.value, *(k.value for k in next_keys)}
    assert set(group._fixed_cache) == expected
    assert counts.table_builds == len(expected)
    # a step's two Straus calls, one to prove and one to verify, per
    # participant
    assert counts.multiexp == 2 * len(ctx.servers)
