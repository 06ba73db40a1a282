"""The batch mixing kernel: ``GroupContext.mix_batch`` must stay
byte-identical to the object-path ``mix`` on every backend, the scheme's
``*_many`` kernels must equal their per-element references, and the
curve backend must pay its square roots and inversions per call and per
chunk — not per point per server step.  Everything here is
deterministic: outputs are compared byte for byte and costs are counted
by patching, never timed.
"""

import pytest

from repro.core import group as group_module
from repro.core.batch import CiphertextBatch
from repro.core.group import GroupContext
from repro.core.server import AtomServer
from repro.crypto import ec
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.vector import CiphertextVector, encrypt_vector

BACKENDS = ["TOY", "P256"]


def _context(backend, members=3, seed=b"mix-kernel"):
    group = get_group(backend)
    servers = [AtomServer(server_id=i, group=group) for i in range(members)]
    return GroupContext(
        0, servers, group, rng=DeterministicRng(seed), nizk_rounds=8
    )


def _inputs(ctx, count, parts=2, seed=b"mix-kernel-inputs"):
    rng = DeterministicRng(seed)
    size = parts * ctx.group.params.message_bytes
    return [
        encrypt_vector(ctx.scheme, ctx.public_key, bytes([i]) * size, rng)[0]
        for i in range(count)
    ]


def _successor_keys(ctx, beta):
    rng = DeterministicRng(b"mix-kernel-successors")
    return [ctx.group.random_element(rng) for _ in range(beta)]


def _assert_same_mix(ctx, vectors, next_keys):
    rng_a = DeterministicRng(b"mix-kernel-rng")
    rng_b = DeterministicRng(b"mix-kernel-rng")
    want, want_audit = ctx.mix(vectors, next_keys, rng=rng_a)
    got, got_audit = ctx.mix_batch(
        CiphertextBatch.from_vectors(ctx.group, vectors), next_keys, rng=rng_b
    )
    assert [part.to_bytes() for part in got] == [
        CiphertextBatch.from_vectors(ctx.group, batch).to_bytes() for batch in want
    ]
    assert got_audit.bytes_sent == want_audit.bytes_sent
    assert rng_a.counter == rng_b.counter  # same draws, same order
    return got


@pytest.mark.parametrize("backend", BACKENDS)
class TestMixBatchEqualsMix:
    def test_distinct_successor_keys(self, backend):
        ctx = _context(backend)
        _assert_same_mix(ctx, _inputs(ctx, 4), _successor_keys(ctx, 2))

    def test_final_layer(self, backend):
        ctx = _context(backend)
        out = _assert_same_mix(ctx, _inputs(ctx, 4), [None, None])
        assert all(part.Y is not None for vec in out[0] for part in vec.parts)

    def test_identity_r_and_uneven_part_counts(self, backend):
        ctx = _context(backend, members=2)
        one = ctx.group.identity
        vectors = _inputs(ctx, 2, parts=1) + _inputs(ctx, 2, parts=3)
        vectors[0] = CiphertextVector(
            tuple(AtomCiphertext(one, part.c) for part in vectors[0].parts)
        )
        _assert_same_mix(ctx, vectors, _successor_keys(ctx, 1))

    def test_inputs_with_y_are_refused_like_mix(self, backend):
        ctx = _context(backend, members=2)
        (vec,) = _inputs(ctx, 1, parts=1)
        part = vec.parts[0]
        mid = CiphertextVector((AtomCiphertext(part.R, part.c, Y=ctx.group.g),))
        for run in (
            lambda: ctx.mix([mid], [None], rng=DeterministicRng(b"y")),
            lambda: ctx.mix_batch([mid], [None], rng=DeterministicRng(b"y")),
        ):
            with pytest.raises(ValueError, match="Y = ⊥"):
                run()

    def test_chunk_boundaries_do_not_show(self, backend, monkeypatch):
        # 3 parts per kernel call: chunks end inside successor ranges
        # and a successor range ends inside a chunk's worth of vectors.
        monkeypatch.setattr(group_module, "MIX_CHUNK_PARTS", 3)
        ctx = _context(backend, members=2)
        _assert_same_mix(ctx, _inputs(ctx, 6, parts=1), _successor_keys(ctx, 2))

    def test_empty_batch(self, backend):
        ctx = _context(backend, members=2)
        out = _assert_same_mix(ctx, [], _successor_keys(ctx, 2))
        assert [len(part) for part in out] == [0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
class TestSchemeKernels:
    def _ciphertexts(self, group):
        rng = DeterministicRng(b"scheme-kernels")
        el = lambda: group.random_element(rng)  # noqa: E731
        return [
            AtomCiphertext(el(), el()),
            AtomCiphertext(group.identity, el()),
            AtomCiphertext(el(), el(), Y=el()),
            AtomCiphertext(group.identity, el(), Y=el()),
        ]

    def test_rerandomize_many(self, backend):
        group = get_group(backend)
        scheme = AtomElGamal(group)
        key = group.g_pow(11)
        cts = self._ciphertexts(group)[:2] * 2
        rands = [1, group.q - 1, 12345, 0]
        assert scheme.rerandomize_many(key, cts, rands) == [
            scheme.rerandomize(key, ct, randomness=r) for ct, r in zip(cts, rands)
        ]
        with pytest.raises(ValueError):
            scheme.rerandomize_many(key, self._ciphertexts(group), rands)

    @pytest.mark.parametrize("final", [False, True])
    def test_reencrypt_many(self, backend, final):
        group = get_group(backend)
        scheme = AtomElGamal(group)
        key = None if final else group.g_pow(13)
        cts = self._ciphertexts(group)
        rng_a, rng_b = DeterministicRng(b"re"), DeterministicRng(b"re")
        assert scheme.reencrypt_many(777, key, cts, rng_a) == [
            scheme.reencrypt(777, key, ct, rng_b) for ct in cts
        ]
        assert rng_a.counter == rng_b.counter


class TestCurveOpCounts:
    """Per ``mix_batch`` call on P-256: one square root per input point,
    and a number of field inversions that depends on the number of
    chunks and server steps — never on the number of points.

    A kernel call of ``k`` chains (parts x (R, c)) below
    ``ec.LOCKSTEP_MIN_CHAINS`` shares one inversion to normalize its
    list; at or above it, the lockstep comb pays one inversion per
    comb row and no normalization."""

    MEMBERS = 3
    #: rows of a P-256 comb table (256 // 6 + 1)
    ROWS = 43
    #: inversions per member of one non-final layer, by vector count:
    #: the shuffle's kernel call; then ReEnc's wNAF tables, c / Y^x and
    #: its kernel call.  2 vectors are 8 chains, 16 and 32 are 64 and
    #: 128: above the crossover, the count no longer moves with size.
    INVERSES = {2: 1 + 2 + 1, 16: ROWS + 2 + ROWS, 32: ROWS + 2 + ROWS}

    def _count(self, monkeypatch, ctx, vectors, next_keys):
        batch = CiphertextBatch.from_vectors(ctx.group, vectors)
        ctx.mix_batch(batch, next_keys, rng=DeterministicRng(b"warm"))  # tables
        counts = {"sqrt": 0, "inverse": 0}

        def counting_pow(base, exponent, modulus=None):
            if exponent == -1:
                counts["inverse"] += 1
            elif exponent == ec._SQRT_EXP:
                counts["sqrt"] += 1
            return pow(base, exponent, modulus)

        with monkeypatch.context() as patch:
            patch.setattr(ec, "pow", counting_pow, raising=False)
            ctx.mix_batch(batch, next_keys, rng=DeterministicRng(b"counted"))
        return counts

    @pytest.mark.parametrize("vectors", [2, 16, 32])
    def test_one_chunk_per_step(self, monkeypatch, vectors):
        assert 2 * 2 * 2 < ec.LOCKSTEP_MIN_CHAINS <= 16 * 2 * 2
        ctx = _context("P256", members=self.MEMBERS)
        counts = self._count(
            monkeypatch, ctx, _inputs(ctx, vectors), _successor_keys(ctx, 1)
        )
        points_in = vectors * 2 * 2  # parts x (R, c)
        assert counts["sqrt"] == points_in
        assert counts["inverse"] == self.MEMBERS * self.INVERSES[vectors]

    def test_final_layer_and_chunking(self, monkeypatch):
        monkeypatch.setattr(group_module, "MIX_CHUNK_PARTS", 8)
        ctx = _context("P256", members=self.MEMBERS)
        counts = self._count(monkeypatch, ctx, _inputs(ctx, 8), [None, None])
        assert counts["sqrt"] == 8 * 2 * 2
        # 16 parts: 2 chunks of 16 chains (lockstep) per shuffle step;
        # each successor range is a chunk of its own, and the final
        # layer adds no fixed-base work
        assert counts["inverse"] == self.MEMBERS * (2 * self.ROWS + 2 * 2)
