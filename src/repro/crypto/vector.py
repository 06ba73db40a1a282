"""Vector ciphertexts: multi-element messages mixed as one unit.

The paper embeds a message larger than one group element as several
elliptic-curve points ("a 64-byte message is two elliptic curve
points"), and all mixing operations treat the point-vector as a single
logical message: the same permutation moves all parts together, while
rerandomization and re-encryption act element-wise.

This module lifts :mod:`repro.crypto.elgamal` to vectors and proves
shuffles of them:

- :class:`CiphertextVector` — an immutable tuple of
  :class:`~repro.crypto.elgamal.AtomCiphertext` parts.
- element-wise ``encrypt_vector`` / ``reencrypt_vector`` /
  ``rerandomize_vector`` / ``decrypt_vector``;
- ``shuffle_vectors`` — one shared permutation, independent per-part
  randomness;
- ``prove_vector_shuffle`` / ``verify_vector_shuffle`` — the
  cut-and-choose shuffle NIZK standing in for Neff's shuffle, with the
  *whole vector* as the unit of permutation (so a cheating mixer cannot
  even permute parts across messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement
from repro.crypto.shuffle_proof import Link, recompute_links


@dataclass(frozen=True)
class CiphertextVector:
    """A logical message: a tuple of Atom ciphertext parts."""

    parts: Tuple[AtomCiphertext, ...]

    def __len__(self) -> int:
        return len(self.parts)

    def with_y_bot(self) -> "CiphertextVector":
        return CiphertextVector(tuple(p.with_y_bot() for p in self.parts))

    def to_bytes(self) -> bytes:
        return b"".join(p.to_bytes() for p in self.parts)

    @property
    def size_bytes(self) -> int:
        return sum(p.size_bytes for p in self.parts)


def cut_like(
    vectors: Sequence[CiphertextVector], parts: Iterable[AtomCiphertext]
) -> List[CiphertextVector]:
    """A flat run of parts (vector, then part order) cut into vectors
    of the same part counts as ``vectors``."""
    parts = iter(parts)
    return [
        CiphertextVector(tuple(next(parts) for _ in vec.parts)) for vec in vectors
    ]


def encrypt_vector(
    scheme: AtomElGamal,
    public_key: GroupElement,
    message: bytes,
    rng: Optional[DeterministicRng] = None,
) -> Tuple[CiphertextVector, List[int]]:
    """Encrypt a byte string as a vector; returns (vector, randomness)."""
    elements = scheme.group.encode_chunks(message)
    cts, rands = [], []
    for el in elements:
        ct, r = scheme.encrypt(public_key, el, rng)
        cts.append(ct)
        rands.append(r)
    return CiphertextVector(tuple(cts)), rands


def decrypt_vector(scheme: AtomElGamal, secret: int, vector: CiphertextVector) -> bytes:
    """Decrypt a fully-peeled vector back to bytes."""
    return scheme.group.decode_chunks(scheme.decrypt(secret, p) for p in vector.parts)


def plaintext_of(scheme: AtomElGamal, vector: CiphertextVector) -> bytes:
    """Read the plaintext out of a vector whose layers are all peeled
    (the exit groups' final state: each part's ``c`` is the message)."""
    return scheme.group.decode_chunks(p.c for p in vector.parts)


def reencrypt_vector(
    scheme: AtomElGamal,
    secret: int,
    next_public_key: Optional[GroupElement],
    vector: CiphertextVector,
    rng: Optional[DeterministicRng] = None,
) -> CiphertextVector:
    """Element-wise out-of-order ReEnc."""
    return CiphertextVector(
        tuple(scheme.reencrypt_many(secret, next_public_key, vector.parts, rng))
    )


def rerandomize_vector(
    scheme: AtomElGamal,
    public_key: GroupElement,
    vector: CiphertextVector,
    randomness: Optional[Sequence[int]] = None,
    rng: Optional[DeterministicRng] = None,
) -> CiphertextVector:
    """Element-wise rerandomization (used by vector shuffles)."""
    if randomness is None:
        randomness = [scheme.group.random_scalar(rng) for _ in vector.parts]
    if len(randomness) != len(vector.parts):
        raise ValueError("randomness arity mismatch")
    return CiphertextVector(
        tuple(scheme.rerandomize_many(public_key, vector.parts, randomness))
    )


def random_permutation(n: int, rng: Optional[DeterministicRng] = None) -> List[int]:
    """A uniform permutation of ``range(n)``, drawn from ``rng`` (or
    system randomness) — the first draw of every shuffle step."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    else:
        import secrets as _secrets

        for i in range(n - 1, 0, -1):
            j = _secrets.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
    return perm


def _draw_shuffle(
    group: Group,
    vectors: Sequence[CiphertextVector],
    rng: Optional[DeterministicRng],
) -> Tuple[List[int], List[CiphertextVector], List[List[int]]]:
    """A shuffle's witness, in draw order: the permutation, then one
    scalar per part of every permuted vector; also the permuted
    vectors."""
    perm = random_permutation(len(vectors), rng)
    sources = [vectors[i] for i in perm]
    rands = [[group.random_scalar(rng) for _ in vec.parts] for vec in sources]
    return perm, sources, rands


def _rerandomize_all(
    scheme: AtomElGamal,
    public_key: GroupElement,
    sources: Sequence[CiphertextVector],
    rands: Sequence[Sequence[int]],
) -> List[CiphertextVector]:
    """``Rerand(sources[i], rands[i])`` for every vector as one kernel
    call over all their parts, cut back to size."""
    return cut_like(
        sources,
        scheme.rerandomize_many(
            public_key,
            [part for vec in sources for part in vec.parts],
            [r for vec_rands in rands for r in vec_rands],
        ),
    )


def shuffle_vectors(
    scheme: AtomElGamal,
    public_key: GroupElement,
    vectors: Sequence[CiphertextVector],
    rng: Optional[DeterministicRng] = None,
) -> Tuple[List[CiphertextVector], List[int], List[List[int]]]:
    """Shuffle vectors as units: ``out[i] = Rerand(in[perm[i]], rands[i])``."""
    perm, sources, rands = _draw_shuffle(scheme.group, vectors, rng)
    return _rerandomize_all(scheme, public_key, sources, rands), perm, rands


# ---------------------------------------------------------------------------
# Vector cut-and-choose shuffle proof (DESIGN.md substitution #2).
#
# To prove ``C' = Shuffle(pk, C)`` with witness ``(perm, rands)``
# (``C'[i] = Rerand(C[perm[i]], rands[i])``), the prover samples, per
# round, an *intermediate* shuffle ``D`` of ``C`` with fresh ``(sigma,
# tau)``.  The Fiat-Shamir challenge bit selects which link to open:
#
# - bit 0: reveal ``(sigma, tau)``; the verifier recomputes ``D`` from ``C``;
# - bit 1: reveal the composition linking ``D`` to ``C'``: ``perm2[i] =
#   sigma^-1(perm[i])`` and ``rand2[i] = rands[i] - tau[perm2[i]]``; the
#   verifier checks ``C'[i] == Rerand(D[perm2[i]], rand2[i])``.
#
# Rerandomization randomness composes additively, which is what makes
# the bit-1 opening possible without revealing the witness.  An honest
# shuffle always verifies; a prover who did not shuffle passes with
# probability at most ``2^-rounds``; each opened branch is a fresh
# uniform shuffle of one side, independent of the secret permutation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorShuffleRound:
    intermediate: Tuple[CiphertextVector, ...]
    opened_perm: Tuple[int, ...]
    opened_rands: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class VectorShuffleProof:
    rounds: Tuple[VectorShuffleRound, ...]
    challenge_bits: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        if not self.rounds:
            return 8
        per_round = sum(v.size_bytes for v in self.rounds[0].intermediate)
        per_round += sum(8 + 32 * len(r) for r in self.rounds[0].opened_rands)
        return len(self.rounds) * per_round + 8


def _vector_challenge_bits(
    group: Group,
    public_key: GroupElement,
    inputs: Sequence[CiphertextVector],
    outputs: Sequence[CiphertextVector],
    intermediates: Sequence[Sequence[CiphertextVector]],
    rounds: int,
) -> List[int]:
    parts: List[bytes] = [b"repro.vecshufproof.v1", public_key.to_bytes()]
    for vec in inputs:
        parts.append(vec.to_bytes())
    for vec in outputs:
        parts.append(vec.to_bytes())
    for vecs in intermediates:
        for vec in vecs:
            parts.append(vec.to_bytes())
    seed = group.hash_to_scalar(*parts)
    rng = DeterministicRng(seed.to_bytes(32, "big"))
    return [rng.randint(0, 1) for _ in range(rounds)]


def prove_vector_shuffle(
    scheme: AtomElGamal,
    public_key: GroupElement,
    inputs: Sequence[CiphertextVector],
    outputs: Sequence[CiphertextVector],
    perm: Sequence[int],
    rands: Sequence[Sequence[int]],
    rounds: int,
    rng: Optional[DeterministicRng] = None,
) -> VectorShuffleProof:
    """Prove ``outputs`` is a vector shuffle of ``inputs``."""
    group = scheme.group
    n = len(inputs)
    if len(outputs) != n or len(perm) != n or len(rands) != n:
        raise ValueError("vector shuffle witness does not match sizes")

    # Every round's witness is drawn as a shuffle_vectors call would
    # draw it; then ONE kernel call rerandomizes all rounds' parts.
    draws = [_draw_shuffle(group, inputs, rng) for _ in range(rounds)]
    flat = _rerandomize_all(
        scheme, public_key,
        [vec for _, sources, _ in draws for vec in sources],
        [vec_rands for _, _, rands in draws for vec_rands in rands],
    )
    intermediates = [flat[k * n: (k + 1) * n] for k in range(rounds)]

    bits = _vector_challenge_bits(
        group, public_key, inputs, outputs, intermediates, rounds
    )

    proof_rounds: List[VectorShuffleRound] = []
    for (sigma_perm, _, tau), intermediate, bit in zip(draws, intermediates, bits):
        if bit == 0:
            opened_perm = list(sigma_perm)
            opened_rands = [tuple(t) for t in tau]
        else:
            sigma_inv = [0] * n
            for i, s in enumerate(sigma_perm):
                sigma_inv[s] = i
            opened_perm = [sigma_inv[perm[i]] for i in range(n)]
            opened_rands = [
                tuple(
                    (rands[i][j] - tau[opened_perm[i]][j]) % group.q
                    for j in range(len(rands[i]))
                )
                for i in range(n)
            ]
        proof_rounds.append(
            VectorShuffleRound(
                intermediate=tuple(intermediate),
                opened_perm=tuple(opened_perm),
                opened_rands=tuple(opened_rands),
            )
        )
    return VectorShuffleProof(rounds=tuple(proof_rounds), challenge_bits=tuple(bits))


def verify_vector_shuffle(
    scheme: AtomElGamal,
    public_key: GroupElement,
    inputs: Sequence[CiphertextVector],
    outputs: Sequence[CiphertextVector],
    proof: VectorShuffleProof,
    rounds: int,
    batched: bool = True,
) -> bool:
    """Verify a :class:`VectorShuffleProof`.

    Checks the shape, the round count and the Fiat-Shamir bits, reduces
    every round's opening to per-part links, and checks all ``rounds *
    n * parts`` of them in one go
    (:func:`~repro.crypto.shuffle_proof.recompute_links`).
    ``batched=False`` is the per-part reference path: one
    ``rerandomize`` per link.
    """
    n = len(inputs)
    if len(outputs) != n:
        return False
    if len(proof.rounds) != rounds or len(proof.challenge_bits) != rounds:
        return False
    bits = _vector_challenge_bits(
        scheme.group, public_key, inputs, outputs,
        [rnd.intermediate for rnd in proof.rounds], rounds,
    )
    if list(proof.challenge_bits) != bits:
        return False
    links: List[Link] = []
    for rnd, bit in zip(proof.rounds, bits):
        if not len(rnd.intermediate) == len(rnd.opened_perm) == len(rnd.opened_rands) == n:
            return False
        if sorted(rnd.opened_perm) != list(range(n)):
            return False
        source = inputs if bit == 0 else rnd.intermediate
        target = rnd.intermediate if bit == 0 else outputs
        for i, at in enumerate(rnd.opened_perm):
            src, tgt, rands = source[at].parts, target[i].parts, rnd.opened_rands[i]
            if not len(src) == len(tgt) == len(rands):
                return False
            links.extend(zip(src, tgt, rands))
    if batched:
        return recompute_links(scheme, public_key, links)
    return all(
        src.Y is None
        and scheme.rerandomize(public_key, src, randomness=rho) == tgt
        for src, tgt, rho in links
    )
