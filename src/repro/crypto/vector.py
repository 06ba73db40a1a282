"""Vector ciphertexts: multi-element messages mixed as one unit.

The paper embeds a message larger than one group element as several
elliptic-curve points ("a 64-byte message is two elliptic curve
points"), and all mixing operations treat the point-vector as a single
logical message: the same permutation moves all parts together, while
rerandomization and re-encryption act element-wise.

This module lifts :mod:`repro.crypto.elgamal` and
:mod:`repro.crypto.shuffle_proof` to vectors:

- :class:`CiphertextVector` — an immutable tuple of
  :class:`~repro.crypto.elgamal.AtomCiphertext` parts.
- element-wise ``encrypt_vector`` / ``reencrypt_vector`` /
  ``rerandomize_vector`` / ``decrypt_vector``;
- ``shuffle_vectors`` — one shared permutation, independent per-part
  randomness;
- ``prove_vector_shuffle`` / ``verify_vector_shuffle`` — the same
  cut-and-choose argument as the scalar proof, with the *whole vector*
  as the unit of permutation (so a cheating mixer cannot even permute
  parts across messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement
from repro.crypto.shuffle_proof import batch_rerand_check


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


def shuffle_vectors(
    scheme: AtomElGamal,
    public_key: GroupElement,
    vectors: Sequence[CiphertextVector],
    rng: Optional[DeterministicRng] = None,
) -> Tuple[List[CiphertextVector], List[int], List[List[int]]]:
    """Shuffle vectors as units: ``out[i] = Rerand(in[perm[i]], rands[i])``."""
    n = len(vectors)
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    else:
        import secrets as _secrets

        for i in range(n - 1, 0, -1):
            j = _secrets.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
    sources = [vectors[i] for i in perm]
    rands = [[scheme.group.random_scalar(rng) for _ in vec.parts] for vec in sources]
    # One kernel call over every part of every vector, cut back to size.
    parts = iter(
        scheme.rerandomize_many(
            public_key,
            [part for vec in sources for part in vec.parts],
            [r for vec_rands in rands for r in vec_rands],
        )
    )
    shuffled = [
        CiphertextVector(tuple(next(parts) for _ in vec.parts)) for vec in sources
    ]
    return shuffled, perm, rands


# ---------------------------------------------------------------------------
# Vector cut-and-choose shuffle proof (same structure as the scalar one).
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
    rounds: int = 16,
    rng: Optional[DeterministicRng] = None,
) -> VectorShuffleProof:
    """Prove ``outputs`` is a vector shuffle of ``inputs``."""
    group = scheme.group
    n = len(inputs)
    if len(outputs) != n or len(perm) != n or len(rands) != n:
        raise ValueError("vector shuffle witness does not match sizes")

    intermediates: List[List[CiphertextVector]] = []
    witnesses = []
    for _ in range(rounds):
        vecs, sigma_perm, tau = shuffle_vectors(scheme, public_key, inputs, rng)
        intermediates.append(vecs)
        witnesses.append((sigma_perm, tau))

    bits = _vector_challenge_bits(
        group, public_key, inputs, outputs, intermediates, rounds
    )

    proof_rounds: List[VectorShuffleRound] = []
    for (sigma_perm, tau), intermediate, bit in zip(witnesses, intermediates, bits):
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
    rounds: int = 16,
    batched: bool = True,
    weight_rng: Optional[DeterministicRng] = None,
) -> bool:
    """Verify a :class:`VectorShuffleProof`.

    By default each round's per-part rerandomization equations (over
    all ``n * parts`` ciphertext parts) are folded into one batched
    random-linear-combination check (two multi-exponentiations); pass
    ``batched=False`` for the element-wise reference path.
    """
    group = scheme.group
    n = len(inputs)
    if len(outputs) != n:
        return False
    if len(proof.rounds) != rounds or len(proof.challenge_bits) != rounds:
        return False

    intermediates = [r.intermediate for r in proof.rounds]
    expected = _vector_challenge_bits(
        group, public_key, inputs, outputs, intermediates, rounds
    )
    if list(proof.challenge_bits) != expected:
        return False

    for rnd, bit in zip(proof.rounds, expected):
        if len(rnd.intermediate) != n or len(rnd.opened_perm) != n:
            return False
        if len(rnd.opened_rands) != n:
            return False
        if sorted(rnd.opened_perm) != list(range(n)):
            return False
        source = inputs if bit == 0 else rnd.intermediate
        target = rnd.intermediate if bit == 0 else outputs
        for i in range(n):
            src = source[rnd.opened_perm[i]]
            if len(rnd.opened_rands[i]) != len(src.parts) or len(
                target[i].parts
            ) != len(src.parts):
                return False
        if batched:
            flat_sources, flat_targets, flat_rands = [], [], []
            for i in range(n):
                flat_sources.extend(source[rnd.opened_perm[i]].parts)
                flat_targets.extend(target[i].parts)
                flat_rands.extend(rnd.opened_rands[i])
            if not batch_rerand_check(
                group, public_key, flat_sources, flat_targets, flat_rands, weight_rng
            ):
                return False
            continue
        for i in range(n):
            src = source[rnd.opened_perm[i]]
            if any(p.Y is not None for p in src.parts):
                return False
            try:
                expect = rerandomize_vector(
                    scheme, public_key, src, randomness=rnd.opened_rands[i]
                )
            except ValueError:
                return False
            if expect != target[i]:
                return False
    return True
