"""``EncProof`` and ``ReEncProof`` NIZKs (paper §2.3 and Appendix A).

``EncProof`` is a Schnorr proof of knowledge of the encryption
randomness ``r`` with ``R = g^r``, bound (via the Fiat-Shamir hash) to
the ciphertext, the group public key, and the entry-group id.  This is
what stops a malicious user from (a) submitting a rerandomized copy of
an honest user's ciphertext — she would need to know the combined
randomness — and (b) replaying an exact (ciphertext, proof) pair to a
*different* entry group, because the gid is hashed into the challenge.

``ReEncProof`` proves one server *step* of the NIZK variant (Algorithm
2, step 3a): the server's ``ReEnc(x, X'_k, ·)`` of every ciphertext
part its group holds, against its registered key ``X_s = g^x``.  Part
``i`` — ``R~_i``, ``Y~_i`` after the ``Y = ⊥`` normalization, ``X'_k``
its batch's successor key — is correct iff

    R'_i / R~_i  = g^r'_i
    c_i  / c'_i  = Y~_i^x · X'_k^(-r'_i)

and on the final layer (``X' = ⊥``) iff ``R'_i = R~_i`` (checked
exactly) and ``c_i / c'_i = Y~_i^x``.  Odd 128-bit coefficients
``e_i``, hashed from the whole step, collapse the parts into one
Chaum-Pedersen statement with witness ``(x, r*_k = Σ_{i∈k} e_i r'_i)``:

    X_s                         = g^x
    prod_{i∈k} (R'_i/R~_i)^e_i  = g^r*_k                  for each key k
    prod_i (c_i/c'_i)^e_i       = (prod_i Y~_i^e_i)^x · prod_k X'_k^(-r*_k)

proved once per step and checked by the other members as one folded
identity (DESIGN.md, "ReEnc proofs per server step").
:class:`ReEncryptor` proves and verifies steps;
``prove_reencryption`` / ``verify_reencryption`` are the one-part step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import sigma
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.fastexp import WEIGHT_BITS, batch_weights
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement
from repro.crypto.sigma import SigmaProof


@dataclass(frozen=True)
class EncProof:
    """Proof of plaintext knowledge for a fresh Atom ciphertext."""

    proof: SigmaProof

    @property
    def size_bytes(self) -> int:
        return self.proof.size_bytes


def prove_encryption(
    group: Group,
    ciphertext: AtomCiphertext,
    randomness: int,
    public_key: GroupElement,
    gid: int,
) -> EncProof:
    """Generate the ``EncProof`` NIZK for ``(c, pi) <- EncProof(pk, m)``.

    The statement binds the full ciphertext, the group key, and the
    entry-group id ``gid``.
    """
    rows = [(ciphertext.R, [group.g])]
    context = _enc_context(ciphertext, public_key, gid)
    return EncProof(sigma.prove(group, rows, [randomness], context))


def verify_encryption(
    group: Group,
    ciphertext: AtomCiphertext,
    proof: EncProof,
    public_key: GroupElement,
    gid: int,
) -> bool:
    """Verify an ``EncProof`` (all servers of the entry group run this).

    ``R`` must lie in the prime-order subgroup: on a Schnorr group
    ``R·(p-1)`` satisfies ``R'^e = R^e`` for every even challenge ``e``,
    so a prover who grinds its nonce would pass with an ``R`` whose
    ``r`` nobody knows."""
    if ciphertext.Y is not None or not group.is_prime_order(ciphertext.R):
        return False
    rows = [(ciphertext.R, [group.g])]
    context = _enc_context(ciphertext, public_key, gid)
    return sigma.verify(group, rows, proof.proof, context)


def _enc_context(ct: AtomCiphertext, public_key: GroupElement, gid: int) -> bytes:
    return b"repro.encproof.v1|" + ct.to_bytes() + public_key.to_bytes() + gid.to_bytes(8, "big")


#: one server's turn over its group's holding: per outgoing batch, the
#: successor group's key (``None`` on the final layer) and the batch's
#: ciphertext parts
ReEncStep = Sequence[Tuple[Optional[GroupElement], Sequence[AtomCiphertext]]]


@dataclass(frozen=True)
class ReEncProof:
    """The proof of one server step: commitments ``g^a``, ``g^b_k`` per
    distinct successor key and ``prod_i Y~_i^(a e_i) · prod_k
    X'_k^(-b_k)``; responses ``z_x`` and ``z_k`` per key."""

    proof: SigmaProof

    @property
    def size_bytes(self) -> int:
        return self.proof.size_bytes


class _Step:
    """A step's parts in batch, then part order, as ``(slot, Y~, R~,
    input, output)`` — ``slot`` indexes ``keys``, the distinct
    successor keys (``None`` on the final layer), ``Y~``/``R~`` are
    normalized the way ``reencrypt`` does (``Y = ⊥`` makes ``R`` the
    ``Y``) — and their coefficients ``e_i``, hashed from the transcript:
    the server key, every successor key, every input and output part.

    Raises ``ValueError`` when the outputs are not shaped like the step
    or one keeps the wrong ``Y`` (or, on the final layer, the wrong
    ``R``): no proof makes such an output a ReEnc of its input.
    """

    def __init__(self, group: Group, server_public: GroupElement, step: ReEncStep,
                 after: Sequence[Sequence[AtomCiphertext]]):
        if len(step) != len(after):
            raise ValueError("outputs are not shaped like the step")
        transcript = hashlib.sha3_256()

        def absorb(data: bytes) -> None:
            transcript.update(len(data).to_bytes(8, "big") + data)

        absorb(b"repro.reencproof.v2|" + group.params.name.encode())
        absorb(server_public.to_bytes())
        self.keys: List[GroupElement] = []
        self.parts: List[tuple] = []
        for (key, inputs), outs in zip(step, after):
            if len(inputs) != len(outs):
                raise ValueError("outputs are not shaped like the step")
            absorb(b"\x00" if key is None else key.to_bytes())
            absorb(len(inputs).to_bytes(8, "big"))
            if key is not None and key not in self.keys:
                self.keys.append(key)
            slot = None if key is None else self.keys.index(key)
            for before, out in zip(inputs, outs):
                y, r = (before.R, group.identity) if before.Y is None else (before.Y, before.R)
                if out.Y != y or (key is None and out.R != r):
                    raise ValueError("output is not a ReEnc of its input")
                absorb(before.to_bytes())
                absorb(out.to_bytes())
                self.parts.append((slot, y, r, before, out))
        self.digest = transcript.digest()
        # odd, WEIGHT_BITS long (shorter on a group shorter than that)
        width = WEIGHT_BITS // 8
        drop = WEIGHT_BITS - min(WEIGHT_BITS, group.q.bit_length() - 1)
        stream = hashlib.shake_256(self.digest).digest(width * len(self.parts))
        self.coefficients = [
            int.from_bytes(stream[at: at + width], "big") >> drop | 1
            for at in range(0, len(stream), width)
        ]

    def challenge(self, group: Group, commitments: Sequence[GroupElement]) -> int:
        return group.hash_to_scalar(self.digest, *(t.to_bytes() for t in commitments))


def _add(exponents: Dict[GroupElement, int], base: GroupElement, e: int, q: int) -> None:
    if not base.is_identity():
        exponents[base] = (exponents.get(base, 0) + e) % q


def _prove(group: Group, secret: int, server_public: GroupElement, step: _Step,
           rands: Sequence[Optional[int]]) -> ReEncProof:
    """The proof of ``step``, whose parts were re-encrypted with ``r'``
    = ``rands`` (``None`` on the final layer): one Straus chain over the
    ``Y~_i`` (and a key without a comb table), the rest fixed-base."""
    q = group.q
    a = group.random_scalar()
    b = [group.random_scalar() for _ in step.keys]
    r_star = [0] * len(step.keys)
    t_c: Dict[GroupElement, int] = {}
    for (slot, y, _, _, _), e, r in zip(step.parts, step.coefficients, rands):
        _add(t_c, y, a * e, q)
        if slot is not None:
            r_star[slot] += e * r
    for key, b_k in zip(step.keys, b):
        _add(t_c, key, -b_k, q)
    commitments = [group.g_pow(a), *map(group.g_pow, b), sigma.product(group, t_c)]
    c = step.challenge(group, commitments)
    responses = ((a + c * secret) % q, *((b_k + c * r) % q for b_k, r in zip(b, r_star)))
    return ReEncProof(SigmaProof(tuple(t.value for t in commitments), c, responses))


def _rows(group, server_public, step, after, proof) -> Optional[List[Dict]]:
    """The statement's rows, each as the exponents of a product that
    must be the identity — ``X_s``, then one ``R'/R~`` row per key,
    then the ``c/c'`` row — or ``None`` when the proof does not fit the
    step, its challenge is not the hash, or a base lies outside the
    prime-order subgroup.  A row reads ``t · P^c · prod B^-z``, so that
    a commitment's exponent stays as short as its verifier weight."""
    try:
        st = _Step(group, server_public, step, after)
        commitments = [group.element(t) for t in proof.proof.commitments]
    except ValueError:
        return None
    keys = len(st.keys)
    if len(commitments) != keys + 2 or len(proof.proof.responses) != keys + 1:
        return None
    if st.challenge(group, commitments) != proof.proof.challenge:
        return None
    q, c = group.q, proof.proof.challenge
    (t_x, *t_keys, t_c), (z_x, *z_keys) = commitments, proof.proof.responses
    rows: List[Dict] = [{} for _ in range(keys + 2)]
    x_row, *r_rows, c_row = rows
    for row, z, t in zip(rows, (z_x, *z_keys), (t_x, *t_keys)):
        _add(row, t, 1, q)
        _add(row, group.g, -z, q)
    _add(x_row, server_public, c, q)
    for key, z in zip(st.keys, z_keys):
        _add(c_row, key, z, q)
    _add(c_row, t_c, 1, q)
    for (slot, y, r, before, out), e in zip(st.parts, st.coefficients):
        _add(c_row, y, -z_x * e, q)
        _add(c_row, before.c / out.c, c * e, q)
        if slot is not None:
            _add(r_rows[slot], out.R / r, c * e, q)
    # Coefficients and weights bind only in the prime-order subgroup:
    # two c/c' carrying the order-2 factor cancel under odd e_i.
    if not all(map(group.is_prime_order, {base for row in rows for base in row})):
        return None
    return rows


def _verify(group, server_public, step, after, proof, weight_rng=None) -> bool:
    """The rows folded under independent verifier weights into one
    product that must be the identity: one Straus chain."""
    rows = _rows(group, server_public, step, after, proof)
    if rows is None:
        return False
    folded: Dict[GroupElement, int] = {}
    for row, w in zip(rows, batch_weights(len(rows), group.q, weight_rng)):
        for base, e in row.items():
            _add(folded, base, w * e, group.q)
    return sigma.product(group, folded).is_identity()


def verify_step_exactly(group: Group, server_public: GroupElement, step: ReEncStep,
                        after: Sequence[Sequence[AtomCiphertext]], proof: ReEncProof) -> bool:
    """The reference for :meth:`ReEncryptor.verify_batch`: the same
    checks, then every row on its own, without weights."""
    rows = _rows(group, server_public, step, after, proof)
    return rows is not None and all(sigma.product(group, row).is_identity() for row in rows)


def prove_reencryption(
    group: Group,
    secret: int,
    randomness: Optional[int],
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
    server_public: Optional[GroupElement] = None,
) -> ReEncProof:
    """Prove that ``after == ReEnc(secret, next_public_key, before)``:
    the proof of a one-part step.

    ``randomness`` is the ``r'`` used (``None`` for the final layer);
    ``server_public`` is ``g^secret`` when the caller already has it.
    """
    if server_public is None:
        server_public = group.g_pow(secret)
    step = _Step(group, server_public, [(next_public_key, [before])], [[after]])
    return _prove(group, secret, server_public, step, [randomness])


def verify_reencryption(
    group: Group,
    server_public: GroupElement,
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
    proof: ReEncProof,
) -> bool:
    """Verify a one-part step's ``ReEncProof`` against the server's
    registered key."""
    return _verify(group, server_public, [(next_public_key, [before])], [[after]], proof)


class ReEncryptor:
    """The server-step kernels of the NIZK variant (Algorithm 2, step
    3a): ``(B'_i, pi) = ReEncProof(sk_s, pk_i, B_i)`` for every batch
    ``i`` of a step under one proof, and the other members' check of
    it.
    """

    def __init__(self, group: Group):
        self.group = group
        self.scheme = AtomElGamal(group)

    def reencrypt_and_prove(
        self,
        secret: int,
        step: ReEncStep,
        rng: Optional[DeterministicRng] = None,
    ) -> Tuple[List[List[AtomCiphertext]], ReEncProof]:
        """ReEnc every part of ``step`` and prove the step; the outputs
        are shaped like the step's batches.  ``r'`` is drawn from
        ``rng`` in batch, then part order; the proof's nonces come from
        ``secrets``, never from ``rng``."""
        group = self.group
        outputs, rands = [], []
        for next_key, parts in step:
            drawn = [None if next_key is None else group.random_scalar(rng) for _ in parts]
            outputs.append(self.scheme.reencrypt_many(secret, next_key, parts, randomness=drawn))
            rands.extend(drawn)
        server_public = group.g_pow(secret)
        statement = _Step(group, server_public, step, outputs)
        return outputs, _prove(group, secret, server_public, statement, rands)

    def verify_batch(
        self,
        server_public: GroupElement,
        step: ReEncStep,
        after: Sequence[Sequence[AtomCiphertext]],
        proof: ReEncProof,
        weight_rng: Optional[DeterministicRng] = None,
    ) -> bool:
        """Whether ``proof`` shows ``after`` to be the server's ReEnc
        of ``step`` (the batches' keys may differ): one folded identity
        under verifier weights from ``secrets`` (or ``weight_rng``)."""
        return _verify(self.group, server_public, step, after, proof, weight_rng)
