"""``EncProof`` and ``ReEncProof`` NIZKs (paper §2.3 and Appendix A).

``EncProof`` is a Schnorr proof of knowledge of the encryption
randomness ``r`` with ``R = g^r``, bound (via the Fiat-Shamir hash) to
the ciphertext, the group public key, and the entry-group id.  This is
what stops a malicious user from (a) submitting a rerandomized copy of
an honest user's ciphertext — she would need to know the combined
randomness — and (b) replaying an exact (ciphertext, proof) pair to a
*different* entry group, because the gid is hashed into the challenge.

``ReEncProof`` is the Chaum-Pedersen generalization proving that a
server's ``ReEnc(x, X', ·)`` output is correct with respect to its
registered public key ``X_s = g^x``: knowledge of ``(x, r')`` with

    X_s      = g^x
    R' / R~  = g^r'            (R~ is R after the Y=⊥ normalization)
    c / c'   = Y^x · X'^(-r')

For the final-layer case (``X' = ⊥``) the third row degenerates to the
classic Chaum-Pedersen equality ``c / c' = Y^x`` and ``r'`` is absent.

:class:`ReEncryptor` is the server-step form: one server's ReEnc of
everything its group holds, proved per part and verified as one
identity (``sigma.verify_many``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto import sigma
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
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
    """Verify an ``EncProof`` (all servers of the entry group run this)."""
    if ciphertext.Y is not None:
        return False
    rows = [(ciphertext.R, [group.g])]
    context = _enc_context(ciphertext, public_key, gid)
    return sigma.verify(group, rows, proof.proof, context)


def _enc_context(ct: AtomCiphertext, public_key: GroupElement, gid: int) -> bytes:
    return b"repro.encproof.v1|" + ct.to_bytes() + public_key.to_bytes() + gid.to_bytes(8, "big")


@dataclass(frozen=True)
class ReEncProof:
    """Proof of correct out-of-order decrypt-and-reencrypt."""

    proof: SigmaProof
    final_layer: bool

    @property
    def size_bytes(self) -> int:
        return self.proof.size_bytes + 1


def _reenc_rows(
    group: Group,
    server_public: GroupElement,
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
) -> Tuple[list, bool]:
    """Build the sigma-protocol statement rows for ReEnc correctness."""
    # Normalize the input exactly the way `reencrypt` does.
    if before.Y is None:
        y_eff = before.R
        r_eff = group.identity
    else:
        y_eff = before.Y
        r_eff = before.R
    if after.Y != y_eff:
        raise ValueError("output Y does not match normalized input")

    if next_public_key is None:
        # Final layer: c' = c / Y^x  and  R' = R~.
        if after.R != r_eff:
            raise ValueError("final-layer ReEnc must not touch R")
        rows = [
            (server_public, [group.g]),
            (before.c / after.c, [y_eff]),
        ]
        return rows, True

    rows = [
        (server_public, [group.g, group.identity]),
        (after.R / r_eff, [group.identity, group.g]),
        # X'^-r' is computed as X' ** -r': X' has a comb table
        (before.c / after.c, [y_eff, sigma.InverseOf(next_public_key)]),
    ]
    return rows, False


def prove_reencryption(
    group: Group,
    secret: int,
    randomness: Optional[int],
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
    server_public: Optional[GroupElement] = None,
) -> ReEncProof:
    """Prove that ``after == ReEnc(secret, next_public_key, before)``.

    ``randomness`` is the ``r'`` used (``None`` for the final layer);
    ``server_public`` is ``g^secret`` when the caller already has it.
    """
    if server_public is None:
        server_public = group.g_pow(secret)
    rows, final = _reenc_rows(group, server_public, next_public_key, before, after)
    witness = [secret] if final else [secret, randomness]
    context = _reenc_context(before, after, next_public_key)
    return ReEncProof(sigma.prove(group, rows, witness, context), final)


def _reenc_statement(
    group: Group,
    server_public: GroupElement,
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
    proof: ReEncProof,
):
    """``(rows, sigma proof, context)`` to verify, or ``None`` when
    ``after`` cannot be a ReEnc of ``before`` at this layer."""
    try:
        rows, final = _reenc_rows(group, server_public, next_public_key, before, after)
    except ValueError:
        return None
    if final != proof.final_layer:
        return None
    return rows, proof.proof, _reenc_context(before, after, next_public_key)


def verify_reencryption(
    group: Group,
    server_public: GroupElement,
    next_public_key: Optional[GroupElement],
    before: AtomCiphertext,
    after: AtomCiphertext,
    proof: ReEncProof,
) -> bool:
    """Verify a ``ReEncProof`` against the server's registered key."""
    statement = _reenc_statement(
        group, server_public, next_public_key, before, after, proof
    )
    return statement is not None and sigma.verify(group, *statement)


def _reenc_context(
    before: AtomCiphertext,
    after: AtomCiphertext,
    next_public_key: Optional[GroupElement],
) -> bytes:
    next_bytes = next_public_key.to_bytes() if next_public_key is not None else b"\x00"
    return b"repro.reencproof.v1|" + before.to_bytes() + after.to_bytes() + next_bytes


#: one server's turn over its group's holding: per outgoing batch, the
#: successor group's key (``None`` on the final layer) and the batch's
#: ciphertext parts
ReEncStep = Sequence[Tuple[Optional[GroupElement], Sequence[AtomCiphertext]]]


class ReEncryptor:
    """The server-step kernels of the NIZK variant (Algorithm 2, step
    3a): ``(B'_i, pi_i) = ReEncProof(sk_s, pk_i, B_i)`` for every batch
    ``i`` of a step at once, and the other members' check of all of it.
    """

    def __init__(self, group: Group):
        self.group = group
        self.scheme = AtomElGamal(group)

    def reencrypt_and_prove(
        self,
        secret: int,
        step: ReEncStep,
        rng: Optional[DeterministicRng] = None,
    ) -> Tuple[List[List[AtomCiphertext]], List[List[ReEncProof]]]:
        """ReEnc every part of ``step`` and prove each; outputs and
        proofs are shaped like the step's batches.  ``r'`` is drawn
        from ``rng`` in batch, then part order."""
        group = self.group
        server_public = group.g_pow(secret)
        outputs, proofs = [], []
        for next_key, parts in step:
            if next_key is None:
                rands = [None] * len(parts)
            else:
                rands = [group.random_scalar(rng) for _ in parts]
            after = self.scheme.reencrypt_many(secret, next_key, parts, randomness=rands)
            outputs.append(after)
            proofs.append([
                prove_reencryption(group, secret, r, next_key, b, a, server_public)
                for r, b, a in zip(rands, parts, after)
            ])
        return outputs, proofs

    def verify_batch(
        self,
        server_public: GroupElement,
        step: ReEncStep,
        after: Sequence[Sequence[AtomCiphertext]],
        proofs: Sequence[Sequence[ReEncProof]],
        weight_rng: Optional[DeterministicRng] = None,
    ) -> bool:
        """Whether every proof of a step verifies, as one folded
        identity over the whole step (the batches' keys may differ)."""
        if not len(step) == len(after) == len(proofs):
            return False
        statements = []
        for (next_key, before), outs, batch_proofs in zip(step, after, proofs):
            if not len(before) == len(outs) == len(batch_proofs):
                return False
            for b, a, proof in zip(before, outs, batch_proofs):
                statement = _reenc_statement(
                    self.group, server_public, next_key, b, a, proof
                )
                if statement is None:
                    return False
                statements.append(statement)
        return sigma.verify_many(self.group, statements, weight_rng)
