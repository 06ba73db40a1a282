"""Generalized Schnorr sigma protocols with Fiat-Shamir.

Atom needs several NIZK proofs of knowledge over discrete-log relations
(Appendix A): proof of plaintext knowledge (``EncProof``) and the
share-consistency proofs inside DVSS are instances of one pattern:

    prove knowledge of a witness vector (w_1, ..., w_k) such that for
    every statement j:   P_j  =  prod_i  B_{j,i} ^ w_i

(an "AND of linear discrete-log relations").  This module implements
that pattern once — commitment, Fiat-Shamir challenge with domain
separation and statement binding, response, verification — and the
concrete NIZKs are thin wrappers.

Non-malleability: the challenge hashes the full statement (all bases,
all targets) plus a caller-supplied context string (e.g. the entry-group
id), so a proof cannot be replayed for a different statement or group,
matching the paper's requirement that "the same proof cannot be used
for two different public keys".

:func:`product` is the fold helper of batched verifiers (the per-step
``ReEncProof`` in :mod:`repro.crypto.nizk`): one product over distinct
bases, computed in one Straus chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.crypto.groups import GroupBackend as Group, GroupElement


# A statement row: (target P_j, bases [B_j1 ... B_jk]).  A witness that
# does not appear in a row (exponent fixed to 0) gets the group
# identity as its base there.
StatementRow = Tuple[GroupElement, Sequence[GroupElement]]


@dataclass(frozen=True)
class SigmaProof:
    """A Fiat-Shamir transformed sigma-protocol transcript."""

    commitments: Tuple[int, ...]  # t_j values (group element ints)
    challenge: int
    responses: Tuple[int, ...]  # z_i values (scalars)

    @property
    def size_bytes(self) -> int:
        """Approximate wire size (for the simulator's byte accounting)."""
        return 32 * (len(self.commitments) + 1 + len(self.responses))


def _challenge(
    group: Group,
    rows: Sequence[StatementRow],
    commitments: Sequence[GroupElement],
    context: bytes,
) -> int:
    parts: List[bytes] = [b"repro.sigma.v1", context]
    for target, bases in rows:
        parts.append(target.to_bytes())
        for base in bases:
            parts.append(base.to_bytes())
    for t in commitments:
        parts.append(t.to_bytes())
    return group.hash_to_scalar(*parts)


def prove(
    group: Group,
    rows: Sequence[StatementRow],
    witness: Sequence[int],
    context: bytes = b"",
) -> SigmaProof:
    """Prove knowledge of ``witness`` satisfying every statement row.

    Rows must be consistent: each row's base list has one entry per
    witness component.
    """
    num_witness = len(witness)
    for _, bases in rows:
        if len(bases) != num_witness:
            raise ValueError("statement row arity does not match witness length")

    nonces = [group.random_scalar() for _ in range(num_witness)]
    commitments = []
    for _, bases in rows:
        t = group.identity
        for base, nonce in zip(bases, nonces):
            # ``**`` is cache-aware: bases with fixed-base tables (g,
            # promoted keys) use them; one-shot bases must NOT feed the
            # promotion counter — a table built for a base with two
            # uses left is a net slowdown plus LRU churn.
            t = t * (base ** nonce)
        commitments.append(t)

    e = _challenge(group, rows, commitments, context)
    responses = tuple(
        (nonce + e * w) % group.q for nonce, w in zip(nonces, witness)
    )
    return SigmaProof(
        commitments=tuple(t.value for t in commitments),
        challenge=e,
        responses=responses,
    )


def verify(
    group: Group,
    rows: Sequence[StatementRow],
    proof: SigmaProof,
    context: bytes = b"",
) -> bool:
    """Verify a :class:`SigmaProof` against the statement rows, row by
    row and exactly."""
    if len(proof.commitments) != len(rows):
        return False
    if any(len(bases) != len(proof.responses) for _, bases in rows):
        return False
    try:
        commitments = [group.element(t) for t in proof.commitments]
    except ValueError:
        return False
    if _challenge(group, rows, commitments, context) != proof.challenge:
        return False
    for (target, bases), t in zip(rows, commitments):
        lhs = group.identity
        for base, z in zip(bases, proof.responses):
            lhs = lhs * (base ** z)  # cache-aware, no promotion
        if lhs != t * (target ** proof.challenge):
            return False
    return True


def product(group: Group, exponents: Dict[GroupElement, int]) -> GroupElement:
    """``prod base^e`` over distinct bases: a base with a comb table
    through it, the rest through one Straus chain (one base alone
    through the variable-base routine, which is cheaper for one).

    Batched verifiers sum the exponents of every recurring element
    first and test the result against the identity: a false equation
    survives a fold under independent 128-bit weights with probability
    at most ``2^-127``, provided every base lies in the prime-order
    subgroup — an order-2 factor cancels under an even exponent, so
    callers gate each base with ``group.is_prime_order``.
    """
    result = group.identity
    loose = []
    for base, e in exponents.items():
        if group.has_table(base):
            result = result * base ** e
        else:
            loose.append(base)
    if len(loose) == 1:
        result = result * loose[0] ** exponents[loose[0]]
    elif loose:
        result = result * group.multiexp(loose, [exponents[b] for b in loose])
    return result
