"""Generalized Schnorr sigma protocols with Fiat-Shamir.

Atom needs several NIZK proofs of knowledge over discrete-log relations
(Appendix A): proof of plaintext knowledge (``EncProof``), proof of
correct decrypt-and-reencrypt (``ReEncProof``, a Chaum-Pedersen
generalization), and the share-consistency proofs inside DVSS.  All of
them are instances of one pattern:

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

:func:`verify_many` checks a list of proofs as one weighted identity
(DESIGN.md, "Batched sigma verification"); :func:`verify` stays the
exact per-row check it is equivalent to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.fastexp import batch_weights
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement


@dataclass(frozen=True)
class InverseOf:
    """The statement base ``X^-1``, kept as ``X``.

    It hashes as the inverse's bytes — the statement is unchanged —
    but is exponentiated as ``X ** -scalar``, so a hot ``X`` (a group
    public key) uses its fixed-base table instead of sending a freshly
    inverted element through the variable-base routine.
    """

    element: GroupElement

    def to_bytes(self) -> bytes:
        return self.element.inverse().to_bytes()

    def __pow__(self, exponent: int) -> GroupElement:
        return self.element ** -exponent


# A statement row: (target P_j, bases [B_j1 ... B_jk]).  A witness that
# does not appear in a row (exponent fixed to 0) gets the group
# identity as its base there.
StatementRow = Tuple[GroupElement, Sequence[Union[GroupElement, InverseOf]]]


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
            # promoted keys) use them; per-ciphertext bases like the
            # re-encryption statement's Y must NOT feed the promotion
            # counter — a table built for a base with two uses left is
            # a net slowdown plus LRU churn.
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


def _checked_commitments(
    group: Group, rows: Sequence[StatementRow], proof: SigmaProof, context: bytes
) -> Optional[List[GroupElement]]:
    """The proof's commitments as elements, or ``None`` when the proof
    does not fit the statement or its challenge is not the hash."""
    if len(proof.commitments) != len(rows):
        return None
    if any(len(bases) != len(proof.responses) for _, bases in rows):
        return None
    try:
        commitments = [group.element(t) for t in proof.commitments]
    except ValueError:
        return None
    if _challenge(group, rows, commitments, context) != proof.challenge:
        return None
    return commitments


def _rows_hold(
    group: Group,
    rows: Sequence[StatementRow],
    commitments: Sequence[GroupElement],
    proof: SigmaProof,
) -> bool:
    """Every row's verification equation, exactly."""
    for (target, bases), t in zip(rows, commitments):
        lhs = group.identity
        for base, z in zip(bases, proof.responses):
            lhs = lhs * (base ** z)  # cache-aware, no promotion
        if lhs != t * (target ** proof.challenge):
            return False
    return True


def verify(
    group: Group,
    rows: Sequence[StatementRow],
    proof: SigmaProof,
    context: bytes = b"",
) -> bool:
    """Verify a :class:`SigmaProof` against the statement rows."""
    commitments = _checked_commitments(group, rows, proof, context)
    return commitments is not None and _rows_hold(group, rows, commitments, proof)


def verify_many(
    group: Group,
    statements: Sequence[Tuple[Sequence[StatementRow], SigmaProof, bytes]],
    weight_rng: Optional[DeterministicRng] = None,
) -> bool:
    """``all(verify(group, rows, proof, context) for ...)`` as one
    identity over the whole list (a false row survives with probability
    at most ``2^-127``).

    Row ``j`` of a proof holds iff ``prod_i B_ji^z_i == t_j * P_j^e``.
    Each row is raised to its own random weight and all of them are
    multiplied together, with the exponents of every distinct element
    summed first: a base shared by the list (``g``, a server key, a
    group key) costs one exponentiation however many proofs name it —
    through its comb table when it has one — and everything else goes
    through one multi-exponentiation per side.
    """
    lhs: Dict[GroupElement, int] = {}
    rhs: Dict[GroupElement, int] = {}
    #: membership verdicts: g and the keys recur in every proof
    prime_order: Dict[GroupElement, bool] = {}

    def add(side, other, base, exponent):
        if isinstance(base, InverseOf):  # X^-1 ^ e on one side is X ^ e on the other
            side, base = other, base.element
        if not base.is_identity():
            side[base] = side.get(base, 0) + exponent

    def in_subgroup(base) -> bool:
        if isinstance(base, InverseOf):
            base = base.element
        if base not in prime_order:
            prime_order[base] = group.is_prime_order(base)
        return prime_order[base]

    for rows, proof, context in statements:
        commitments = _checked_commitments(group, rows, proof, context)
        if commitments is None:
            return False
        if not all(
            in_subgroup(point)
            for (target, bases), t in zip(rows, commitments)
            for point in (t, target, *bases)
        ):
            # The weights only bind in the prime-order subgroup (an
            # order-2 factor cancels under an even weight): settle a
            # statement with a stray element exactly.
            if not _rows_hold(group, rows, commitments, proof):
                return False
            continue
        weights = batch_weights(len(rows), group.q, weight_rng)
        for (target, bases), t, w in zip(rows, commitments, weights):
            for base, z in zip(bases, proof.responses):
                add(lhs, rhs, base, w * z)
            add(rhs, lhs, t, w)
            add(rhs, lhs, target, w * proof.challenge)
    return _product(group, lhs) == _product(group, rhs)


def _product(group: Group, exponents: Dict[GroupElement, int]) -> GroupElement:
    """``prod base^e``: bases with a table through it, the rest through
    one multi-exponentiation."""
    result = group.identity
    loose = []
    for base, e in exponents.items():
        if group.has_table(base):
            result = result * base ** e
        else:
            loose.append(base)
    if loose:
        result = result * group.multiexp(loose, [exponents[b] for b in loose])
    return result
