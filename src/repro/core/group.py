"""The Atom group protocols: Algorithm 1 and Algorithm 2.

A :class:`GroupContext` is one anytrust (or many-trust) group for one
protocol round.  It owns the group's per-round mixing key:

- **anytrust** mode: every member generates a fresh keypair; the group
  public key is the product of member keys, and *all* members must
  participate (one honest member suffices for security, one failed
  member stalls the group — §4.5's motivation).
- **manytrust** mode: the key comes from DVSS with threshold
  ``t = k - (h - 1)``; any ``t`` live members can mix, because each
  uses its Lagrange-weighted share as its effective secret.

``mix_batch`` implements one mixing iteration (Algorithm 1) over a
:class:`~repro.core.batch.CiphertextBatch`: shuffle (every participant
in order) → divide into ``beta`` batches → decrypt-and-reencrypt each
batch toward its successor group (every participant in order), the
last participant dropping ``Y`` before the batches leave the group.
``mix`` is the same iteration over vector objects, kept as the
reference the batch kernel is tested against.

``mix_with_reenc_proofs`` implements Algorithm 2: every shuffle
carries a vector ShufProof and every server's ReEnc step one
ReEncProof; all are checked by the other group members, and any
failure raises :class:`ProtocolAbort` naming the culprit.

Active-adversary hooks: participants with a non-honest
:class:`~repro.core.server.Behavior` tamper with a shuffle or with the
outgoing batches (replace / duplicate / drop a ciphertext).  Under
Algorithm 2 this is caught immediately; under the trap variant it is
caught by the trap checks with probability 1/2 per tampering (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.server import AtomServer, Behavior
from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, Group, GroupElement
from repro.crypto.nizk import ReEncryptor
from repro.crypto.secret_sharing import DvssProtocol
from repro.crypto.threshold import ThresholdElGamal
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    cut_like,
    prove_vector_shuffle,
    random_permutation,
    reencrypt_vector,
    shuffle_vectors,
    verify_vector_shuffle,
)
from repro.topology.base import route_batches


#: ciphertext parts one ``mix_batch`` kernel call works on: large enough
#: to amortize the shared inversions, small enough that the decoded
#: objects stay a constant on top of the two working buffers
MIX_CHUNK_PARTS = 256


class ProtocolAbort(RuntimeError):
    """Algorithm 2 detected a deviating server; the round aborts."""

    def __init__(self, gid: int, culprit: int, stage: str):
        self.gid = gid
        self.culprit = culprit
        self.stage = stage
        super().__init__(
            f"group {gid}: server {culprit} failed verification during {stage}"
        )


class GroupStalled(RuntimeError):
    """An anytrust group lost a member (or a many-trust group lost more
    than h-1) and cannot make progress without recovery (§4.5)."""

    def __init__(self, gid: int, alive: int, needed: int):
        self.gid = gid
        self.alive = alive
        self.needed = needed
        super().__init__(f"group {gid}: {alive} members alive, {needed} needed")


@dataclass
class MixAudit:
    """What happened during one mixing iteration (for tests/metrics)."""

    gid: int
    shuffles_proved: int = 0
    shuffles_verified: int = 0
    reencs_proved: int = 0
    reencs_verified: int = 0
    tamperings: List[Tuple[int, str]] = field(default_factory=list)
    bytes_sent: int = 0
    #: the last participant's shuffle-proof NIZK (verified variants
    #: only) — the evidence a group attaches to its mix-layer hand-off
    #: envelope so neighbours/auditors can re-check (Algorithm 2, 3b)
    final_shuffle_proof: Optional["VectorShuffleProof"] = None


class GroupContext:
    """One (any|many)-trust group for one protocol round."""

    def __init__(
        self,
        gid: int,
        servers: Sequence[AtomServer],
        group: Group,
        mode: str = "anytrust",
        h: int = 1,
        rng: Optional[DeterministicRng] = None,
        *,
        nizk_rounds: int,
    ):
        if mode not in ("anytrust", "manytrust"):
            raise ValueError(f"unknown group mode {mode!r}")
        if mode == "manytrust" and h < 1:
            raise ValueError("h must be >= 1")
        if mode == "anytrust" and h != 1:
            raise ValueError("anytrust groups have h = 1")
        self.gid = gid
        self.servers = list(servers)
        self.group = group
        self.scheme = AtomElGamal(group)
        self.mode = mode
        self.h = h
        self.nizk_rounds = nizk_rounds
        self.k = len(self.servers)
        #: optional builder of valid attacker payloads (set by the
        #: deployment in trap-variant rounds; see ``_forge_vector``)
        self.forge_payload_fn = None

        if mode == "anytrust":
            self.threshold = self.k
            self.member_keys = [ElGamalKeyPair.generate(group, rng) for _ in self.servers]
            self.public_key = self.scheme.combine_public_keys(
                [kp.public for kp in self.member_keys]
            )
            self._threshold_scheme = None
        else:
            self.threshold = self.k - (h - 1)
            dvss = DvssProtocol(group, self.k, self.threshold).run(rng)
            self._threshold_scheme = ThresholdElGamal(group, dvss)
            self.public_key = self._threshold_scheme.public_key
            self.member_keys = None

    # -- membership -----------------------------------------------------

    def alive_positions(self) -> List[int]:
        return [i for i, s in enumerate(self.servers) if not s.failed]

    def participants(self) -> List[int]:
        """Positions that take part in this iteration.

        Anytrust: all members (any failure stalls).  Many-trust: the
        first ``threshold`` live members.
        """
        alive = self.alive_positions()
        if len(alive) < self.threshold:
            raise GroupStalled(self.gid, len(alive), self.threshold)
        if self.mode == "anytrust":
            return alive  # == all positions
        return alive[: self.threshold]

    def effective_secret(self, position: int, participants: Sequence[int]) -> int:
        """The secret this member uses in ReEnc: its raw per-round key
        (anytrust) or its Lagrange-weighted DVSS share (many-trust)."""
        if self.mode == "anytrust":
            return self.member_keys[position].secret
        return self._threshold_scheme.weighted_secret(position, list(participants))

    def member_public(self, position: int) -> GroupElement:
        """Public image of the member's *mixing* key (anytrust only)."""
        if self.mode != "anytrust":
            raise ValueError("per-member mixing publics exist only in anytrust mode")
        return self.member_keys[position].public

    def reveal_secrets(self) -> List[int]:
        """Blame protocol (§4.6): entry groups reveal their private keys."""
        if self.mode == "anytrust":
            return [kp.secret for kp in self.member_keys]
        return [s.value for s in self._threshold_scheme.dvss.shares]

    # -- the mixing iteration --------------------------------------------

    def mix(
        self,
        vectors: Sequence[CiphertextVector],
        next_keys: Sequence[Optional[GroupElement]],
        rng: Optional[DeterministicRng] = None,
    ) -> Tuple[List[List[CiphertextVector]], MixAudit]:
        """One honest iteration of Algorithm 1 over vector objects.

        The reference :meth:`mix_batch` is checked against byte for
        byte; no deployment path calls it.  ``next_keys[i]`` is the
        public key of the i-th successor group (``None`` for the final
        iteration: plain decryption).  Returns ``beta = len(next_keys)``
        outgoing batches plus an audit record.
        """
        audit = MixAudit(gid=self.gid)
        participants = self.participants()
        beta = len(next_keys)
        if not beta:
            raise ValueError("need at least one successor key")
        if len(vectors) % beta:
            raise ValueError(
                f"group {self.gid}: {len(vectors)} ciphertexts do not divide "
                f"into {beta} batches"
            )

        # Step 1 — Shuffle, each participant in order.
        current = list(vectors)
        for _position in participants:
            current, _, _ = shuffle_vectors(self.scheme, self.public_key, current, rng)

        # Step 2 — Divide.
        batches = route_batches(current, beta)

        # Step 3 — Decrypt and Reencrypt, each participant in order.
        for position in participants:
            secret = self.effective_secret(position, participants)
            batches = [
                [reencrypt_vector(self.scheme, secret, next_key, vec, rng) for vec in batch]
                for batch, next_key in zip(batches, next_keys)
            ]
        if next_keys[0] is not None:
            # Appendix A: the last server sets Y' = ⊥ before forwarding.
            batches = [[vec.with_y_bot() for vec in batch] for batch in batches]

        for batch in batches:
            audit.bytes_sent += sum(v.size_bytes for v in batch)
        return batches, audit

    def mix_batch(
        self,
        batch,
        next_keys: Sequence[Optional[GroupElement]],
        rng: Optional[DeterministicRng] = None,
    ):
        """One iteration of Algorithm 1 over a contiguous
        :class:`~repro.core.batch.CiphertextBatch` buffer.

        Byte-identical to :meth:`mix` for an honest group: every rng
        draw happens in exactly the same order —

        1. per participant: the shuffle permutation, then one scalar
           per ciphertext part in permuted-vector order (what
           ``shuffle_vectors`` draws);
        2. per participant: re-encryption randomness in batch-major
           vector order — and because "Divide" is a *contiguous* split
           (``route_batches``), batch-major order over the split equals
           index order over the whole buffer, so ReEnc streams without
           materializing per-successor lists.

        Between the ``2k`` server steps the parts live in fixed-width,
        uncompressed :class:`~repro.core.batch.PartBuffer` s: only the
        first step reads the wire batch and only the last writes one,
        and every step runs ``MIX_CHUNK_PARTS`` parts at a time through
        the scheme's batch kernels — so peak memory is two buffers plus
        one chunk of objects, never an object graph of the whole round,
        and a curve point pays one square root per call, not one per
        step.  Malicious members tamper through the two adversarial
        hooks below, which draw nothing from ``rng``.
        """
        from repro.core.batch import CiphertextBatch, PartBuffer

        audit = MixAudit(gid=self.gid)
        participants = self.participants()
        beta = len(next_keys)
        if not beta:
            raise ValueError("need at least one successor key")
        if not isinstance(batch, CiphertextBatch):
            batch = CiphertextBatch.from_vectors(self.group, batch)
        n = len(batch)
        if n % beta:
            raise ValueError(
                f"group {self.gid}: {n} ciphertexts do not divide "
                f"into {beta} batches"
            )
        current = batch
        # vectors per kernel call, sized by the first vector (a round's
        # payloads are all padded to one size)
        step = max(1, MIX_CHUNK_PARTS // max(1, batch.parts_count(0))) if n else 1

        # Step 1 — Shuffle, each participant in order.
        for position in participants:
            perm = random_permutation(n, rng)
            rands = [
                self.group.random_scalar(rng)
                for i in perm
                for _ in range(current.parts_count(i))
            ]
            if self._maybe_tamper_shuffle(self.servers[position], n, audit):
                # outputs 0 and 1 trade places, each keeping the
                # randomness drawn for it
                a = current.parts_count(perm[0])
                b = current.parts_count(perm[1])
                rands[: a + b] = rands[a: a + b] + rands[:a]
                perm[0], perm[1] = perm[1], perm[0]
            out = PartBuffer(self.group)
            drawn = 0
            for lo in range(0, n, step):
                parts, counts = current.load(perm[lo: lo + step])
                parts = self.scheme.rerandomize_many(
                    self.public_key, parts, rands[drawn: drawn + len(parts)]
                )
                drawn += len(parts)
                out.store(parts, counts)
            current = out

        # Steps 2+3 — Divide + Decrypt-and-Reencrypt, streamed in index
        # order (vector i belongs to successor batch i // per).
        per = n // beta
        for index, position in enumerate(participants):
            secret = self.effective_secret(position, participants)
            last = index == len(participants) - 1
            # Appendix A: the last server sets Y' = ⊥ before forwarding
            # (fused per part — with_y_bot draws no randomness)
            strip_y = last and next_keys[0] is not None
            out = CiphertextBatch(self.group) if last else PartBuffer(self.group)
            for k, next_key in enumerate(next_keys):
                for lo in range(k * per, (k + 1) * per, step):
                    parts, counts = current.load(
                        range(lo, min(lo + step, (k + 1) * per))
                    )
                    parts = self.scheme.reencrypt_many(secret, next_key, parts, rng)
                    if strip_y:
                        parts = [part.with_y_bot() for part in parts]
                    out.store(parts, counts)
            current = out

        self._maybe_tamper_outgoing(current, per, next_keys[0], audit)
        outgoing = current.split(beta)
        for part in outgoing:
            audit.bytes_sent += part.size_bytes_total()
        return outgoing, audit

    def _shuffle_in_turn(
        self,
        current: List[CiphertextVector],
        participants: Sequence[int],
        audit: MixAudit,
        rng: Optional[DeterministicRng],
    ) -> List[CiphertextVector]:
        """Step 1 of Algorithm 2: each participant shuffles in order,
        and every shuffle carries a vector ShufProof that the other
        members check."""
        for position in participants:
            server = self.servers[position]
            shuffled, perm, rands = shuffle_vectors(
                self.scheme, self.public_key, current, rng
            )
            proof = prove_vector_shuffle(
                self.scheme, self.public_key, current, shuffled, perm, rands,
                rounds=self.nizk_rounds, rng=rng,
            )
            audit.shuffles_proved += 1
            audit.bytes_sent += proof.size_bytes
            if self._maybe_tamper_shuffle(server, len(shuffled), audit):
                shuffled = list(shuffled)
                shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
            # Every other member verifies the (possibly tampered) output.
            ok = verify_vector_shuffle(
                self.scheme, self.public_key, current, shuffled, proof,
                rounds=self.nizk_rounds,
            )
            audit.shuffles_verified += len(participants) - 1
            if not ok:
                raise ProtocolAbort(self.gid, server.server_id, "shuffle")
            audit.final_shuffle_proof = proof
            current = shuffled
        return current

    def mix_with_reenc_proofs(
        self,
        batch,
        next_keys: Sequence[Optional[GroupElement]],
        rng: Optional[DeterministicRng] = None,
    ):
        """Algorithm 2 with explicit per-step ReEnc proofs.

        The fully verified path used by the NIZK variant: every shuffle
        carries a vector ShufProof, and each participant's ReEnc of
        everything the group holds is proved with one aggregated
        Chaum-Pedersen NIZK, which the other members check as one
        identity (:class:`~repro.crypto.nizk.ReEncryptor`); any failure
        raises :class:`ProtocolAbort` naming the culprit.  Takes and
        returns batches like :meth:`mix_batch`; the proofs are built
        over decoded objects, so ``batch`` is decoded once on entry and
        the output encoded once on exit.  The round's ``rng`` is drawn
        exactly as a per-part loop would draw it; proof nonces and
        verifier weights come from ``secrets``.
        """
        from repro.core.batch import CiphertextBatch

        audit = MixAudit(gid=self.gid)
        participants = self.participants()
        beta = len(next_keys)
        vectors = list(batch)
        if len(vectors) % beta:
            raise ValueError("ciphertexts do not divide into batches")

        # Step 1 — verified shuffles.
        current = self._shuffle_in_turn(vectors, participants, audit, rng)

        # Step 2 — divide.
        batches = route_batches(current, beta)

        # Step 3 — proved ReEnc, one kernel call per participant.
        reencryptor = ReEncryptor(self.group)
        for position in participants:
            server = self.servers[position]
            secret = self.effective_secret(position, participants)
            step = [
                (next_key, [part for vec in batch for part in vec.parts])
                for batch, next_key in zip(batches, next_keys)
            ]
            outputs, proof = reencryptor.reencrypt_and_prove(secret, step, rng)
            count = sum(len(parts) for _, parts in step)
            audit.reencs_proved += count
            audit.bytes_sent += proof.size_bytes
            if not reencryptor.verify_batch(self.group.g_pow(secret), step, outputs, proof):
                raise ProtocolAbort(self.gid, server.server_id, "reenc")
            audit.reencs_verified += (len(participants) - 1) * count
            batches = [cut_like(batch, parts) for batch, parts in zip(batches, outputs)]
        if next_keys[0] is not None:
            # Appendix A: the last server sets Y' = ⊥ before forwarding.
            batches = [[vec.with_y_bot() for vec in batch] for batch in batches]
        out = CiphertextBatch.from_vectors(
            self.group, (vec for batch in batches for vec in batch)
        )

        # A tampering server cannot forge the ReEnc proof, so under this
        # path tampering surfaces as an abort above; outgoing tampering
        # would be caught by the neighbours re-verifying (Algorithm 2
        # step 3b sends proofs to neighbouring groups too).
        tampered_audit = MixAudit(gid=self.gid)
        self._maybe_tamper_outgoing(out, len(vectors) // beta, next_keys[0], tampered_audit)
        if tampered_audit.tamperings:
            culprit = tampered_audit.tamperings[0][0]
            raise ProtocolAbort(self.gid, culprit, "outgoing-batch verification")

        outgoing = out.split(beta)
        for part in outgoing:
            audit.bytes_sent += part.size_bytes_total()
        return outgoing, audit

    # -- adversarial hooks -------------------------------------------------

    def _maybe_tamper_shuffle(
        self, server: AtomServer, n: int, audit: MixAudit
    ) -> bool:
        """BAD_SHUFFLE: whether ``server`` emits its shuffle with
        outputs 0 and 1 swapped instead of the proven one (the caller
        swaps in its own representation)."""
        if server.behavior is not Behavior.BAD_SHUFFLE or server.tamper_budget <= 0:
            return False
        if n < 2:
            return False
        server.tamper_budget -= 1
        audit.tamperings.append((server.server_id, "bad_shuffle"))
        return True

    def _maybe_tamper_outgoing(
        self,
        out,
        per: int,
        next_key: Optional[GroupElement],
        audit: MixAudit,
    ) -> None:
        """DROP / REPLACE / DUPLICATE one outgoing ciphertext in place.

        ``out`` is the group's outgoing :class:`CiphertextBatch`, its
        successor batches of ``per`` records back to back; the victim
        is record 0 of the first (``next_key`` is its successor's key).
        Modeled at the last-server forwarding stage, where a malicious
        member can construct well-formed substitutes: after ``Y`` is
        dropped, outgoing ciphertexts are fresh ElGamal ciphertexts
        under the (public) successor-group key.
        """
        if not per:
            return
        for position in self.participants():
            server = self.servers[position]
            if not server.is_malicious or server.tamper_budget <= 0:
                continue
            if server.behavior is Behavior.BAD_SHUFFLE:
                continue
            server.tamper_budget -= 1
            if server.behavior is Behavior.DUPLICATE_ONE:
                if per >= 2:
                    out.replace(0, bytes(out.raw(1)))
                    audit.tamperings.append((server.server_id, "duplicate"))
            else:
                # REPLACE_ONE, or DROP_ONE: dropping shrinks the batch;
                # to keep wire-format plausible the adversary
                # substitutes garbage instead of leaving a hole (a
                # literal hole is caught by counting; see §4.4 security
                # analysis).
                from repro.core.batch import encode_vector_records

                forged = self._forge_vector(out.parts_count(0), next_key)
                out.replace(0, encode_vector_records([forged]))
                kind = "replace" if server.behavior is Behavior.REPLACE_ONE else "drop"
                audit.tamperings.append((server.server_id, kind))
            return

    def _forge_vector(
        self, nparts: int, next_key: Optional[GroupElement]
    ) -> CiphertextVector:
        """A fresh, well-formed ``nparts``-part vector substituted by
        the adversary.

        The strongest attacker (paper §4.4 analysis) replaces a victim
        ciphertext with a *valid* message of his own — e.g. a fresh
        inner ciphertext encrypted to the trustees — so that the
        substitution is undetectable unless the victim was a trap.  The
        deployment installs ``forge_payload_fn`` to build such payloads;
        without it the forgery carries garbage (a weaker attacker, whose
        substitution is also caught by format checks).
        """
        import secrets as _secrets

        if self.forge_payload_fn is not None:
            payload = self.forge_payload_fn()
            chunks = self.group.encode_chunks(payload)
        else:
            chunks = [
                self.group.encode(_secrets.token_bytes(self.group.params.message_bytes))
                for _ in range(nparts)
            ]
        if len(chunks) != nparts:
            raise ValueError("forged payload does not match vector arity")
        if next_key is None:
            # Final layer: exit reads the plaintext out of `c`.
            from repro.crypto.elgamal import AtomCiphertext

            return CiphertextVector(
                tuple(
                    AtomCiphertext(R=self.group.identity, c=chunk, Y=self.group.g)
                    for chunk in chunks
                )
            )
        forged_parts = []
        for chunk in chunks:
            ct, _ = self.scheme.encrypt(next_key, chunk)
            forged_parts.append(ct)
        return CiphertextVector(tuple(forged_parts))
