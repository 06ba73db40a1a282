"""User-side message preparation (paper §3, §4.2, §4.4).

For the basic and NIZK variants a client pads its message, encrypts to
its chosen entry group's key, and attaches an ``EncProof`` per
ciphertext part (bound to the entry gid).

For the trap variant the client double-envelopes (§4.4):

1. ``cM <- EncCCA2(pkT, m) ‖ M`` under the trustees' key,
2. ``cT <- gid ‖ R ‖ T`` with a fresh 16-byte nonce,
3. both are padded to the same size, encrypted to the entry group
   (with EncProofs), and submitted *in a random order* together with
   the SHA-3 commitment of the trap payload.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core import messages as fmt
from repro.crypto.commit import commit
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement
from repro.crypto.kem import cca2_encrypt
from repro.crypto.nizk import EncProof, prove_encryption, verify_encryption
from repro.crypto.vector import CiphertextVector, encrypt_vector


@dataclass(frozen=True)
class Submission:
    """One encrypted payload plus its per-part proofs of knowledge."""

    vector: CiphertextVector
    proofs: Tuple[EncProof, ...]

    def verify(self, group: Group, public_key: GroupElement, gid: int) -> bool:
        """Run by every server of the entry group on arrival."""
        if len(self.vector.parts) != len(self.proofs):
            return False
        return all(
            verify_encryption(group, part, proof, public_key, gid)
            for part, proof in zip(self.vector.parts, self.proofs)
        )


@dataclass(frozen=True)
class TrapSubmission:
    """The trap variant's pair: two submissions in random order plus the
    trap commitment.  Which of the two is the trap is the client's
    secret (the 50% tampering-detection probability relies on it)."""

    pair: Tuple[Submission, Submission]
    trap_commitment: bytes
    gid: int

    def verify(self, group: Group, public_key: GroupElement) -> bool:
        return all(s.verify(group, public_key, self.gid) for s in self.pair)


class Client:
    """A user of the Atom network."""

    def __init__(self, group: Group, rng: Optional[DeterministicRng] = None):
        self.group = group
        self.scheme = AtomElGamal(group)
        self.rng = rng

    # -- basic / NIZK variants ------------------------------------------

    def prepare_plain(
        self,
        message: bytes,
        entry_key: GroupElement,
        gid: int,
        payload_size: int,
    ) -> Submission:
        """Pad, encrypt to the entry group, and prove plaintext knowledge."""
        payload = fmt.PayloadSpec.sized(payload_size).build_plain(message)
        return self._submit_payload(payload, entry_key, gid)

    # -- trap variant -----------------------------------------------------

    def prepare_trap_pair(
        self,
        message: bytes,
        entry_key: GroupElement,
        trustee_key: GroupElement,
        gid: int,
        payload_size: int,
        message_size: int,
    ) -> Tuple[TrapSubmission, bytes]:
        """Build the (inner, trap) pair of §4.4.

        Returns the submission and the trap payload (kept by tests to
        verify commitments; a real client keeps it private).
        """
        spec = fmt.PayloadSpec.sized(payload_size)
        padded_msg = spec.pad_message(message, message_size)
        inner = cca2_encrypt(self.group, trustee_key, padded_msg, self.rng)
        inner_payload = spec.build_inner(self.group, inner)

        nonce = (
            self.rng.randbytes(fmt.TRAP_NONCE_BYTES)
            if self.rng is not None
            else secrets.token_bytes(fmt.TRAP_NONCE_BYTES)
        )
        trap_payload = spec.build_trap(gid, nonce)

        sub_inner = self._submit_payload(inner_payload, entry_key, gid)
        sub_trap = self._submit_payload(trap_payload, entry_key, gid)

        flip = (
            self.rng.randint(0, 1)
            if self.rng is not None
            else secrets.randbelow(2)
        )
        pair = (sub_trap, sub_inner) if flip else (sub_inner, sub_trap)
        return (
            TrapSubmission(pair=pair, trap_commitment=commit(trap_payload), gid=gid),
            trap_payload,
        )

    # -- internals ----------------------------------------------------------

    def _submit_payload(
        self, payload: bytes, entry_key: GroupElement, gid: int
    ) -> Submission:
        vector, rands = encrypt_vector(self.scheme, entry_key, payload, self.rng)
        proofs = tuple(
            prove_encryption(self.group, part, r, entry_key, gid)
            for part, r in zip(vector.parts, rands)
        )
        return Submission(vector=vector, proofs=proofs)
