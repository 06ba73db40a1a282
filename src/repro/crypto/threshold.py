"""Threshold ElGamal over DVSS shares (paper §4.5).

A many-trust group of ``k`` servers holds a DVSS-generated key where
any ``t = k - (h - 1)`` members can jointly decrypt.  Two operations
are needed:

- **Share-weighted out-of-order ReEnc** for the mixing pipeline: each
  participating server uses its *Lagrange-weighted* share as the secret
  in :meth:`repro.crypto.elgamal.AtomElGamal.reencrypt`; summed over
  any qualifying subset the weights reconstruct the group secret, so
  after all participants have run ReEnc the group's layer is fully
  peeled — exactly as with plain anytrust keys, but tolerant of
  ``h - 1`` absent members.

- **Key reconstruction** (used by the trustees in the trap variant:
  "release decryption key" amounts to publishing shares, from which
  anyone reconstructs the secret and finishes decryption).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.crypto.groups import GroupBackend as Group
from repro.crypto.secret_sharing import (
    DvssResult,
    Share,
    lagrange_coefficient,
    shamir_reconstruct,
)


class ThresholdElGamal:
    """Threshold operations for one many-trust group key."""

    def __init__(self, group: Group, dvss: DvssResult):
        self.group = group
        self.dvss = dvss
        self.threshold = dvss.threshold
        self.public_key = dvss.group_public

    # -- participation sets ---------------------------------------------

    def weighted_secret(self, member: int, participants: Sequence[int]) -> int:
        """Member's Lagrange-weighted share for this participant set.

        ``participants`` are 0-based member ids; evaluation points are
        ``id + 1``.  The weighted secrets of all participants sum to the
        group secret mod q.
        """
        if member not in participants:
            raise ValueError("member not in the participant set")
        if len(participants) < self.threshold:
            raise ValueError(
                f"need >= {self.threshold} participants, got {len(participants)}"
            )
        xs = [p + 1 for p in participants]
        j = participants.index(member)
        lam = lagrange_coefficient(self.group.q, xs, j)
        return lam * self.dvss.shares[member].value % self.group.q

    # -- key release (trap variant, trustees) ------------------------------

    def reconstruct_secret(self, released: Dict[int, int]) -> int:
        """Reconstruct the group secret from released raw shares.

        ``released`` maps 0-based member ids to their share values, as
        published by trustees when all trap checks pass.
        """
        shares = [Share(member + 1, value) for member, value in sorted(released.items())]
        if len(shares) < self.threshold:
            raise ValueError("not enough released shares")
        return shamir_reconstruct(self.group, shares[: self.threshold])
