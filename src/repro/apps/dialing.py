"""The dialing application (paper §5).

To dial Bob, Alice encrypts her public key to Bob's public key and
sends ``(Bob's identifier, encrypted key)`` through Atom.  Exit servers
place each dialing message into mailbox ``id mod m``; Bob downloads his
mailbox, tries to decrypt each entry, and learns who is dialing him.

The paper also has one anytrust group inject Laplace-distributed
dummy dialing messages per mailbox, as in Vuvuzela [72], to hide how
many calls a user receives.  That noise is not implemented here (see
DESIGN.md, "Applications and baselines").

The simple 80-byte wire format of the paper's prototype:
recipient id (8 bytes) ‖ ephemeral public key + AEAD box (72 bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.crypto.aead import aead_decrypt, aead_encrypt
from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, GroupBackend as Group
from repro.crypto.kem import _kdf


@dataclass(frozen=True)
class DialRequest:
    """One dialing message: recipient id plus the sealed sender key."""

    recipient_id: int
    sealed: bytes  # encapsulation || AEAD box

    def to_bytes(self) -> bytes:
        return struct.pack(">Q", self.recipient_id) + self.sealed

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DialRequest":
        if len(raw) < 8:
            raise ValueError("dial message too short")
        (rid,) = struct.unpack(">Q", raw[:8])
        return cls(recipient_id=rid, sealed=raw[8:])


@dataclass
class Mailbox:
    """One of the m dialing mailboxes at the exit."""

    index: int
    entries: List[bytes] = field(default_factory=list)


def seal_dial(
    group: Group,
    sender_public_bytes: bytes,
    recipient_key: "ElGamalKeyPair",
    rng: Optional[DeterministicRng] = None,
) -> bytes:
    """ECIES-style sealing of the sender's public key to the recipient."""
    r = group.random_scalar(rng)
    R = group.g ** r
    key = _kdf(group, R, recipient_key.public ** r)
    nonce = rng.randbytes(16) if rng is not None else None
    box = aead_encrypt(key, sender_public_bytes, nonce)
    return R.to_bytes() + box.to_bytes()


def open_dial(group: Group, recipient_key: "ElGamalKeyPair", sealed: bytes) -> bytes:
    """Invert :func:`seal_dial` (raises if not addressed to us)."""
    from repro.crypto.aead import AeadCiphertext

    width = group.element_bytes
    R = group.element(int.from_bytes(sealed[:width], "big"))
    key = _kdf(group, R, R ** recipient_key.secret)
    return aead_decrypt(key, AeadCiphertext.from_bytes(sealed[width:]))


def fill_mailboxes(messages: Sequence[bytes], num_mailboxes: int) -> List[Mailbox]:
    """Exit-side mailbox placement: each anonymized output that parses
    as a :class:`DialRequest` lands in mailbox ``recipient_id mod m``.

    The scenario runner delivers a mixed stream's dialing share
    through it."""
    boxes = [Mailbox(i) for i in range(num_mailboxes)]
    for message in messages:
        try:
            request = DialRequest.from_bytes(message)
        except ValueError:
            continue
        boxes[request.recipient_id % num_mailboxes].entries.append(request.sealed)
    return boxes
