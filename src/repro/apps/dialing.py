"""The dialing application (paper §5).

To dial Bob, Alice encrypts her public key to Bob's public key and
sends ``(Bob's identifier, encrypted key)`` through Atom.  Exit servers
place each dialing message into mailbox ``id mod m``; Bob downloads his
mailbox, tries to decrypt each entry, and learns who is dialing him.

To hide how many calls a user receives, one anytrust group injects
dummy dialing messages per mailbox, with counts drawn from a Laplace
mechanism as in Vuvuzela [72] — implemented here exactly as the paper
prescribes (µ = 13,000 per server in the §6.2 configuration).

The simple 80-byte wire format of the paper's prototype:
recipient id (8 bytes) ‖ ephemeral public key + AEAD box (72 bytes).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.aead import aead_decrypt, aead_encrypt
from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
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
    scheme = AtomElGamal(group)
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


def laplace_noise_count(mu: float, scale: float, rng: DeterministicRng) -> int:
    """Non-negative dummy count ~ max(0, round(Laplace(mu, scale))).

    Inverse-CDF sampling from the deterministic RNG (Vuvuzela's noise
    mechanism [72]; the paper uses the same approach, §5)."""
    u = rng.randint(0, 2 ** 32 - 1) / 2 ** 32 - 0.5
    sample = mu - scale * math.copysign(1.0, u) * math.log(1 - 2 * abs(u) + 1e-12)
    return max(0, round(sample))


class DialingService:
    """Dialing's two ends: callers build requests (plus the anytrust
    group's dummies), recipients read their mailbox.  The round in
    between is a stream's; fill :attr:`mailboxes` from its delivered
    messages with :func:`fill_mailboxes`."""

    def __init__(
        self,
        group: Group,
        num_mailboxes: int = 8,
        dummy_mu: float = 0.0,
        dummy_scale: float = 1.0,
    ):
        self.group = group
        self.num_mailboxes = num_mailboxes
        self.dummy_mu = dummy_mu
        self.dummy_scale = dummy_scale
        self.mailboxes: Dict[int, List[Mailbox]] = {}

    # -- client side -------------------------------------------------------

    def make_request(
        self,
        sender_public_bytes: bytes,
        recipient_id: int,
        recipient_key: "ElGamalKeyPair",
        rng: Optional[DeterministicRng] = None,
    ) -> DialRequest:
        sealed = seal_dial(self.group, sender_public_bytes, recipient_key, rng)
        return DialRequest(recipient_id=recipient_id, sealed=sealed)

    def dummy_requests(self, round_id: int) -> List[DialRequest]:
        """Anytrust-generated dummies, Laplace-distributed per mailbox."""
        if self.dummy_mu <= 0:
            return []
        rng = DeterministicRng(b"dialing-dummies|%d" % round_id)
        dummies = []
        for mailbox in range(self.num_mailboxes):
            count = laplace_noise_count(self.dummy_mu, self.dummy_scale, rng)
            for i in range(count):
                filler = rng.randbytes(40)
                dummies.append(
                    DialRequest(recipient_id=mailbox, sealed=b"\x00" + filler)
                )
        return dummies

    # -- recipient side -------------------------------------------------------------

    def download(self, round_id: int, recipient_id: int) -> List[bytes]:
        """Bob downloads the full contents of his mailbox."""
        boxes = self.mailboxes.get(round_id)
        if boxes is None:
            raise KeyError(f"no mailboxes for round {round_id}")
        return list(boxes[recipient_id % self.num_mailboxes].entries)

    def receive(
        self, round_id: int, recipient_id: int, recipient_key: "ElGamalKeyPair"
    ) -> List[bytes]:
        """Open everything in the mailbox addressed to this key."""
        opened = []
        for sealed in self.download(round_id, recipient_id):
            try:
                opened.append(open_dial(self.group, recipient_key, sealed))
            except Exception:
                continue  # dummy or someone else's call
        return opened
