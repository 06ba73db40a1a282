"""IND-CCA2 hybrid encryption for Atom's inner ciphertexts (App. A).

The trap variant double-envelopes each message: the *inner* layer is an
IND-CCA2-secure hybrid scheme under the trustees' key, so that no mix
server can produce a related ciphertext (mauling is detected by the
AEAD tag).  As in the paper, it is an ElGamal key-encapsulation:

- ``Enc(X, m)``: sample ``r``; ``R = g^r``; shared secret ``k =
  H(R, X^r)``; ``(tag, body) = AEnc(k, m)``.
- ``Dec(x, (R, tag, body))``: ``k = H(R, R^x)``; ``ADec(k, tag, body)``.

The KDF hash binds ``R`` so that reusing an encapsulation under a
different ``R`` yields an unrelated key.  Because ``r`` is fresh, every
ciphertext has its own one-time key, so the AEAD runs under a fixed
nonce that never travels: the wire form is ``R || tag || body``, one
group element plus a 16-byte tag over the plaintext — the paper's
48-byte envelope on a 32-byte curve (NaCl ``box``, §5).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.aead import (
    NONCE_BYTES,
    TAG_BYTES,
    AeadCiphertext,
    aead_decrypt,
    aead_encrypt,
)
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement


#: The DEM's nonce.  A key ``H(R, X^r)`` encrypts exactly one message,
#: so no (key, nonce) pair repeats and the nonce is not serialised.
_DEM_NONCE = bytes(NONCE_BYTES)


def cca2_size(group: Group, plaintext_bytes: int) -> int:
    """Serialised size of a :class:`Cca2Ciphertext` of a
    ``plaintext_bytes``-byte message."""
    return group.element_bytes + TAG_BYTES + plaintext_bytes


@dataclass(frozen=True)
class Cca2Ciphertext:
    """Encapsulation ``R`` plus the DEM's tag and body."""

    R: GroupElement
    tag: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return self.R.to_bytes() + self.tag + self.body

    @classmethod
    def from_bytes(cls, group: Group, raw: bytes) -> "Cca2Ciphertext":
        """Parse ``R || tag || body``; ``ValueError`` if ``raw`` is too
        short or ``R`` is not a group element."""
        width = group.element_bytes
        if len(raw) < cca2_size(group, 0):
            raise ValueError("CCA2 ciphertext too short")
        R = group.element(int.from_bytes(raw[:width], "big"))
        return cls(R=R, tag=raw[width: width + TAG_BYTES], body=raw[width + TAG_BYTES:])

    @property
    def size_bytes(self) -> int:
        return len(self.R.to_bytes()) + TAG_BYTES + len(self.body)

    def __hash__(self) -> int:
        return hash(self.to_bytes())


def _kdf(group: Group, R: GroupElement, shared: GroupElement) -> bytes:
    h = hashlib.sha3_256()
    h.update(b"repro.kem.v1")
    h.update(group.params.name.encode())
    h.update(R.to_bytes())
    h.update(shared.to_bytes())
    return h.digest()


def cca2_encrypt(
    group: Group,
    public_key: GroupElement,
    message: bytes,
    rng: Optional[DeterministicRng] = None,
) -> Cca2Ciphertext:
    """Hybrid-encrypt ``message`` under ``public_key``."""
    r = group.random_scalar(rng)
    R = group.g ** r
    box = aead_encrypt(_kdf(group, R, public_key ** r), message, _DEM_NONCE)
    return Cca2Ciphertext(R=R, tag=box.tag, body=box.body)


def cca2_decrypt(group: Group, secret: int, ciphertext: Cca2Ciphertext) -> bytes:
    """Decrypt; raises :class:`repro.crypto.aead.AuthenticationError`
    if the ciphertext was tampered with."""
    key = _kdf(group, ciphertext.R, ciphertext.R ** secret)
    return aead_decrypt(
        key, AeadCiphertext(_DEM_NONCE, ciphertext.body, ciphertext.tag)
    )
