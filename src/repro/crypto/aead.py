"""Authenticated symmetric encryption (stand-in for NaCl, paper §5).

The paper uses NaCl's secretbox for the authenticated symmetric layer
of the IND-CCA2 inner-ciphertext scheme.  With no external dependencies
available we build an encrypt-then-MAC AEAD from hashlib primitives:

- keystream: SHA3-256 in counter mode, keyed by ``enc_key || nonce``;
- tag: HMAC-SHA256 over ``nonce || ciphertext`` with an independent
  key, truncated to 128 bits — the strength of secretbox's Poly1305
  tag, and 16 bytes less on every inner ciphertext.

Key separation uses domain-tagged SHA3 derivations from the 32-byte
master key.  This offers the properties the protocol relies on:
confidentiality plus ciphertext integrity (attempted tampering is
detected, which is what makes the outer scheme non-malleable).

:class:`AeadCiphertext` serialises as ``nonce || tag || body`` for
callers whose keys are long-lived (``apps/dialing.py``).  The KEM
(:mod:`repro.crypto.kem`) derives a fresh key per ciphertext, runs
under a fixed nonce and ships only ``tag || body``.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

TAG_BYTES = 16
NONCE_BYTES = 16
KEY_BYTES = 32


class AuthenticationError(ValueError):
    """Raised when an AEAD tag does not verify (tampered ciphertext)."""


def _derive(master_key: bytes, label: bytes) -> bytes:
    return hashlib.sha3_256(b"repro.aead.v1|" + label + b"|" + master_key).digest()


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for counter in range((length + 31) // 32):
        h = hashlib.sha3_256()
        h.update(enc_key)
        h.update(nonce)
        h.update(counter.to_bytes(8, "big"))
        blocks.append(h.digest())
    return b"".join(blocks)[:length]


def _tag(mac_key: bytes, nonce: bytes, body: bytes) -> bytes:
    return hmac.new(mac_key, nonce + body, hashlib.sha256).digest()[:TAG_BYTES]


@dataclass(frozen=True)
class AeadCiphertext:
    """Nonce, body, and authentication tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.tag + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "AeadCiphertext":
        if len(raw) < NONCE_BYTES + TAG_BYTES:
            raise ValueError("AEAD ciphertext too short")
        return cls(
            nonce=raw[:NONCE_BYTES],
            tag=raw[NONCE_BYTES: NONCE_BYTES + TAG_BYTES],
            body=raw[NONCE_BYTES + TAG_BYTES:],
        )

    @property
    def size_bytes(self) -> int:
        return NONCE_BYTES + TAG_BYTES + len(self.body)


def aead_encrypt(key: bytes, plaintext: bytes, nonce: bytes = None) -> AeadCiphertext:
    """Encrypt-then-MAC; ``key`` must be 32 bytes."""
    if len(key) != KEY_BYTES:
        raise ValueError("AEAD key must be 32 bytes")
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_BYTES)
    if len(nonce) != NONCE_BYTES:
        raise ValueError("nonce must be 16 bytes")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    body = bytes(
        p ^ k for p, k in zip(plaintext, _keystream(enc_key, nonce, len(plaintext)))
    )
    return AeadCiphertext(nonce=nonce, body=body, tag=_tag(mac_key, nonce, body))


def aead_decrypt(key: bytes, ciphertext: AeadCiphertext) -> bytes:
    """Verify the tag (constant-time) and decrypt; raises on tampering."""
    if len(key) != KEY_BYTES:
        raise ValueError("AEAD key must be 32 bytes")
    enc_key = _derive(key, b"enc")
    mac_key = _derive(key, b"mac")
    expected = _tag(mac_key, ciphertext.nonce, ciphertext.body)
    if not hmac.compare_digest(expected, ciphertext.tag):
        raise AuthenticationError("AEAD tag mismatch")
    return bytes(
        c ^ k
        for c, k in zip(
            ciphertext.body,
            _keystream(enc_key, ciphertext.nonce, len(ciphertext.body)),
        )
    )
