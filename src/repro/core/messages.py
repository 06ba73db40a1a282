"""Wire formats for Atom messages (paper §4.4).

Every plaintext routed through the mix network is a fixed-size, tagged
payload so that traps and real messages are indistinguishable until the
tag is read at the exit:

- real (trap-variant inner): ``M`` tag + serialized IND-CCA2 ciphertext
  (``R || tag || body``) of the length-prefixed, padded user message
- trap: ``T`` tag + 4-byte entry gid + 16-byte nonce
- plain (basic/NIZK variants): ``P`` tag + user message
- dummy: ``D`` tag + 12-byte nonce

Each is length-prefixed with a big-endian u16 and zero-padded to the
same ``payload_size`` before entering the network (DESIGN.md, "Payload
layout and ciphertext expansion").  ``payload_size`` is a deployment
constant derived from the application message size, and
:class:`PayloadSpec` — the object every deployment already carries —
is the codec: builders are methods that close over the spec's sizing,
parsers and predicates are static (they read sizes out of the payload
itself).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.groups import GroupBackend as Group
from repro.crypto.kem import Cca2Ciphertext, cca2_size

TAG_MESSAGE = b"M"
TAG_TRAP = b"T"
TAG_PLAIN = b"P"
#: dummy cover messages (§3: the butterfly analysis needs a constant
#: fraction of dummies; uneven entry loads are padded with them too)
TAG_DUMMY = b"D"

#: every padded field starts with a big-endian u16 byte count
LENGTH_BYTES = 2
MAX_PAYLOAD_BYTES = 0xFFFF

TRAP_NONCE_BYTES = 16
#: nonce of a cover dummy (``TAG_DUMMY`` + nonce must fit any payload)
DUMMY_NONCE_BYTES = 12


class MessageFormatError(ValueError):
    """Raised on malformed payloads (bad tag, bad length, bad padding)."""


# -- sizing helpers (free on purpose: they *derive* a spec) -------------------


def inner_payload_size(group: Group, message_size: int) -> int:
    """Payload bytes needed to carry an inner ciphertext of a
    ``message_size``-byte application message (plus tag and padding
    header)."""
    return LENGTH_BYTES + 1 + cca2_size(group, LENGTH_BYTES + message_size)


def plain_payload_size(message_size: int) -> int:
    """Payload bytes for a tagged ``message_size``-byte message — never
    less than a cover dummy needs, so padding a round cannot fail on
    short messages."""
    return LENGTH_BYTES + 1 + max(message_size, DUMMY_NONCE_BYTES)


@dataclass(frozen=True)
class PayloadSpec:
    """Sizing decisions *and* the payload codec for one deployment.

    Builders pad to this spec's ``payload_size``; parsers and
    predicates are static because a fixed-size payload already carries
    everything needed to read it back.
    """

    payload_size: int
    elements_per_message: int

    @classmethod
    def sized(cls, payload_size: int) -> "PayloadSpec":
        """A codec-only spec for callers that know the payload size but
        not the deployment (``elements_per_message`` is left 0 — sizing
        a ciphertext vector needs :meth:`for_deployment`)."""
        return cls(payload_size=payload_size, elements_per_message=0)

    @classmethod
    def for_deployment(
        cls, group: Group, message_size: int, trap_variant: bool
    ) -> "PayloadSpec":
        size = (
            max(inner_payload_size(group, message_size), plain_payload_size(message_size))
            if trap_variant
            else plain_payload_size(message_size)
        )
        if size > MAX_PAYLOAD_BYTES:
            raise MessageFormatError(
                f"a {message_size}-byte message needs a {size}-byte payload; "
                f"the u16 length prefix carries at most {MAX_PAYLOAD_BYTES}"
            )
        return cls(
            payload_size=size,
            elements_per_message=group.elements_for_size(size),
        )

    # -- padding -------------------------------------------------------

    def pad(self, payload: bytes, size: int = 0) -> bytes:
        """Length-prefix and zero-pad ``payload`` to exactly ``size``
        bytes (default: this spec's ``payload_size``)."""
        size = size or self.payload_size
        if len(payload) + LENGTH_BYTES > size or size > MAX_PAYLOAD_BYTES:
            raise MessageFormatError(
                f"payload of {len(payload)} bytes does not fit in {size} bytes"
            )
        return len(payload).to_bytes(LENGTH_BYTES, "big") + payload.ljust(
            size - LENGTH_BYTES, b"\x00"
        )

    def pad_message(self, message: bytes, message_size: int) -> bytes:
        """The plaintext of an inner ciphertext: ``message`` padded to
        the deployment's ``message_size``."""
        return self.pad(message, LENGTH_BYTES + message_size)

    @staticmethod
    def unpad(padded: bytes) -> bytes:
        """Invert :meth:`pad`."""
        if len(padded) < LENGTH_BYTES:
            raise MessageFormatError("padded payload too short")
        end = LENGTH_BYTES + int.from_bytes(padded[:LENGTH_BYTES], "big")
        if end > len(padded):
            raise MessageFormatError("declared length exceeds payload")
        return padded[LENGTH_BYTES:end]

    # -- plain payloads (basic / NIZK variants) -------------------------

    def build_plain(self, message: bytes) -> bytes:
        """User message for the basic and NIZK variants."""
        return self.pad(TAG_PLAIN + message)

    @staticmethod
    def parse_plain(payload: bytes) -> bytes:
        body = PayloadSpec.unpad(payload)
        if not body.startswith(TAG_PLAIN):
            raise MessageFormatError("not a plain payload")
        return body[len(TAG_PLAIN):]

    def build_dummy(self, nonce: bytes) -> bytes:
        """A cover message: indistinguishable in size, discarded at exit."""
        return self.pad(TAG_DUMMY + nonce)

    @staticmethod
    def is_dummy(payload: bytes) -> bool:
        try:
            return PayloadSpec.unpad(payload).startswith(TAG_DUMMY)
        except MessageFormatError:
            return False

    # -- trap payloads ---------------------------------------------------

    def build_trap(self, gid: int, nonce: bytes) -> bytes:
        """``cT = gid‖R‖T`` (tag first in our byte layout)."""
        if len(nonce) != TRAP_NONCE_BYTES:
            raise MessageFormatError("trap nonce must be 16 bytes")
        return self.pad(TAG_TRAP + struct.pack(">I", gid) + nonce)

    @staticmethod
    def parse_trap(payload: bytes) -> Tuple[int, bytes]:
        """Return (gid, nonce) or raise :class:`MessageFormatError`."""
        body = PayloadSpec.unpad(payload)
        if not body.startswith(TAG_TRAP):
            raise MessageFormatError("not a trap payload")
        body = body[len(TAG_TRAP):]
        if len(body) != 4 + TRAP_NONCE_BYTES:
            raise MessageFormatError("bad trap body length")
        (gid,) = struct.unpack(">I", body[:4])
        return gid, body[4:]

    @staticmethod
    def is_trap(payload: bytes) -> bool:
        try:
            PayloadSpec.parse_trap(payload)
            return True
        except MessageFormatError:
            return False

    # -- inner-ciphertext payloads (trap variant) ------------------------

    @staticmethod
    def cca2_from_bytes(group: Group, raw: bytes) -> Cca2Ciphertext:
        """Parse ``R || tag || body`` back into a ciphertext."""
        try:
            return Cca2Ciphertext.from_bytes(group, raw)
        except ValueError as exc:
            raise MessageFormatError(f"bad inner ciphertext: {exc}") from exc

    def build_inner(self, group: Group, ciphertext: Cca2Ciphertext) -> bytes:
        """``cM = EncCCA2(pkT, m)‖M``."""
        return self.pad(TAG_MESSAGE + ciphertext.to_bytes())

    @staticmethod
    def parse_inner(group: Group, payload: bytes) -> Cca2Ciphertext:
        body = PayloadSpec.unpad(payload)
        if not body.startswith(TAG_MESSAGE):
            raise MessageFormatError("not an inner-ciphertext payload")
        return PayloadSpec.cca2_from_bytes(group, body[len(TAG_MESSAGE):])

    @staticmethod
    def is_inner(payload: bytes) -> bool:
        try:
            body = PayloadSpec.unpad(payload)
        except MessageFormatError:
            return False
        return body.startswith(TAG_MESSAGE)
