"""Wire formats for Atom messages (paper §4.4).

Every plaintext routed through the mix network is a fixed-size, tagged
payload so that traps and real messages are indistinguishable until the
tag is read at the exit:

- real (trap-variant inner): ``M`` tag + serialized IND-CCA2 ciphertext
- trap: ``T`` tag + 4-byte entry gid + 16-byte nonce
- plain (basic/NIZK variants): ``P`` tag + length-prefixed user message

All payloads are padded to the same ``payload_size`` before entering
the network.  ``payload_size`` is a deployment constant derived from
the application message size, and :class:`PayloadSpec` — the object
every deployment already carries — is the codec: builders are methods
that close over the spec's sizing, parsers and predicates are static
(they read sizes out of the payload itself).

The original free functions remain as thin deprecated aliases; new
code should call the :class:`PayloadSpec` methods.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.crypto.aead import NONCE_BYTES, TAG_BYTES, AeadCiphertext
from repro.crypto.groups import GroupBackend as Group
from repro.crypto.kem import Cca2Ciphertext

TAG_MESSAGE = b"M"
TAG_TRAP = b"T"
TAG_PLAIN = b"P"
#: dummy cover messages (§3: the butterfly analysis needs a constant
#: fraction of dummies; uneven entry loads are padded with them too)
TAG_DUMMY = b"D"

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
    width = group.element_bytes
    cca2 = width + NONCE_BYTES + TAG_BYTES + (4 + message_size)  # body carries padded msg
    return 4 + 1 + cca2


def plain_payload_size(message_size: int) -> int:
    """Payload bytes for a tagged ``message_size``-byte message — never
    less than a cover dummy needs, so padding a round cannot fail on
    short messages."""
    return 4 + 1 + max(message_size, DUMMY_NONCE_BYTES)


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
        return cls(
            payload_size=size,
            elements_per_message=group.elements_for_size(size),
        )

    # -- padding -------------------------------------------------------

    def pad(self, payload: bytes, size: int = 0) -> bytes:
        """Length-prefix and zero-pad ``payload`` to exactly ``size``
        bytes (default: this spec's ``payload_size``)."""
        size = size or self.payload_size
        if len(payload) + 4 > size:
            raise MessageFormatError(
                f"payload of {len(payload)} bytes does not fit in {size} bytes"
            )
        return struct.pack(">I", len(payload)) + payload + b"\x00" * (size - 4 - len(payload))

    @staticmethod
    def unpad(padded: bytes) -> bytes:
        """Invert :meth:`pad`."""
        if len(padded) < 4:
            raise MessageFormatError("padded payload too short")
        (length,) = struct.unpack(">I", padded[:4])
        if length + 4 > len(padded):
            raise MessageFormatError("declared length exceeds payload")
        return padded[4: 4 + length]

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
    def cca2_to_bytes(group: Group, ciphertext: Cca2Ciphertext) -> bytes:
        return ciphertext.to_bytes()

    @staticmethod
    def cca2_from_bytes(group: Group, raw: bytes) -> Cca2Ciphertext:
        """Parse ``R || nonce || tag || body`` back into a ciphertext."""
        width = group.element_bytes
        if len(raw) < width + NONCE_BYTES + TAG_BYTES:
            raise MessageFormatError("CCA2 ciphertext too short")
        r_value = int.from_bytes(raw[:width], "big")
        try:
            R = group.element(r_value)
        except ValueError as exc:
            raise MessageFormatError("invalid encapsulation element") from exc
        body = AeadCiphertext.from_bytes(raw[width:])
        return Cca2Ciphertext(R=R, body=body)

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


# -- deprecated free-function aliases ----------------------------------------
#
# The pre-PayloadSpec codec surface.  Each is a thin delegation kept so
# external callers and old notebooks keep working; new code should use
# the PayloadSpec methods above.  Builders that used to take an
# explicit size construct a throwaway spec — payload sizing has no
# other state.


_spec = PayloadSpec.sized


def pad_payload(payload: bytes, size: int) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.pad`."""
    return _spec(size).pad(payload)


def unpad_payload(padded: bytes) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.unpad`."""
    return PayloadSpec.unpad(padded)


def build_plain_payload(message: bytes, payload_size: int) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.build_plain`."""
    return _spec(payload_size).build_plain(message)


def parse_plain_payload(payload: bytes) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.parse_plain`."""
    return PayloadSpec.parse_plain(payload)


def build_dummy_payload(nonce: bytes, payload_size: int) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.build_dummy`."""
    return _spec(payload_size).build_dummy(nonce)


def is_dummy_payload(payload: bytes) -> bool:
    """Deprecated alias for :meth:`PayloadSpec.is_dummy`."""
    return PayloadSpec.is_dummy(payload)


def build_trap_payload(gid: int, nonce: bytes, payload_size: int) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.build_trap`."""
    return _spec(payload_size).build_trap(gid, nonce)


def parse_trap_payload(payload: bytes) -> Tuple[int, bytes]:
    """Deprecated alias for :meth:`PayloadSpec.parse_trap`."""
    return PayloadSpec.parse_trap(payload)


def is_trap_payload(payload: bytes) -> bool:
    """Deprecated alias for :meth:`PayloadSpec.is_trap`."""
    return PayloadSpec.is_trap(payload)


def serialize_cca2(group: Group, ciphertext: Cca2Ciphertext) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.cca2_to_bytes`."""
    return ciphertext.to_bytes()


def deserialize_cca2(group: Group, raw: bytes) -> Cca2Ciphertext:
    """Deprecated alias for :meth:`PayloadSpec.cca2_from_bytes`."""
    return PayloadSpec.cca2_from_bytes(group, raw)


def build_inner_payload(group: Group, ciphertext: Cca2Ciphertext, payload_size: int) -> bytes:
    """Deprecated alias for :meth:`PayloadSpec.build_inner`."""
    return _spec(payload_size).build_inner(group, ciphertext)


def parse_inner_payload(group: Group, payload: bytes) -> Cca2Ciphertext:
    """Deprecated alias for :meth:`PayloadSpec.parse_inner`."""
    return PayloadSpec.parse_inner(group, payload)


def is_inner_payload(payload: bytes) -> bool:
    """Deprecated alias for :meth:`PayloadSpec.is_inner`."""
    return PayloadSpec.is_inner(payload)
