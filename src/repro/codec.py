"""One declarative binary codec for the wire and the journal.

Every envelope payload (:mod:`repro.net.envelopes`) and every journal
record body (:mod:`repro.store.checkpoint`) is a :class:`Table`: an
explicit tuple of ``(attribute, field type)`` pairs in wire order.  A
table is compiled once, when it is declared, into one encode step and
one decode step per field; encoding reads the attributes off an object,
decoding calls the table's constructor with keyword arguments.

Field types::

    U8 U32 I32 U64 F64    big-endian fixed width
    BOOL                  u8, 1 or 0 (any non-zero reads as True)
    SCALAR                a q-width integer of the bound group
    ELEMENT               a group element, validated on decode
    ELEMENT_VALUE         an element's raw integer (sigma commitments)
    BYTES / TEXT          u32 length || bytes (TEXT is UTF-8)
    opt(T)                u8 present || T
    seq(T, into=tuple)    u32 count || T*
    tup(T1, T2, ...)      T1 || T2 || ...  (decodes to a tuple)
    batch(label)          u32 count || records of a CiphertextBatch,
                          spliced in raw and parsed structurally
    Table                 a nested table is itself a field type

Elements and scalars take their width from the group the codec is
bound to, so the same table works on every registered backend.  Every
decode failure — truncation, an invalid element, a malformed batch,
trailing bytes — is a :class:`WireFormatError`.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple

from repro.core.batch import BatchFormatError, CiphertextBatch
from repro.crypto.groups import GroupBackend as Group


class WireFormatError(ValueError):
    """Raised on malformed, truncated, or wrong-version bytes."""


class Writer:
    """Append-only buffer bound to one group backend (or none)."""

    __slots__ = ("buf", "eb", "sb")

    def __init__(self, group: Group = None):
        self.buf = bytearray()
        if group is not None:
            self.eb = group.element_bytes
            self.sb = (group.q.bit_length() + 7) // 8


class Reader:
    """Bounds-checked cursor mirroring :class:`Writer`."""

    __slots__ = ("raw", "pos", "group", "eb", "sb")

    def __init__(self, raw, group: Group = None):
        self.raw = raw
        self.pos = 0
        self.group = group
        if group is not None:
            self.eb = group.element_bytes
            self.sb = (group.q.bit_length() + 7) // 8

    def take(self, n: int):
        pos = self.pos
        end = pos + n
        if end > len(self.raw):
            raise WireFormatError(
                f"truncated body: need {n} bytes at offset {pos}"
            )
        self.pos = end
        return self.raw[pos:end]


class Field(NamedTuple):
    """A field type: how to write one value, and how to read it back."""

    enc: Callable[[Writer, Any], None]
    dec: Callable[[Reader], Any]


def _fixed(fmt: str) -> Field:
    s = struct.Struct(fmt)
    pack, unpack_from, size = s.pack, s.unpack_from, s.size

    def enc(w, v):
        w.buf += pack(v)

    def dec(r):
        pos = r.pos
        if pos + size > len(r.raw):
            r.take(size)  # raises the truncation error
        r.pos = pos + size
        return unpack_from(r.raw, pos)[0]

    return Field(enc, dec)


U8 = _fixed(">B")
U32 = _fixed(">I")
I32 = _fixed(">i")
U64 = _fixed(">Q")
F64 = _fixed(">d")
_u32 = struct.Struct(">I").pack


def _enc_bool(w, v):
    w.buf.append(1 if v else 0)


BOOL = Field(_enc_bool, lambda r: U8.dec(r) != 0)


def _enc_scalar(w, v):
    w.buf += int(v).to_bytes(w.sb, "big")


SCALAR = Field(_enc_scalar, lambda r: int.from_bytes(r.take(r.sb), "big"))


def _enc_element_value(w, v):
    w.buf += int(v).to_bytes(w.eb, "big")


ELEMENT_VALUE = Field(
    _enc_element_value, lambda r: int.from_bytes(r.take(r.eb), "big")
)


def _enc_element(w, el):
    w.buf += int(el.value).to_bytes(w.eb, "big")


def _dec_element(r):
    value = int.from_bytes(r.take(r.eb), "big")
    try:
        return r.group.element(value)
    except ValueError as exc:
        raise WireFormatError(f"invalid element on the wire: {exc}") from exc


ELEMENT = Field(_enc_element, _dec_element)


def _enc_bytes(w, v):
    w.buf += _u32(len(v))
    w.buf += v


BYTES = Field(_enc_bytes, lambda r: r.take(U32.dec(r)))


def _dec_text(r):
    try:
        return BYTES.dec(r).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"invalid text on the wire: {exc}") from exc


TEXT = Field(lambda w, v: _enc_bytes(w, v.encode("utf-8")), _dec_text)


def opt(t: Field) -> Field:
    enc, dec = t.enc, t.dec

    def enc_opt(w, v):
        if v is None:
            w.buf.append(0)
        else:
            w.buf.append(1)
            enc(w, v)

    return Field(enc_opt, lambda r: dec(r) if U8.dec(r) else None)


def seq(t: Field, into: Callable = tuple) -> Field:
    enc, dec = t.enc, t.dec

    def enc_seq(w, items):
        w.buf += _u32(len(items))
        for item in items:
            enc(w, item)

    return Field(enc_seq, lambda r: into([dec(r) for _ in range(U32.dec(r))]))


def tup(*types: Field) -> Field:
    encs = tuple(t.enc for t in types)
    decs = tuple(t.dec for t in types)

    def enc_tup(w, values):
        for enc, v in zip(encs, values):
            enc(w, v)

    return Field(enc_tup, lambda r: tuple([dec(r) for dec in decs]))


def batch(label: str) -> Field:
    """A :class:`CiphertextBatch`: its records are copied in as they
    are, and read back by a structural scan, so element validation
    waits for the first decode."""

    def enc_batch(w, b):
        w.buf += _u32(len(b))
        w.buf += b.raw_records()

    def dec_batch(r):
        try:
            b, r.pos = CiphertextBatch.parse(r.group, r.raw, r.pos)
        except BatchFormatError as exc:
            raise WireFormatError(f"malformed {label}: {exc}") from exc
        return b

    return Field(enc_batch, dec_batch)


class Table:
    """A record layout: ``(attribute, field type)`` pairs in wire order.

    ``build`` is called with the decoded fields as keyword arguments
    (plus any ``extra`` given to :meth:`decode`, such as a journal
    frame's round id); ``name`` labels decode errors.  A table is a
    field type too, so tables nest."""

    def __init__(self, name: str, build: Callable, *fields):
        self.name = name
        encs = tuple((attr, t.enc) for attr, t in fields)
        decs = tuple((attr, t.dec) for attr, t in fields)

        def enc(w, obj):
            for attr, enc_field in encs:
                enc_field(w, getattr(obj, attr))

        def dec(r, **extra):
            values = {attr: dec_field(r) for attr, dec_field in decs}
            return build(**values, **extra)

        self.enc, self.dec = enc, dec

    def encode(self, obj, group: Group = None) -> bytes:
        w = Writer(group)
        self.enc(w, obj)
        return bytes(w.buf)

    def decode(self, raw, group: Group = None, **extra):
        r = Reader(raw, group)
        obj = self.dec(r, **extra)
        if r.pos != len(raw):
            raise WireFormatError(
                f"{len(raw) - r.pos} trailing bytes after {self.name} payload"
            )
        return obj
