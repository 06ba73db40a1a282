"""Struct-of-arrays ciphertext batches: the bounded-memory data plane.

A :class:`CiphertextBatch` keeps many
:class:`~repro.crypto.vector.CiphertextVector` messages as **one
contiguous byte buffer plus an offset table** instead of a Python
object graph.  The per-record byte layout is exactly the codec's
``VECTOR`` table (:mod:`repro.net.envelopes`)::

    record := u32(part count) part*
    part   := R(element) c(element) u8(Y present) [Y(element)]

where elements are the fixed-width big-endian integers that
``element.to_bytes()`` / ``GroupBackend.element`` round-trip.  Because
the layout is byte-identical to the wire codec, a batch can be spliced
straight into a MIX_BATCH envelope body (and parsed straight out of
one) with **zero re-encoding**, and a batch snapshot written to the
checkpoint WAL is byte-identical to the object-path snapshot.

Operations the hot path needs are O(1) or O(bytes), never
O(python objects):

- :meth:`slice` / :meth:`split` — zero-copy views (memoryview over the
  parent buffer, offsets rebased), used for Algorithm 1's "Divide".
- :meth:`extend_raw` / :meth:`concat` — buffer splices, used when a
  node adopts the sender-sorted batches of a committed layer.
- :meth:`vector` / iteration — decode one record at a time, so legacy
  call sites (exit, dummy padding, blame) stream through a batch
  without ever materializing the whole object graph.

Encoding is group-independent (``element.to_bytes()`` carries its own
width); only decoding needs the bound ``group`` to validate membership
— which is why parsing a batch off the wire is a *structural* scan
(counts, flags, fixed widths) and element validation happens lazily on
first access.

This module deliberately does **not** import :mod:`repro.net.envelopes`
(which imports the client/group layers above us); the envelope codec
imports us instead.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.crypto.elgamal import AtomCiphertext
from repro.crypto.groups import GroupBackend as Group
from repro.crypto.vector import CiphertextVector

_U32 = struct.Struct(">I")

#: smallest possible record: u32 part count with zero parts
_MIN_RECORD = 4


class BatchFormatError(ValueError):
    """Malformed batch bytes (truncated record, bad flag, bad count,
    invalid group element)."""


def vector_fingerprint(vec: CiphertextVector) -> bytes:
    """Fixed-size (32-byte) identity of a vector for duplicate filters.

    The intake duplicate filter used to keep whole serialized vectors;
    hashing keeps the filter's memory O(32 bytes) per message at
    10^5-10^6 message scale.
    """
    return hashlib.sha256(vec.to_bytes()).digest()


def encode_vector_record(out: bytearray, vec: CiphertextVector) -> None:
    """Append one vector's wire record to ``out`` (no group needed:
    ``element.to_bytes()`` is the fixed-width wire encoding)."""
    out += _U32.pack(len(vec.parts))
    for part in vec.parts:
        out += part.R.to_bytes()
        out += part.c.to_bytes()
        if part.Y is None:
            out += b"\x00"
        else:
            out += b"\x01"
            out += part.Y.to_bytes()


def encode_vector_records(vectors: Sequence[CiphertextVector]) -> bytes:
    """Canonical record bytes of a vector sequence (sans count prefix)."""
    out = bytearray()
    for vec in vectors:
        encode_vector_record(out, vec)
    return bytes(out)


def _scan_record(buf, pos: int, end: int, element_bytes: int) -> int:
    """Structurally walk one record starting at ``pos``; return its end
    offset.  Validates counts/flags/bounds only — no element math."""
    if pos + 4 > end:
        raise BatchFormatError(f"truncated record header at offset {pos}")
    (nparts,) = _U32.unpack_from(buf, pos)
    pos += 4
    # Each part is at least 2 elements + 1 flag byte: a count that
    # cannot fit in the remaining bytes is rejected before looping.
    if nparts > (end - pos) // (2 * element_bytes + 1):
        raise BatchFormatError(
            f"record claims {nparts} parts but only {end - pos} bytes remain"
        )
    for _ in range(nparts):
        pos += 2 * element_bytes
        flag = buf[pos]
        pos += 1
        if flag == 1:
            pos += element_bytes
            if pos > end:
                raise BatchFormatError(f"truncated Y element at offset {pos}")
        elif flag != 0:
            raise BatchFormatError(f"bad Y-presence flag {flag} at offset {pos - 1}")
    return pos


class CiphertextBatch:
    """Many ciphertext vectors in one buffer + offset table."""

    __slots__ = ("group", "_buf", "_starts")

    def __init__(self, group: Group, buf=None, starts: Optional[List[int]] = None):
        self.group = group
        #: bytearray when owned, memoryview/bytes when a zero-copy view
        self._buf = bytearray() if buf is None else buf
        #: start offset of record i; record i ends at start of i+1 (or
        #: at the end of the buffer — views end exactly on a record)
        self._starts: List[int] = [] if starts is None else starts

    # -- construction --------------------------------------------------

    @classmethod
    def from_vectors(
        cls, group: Group, vectors: Iterable[CiphertextVector]
    ) -> "CiphertextBatch":
        batch = cls(group)
        for vec in vectors:
            batch.append(vec)
        return batch

    @classmethod
    def parse(cls, group: Group, data, pos: int = 0):
        """Parse ``u32 count || records`` starting at ``pos`` (the
        ``seq(VECTOR)`` wire layout).  Structural scan only: element
        validation is deferred to first decode.  Returns
        ``(batch, end_offset)``."""
        end = len(data)
        if pos + 4 > end:
            raise BatchFormatError(f"truncated batch count at offset {pos}")
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        if count > (end - pos) // _MIN_RECORD + 1:
            raise BatchFormatError(
                f"batch claims {count} records but only {end - pos} bytes remain"
            )
        eb = group.element_bytes
        base = pos
        starts: List[int] = []
        for _ in range(count):
            starts.append(pos - base)
            pos = _scan_record(data, pos, end, eb)
        view = memoryview(data)[base:pos]
        return cls(group, view, starts), pos

    @classmethod
    def from_bytes(cls, group: Group, data: bytes) -> "CiphertextBatch":
        batch, end = cls.parse(group, data, 0)
        if end != len(data):
            raise BatchFormatError(f"{len(data) - end} trailing bytes after batch")
        return batch

    @classmethod
    def concat(
        cls, group: Group, batches: Iterable["CiphertextBatch"]
    ) -> "CiphertextBatch":
        out = cls(group)
        for batch in batches:
            out.extend_raw(batch)
        return out

    # -- sizing ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    @property
    def nbytes(self) -> int:
        """Bytes held by the record buffer (the batch's real RSS)."""
        return len(self._buf)

    def _end(self, i: int) -> int:
        return self._starts[i + 1] if i + 1 < len(self._starts) else len(self._buf)

    # -- mutation (owned buffers only; views copy-on-write) -------------

    def _materialize(self) -> bytearray:
        if not isinstance(self._buf, bytearray):
            self._buf = bytearray(self._buf)
        return self._buf

    def append(self, vec: CiphertextVector) -> None:
        buf = self._materialize()
        self._starts.append(len(buf))
        encode_vector_record(buf, vec)

    def extend(
        self, items: Union["CiphertextBatch", Iterable[CiphertextVector]]
    ) -> None:
        if isinstance(items, CiphertextBatch):
            self.extend_raw(items)
            return
        for vec in items:
            self.append(vec)

    def extend_raw(self, other: "CiphertextBatch") -> None:
        """Splice another batch's records in without decoding."""
        buf = self._materialize()
        base = len(buf)
        self._starts.extend(base + s for s in other._starts)
        buf += other._buf

    def replace(self, i: int, record: bytes) -> None:
        """Overwrite record ``i`` with another record's bytes (the
        tampering adversary's substitution)."""
        buf = self._materialize()
        start, end = self._starts[i], self._end(i)
        buf[start:end] = record
        delta = len(record) - (end - start)
        for j in range(i + 1, len(self._starts)):
            self._starts[j] += delta

    def copy(self) -> "CiphertextBatch":
        return CiphertextBatch(self.group, bytearray(self._buf), list(self._starts))

    # -- access ----------------------------------------------------------

    def vector(self, i: int) -> CiphertextVector:
        """Decode record ``i`` (the only place element validation runs)."""
        buf = self._buf
        eb = self.group.element_bytes
        pos = self._starts[i]
        end = self._end(i)
        (nparts,) = _U32.unpack_from(buf, pos)
        pos += 4
        parts = []
        try:
            for _ in range(nparts):
                R = self.group.element(int.from_bytes(buf[pos: pos + eb], "big"))
                pos += eb
                c = self.group.element(int.from_bytes(buf[pos: pos + eb], "big"))
                pos += eb
                Y = None
                if buf[pos] == 1:
                    pos += 1
                    Y = self.group.element(
                        int.from_bytes(buf[pos: pos + eb], "big")
                    )
                    pos += eb
                else:
                    pos += 1
                parts.append(AtomCiphertext(R=R, c=c, Y=Y))
        except ValueError as exc:
            raise BatchFormatError(f"invalid element in record {i}: {exc}") from exc
        if pos != end:
            raise BatchFormatError(f"record {i} decoded to wrong length")
        return CiphertextVector(tuple(parts))

    def __iter__(self) -> Iterator[CiphertextVector]:
        for i in range(len(self._starts)):
            yield self.vector(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("batches only support contiguous slices")
            return self.slice(start, stop)
        return self.vector(index)

    def raw(self, i: int):
        """Record ``i``'s bytes, zero-copy."""
        return memoryview(self._buf)[self._starts[i]: self._end(i)]

    def raw_records(self):
        """The whole record buffer (for envelope/checkpoint splicing)."""
        return self._buf

    def parts_count(self, i: int) -> int:
        (nparts,) = _U32.unpack_from(self._buf, self._starts[i])
        return nparts

    # -- flat part access (the shape :class:`PartBuffer` shares, so a
    # mix step reads and writes either kind of buffer) -----------------

    def load(self, indices: Iterable[int]):
        """``(parts, counts)``: the decoded parts of the listed vectors
        in one flat list, and how many each vector contributed."""
        parts: List[AtomCiphertext] = []
        counts: List[int] = []
        for i in indices:
            vec = self.vector(i).parts
            parts.extend(vec)
            counts.append(len(vec))
        return parts, counts

    def store(self, parts: Sequence[AtomCiphertext], counts: Iterable[int]) -> None:
        """Append vectors: ``parts`` cut into runs of ``counts``."""
        end = 0
        for count in counts:
            self.append(CiphertextVector(tuple(parts[end: end + count])))
            end += count

    # -- zero-copy structure ops ------------------------------------------

    def slice(self, i: int, j: int) -> "CiphertextBatch":
        """Records ``[i, j)`` as a view over this buffer (no copy)."""
        starts = self._starts
        n = len(starts)
        i = max(0, min(i, n))
        j = max(i, min(j, n))
        a = starts[i] if i < n else len(self._buf)
        b = starts[j] if j < n else len(self._buf)
        view = memoryview(self._buf)[a:b]
        return CiphertextBatch(self.group, view, [s - a for s in starts[i:j]])

    def split(self, beta: int) -> List["CiphertextBatch"]:
        """Divide into ``beta`` contiguous equal views (Algorithm 1,
        step 2 — identical to ``route_batches`` on an object list)."""
        n = len(self)
        if n % beta:
            raise ValueError(f"{n} items do not divide into {beta} batches")
        per = n // beta
        return [self.slice(k * per, (k + 1) * per) for k in range(beta)]

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """``u32 count || records`` — the ``seq(VECTOR)`` layout."""
        return _U32.pack(len(self._starts)) + bytes(self._buf)

    def size_bytes_total(self) -> int:
        """Sum of ``vec.size_bytes`` over the batch, without decoding
        (the audit's bytes-sent accounting must match the object path:
        a part is 2 elements plus either Y or the 1-byte ⊥ marker)."""
        buf = self._buf
        eb = self.group.element_bytes
        total = 0
        for i in range(len(self._starts)):
            start = self._starts[i]
            end = self._end(i)
            (nparts,) = _U32.unpack_from(buf, start)
            pos = start + 4
            y_flags = 0
            for _ in range(nparts):
                pos += 2 * eb
                if buf[pos] == 1:
                    y_flags += 1
                    pos += eb
                pos += 1
            total += (end - start) - 4 - y_flags
        return total

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CiphertextBatch):
            return (
                self._starts == other._starts
                and bytes(self._buf) == bytes(other._buf)
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self):
                return False
            return bytes(self._buf) == encode_vector_records(other)
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"CiphertextBatch({self.group.params.name}, "
            f"n={len(self._starts)}, {len(self._buf)} bytes)"
        )


class PartBuffer:
    """The working buffer between the server steps of one
    ``GroupContext.mix_batch`` call: ciphertext parts at a fixed width,
    elements in the group's *uncompressed* codec::

        part := u8(Y present) R c Y        (Y zero-filled when absent)

    The first step of a call reads the wire batch (the only place a
    curve point pays its square root) and the last one writes a wire
    batch; every step in between reads one of these by vector index —
    fixed width makes a shuffle's random access an offset computation —
    and writes the next through the same ``load`` / ``store`` /
    ``parts_count`` a :class:`CiphertextBatch` offers.  Never
    serialized anywhere: ``from_uncompressed`` trusts what
    ``to_uncompressed`` wrote.
    """

    __slots__ = ("group", "_buf", "_starts")

    def __init__(self, group: Group):
        self.group = group
        self._buf = bytearray()
        #: index of vector i's first part; one trailing end marker
        self._starts: List[int] = [0]

    def __len__(self) -> int:
        return len(self._starts) - 1

    def parts_count(self, i: int) -> int:
        return self._starts[i + 1] - self._starts[i]

    def load(self, indices: Iterable[int]):
        """``(parts, counts)``, as :meth:`CiphertextBatch.load`."""
        buf = self._buf
        starts = self._starts
        element = self.group.from_uncompressed
        w = self.group.uncompressed_bytes
        size = 1 + 3 * w
        parts: List[AtomCiphertext] = []
        counts: List[int] = []
        for i in indices:
            counts.append(starts[i + 1] - starts[i])
            for pos in range(starts[i] * size + 1, starts[i + 1] * size, size):
                parts.append(
                    AtomCiphertext(
                        element(buf[pos: pos + w]),
                        element(buf[pos + w: pos + 2 * w]),
                        element(buf[pos + 2 * w: pos + 3 * w]) if buf[pos - 1] else None,
                    )
                )
        return parts, counts

    def store(self, parts: Sequence[AtomCiphertext], counts: Iterable[int]) -> None:
        """Append vectors, as :meth:`CiphertextBatch.store`."""
        buf = self._buf
        raw = self.group.to_uncompressed
        no_y = bytes(self.group.uncompressed_bytes)
        for part in parts:
            if part.Y is None:
                buf += b"\x00" + raw(part.R) + raw(part.c) + no_y
            else:
                buf += b"\x01" + raw(part.R) + raw(part.c) + raw(part.Y)
        end = self._starts[-1]
        for count in counts:
            end += count
            self._starts.append(end)
