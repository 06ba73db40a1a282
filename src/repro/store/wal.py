"""Append-only, CRC-framed write-ahead log.

One log file: the record framing every segment of a
:class:`~repro.store.segments.LogDir` uses.  Everything the protocol
needs to come back from a crash is appended in arrival order: accepted intake
envelopes (PR 4's versioned wire bytes, reused verbatim as the
serialization substrate), store-local records (rng marks, layer
commits, checkpoints, round boundaries), and lifecycle markers.

Frame format (version 4)::

    file   := magic record*
    magic  := b"ATWL" u8(version)
    record := u8(type) u32(round_id) u32(length) payload u32(crc32)

where the CRC covers ``type || round_id || length || payload``.  The
frame layout is version 2's (which added the round slot); versions 3
and 4 mark META and STREAM_BEGIN bodies that lost fields.  The
round slot names the round a record belongs to (:data:`NO_ROUND` for
records of none: META, STREAM_BEGIN, RESUME, CLEAN),
so compaction, liveness and replay indexing never decode a body;
bodies are :mod:`repro.codec` tables (:mod:`repro.store.checkpoint`).
:func:`encode_frame` and :func:`_frames` are the only frame writer and
parser: the appender, the reader and checkpoint bundles share them.
A log of another version is refused by name, never parsed.  The reader is
tolerant of a *torn tail*: a crash mid-append leaves a partial or
bit-damaged final record, which is detected (length overrun or CRC
mismatch) and dropped — every record before it replays normally.  A
corrupted record mid-file conservatively drops the rest of the log too
(replay must not skip over a hole: later records can depend on earlier
ones).

Durability: every append flushes the OS buffer, but the file is
fsynced only every :data:`FSYNC_EVERY` appends (``fsync_every=0``:
never, except on :meth:`sync`/:meth:`close` — for offline tools that
sync once at the end).  Commit points call :meth:`sync` explicitly, so
a committed layer is always on disk whatever the batching.
"""

from __future__ import annotations

import enum
import io
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

MAGIC = b"ATWL"
#: v2: a u32 round-id slot in every frame header; v3: META and
#: STREAM_BEGIN bodies lost a field each; v4: META lost four retired
#: knobs and its group size's presence byte, STREAM_BEGIN two flags
WAL_VERSION = 4
#: appends between batched fsyncs of a live log
FSYNC_EVERY = 8
#: the round slot of a record that belongs to no round
NO_ROUND = 0xFFFFFFFF

_FRAME_HEAD = struct.Struct(">BII")
_CRC = struct.Struct(">I")
#: bytes a frame adds to its payload
FRAME_OVERHEAD = _FRAME_HEAD.size + _CRC.size


class WalError(RuntimeError):
    """The log file cannot be used at all (bad magic, wrong version)."""


class RecordType(enum.IntEnum):
    """The record catalogue (see DESIGN.md "Durability & crash recovery")."""

    #: deployment config of the run that owns this log
    META = 1
    #: stream-level config: StreamConfig + fault schedule + seed
    STREAM_BEGIN = 2
    #: rng state at AtomDeployment.start_round entry
    ROUND_SETUP = 3
    #: rng state when a round's first mixing layer starts
    ROUND_BEGIN = 4
    #: one accepted intake envelope, verbatim wire bytes
    ENVELOPE = 5
    #: one honest (message, gid) intake unit of a stream round
    HONEST = 6
    #: a committed mixing layer: rng state + the layer's audits
    LAYER_COMMIT = 7
    #: node holdings snapshot at a committed layer
    CHECKPOINT = 8
    #: a settled stream round: RoundStats + rng state
    ROUND_DONE = 9
    #: a round ran its exit protocol
    ROUND_END = 10
    #: recovery replayed this log and the run continued after this point
    RESUME = 11
    #: clean shutdown — nothing to replay on the next start
    CLEAN = 12


@dataclass(frozen=True)
class WalRecord:
    """One framed record as read back from disk."""

    type: int  # int, not RecordType: unknown types survive a scan
    payload: bytes
    round_id: int = NO_ROUND


def encode_frame(rtype: int, payload: bytes, round_id: int = NO_ROUND) -> bytes:
    """One record's complete frame."""
    head = _FRAME_HEAD.pack(int(rtype), round_id, len(payload))
    return head + payload + _CRC.pack(zlib.crc32(payload, zlib.crc32(head)))


def _check_magic(head: bytes, what: object) -> None:
    if len(head) < len(MAGIC) + 1 or head[: len(MAGIC)] != MAGIC:
        raise WalError(f"{what} is not a write-ahead log (bad magic)")
    if head[len(MAGIC)] != WAL_VERSION:
        raise WalError(
            f"{what} has log version {head[len(MAGIC)]}, "
            f"expected {WAL_VERSION}"
        )


def _frames(
    read: Callable[[int], bytes], offset: int
) -> Iterator[Tuple[Optional[WalRecord], object]]:
    """Parse frames off ``read`` (positioned just past the magic at
    ``offset``).  Yields ``(record, end offset)`` per intact frame, then
    ``(None, reason)`` once if a damaged frame ends the log early."""
    while True:
        head = read(_FRAME_HEAD.size)
        if not head:
            return
        if len(head) < _FRAME_HEAD.size:
            yield None, f"torn frame header at offset {offset}"
            return
        rtype, round_id, length = _FRAME_HEAD.unpack(head)
        body = read(length + _CRC.size)
        if len(body) < length + _CRC.size:
            yield None, f"torn record body at offset {offset}"
            return
        payload = body[:length]
        (crc,) = _CRC.unpack_from(body, length)
        if crc != zlib.crc32(payload, zlib.crc32(head)):
            yield None, f"crc mismatch at offset {offset}"
            return
        offset += _FRAME_HEAD.size + len(body)
        yield WalRecord(rtype, payload, round_id), offset


@dataclass
class WalScan:
    """Result of reading a log: the intact prefix plus tail diagnosis."""

    records: List[WalRecord] = field(default_factory=list)
    truncated: bool = False
    reason: str = ""
    #: file offset where the intact prefix ends (== file size when not
    #: truncated); reopening for append truncates damage back to here
    end_offset: int = 0

    @property
    def clean_shutdown(self) -> bool:
        """Whether the log ends in a CLEAN marker (no replay needed)."""
        return bool(self.records) and self.records[-1].type == RecordType.CLEAN


class WriteAheadLog:
    """Appender for one log file (single writer per state directory)."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every: int = FSYNC_EVERY,
        fresh: bool = True,
    ):
        self.path = Path(path)
        self.fsync_every = max(0, fsync_every)
        self._pending = 0
        self._closed = False
        exists = self.path.exists() and self.path.stat().st_size > 0
        if fresh or not exists:
            self._fh = open(self.path, "wb")
            self._fh.write(MAGIC + bytes([WAL_VERSION]))
            self._fh.flush()
        else:
            # Appending after a torn tail would bury every new record
            # behind unreadable garbage (the reader stops at the first
            # bad frame); truncate the damage back to the intact
            # prefix first.
            scan = WriteAheadLog.read(self.path)
            if scan.truncated:
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.end_offset)
            self._fh = open(self.path, "ab")

    def append(
        self, rtype: int, payload: bytes, round_id: int = NO_ROUND
    ) -> None:
        """Frame and append one record; flushes the user-space buffer
        always, fsyncs every ``fsync_every`` appends."""
        if self._closed:
            raise WalError(f"log {self.path} is closed")
        self._fh.write(encode_frame(rtype, payload, round_id))
        self._fh.flush()
        self._pending += 1
        if self.fsync_every and self._pending >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Force the log to stable storage (commit points call this)."""
        if not self._closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._pending = 0

    def close(self) -> None:
        if not self._closed:
            self.sync()
            self._fh.close()
            self._closed = True

    # -- reading -------------------------------------------------------

    @staticmethod
    def read(path: Union[str, Path]) -> WalScan:
        """Scan a log, returning every intact record.

        Torn or bit-flipped data truncates the scan at the first bad
        frame (``truncated``/``reason`` say so); it never raises for
        tail damage, only for a file that was never a log at all.
        """
        with open(path, "rb") as fh:
            return _scan(fh, path)

    @staticmethod
    def scan_bytes(raw: bytes, what: object = "<memory>") -> WalScan:
        """Scan an in-memory log image with :meth:`read` semantics
        (checkpoint bundles carry such images over the wire)."""
        return _scan(io.BytesIO(raw), what)


def _scan(fh, what: object) -> WalScan:
    _check_magic(fh.read(len(MAGIC) + 1), what)
    scan = WalScan(end_offset=len(MAGIC) + 1)
    for rec, end in _frames(fh.read, scan.end_offset):
        if rec is None:
            scan.truncated, scan.reason = True, end
            break
        scan.records.append(rec)
        scan.end_offset = end
    return scan
