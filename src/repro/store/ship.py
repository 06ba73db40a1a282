"""Checkpoint shipping: package a state directory's live suffix into a
self-contained bundle a replacement process restores from.

Buddy recovery (PR 5/7) replaces a dead server by replaying its log
from the beginning of history — O(history) work that grows with every
round a stream has run.  A *bundle* is the O(state) alternative: the
compaction liveness rules (:mod:`repro.store.compact`) already define
exactly which records a restore can ever need — the latest durable
checkpoint, the unsettled rounds' intake suffix, and the O(1) run
identity — so shipping precisely those records *is* shipping
"snapshot + minimal log suffix".

Bundle format (one blob, transport-agnostic — the fleet moves it
inside a BUNDLE_INSTALL envelope, tooling can write it to a file)::

    bundle := b"ATBL" u8(version) u32(header_len) header segment_image
    header := text(kind) u32(records) text(source) u64(disk_bytes)
    segment_image := a complete WAL segment file image (magic + frames)

The header is a :mod:`repro.codec` table; version 2 carries a version-2
segment image (frames with a round slot).

Install materializes the image as ``wal-000001.seg`` plus a manifest,
i.e. a brand-new :class:`~repro.store.segments.LogDir` whose entire
history *is* the live suffix.  A restore that follows (fleet replay,
``RecoveryManager``) therefore provably never reads a pre-safe-point
segment — there is none on disk, and ``LogScan.segments_read`` lets
tests assert it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from repro.codec import TEXT, U32, U64, Table
from repro.store.compact import LivenessFn, deployment_liveness
from repro.store.segments import (
    LogDir,
    segment_name,
    write_manifest,
    write_segment_file,
)
from repro.store.wal import MAGIC as WAL_MAGIC
from repro.store.wal import WAL_VERSION, WalRecord, WriteAheadLog, encode_frame

BUNDLE_MAGIC = b"ATBL"
#: v2: the header is a codec table and the image a version-2 segment
BUNDLE_VERSION = 2

_LEN = struct.Struct(">I")


class BundleError(RuntimeError):
    """The bundle bytes are not usable (bad magic, torn image)."""


@dataclass
class Bundle:
    """A parsed bundle: header fields plus the decoded live records."""

    kind: str
    records: List[WalRecord]
    source: str
    disk_bytes: int

    def to_bytes(self) -> bytes:
        image = bytearray(WAL_MAGIC + bytes([WAL_VERSION]))
        for rec in self.records:
            image += encode_frame(rec.type, rec.payload, rec.round_id)
        header = _HEADER.encode(self)
        return (
            BUNDLE_MAGIC
            + bytes([BUNDLE_VERSION])
            + _LEN.pack(len(header))
            + header
            + bytes(image)
        )

    @staticmethod
    def from_bytes(raw: bytes) -> "Bundle":
        if len(raw) < 9 or raw[:4] != BUNDLE_MAGIC:
            raise BundleError("not a checkpoint bundle (bad magic)")
        if raw[4] != BUNDLE_VERSION:
            raise BundleError(
                f"bundle version {raw[4]}, expected {BUNDLE_VERSION}"
            )
        (hlen,) = _LEN.unpack_from(raw, 5)
        if 9 + hlen > len(raw):
            raise BundleError("torn bundle header")
        header = _HEADER.decode(raw[9: 9 + hlen])
        records = _scan_image(raw[9 + hlen:])
        count = header.pop("count")
        if len(records) != count:
            raise BundleError(
                f"bundle names {count} records but the "
                f"image holds {len(records)} (torn in transit?)"
            )
        return Bundle(records=records, **header)

    @property
    def count(self) -> int:
        return len(self.records)


#: the bundle header (decoded to a dict); the record count travels so
#: an image torn in transit is caught
_HEADER = Table(
    "bundle header", dict,
    ("kind", TEXT), ("count", U32), ("source", TEXT), ("disk_bytes", U64),
)


def _scan_image(image: bytes) -> List[WalRecord]:
    """Strict scan of an in-memory segment image: unlike the torn-tail
    tolerant file reader, a bundle image must be whole."""
    scan = WriteAheadLog.scan_bytes(image, what="bundle image")
    if scan.truncated:
        raise BundleError(f"damaged bundle image: {scan.reason}")
    return scan.records


class CheckpointShipper:
    """Builds and installs bundles for one log family (deployment by
    default; the fleet passes its own liveness policy)."""

    def __init__(
        self,
        liveness: LivenessFn = deployment_liveness,
        kind: str = "deployment",
    ):
        self.liveness = liveness
        self.kind = kind

    # -- build ---------------------------------------------------------

    def build(self, state_dir: Union[str, Path]) -> Bundle:
        """Read a (possibly dead-process) state directory and distill
        the live suffix.  The source dir is only read, never
        modified."""
        state_dir = Path(state_dir)
        if not LogDir.present(state_dir):
            raise BundleError(f"no log under {state_dir}")
        scan = LogDir.scan_dir(state_dir)
        keep = self.liveness(scan.records)
        live = [rec for rec, k in zip(scan.records, keep) if k]
        return Bundle(
            kind=self.kind,
            records=live,
            source=str(state_dir),
            disk_bytes=scan.disk_bytes,
        )

    def build_bytes(self, state_dir: Union[str, Path]) -> bytes:
        return self.build(state_dir).to_bytes()

    # -- install -------------------------------------------------------

    def install(
        self, state_dir: Union[str, Path], raw: Union[bytes, Bundle]
    ) -> Bundle:
        """Materialize a bundle as a fresh one-segment ``LogDir`` under
        ``state_dir`` (which must not already hold a log — a replacement
        process starts from an empty directory).  Returns the parsed
        bundle so the caller can sanity-check ``kind``/record count."""
        bundle = raw if isinstance(raw, Bundle) else Bundle.from_bytes(raw)
        if bundle.kind != self.kind:
            raise BundleError(
                f"bundle kind {bundle.kind!r} does not fit a "
                f"{self.kind!r} restore"
            )
        state_dir = Path(state_dir)
        state_dir.mkdir(parents=True, exist_ok=True)
        if LogDir.present(state_dir):
            raise BundleError(
                f"{state_dir} already holds a log; refusing to overwrite"
            )
        name = segment_name(1)
        write_segment_file(state_dir / name, bundle.records)
        write_manifest(state_dir, [name], next_seq=2)
        return bundle
