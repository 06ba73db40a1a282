"""Segmented log directories: the sharded WAL's on-disk layout.

PR 5's durability layer journaled a whole deployment into one unbounded
``atom.wal``.  A :class:`LogDir` keeps the same record framing (the
CRC-framed :mod:`repro.store.wal` format, verbatim) but rotates the
append stream across *segment files*::

    state-dir/
      wal.manifest        atomic JSON manifest (segment order + next seq)
      wal-000001.seg      sealed segment (never written again)
      wal-000002.seg      ...
      wal-000003.seg      the active segment (appends go here)

Rotation triggers on size (``segment_bytes``) or record count
(``segment_records``); the *logical* log is the concatenation of the
manifest's segments in manifest order — readers never glob the
directory, so files the manifest does not name (backups, foreign
files) and orphans from interrupted rotations are invisible to replay.

Crash-safety invariants:

- The **manifest swap is the commit point** of every layout change
  (rotation, compaction).  It is written to a temp file, fsynced, and
  ``os.replace``d over the old one, then the directory entry is
  fsynced — a crash on either side of the swap leaves a fully
  consistent layout (the old one, or the new one).
- A crash *between* creating a new segment file and swapping the
  manifest leaves an orphan ``wal-*.seg``; the next open-for-append
  garbage-collects any ``wal-*.seg`` not named by the manifest.  Only
  that glob is eligible: other files the manifest does not name, and
  backups, are never touched.
- Only the **active** (last) segment may carry a torn tail; a damaged
  record in a *sealed* segment conservatively ends the scan (replay
  must not skip holes — later records can depend on earlier ones),
  exactly like mid-file corruption in the single-file reader.

A directory holding a non-empty ``*.wal`` and no manifest is the
single-file layout of a build whose wire version no current reader
accepts: every entry point refuses it by name (:class:`LogDirError`)
rather than start a fresh log over it.

The module-level :data:`FAILPOINT` hook exists for crash testing: the
rotation/compaction code calls :func:`hit` at each named point between
filesystem operations, and tests install a hook that raises to
simulate a SIGKILL exactly there.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.store.wal import (
    FRAME_OVERHEAD,
    FSYNC_EVERY,
    MAGIC,
    NO_ROUND,
    WalError,
    WalRecord,
    WriteAheadLog,
)

MANIFEST_NAME = "wal.manifest"
SEGMENT_GLOB = "wal-*.seg"
MANIFEST_VERSION = 1
#: rotate the active segment once it exceeds this many payload bytes
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: crash-test hook: called with a point name ("rotate:sealed",
#: "compact:swapped", ...) between the filesystem steps of every
#: layout change; a test hook that raises simulates dying right there
FAILPOINT: Optional[Callable[[str], None]] = None


def hit(point: str) -> None:
    if FAILPOINT is not None:
        FAILPOINT(point)


class LogDirError(RuntimeError):
    """The segmented layout is unusable (bad manifest, missing files)."""


def segment_name(seq: int) -> str:
    return f"wal-{seq:06d}.seg"


@dataclass
class LogScan:
    """The logical log read back across segments (WalScan, widened)."""

    records: List[WalRecord] = field(default_factory=list)
    truncated: bool = False
    reason: str = ""
    #: segment file names actually read, in order — test instrumentation
    #: for "restore never read pre-safe-point segments"
    segments_read: List[str] = field(default_factory=list)
    #: (segment name, record count) per segment read, manifest order
    counts: List[Tuple[str, int]] = field(default_factory=list)
    #: total manifest-accounted bytes on disk (scratch files excluded)
    disk_bytes: int = 0

    @property
    def clean_shutdown(self) -> bool:
        from repro.store.wal import RecordType

        return bool(self.records) and self.records[-1].type == RecordType.CLEAN


def _fsync_dir(root: Path) -> None:
    fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_manifest(root: Path, segments: List[str], next_seq: int) -> None:
    """Atomically publish ``segments`` as the log under ``root`` — the
    commit point of every layout change."""
    tmp = root / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(
            {
                "version": MANIFEST_VERSION,
                "next_seq": next_seq,
                "segments": segments,
            },
            fh,
        )
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, root / MANIFEST_NAME)
    _fsync_dir(root)


def _load_manifest(root: Path) -> dict:
    path = root / MANIFEST_NAME
    try:
        obj = json.loads(path.read_text())
    except (ValueError, OSError) as exc:
        raise LogDirError(f"unreadable manifest {path}: {exc}") from exc
    if obj.get("version") != MANIFEST_VERSION:
        raise LogDirError(
            f"{path} has manifest version {obj.get('version')}, "
            f"expected {MANIFEST_VERSION}"
        )
    if not isinstance(obj.get("segments"), list) or not obj["segments"]:
        raise LogDirError(f"{path} names no segments")
    return obj


class LogDir:
    """Appender for one segmented log (single writer per directory)."""

    def __init__(
        self,
        root: Union[str, Path],
        fsync_every: int = FSYNC_EVERY,
        fresh: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_records: int = 0,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self.segment_bytes = max(0, int(segment_bytes))
        self.segment_records = max(0, int(segment_records))
        self._closed = False
        self._active: Optional[WriteAheadLog] = None
        self._active_bytes = 0
        self._active_records = 0
        # present() refuses a single-file log; a segmented layout is
        # superseded by a fresh one, unread (callers that must preserve
        # it rotate aside first), like the single-file writer's "wb".
        if LogDir.present(self.root) and not fresh:
            manifest = _load_manifest(self.root)
            self.segments: List[str] = list(manifest["segments"])
            self.next_seq = int(manifest["next_seq"])
            self._collect_orphans()
            active = self.root / self.segments[-1]
            if not active.exists():
                raise LogDirError(f"manifest names missing segment {active}")
            self._active = WriteAheadLog(
                active, fsync_every=fsync_every, fresh=False
            )
            self._active_bytes = active.stat().st_size
            self._active_records = len(WriteAheadLog.read(active).records)
        else:
            for seg in self.root.glob(SEGMENT_GLOB):
                seg.unlink()
            for stale in (MANIFEST_NAME, MANIFEST_NAME + ".tmp"):
                p = self.root / stale
                if p.exists():
                    p.unlink()
            self.segments = []
            self.next_seq = 1
            self._open_next_segment()

    # -- layout plumbing ----------------------------------------------

    def _collect_orphans(self) -> None:
        """Unlink ``wal-*.seg`` files the manifest does not name (and a
        stale manifest temp file): leftovers of a rotation/compaction
        that died before its manifest swap.  Nothing else is eligible:
        a file the manifest does not name and that glob does not match
        is never counted or collected."""
        named = set(self.segments)
        for seg in self.root.glob(SEGMENT_GLOB):
            if seg.name not in named:
                seg.unlink()
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        if tmp.exists():
            tmp.unlink()

    def _publish_manifest(self) -> None:
        write_manifest(self.root, self.segments, self.next_seq)

    def _open_next_segment(self) -> None:
        name = segment_name(self.next_seq)
        self.next_seq += 1
        wal = WriteAheadLog(
            self.root / name, fsync_every=self.fsync_every, fresh=True
        )
        wal.sync()  # the magic header is durable before the manifest names it
        hit("rotate:created")
        self.segments.append(name)
        self._publish_manifest()
        hit("rotate:swapped")
        self._active = wal
        self._active_bytes = len(MAGIC) + 1
        self._active_records = 0

    # -- append API (WriteAheadLog-compatible) -------------------------

    def append(
        self, rtype: int, payload: bytes, round_id: int = NO_ROUND
    ) -> None:
        if self._closed:
            raise LogDirError(f"log dir {self.root} is closed")
        self._active.append(rtype, payload, round_id)
        self._active_bytes += len(payload) + FRAME_OVERHEAD
        self._active_records += 1
        if self._over_threshold():
            self.rotate()

    def _over_threshold(self) -> bool:
        if self.segment_bytes and self._active_bytes >= self.segment_bytes:
            return True
        if self.segment_records and self._active_records >= self.segment_records:
            return True
        return False

    def rotate(self) -> bool:
        """Seal the active segment and open the next one (no-op when
        the active segment holds no records yet).  The new segment is
        created and fsynced *before* the manifest swap publishes it —
        a crash between the two leaves a collectable orphan, never a
        manifest naming a missing file."""
        if self._closed or self._active_records == 0:
            return False
        self._active.close()
        hit("rotate:sealed")
        self._open_next_segment()
        return True

    def sync(self) -> None:
        if not self._closed:
            self._active.sync()

    def close(self) -> None:
        if not self._closed:
            self._active.close()
            self._closed = True

    # -- introspection -------------------------------------------------

    @property
    def active_name(self) -> str:
        return self.segments[-1]

    def sealed_names(self) -> List[str]:
        return self.segments[:-1]

    def disk_bytes(self) -> int:
        """Manifest-accounted bytes (files the manifest does not name,
        orphans included, are deliberately excluded from retention
        accounting)."""
        total = 0
        for name in self.segments:
            path = self.root / name
            if path.exists():
                total += path.stat().st_size
        return total

    # -- read side -----------------------------------------------------

    @staticmethod
    def present(root: Union[str, Path]) -> bool:
        """Whether ``root`` holds a segmented log; a directory holding
        a single-file one instead is refused, whoever asks."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            return True
        for path in sorted(root.glob("*.wal")):
            if path.stat().st_size > 0:
                raise LogDirError(
                    f"{path} is a single-file log from a pre-segmented "
                    "build (wire version <= 2), which cannot be resumed; "
                    "move it away to start a fresh log here"
                )
        return False

    @staticmethod
    def scan_dir(root: Union[str, Path]) -> LogScan:
        """Read the logical log: every manifest segment in order.  Only
        the last segment tolerates a torn tail; damage anywhere else
        conservatively ends the scan."""
        root = Path(root)
        if not LogDir.present(root):
            raise LogDirError(f"no log manifest under {root}")
        manifest = _load_manifest(root)
        scan = LogScan()
        names = manifest["segments"]
        for i, name in enumerate(names):
            path = root / name
            last = i == len(names) - 1
            if not path.exists():
                scan.truncated = True
                scan.reason = f"manifest names missing segment {name}"
                break
            scan.disk_bytes += path.stat().st_size
            inner = WriteAheadLog.read(path)
            scan.segments_read.append(name)
            scan.counts.append((name, len(inner.records)))
            scan.records.extend(inner.records)
            if inner.truncated and not last:
                # a sealed segment must be whole: replay cannot skip a
                # hole, so everything after it is unreachable too
                scan.truncated = True
                scan.reason = f"{name}: {inner.reason}"
                break
            if inner.truncated:
                scan.truncated = True
                scan.reason = f"{name}: {inner.reason}"
        return scan

    # -- backup rotation (crashed-run protection) ----------------------

    @staticmethod
    def rotate_aside(root: Union[str, Path]) -> Optional[Path]:
        """Move a *resumable* log layout (segments + manifest) into a
        ``wal-bak``/``wal-bakN`` subdirectory instead of letting a
        fresh run truncate the only copy of the journaled state.  A
        layout this build cannot read (another log version, a damaged
        manifest) is moved aside too: it may be some other build's only
        copy.  Returns the backup dir (None when there was nothing
        worth keeping)."""
        root = Path(root)
        if not LogDir.present(root):
            return None
        try:
            scan = LogDir.scan_dir(root)
        except (LogDirError, WalError, OSError):
            scan = None
        if scan is not None and (not scan.records or scan.clean_shutdown):
            return None
        backup = root / "wal-bak"
        n = 1
        while backup.exists():  # never clobber an earlier backup
            backup = root / f"wal-bak{n}"
            n += 1
        backup.mkdir()
        (root / MANIFEST_NAME).replace(backup / MANIFEST_NAME)
        for seg in sorted(root.glob(SEGMENT_GLOB)):
            seg.replace(backup / seg.name)
        return backup


def write_segment_file(path: Union[str, Path], records) -> int:
    """Write a standalone segment file holding ``records`` (an iterable
    of :class:`WalRecord`), fsynced; returns the record count.  Used by
    compaction (the rewritten base segment) and bundle install."""
    wal = WriteAheadLog(path, fsync_every=0, fresh=True)
    count = 0
    for rec in records:
        wal.append(rec.type, rec.payload, rec.round_id)
        count += 1
    wal.close()  # close syncs
    return count
