"""Log compaction: drop journal records superseded by durable round
boundaries, and rewrite sealed segments down to the live suffix.

The safe-point rule
-------------------

A record is *dead* once a later durable round boundary supersedes it.
For a deployment log the boundary is the round's fsynced ROUND_DONE —
after it, recovery never replays that round's intake, rng marks, layer
commits, or checkpoints (and a CLEAN tail settles everything).  Every
CLI run journals a stream, and ROUND_DONE is the only settlement; a
log without STREAM_BEGIN, which recovery refuses, settles nothing.
What stays live forever is deliberately tiny and O(state), not
O(history):

- META and STREAM_BEGIN (the run's identity),
- every *fresh* ROUND_SETUP mark (epoch establishment: resume re-forms
  contexts and buddy escrows from the last fresh mark at-or-before the
  resume round),
- every ROUND_DONE (resume derives "which round is next" and the
  between-rounds rng position from the settled list) and ROUND_END,
- the CLEAN marker,
- and **all** records of rounds not yet settled — including the
  pipelined next round whose intake journals before the current
  round's boundary.  Order among kept records is preserved verbatim,
  so replaying a compacted log is replaying the original.

For a fleet intake journal (REC_OPEN/REC_ENVELOPE/REC_CLOSE) the
boundary is REC_CLOSE: restart replays open rounds only, so a closed
round's records are dead in their entirety.

The mechanism
-------------

Compaction never touches the **active** segment (the appender owns
it).  It reads the sealed prefix, copies the live records into one
fresh *base* segment, atomically swaps the manifest from
``[s1..sk, active]`` to ``[base, active]``, and only then unlinks the
old sealed files.  The manifest swap is the commit point: a crash
before it leaves the old layout plus an orphan base (collected on the
next open); a crash after it leaves the new layout plus orphan old
segments (same collector).  No intermediate state loses a record.

Liveness is computed over the *whole* logical log — boundary records
in the active segment settle rounds whose bodies live in sealed
segments — but only sealed records are rewritten.  It reads each
record's round from its frame, so it cannot fail on a body.

Both online writers apply one rule at round boundaries,
:func:`enforce_retention`; below its threshold a boundary changes no
layout (a manifest swap or segment unlink frees blocks: 20–60 ms each
on ext4 mounted with ``discard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.codec import WireFormatError
from repro.store.checkpoint import RNG_MARK
from repro.store.segments import LogDir, hit, segment_name, write_segment_file
from repro.store.wal import RecordType, WalRecord, WriteAheadLog

#: fleet intake-journal record types (``repro serve`` writes them; kept
#: numerically disjoint from RecordType so either scanner survives the
#: other's records)
REC_OPEN = 21
REC_CLOSE = 22
REC_ENVELOPE = 23

LivenessFn = Callable[[Sequence[WalRecord]], List[bool]]

#: record types that die with their round
_PER_ROUND = (
    RecordType.ROUND_BEGIN, RecordType.ENVELOPE, RecordType.HONEST,
    RecordType.LAYER_COMMIT, RecordType.CHECKPOINT,
)


def _fresh_setup(rec: WalRecord) -> bool:
    """Whether a ROUND_SETUP formed fresh contexts (an epoch every
    resume may need); a body that does not decode counts as fresh, so
    it is kept."""
    try:
        return RNG_MARK.decode(rec.payload, round_id=rec.round_id).fresh
    except WireFormatError:
        return True


def deployment_liveness(records: Sequence[WalRecord]) -> List[bool]:
    """Keep-mask for a deployment log (see module docstring); reads
    frame round ids only, plus ROUND_SETUP's ``fresh`` flag."""
    # Only ROUND_DONE settles: the engine journals ROUND_END(r)
    # *before* ROUND_DONE(r), so between the two the round is still
    # live — compaction runs inside exactly that window.
    settled = {r.round_id for r in records if r.type == RecordType.ROUND_DONE}
    keep: List[bool] = []
    for rec in records:
        t = rec.type
        if t == RecordType.RESUME:
            keep.append(False)  # pure marker; replay ignores it
        elif t == RecordType.ROUND_SETUP:
            keep.append(rec.round_id not in settled or _fresh_setup(rec))
        elif t in _PER_ROUND:
            keep.append(rec.round_id not in settled)
        else:
            # META, STREAM_BEGIN, ROUND_DONE, ROUND_END, CLEAN — and
            # unknown types survive compaction
            keep.append(True)
    return keep


def fleet_liveness(records: Sequence[WalRecord]) -> List[bool]:
    """Keep-mask for a fleet intake journal: a round whose latest
    REC_OPEN was followed by REC_CLOSE is fully dead (restart replays
    open rounds only)."""
    open_rounds = set()
    for rec in records:
        if rec.type == REC_OPEN:
            open_rounds.add(rec.round_id)
        elif rec.type == REC_CLOSE:
            open_rounds.discard(rec.round_id)
    return [
        rec.round_id in open_rounds
        if rec.type in (REC_OPEN, REC_CLOSE, REC_ENVELOPE) else True
        for rec in records
    ]


@dataclass
class CompactionStats:
    """What one compaction pass did (all byte counts manifest-accounted,
    so files the manifest does not name never enter the arithmetic)."""

    examined: int = 0  # sealed records considered for rewrite
    kept: int = 0
    dropped: int = 0
    segments_removed: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def ran(self) -> bool:
        return self.segments_removed > 0


class Compactor:
    """Rewrites a :class:`LogDir`'s sealed prefix down to live records."""

    def __init__(self, liveness: LivenessFn = deployment_liveness):
        self.liveness = liveness

    def compact(self, log: LogDir) -> CompactionStats:
        """Online compaction of an open (single-writer-owned) log dir.

        The active segment is never read for rewrite and never
        replaced; with fewer than two manifest segments there is
        nothing to do."""
        before = log.disk_bytes()
        stats = CompactionStats(bytes_before=before, bytes_after=before)
        sealed = log.sealed_names()
        if not sealed:
            return stats

        sealed_records: List[WalRecord] = []
        for name in sealed:
            inner = WriteAheadLog.read(log.root / name)
            if inner.truncated:
                # a damaged sealed segment cannot be safely rewritten
                # (records past the damage are unreachable anyway)
                return stats
            sealed_records.extend(inner.records)
        active_records = WriteAheadLog.read(log.root / log.active_name).records

        keep = self.liveness(sealed_records + active_records)
        keep = keep[: len(sealed_records)]
        stats.examined = len(sealed_records)
        stats.kept = sum(keep)
        stats.dropped = stats.examined - stats.kept
        if stats.dropped == 0:
            return stats

        live = [rec for rec, k in zip(sealed_records, keep) if k]
        base = segment_name(log.next_seq)
        log.next_seq += 1
        write_segment_file(log.root / base, live)
        hit("compact:written")
        log.segments = [base, log.active_name]
        log._publish_manifest()
        hit("compact:swapped")
        for name in sealed:
            (log.root / name).unlink(missing_ok=True)
        hit("compact:cleaned")
        stats.segments_removed = len(sealed)
        stats.bytes_after = log.disk_bytes()
        return stats


def enforce_retention(
    log: LogDir, retain: int, liveness: LivenessFn = deployment_liveness
) -> Optional[CompactionStats]:
    """Compact ``log`` once its sealed backlog exceeds ``retain``
    segments (0 disables).  Call only at a round boundary of an open
    log, never during replay; returns None when not due."""
    if retain <= 0 or len(log.sealed_names()) <= retain:
        return None
    return Compactor(liveness).compact(log)


def compact_state_dir(
    root: Union[str, Path],
    liveness: LivenessFn = deployment_liveness,
) -> CompactionStats:
    """Offline compaction (CLI / tooling): open the dir for append,
    seal the current active segment, compact, and close.  Must only
    run when no server process owns the directory."""
    log = LogDir(root, fsync_every=0, fresh=False)
    try:
        log.rotate()
        return Compactor(liveness).compact(log)
    finally:
        log.close()
