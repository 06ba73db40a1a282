"""The store interface the protocol journals through.

:class:`Store` is the injection point: :class:`~repro.net.nodes.ServerNode`,
the :class:`~repro.net.coordinator.Coordinator`, and the
:class:`~repro.core.pipeline.StreamEngine` call its hooks at every
durability-relevant event.  The base class is a complete no-op — the
default for every deployment without a ``state_dir``, so the existing
in-memory paths pay nothing (the one hot-path hook, ``layer_commit``,
is additionally gated on ``store.enabled`` so the no-op case does not
even build its snapshot argument).

:class:`DurableStore` appends the events to a segmented
:class:`~repro.store.segments.LogDir` under the deployment's state
directory (``wal-*.seg`` + manifest).  ``replaying`` suppresses journaling
while :class:`~repro.store.recovery.RecoveryManager` re-executes
logged events, so recovery never duplicates records (and a crash
*during* recovery leaves the log byte-identical — recovery is
idempotent).

Disk stays bounded: at every round boundary (round settle / round end
— the durable points whose records make earlier history dead) the
store applies :func:`repro.store.compact.enforce_retention`, the rule
the fleet intake journal shares.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.crypto.groups import GroupBackend as Group
from repro.store import checkpoint as ck
from repro.store.compact import enforce_retention
from repro.store.segments import DEFAULT_SEGMENT_BYTES, LogDir
from repro.store.wal import NO_ROUND, RecordType


class StreamNotBegun(RuntimeError):
    """A durable round was set up before its stream's STREAM_BEGIN.

    Recovery resumes only streams, and compaction settles a round only
    by its ROUND_DONE, so such a log could be neither resumed nor
    compacted: each round boundary would re-read its whole sealed
    backlog and drop nothing."""


class Store:
    """No-op store: the in-memory default."""

    #: hot-path guard: callers may skip building snapshot arguments
    enabled = False
    #: True while RecoveryManager replays the log through this store
    replaying = False

    # -- journaling hooks (all no-ops here) ---------------------------

    def envelope_accepted(self, env, group: Group) -> None:
        """A node accepted an intake envelope (SUBMIT_OK reply)."""

    def round_setup(self, round_id: int, rng, fresh: bool) -> None:
        """``AtomDeployment.start_round`` is about to draw from ``rng``."""

    def mixing_begin(self, round_id: int, rng) -> None:
        """The round's first mixing layer is about to draw sub-seeds."""

    def layer_commit(self, round_id, layer, rng, audits, holdings) -> None:
        """A mixing layer committed on every node."""

    def round_end(self, round_id: int, ok: bool) -> None:
        """The round ran its exit protocol (or aborted unrecovered)."""

    def stream_begin(self, stream, schedule_spec: str) -> None:
        """A StreamEngine run is starting."""

    def honest_intake(self, round_id: int, gid: int, message: bytes) -> None:
        """One honest stream-intake unit (replayable by message)."""

    def round_settled(self, stats, rng) -> None:
        """A stream round settled (ok or not); next round's intake is
        drained, making this the between-rounds resume point."""

    # -- lifecycle ----------------------------------------------------

    def mark_resume(self) -> None:
        """Recovery finished replaying; the run continues from here."""

    def mark_clean(self) -> None:
        """Clean shutdown: the next start must not replay."""

    def flush(self) -> None:
        """Push pending records to stable storage."""

    def close(self) -> None:
        """Release the underlying file (idempotent)."""


class NullStore(Store):
    """Alias of the no-op base, for explicitness at call sites."""


class DurableStore(Store):
    """Segmented-log-backed store rooted at a state directory."""

    enabled = True

    def __init__(
        self,
        state_dir: Union[str, Path],
        group: Group,
        config=None,
        fresh: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        segment_records: int = 0,
        retain_segments: int = 4,
    ):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.group = group
        self.retain_segments = max(0, retain_segments)
        self.replaying = False
        self._closed = False
        # a reopened log (recovery) already holds its STREAM_BEGIN
        self._stream_begun = not fresh
        if fresh:
            # Never destroy a resumable log: re-running with a crashed
            # run's --state-dir (the natural retry, instead of
            # `repro resume`) rotates the old layout aside (into
            # wal-bak/) rather than truncating the only copy of the
            # journaled state.
            LogDir.rotate_aside(self.state_dir)
        self.wal = LogDir(
            self.state_dir,
            fresh=fresh,
            segment_bytes=segment_bytes,
            segment_records=segment_records,
        )
        if fresh and config is not None:
            self._journal(RecordType.META, NO_ROUND, ck.META, config)

    def _append(
        self, rtype: RecordType, payload: bytes, round_id: int = NO_ROUND
    ) -> None:
        if not self.replaying and not self._closed:
            self.wal.append(rtype, payload, round_id)

    def _journal(self, rtype: RecordType, round_id: int, table, record) -> None:
        """Append ``record`` as a ``table`` body (nothing is encoded
        while replaying)."""
        if not self.replaying and not self._closed:
            self.wal.append(rtype, table.encode(record, self.group), round_id)

    def _round_boundary(self) -> None:
        # never during replay: recovery must leave the log byte-identical
        if not self.replaying and not self._closed:
            enforce_retention(self.wal, self.retain_segments)

    # -- journaling hooks ---------------------------------------------

    def envelope_accepted(self, env, group: Group) -> None:
        if not self.replaying:
            self._append(RecordType.ENVELOPE, env.to_bytes(group), env.round_id)

    def round_setup(self, round_id: int, rng, fresh: bool) -> None:
        if not self._stream_begun:
            raise StreamNotBegun(
                f"round {round_id} set up before STREAM_BEGIN: a durable "
                "deployment runs only inside a StreamEngine"
            )
        mark = ck.RngMark(round_id, fresh, *ck.rng_state(rng))
        self._journal(RecordType.ROUND_SETUP, round_id, ck.RNG_MARK, mark)

    def mixing_begin(self, round_id: int, rng) -> None:
        mark = ck.RngMark(round_id, False, *ck.rng_state(rng))
        self._journal(RecordType.ROUND_BEGIN, round_id, ck.RNG_MARK, mark)

    def layer_commit(self, round_id, layer, rng, audits, holdings) -> None:
        commit = ck.LayerCommit(round_id, layer, *ck.rng_state(rng), audits)
        self._journal(RecordType.LAYER_COMMIT, round_id, ck.LAYER_COMMIT, commit)
        snap = ck.Snapshot(round_id, layer, sorted(holdings.items()))
        self._journal(RecordType.CHECKPOINT, round_id, ck.CHECKPOINT, snap)
        if not self.replaying:
            # A commit is a durability point: fsync whatever the
            # append batching, so "committed" always means "on disk".
            self.wal.sync()

    def round_end(self, round_id: int, ok: bool) -> None:
        self._journal(
            RecordType.ROUND_END, round_id, ck.ROUND_END, ck.RoundEnd(ok)
        )
        self._round_boundary()

    def stream_begin(self, stream, schedule_spec: str) -> None:
        begin = ck.StreamBegin(stream, schedule_spec)
        self._journal(RecordType.STREAM_BEGIN, NO_ROUND, ck.STREAM_BEGIN, begin)
        self._stream_begun = True

    def honest_intake(self, round_id: int, gid: int, message: bytes) -> None:
        honest = ck.Honest(gid, message)
        self._journal(RecordType.HONEST, round_id, ck.HONEST, honest)

    def round_settled(self, stats, rng) -> None:
        done = ck.RoundDone(stats, rng.counter if rng is not None else 0)
        self._journal(RecordType.ROUND_DONE, stats.round_id, ck.ROUND_DONE, done)
        if not self.replaying:
            self.wal.sync()
        self._round_boundary()

    # -- lifecycle ----------------------------------------------------

    def mark_resume(self) -> None:
        self._append(RecordType.RESUME, b"")
        if not self.replaying:
            self.wal.sync()

    def mark_clean(self) -> None:
        self._append(RecordType.CLEAN, b"")
        if not self.replaying:
            self.wal.sync()

    def flush(self) -> None:
        if not self._closed:
            self.wal.sync()

    def close(self) -> None:
        if not self._closed:
            self.wal.close()
            self._closed = True
